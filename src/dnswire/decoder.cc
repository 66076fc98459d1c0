#include "dnswire/decoder.h"

#include "dnswire/view.h"

namespace dnslocate::dnswire {

std::string DecodeError::to_string() const {
  static constexpr std::string_view names[] = {"truncated",     "bad_pointer",
                                               "bad_label",     "name_too_long",
                                               "bad_rdata",     "trailing_bytes"};
  std::string out{names[static_cast<std::size_t>(code)]};
  out += " at offset " + std::to_string(offset);
  if (!context.empty()) out += " (" + context + ")";
  return out;
}

std::optional<Message> decode_message(std::span<const std::uint8_t> wire, DecodeError* error,
                                      DecodeOptions options) {
  std::optional<MessageView> view = decode_view(wire, error, options);
  if (!view) return std::nullopt;
  return view->to_message(error);
}

}  // namespace dnslocate::dnswire
