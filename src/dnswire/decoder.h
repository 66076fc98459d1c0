// Wire-format decoding with full bounds checking and compression-pointer
// loop protection. Malformed input never throws; it yields a DecodeError.
//
// There is one parser. decode_message is decode_view (view.h), whose walk is
// the only structural validator, followed by MessageView::to_message, which
// applies the typed RDATA checks while it materializes each record.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "dnswire/message.h"

namespace dnslocate::dnswire {

/// Why a decode failed, and where.
struct DecodeError {
  enum class Code {
    truncated,        // ran off the end of the buffer
    bad_pointer,      // compression pointer forward/out-of-range/looping
    bad_label,        // reserved label type bits (01/10)
    name_too_long,    // expanded name exceeds 255 octets
    bad_rdata,        // RDLENGTH inconsistent with typed RDATA contents
    trailing_bytes,   // message decoded but bytes remain (strict mode)
  };
  Code code = Code::truncated;
  std::size_t offset = 0;   // byte offset where the problem was detected
  std::string context;      // human-readable detail

  [[nodiscard]] std::string to_string() const;
};

/// Decoding options.
struct DecodeOptions {
  /// Reject messages with bytes after the last section. Off by default:
  /// real-world middleboxes pad, and the paper's tool must not choke on them.
  bool reject_trailing_bytes = false;
};

/// Decode a full message: decode_view(wire, error, options) then
/// to_message(error). Returns nullopt and fills `error` (if non-null) with
/// the first failure on malformed input: a structural error from the walk
/// wins over a typed RDATA error in an earlier record.
std::optional<Message> decode_message(std::span<const std::uint8_t> wire,
                                      DecodeError* error = nullptr,
                                      DecodeOptions options = {});

}  // namespace dnslocate::dnswire
