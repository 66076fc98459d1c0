// libFuzzer harness for the DNS wire decoder — the parser XDRI showed is
// the soft underbelly of residential-router DNS. Properties enforced:
//
//  1. decode_message never crashes, overreads, or hangs on arbitrary bytes
//     (asan/ubsan catch the former; pointer-loop caps bound the latter).
//  2. Anything that decodes re-encodes, and the re-encoded bytes decode
//     again (round-trip closure, with and without name compression).
//  3. Re-encoding the re-decoded message is byte-stable (encoder is a
//     function of the parsed value, not of the original byte quirks).
//  4. One parser: decode_message succeeds iff decode_view succeeds and its
//     to_message() succeeds, and then both yield the same message, in lax
//     and strict mode alike.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <span>
#include <vector>

#include "dnswire/decoder.h"
#include "dnswire/encoder.h"
#include "dnswire/view.h"

using dnslocate::dnswire::DecodeError;
using dnslocate::dnswire::DecodeOptions;
using dnslocate::dnswire::EncodeOptions;
using dnslocate::dnswire::Message;

namespace {

void expect_view_agrees(std::span<const std::uint8_t> wire, const std::optional<Message>& owned,
                        DecodeOptions options) {
  auto view = dnslocate::dnswire::decode_view(wire, nullptr, options);
  std::optional<Message> materialized = view ? view->to_message() : std::nullopt;
  if (materialized.has_value() != owned.has_value()) {
    std::fprintf(stderr, "decode_message %s what decode_view + to_message %s (strict=%d)\n",
                 owned ? "accepted" : "rejected", materialized ? "accepted" : "rejected",
                 options.reject_trailing_bytes);
    std::abort();
  }
  if (owned && !(*materialized == *owned)) {
    std::fprintf(stderr, "decode_view + to_message differs from decode_message (strict=%d)\n",
                 options.reject_trailing_bytes);
    std::abort();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  std::span<const std::uint8_t> wire(data, size);

  DecodeError error;
  auto lax = dnslocate::dnswire::decode_message(wire, &error, DecodeOptions{});
  // Strict mode must agree with lax mode on everything but trailing bytes.
  auto strict =
      dnslocate::dnswire::decode_message(wire, nullptr, DecodeOptions{.reject_trailing_bytes = true});
  if (strict.has_value() && !lax.has_value()) {
    std::fprintf(stderr, "strict decode accepted what lax decode rejected\n");
    std::abort();
  }
  expect_view_agrees(wire, lax, DecodeOptions{});
  expect_view_agrees(wire, strict, DecodeOptions{.reject_trailing_bytes = true});
  if (!lax.has_value()) return 0;

  for (bool compress : {false, true}) {
    dnslocate::dnswire::WireBuffer encoded =
        dnslocate::dnswire::encode_message(*lax, EncodeOptions{.compress_names = compress});
    DecodeError rt_error;
    auto redecoded = dnslocate::dnswire::decode_message(encoded, &rt_error, DecodeOptions{});
    if (!redecoded.has_value()) {
      std::fprintf(stderr, "round-trip decode failed (compress=%d): %s\n", compress,
                   rt_error.to_string().c_str());
      std::abort();
    }
    dnslocate::dnswire::WireBuffer re_encoded =
        dnslocate::dnswire::encode_message(*redecoded, EncodeOptions{.compress_names = compress});
    if (re_encoded != encoded) {
      std::fprintf(stderr, "encode(decode(encode(m))) not byte-stable (compress=%d)\n",
                   compress);
      std::abort();
    }
  }
  return 0;
}
