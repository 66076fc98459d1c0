// Hand-crafted wire-format edge cases beyond the random fuzz corpus:
// legal-but-unusual compression topologies, section-count lies, boundary
// sizes, and the specific malformations middleboxes emit in the wild —
// plus a seeded property corpus: encode->decode->encode round-trips,
// truncation at every byte boundary, and single-bit flips, none of which
// may crash or over-read (run under the asan-ubsan preset for teeth).
#include <gtest/gtest.h>

#include <random>

#include "dnswire/decoder.h"
#include "dnswire/encoder.h"

namespace dnslocate::dnswire {
namespace {

/// Header builder: id=1, QUERY, counts as given.
std::vector<std::uint8_t> header(std::uint16_t qd, std::uint16_t an, std::uint16_t ns = 0,
                                 std::uint16_t ar = 0, std::uint16_t flags = 0) {
  std::vector<std::uint8_t> out;
  auto u16 = [&out](std::uint16_t v) {
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v & 0xff));
  };
  u16(1);
  u16(flags);
  u16(qd);
  u16(an);
  u16(ns);
  u16(ar);
  return out;
}

void append(std::vector<std::uint8_t>& out, std::initializer_list<int> bytes) {
  for (int b : bytes) out.push_back(static_cast<std::uint8_t>(b));
}

TEST(DecoderHardening, PointerChainsResolve) {
  // QNAME "a.example.com" written as: "a" + pointer -> "example" + pointer
  // -> "com". Legal: every pointer goes strictly backwards.
  std::vector<std::uint8_t> wire = header(1, 0);
  // offset 12: "com" \0
  append(wire, {3, 'c', 'o', 'm', 0});
  // offset 17: "example" -> ptr(12)
  append(wire, {7, 'e', 'x', 'a', 'm', 'p', 'l', 'e', 0xc0, 12});
  // offset 27: QNAME "a" -> ptr(17)
  append(wire, {1, 'a', 0xc0, 17});
  append(wire, {0, 1, 0, 1});  // A IN
  // The two intermediate name encodings are unreferenced garbage to a
  // strict section walk, so wrap them as the question only:
  // Rebuild: the question starts right after the header in a real message;
  // to keep it valid, claim zero questions and re-parse the name directly
  // is not possible through the public API — so instead place the chain
  // inside a one-question message where the QNAME is at offset 12.
  // (Covered properly below; this message intentionally has orphan bytes.)
  auto decoded = decode_message(wire);
  // The decoder reads the QNAME at offset 12 as "com" and then 17ff become
  // trailing/QTYPE bytes — it must not crash, whatever it concludes.
  (void)decoded;
}

TEST(DecoderHardening, CompressedAnswerNameAcrossSections) {
  // Proper end-to-end: answer name is a pointer into the question.
  Message query = make_query(7, *DnsName::parse("a.example.com"), RecordType::A);
  Message response = make_response(query);
  response.answers.push_back(
      make_a(*DnsName::parse("a.example.com"), netbase::Ipv4Address(1, 2, 3, 4)));
  auto wire = encode_message(response, {.compress_names = true});
  // The answer's name must be a 2-byte pointer (0xc0 0x0c).
  bool has_pointer = false;
  for (std::size_t i = 12; i + 1 < wire.size(); ++i)
    if (wire[i] == 0xc0 && wire[i + 1] == 12) has_pointer = true;
  EXPECT_TRUE(has_pointer);
  auto decoded = decode_message(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->answers[0].name.equals_ignore_case(*DnsName::parse("a.example.com")));
}

TEST(DecoderHardening, CountLiesAreRejected) {
  // Claims 5 questions but carries 1.
  std::vector<std::uint8_t> wire = header(5, 0);
  append(wire, {1, 'x', 0, 0, 1, 0, 1});
  DecodeError error;
  EXPECT_FALSE(decode_message(wire, &error).has_value());
  EXPECT_EQ(error.code, DecodeError::Code::truncated);

  // Claims 65535 answers in a tiny message.
  auto big_lie = header(0, 0xffff);
  EXPECT_FALSE(decode_message(big_lie).has_value());
}

TEST(DecoderHardening, RootQnameIsLegal) {
  std::vector<std::uint8_t> wire = header(1, 0);
  append(wire, {0, 0, 2, 0, 1});  // root, NS, IN
  auto decoded = decode_message(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->questions[0].name.is_root());
  EXPECT_EQ(decoded->questions[0].type, RecordType::NS);
}

TEST(DecoderHardening, MaximumLengthNameRoundTrips) {
  // 255-octet wire name: four 61-char labels (4*62 = 248) + "abcdef" label
  // (7) = 255 with the root byte... construct exactly at the limit.
  std::string label63(63, 'a');
  auto name = DnsName::from_labels({label63, label63, label63, std::string(61, 'b')});
  ASSERT_TRUE(name.has_value());
  EXPECT_EQ(name->wire_length(), 255u);  // 3*64 + 62 + root = 255 octets exactly
  EXPECT_LE(name->wire_length(), kMaxNameLength);
  Message query = make_query(1, *name, RecordType::A);
  auto decoded = decode_message(encode_message(query));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->questions[0].name, *name);
}

TEST(DecoderHardening, OverlongWireNameRejected) {
  // Craft a wire name of 4 * 63-char labels = 256 octets > 255.
  std::vector<std::uint8_t> wire = header(1, 0);
  for (int i = 0; i < 4; ++i) {
    wire.push_back(63);
    for (int j = 0; j < 63; ++j) wire.push_back('x');
  }
  wire.push_back(0);
  append(wire, {0, 1, 0, 1});
  DecodeError error;
  EXPECT_FALSE(decode_message(wire, &error).has_value());
  EXPECT_EQ(error.code, DecodeError::Code::name_too_long);
}

TEST(DecoderHardening, WireNameOneOctetOverTheLimitRejected) {
  // Three 63-char labels and one of 62: 3*64 + 63 + root = 256 octets, one
  // past kMaxNameLength; the 255-octet case above must still decode.
  std::vector<std::uint8_t> wire = header(1, 0);
  for (int length : {63, 63, 63, 62}) {
    wire.push_back(static_cast<std::uint8_t>(length));
    for (int j = 0; j < length; ++j) wire.push_back('x');
  }
  wire.push_back(0);
  append(wire, {0, 1, 0, 1});
  DecodeError error;
  EXPECT_FALSE(decode_message(wire, &error).has_value());
  EXPECT_EQ(error.code, DecodeError::Code::name_too_long);
}

TEST(DecoderHardening, PointerIntoLabelMiddleIsHandled) {
  // A pointer targeting the middle of a label reinterprets bytes as a
  // length; this must either decode (harmlessly) or fail cleanly.
  std::vector<std::uint8_t> wire = header(1, 0);
  append(wire, {3, 'c', 'o', 'm', 0});  // offset 12
  append(wire, {0xc0, 14});             // QNAME: pointer into "om"
  append(wire, {0, 1, 0, 1});
  auto decoded = decode_message(wire);
  if (decoded) {
    // Interpreted "o"(0x6f) as a 111-byte label -> must have failed; or
    // whatever it read stayed within bounds.
    SUCCEED();
  }
}

TEST(DecoderHardening, TwoPointersDeepChainTerminates) {
  std::vector<std::uint8_t> wire = header(1, 0);
  append(wire, {1, 'a', 0});    // offset 12: "a"
  append(wire, {0xc0, 12});     // offset 15: ptr -> 12
  append(wire, {0xc0, 15});     // offset 17: QNAME: ptr -> ptr -> "a"
  append(wire, {0, 1, 0, 1});
  auto decoded = decode_message(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->questions[0].name.to_string(), "a");
}

TEST(DecoderHardening, MutualPointerLoopRejected) {
  // Two pointers that point at each other would loop forever without the
  // strictly-backwards rule.
  std::vector<std::uint8_t> wire = header(1, 0);
  append(wire, {0xc0, 14});  // offset 12 -> 14 (forward!)
  append(wire, {0xc0, 12});  // offset 14 -> 12
  append(wire, {0, 1, 0, 1});
  DecodeError error;
  EXPECT_FALSE(decode_message(wire, &error).has_value());
  EXPECT_EQ(error.code, DecodeError::Code::bad_pointer);
}

TEST(DecoderHardening, EmptyMessageAndHeaderOnly) {
  EXPECT_FALSE(decode_message({}).has_value());
  auto bare = header(0, 0);
  auto decoded = decode_message(bare);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->questions.empty());
  EXPECT_TRUE(decoded->answers.empty());
}

TEST(DecoderHardening, RdlengthBeyondBufferRejected) {
  Message response = make_response(make_query(1, *DnsName::parse("x"), RecordType::TXT));
  response.answers.push_back(make_txt(*DnsName::parse("x"), "abc"));
  auto wire = encode_message(response, {.compress_names = false});
  // Inflate the TXT RDLENGTH beyond the remaining bytes.
  // Layout ends with: rdlen(2) + len(1) + "abc"(3); rdlen at size-6.
  wire[wire.size() - 6] = 0x7f;
  DecodeError error;
  EXPECT_FALSE(decode_message(wire, &error).has_value());
}

TEST(DecoderHardening, ErrorRenderingIsInformative) {
  std::vector<std::uint8_t> wire = {0, 1, 0};
  DecodeError error;
  decode_message(wire, &error);
  std::string text = error.to_string();
  EXPECT_NE(text.find("truncated"), std::string::npos);
  EXPECT_NE(text.find("offset"), std::string::npos);
}

// --- seeded property corpus ---

/// Deterministic random-message generator for the round-trip corpus.
struct Corpus {
  std::mt19937 rng{0x5eed2026};

  int pick(int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng); }

  DnsName random_name() {
    static constexpr char kAlphabet[] =
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
    std::vector<std::string> labels;
    int label_count = pick(1, 4);
    for (int i = 0; i < label_count; ++i) {
      std::string label;
      int length = pick(1, 12);
      for (int j = 0; j < length; ++j)
        label.push_back(kAlphabet[pick(0, sizeof kAlphabet - 2)]);
      labels.push_back(std::move(label));
    }
    auto name = DnsName::from_labels(labels);
    EXPECT_TRUE(name.has_value());
    return name.value_or(DnsName{});
  }

  Message random_message() {
    static constexpr RecordType kTypes[] = {RecordType::A, RecordType::TXT, RecordType::NS};
    Message query = make_query(static_cast<std::uint16_t>(pick(0, 0xffff)), random_name(),
                               kTypes[pick(0, 2)]);
    if (pick(0, 1) == 0) return query;
    Message response = make_response(query);
    int answers = pick(0, 3);
    for (int i = 0; i < answers; ++i) {
      // Half the answers repeat the question name (compression targets).
      DnsName owner = pick(0, 1) == 0 ? response.questions[0].name : random_name();
      if (pick(0, 1) == 0) {
        response.answers.push_back(make_a(
            owner, netbase::Ipv4Address(static_cast<std::uint8_t>(pick(0, 255)),
                                        static_cast<std::uint8_t>(pick(0, 255)),
                                        static_cast<std::uint8_t>(pick(0, 255)),
                                        static_cast<std::uint8_t>(pick(0, 255)))));
      } else {
        std::string text(static_cast<std::size_t>(pick(0, 40)), 'q');
        response.answers.push_back(make_txt(owner, text));
      }
    }
    return response;
  }
};

/// Semantic equality of the fields the pipeline reads.
void expect_equivalent(const Message& a, const Message& b) {
  ASSERT_EQ(a.questions.size(), b.questions.size());
  ASSERT_EQ(a.answers.size(), b.answers.size());
  EXPECT_EQ(a.id, b.id);
  for (std::size_t i = 0; i < a.questions.size(); ++i) {
    EXPECT_EQ(a.questions[i].name.to_string(), b.questions[i].name.to_string());
    EXPECT_EQ(a.questions[i].type, b.questions[i].type);
  }
  for (std::size_t i = 0; i < a.answers.size(); ++i) {
    EXPECT_EQ(a.answers[i].name.to_string(), b.answers[i].name.to_string());
    EXPECT_EQ(a.answers[i].type, b.answers[i].type);
    EXPECT_EQ(a.answers[i].rdata, b.answers[i].rdata);
  }
}

TEST(DecoderProperty, RandomMessagesRoundTripBothCompressionModes) {
  Corpus corpus;
  for (int i = 0; i < 40; ++i) {
    Message message = corpus.random_message();
    for (bool compress : {false, true}) {
      auto wire = encode_message(message, {.compress_names = compress});
      auto decoded = decode_message(wire);
      ASSERT_TRUE(decoded.has_value()) << "message " << i << " compress=" << compress;
      expect_equivalent(message, *decoded);
      // Re-encoding the decoded message reaches a fixpoint: decode of the
      // second encoding is equivalent again (and byte-stable thereafter).
      auto wire2 = encode_message(*decoded, {.compress_names = compress});
      auto decoded2 = decode_message(wire2);
      ASSERT_TRUE(decoded2.has_value());
      expect_equivalent(*decoded, *decoded2);
      EXPECT_EQ(wire2, encode_message(*decoded2, {.compress_names = compress}));
    }
  }
}

TEST(DecoderProperty, TruncationAtEveryByteBoundaryIsSafe) {
  Corpus corpus;
  for (int i = 0; i < 25; ++i) {
    auto wire = encode_message(corpus.random_message(), {.compress_names = true});
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
      std::vector<std::uint8_t> prefix(wire.begin(),
                                       wire.begin() + static_cast<std::ptrdiff_t>(cut));
      // Must never crash or over-read; most prefixes fail, some short ones
      // happen to parse — either way the result is well-formed.
      auto decoded = decode_message(prefix);
      if (cut < 12) {
        EXPECT_FALSE(decoded.has_value()) << "header cannot fit in " << cut;
      }
    }
  }
}

TEST(DecoderProperty, SingleBitFlipsNeverCrashTheDecoder) {
  Corpus corpus;
  for (int i = 0; i < 25; ++i) {
    auto wire = encode_message(corpus.random_message(), {.compress_names = true});
    for (std::size_t byte = 0; byte < wire.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        auto mutated = wire;
        mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
        auto decoded = decode_message(mutated);
        // A one-bit corruption either still decodes (e.g., a flipped id or
        // case bit) or is rejected; both are fine, crashing is not.
        (void)decoded;
      }
    }
  }
}

TEST(DecoderProperty, RandomBuffersAreRejectedSafely) {
  std::mt19937 rng(0xfeedface);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  std::uniform_int_distribution<int> len_dist(0, 512);
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::uint8_t> noise(static_cast<std::size_t>(len_dist(rng)));
    for (auto& b : noise) b = static_cast<std::uint8_t>(byte_dist(rng));
    auto decoded = decode_message(noise);
    (void)decoded;  // any outcome but a crash/over-read is acceptable
  }
}

}  // namespace
}  // namespace dnslocate::dnswire
