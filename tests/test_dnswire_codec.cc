// Codec tests: encode/decode round trips (including a randomized property
// sweep), name compression, and a corpus of malformed inputs that must be
// rejected without crashing.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dnswire/debug_queries.h"
#include "dnswire/decoder.h"
#include "dnswire/encoder.h"
#include "simnet/rng.h"

namespace dnslocate::dnswire {
namespace {

DnsName name(const char* text) { return *DnsName::parse(text); }

TEST(Codec, QueryRoundTrip) {
  Message query = make_query(0xabcd, name("www.example.com"), RecordType::A);
  auto wire = encode_message(query);
  // Header(12) + QNAME(17) + QTYPE/QCLASS(4).
  EXPECT_EQ(wire.size(), 33u);
  auto decoded = decode_message(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, query);
}

TEST(Codec, ChaosQueryRoundTrip) {
  Message query = make_chaos_query(7, version_bind());
  auto decoded = decode_message(encode_message(query));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(is_chaos_query_for(*decoded, version_bind()));
  EXPECT_FALSE(is_chaos_query_for(*decoded, id_server()));
}

TEST(Codec, ResponseWithAllRdataTypesRoundTrips) {
  Message query = make_query(1, name("example.com"), RecordType::ANY);
  Message response = make_response(query);
  response.answers.push_back(make_a(name("example.com"), netbase::Ipv4Address(1, 2, 3, 4)));
  response.answers.push_back(
      make_aaaa(name("example.com"), *netbase::Ipv6Address::parse("2001:db8::1")));
  response.answers.push_back(make_txt(name("example.com"), "hello world"));
  response.answers.push_back(make_cname(name("alias.example.com"), name("example.com")));
  response.answers.push_back(ResourceRecord{name("example.com"), RecordType::NS,
                                            RecordClass::IN, 3600,
                                            NsRecord{name("ns1.example.com")}});
  response.answers.push_back(ResourceRecord{name("4.3.2.1.in-addr.arpa"), RecordType::PTR,
                                            RecordClass::IN, 3600,
                                            PtrRecord{name("example.com")}});
  SoaRecord soa{name("ns1.example.com"), name("hostmaster.example.com"), 2021, 7200, 900,
                1209600, 300};
  response.authorities.push_back(
      ResourceRecord{name("example.com"), RecordType::SOA, RecordClass::IN, 300, soa});
  response.additionals.push_back(ResourceRecord{DnsName{}, RecordType::OPT, RecordClass::IN, 0,
                                                OptRecord{1232, {}}});

  for (bool compress : {true, false}) {
    auto wire = encode_message(response, {.compress_names = compress});
    auto decoded = decode_message(wire);
    ASSERT_TRUE(decoded.has_value()) << "compress=" << compress;
    EXPECT_EQ(*decoded, response) << "compress=" << compress;
  }
}

TEST(Codec, CompressionShrinksRepeatedNames) {
  Message query = make_query(1, name("a.very.long.domain.example.com"), RecordType::A);
  Message response = make_response(query);
  for (int i = 0; i < 5; ++i)
    response.answers.push_back(
        make_a(name("a.very.long.domain.example.com"), netbase::Ipv4Address(1, 2, 3, 4)));
  auto compressed = encode_message(response, {.compress_names = true});
  auto uncompressed = encode_message(response, {.compress_names = false});
  EXPECT_LT(compressed.size(), uncompressed.size());
  // Both decode to the same message.
  EXPECT_EQ(*decode_message(compressed), *decode_message(uncompressed));
}

TEST(Codec, CompressionIsCaseInsensitiveButDecodesOriginalCase) {
  Message query = make_query(1, name("Example.COM"), RecordType::A);
  Message response = make_response(query);
  response.answers.push_back(make_a(name("example.com"), netbase::Ipv4Address(9, 9, 9, 9)));
  auto decoded = decode_message(encode_message(response));
  ASSERT_TRUE(decoded.has_value());
  // The question keeps its case; the answer name points at the question's
  // bytes, so it decodes with the question's case — still equal under DNS
  // comparison rules.
  EXPECT_TRUE(decoded->answers[0].name.equals_ignore_case(name("example.com")));
}

TEST(Codec, CompressionNeverMergesNamesThatDifferOnlyInWhereTheDotsAre) {
  // Labels may contain '.' on the wire. ["a.b","c"] and ["a","b.c"] print
  // alike but are different names; the answer must not be written as a
  // pointer to the question.
  Message query = make_query(1, *DnsName::from_labels({"a.b", "c"}), RecordType::A);
  Message response = make_response(query);
  response.answers.push_back(
      make_a(*DnsName::from_labels({"a", "b.c"}), netbase::Ipv4Address(192, 0, 2, 1)));
  auto decoded = decode_message(encode_message(response));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->questions[0].name.labels(), (std::vector<std::string>{"a.b", "c"}));
  EXPECT_EQ(decoded->answers[0].name.labels(), (std::vector<std::string>{"a", "b.c"}));
}

TEST(Codec, CompressionPointsAtTheLongestSharedSuffix) {
  Message query = make_query(1, name("www.example.com"), RecordType::A);
  Message response = make_response(query);
  response.answers.push_back(make_a(name("mail.EXAMPLE.com"), netbase::Ipv4Address(1, 2, 3, 4)));
  auto wire = encode_message(response);
  // Question name at offset 12: 3www 7example 3com 0; "example.com" starts
  // at 16. The answer is 4mail + a pointer to 16.
  const std::size_t answer = 12 + 17 + 4;
  ASSERT_GE(wire.size(), answer + 7);
  EXPECT_EQ(wire[answer], 4);
  EXPECT_EQ(std::string(wire.begin() + answer + 1, wire.begin() + answer + 5), "mail");
  EXPECT_EQ(wire[answer + 5], 0xc0);
  EXPECT_EQ(wire[answer + 6], 16);
}

TEST(Codec, TxtSplitsLongStrings) {
  std::string long_text(600, 't');
  ResourceRecord rr = make_txt(name("txt.example.com"), long_text);
  const auto& txt = std::get<TxtRecord>(rr.rdata);
  ASSERT_EQ(txt.strings.size(), 3u);
  EXPECT_EQ(txt.strings[0].size(), 255u);
  EXPECT_EQ(txt.strings[2].size(), 90u);
  EXPECT_EQ(txt.joined(), long_text);

  Message query = make_query(1, name("txt.example.com"), RecordType::TXT);
  Message response = make_response(query);
  response.answers.push_back(rr);
  auto decoded = decode_message(encode_message(response));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->first_txt(), long_text);
}

TEST(Codec, FlagsRoundTripAllBits) {
  for (unsigned wire = 0; wire <= 0xffff; ++wire) {
    // Mask out the Z bits (4..6) the struct does not model.
    std::uint16_t masked = static_cast<std::uint16_t>(wire & ~0x0040u);
    Flags flags = Flags::from_wire(masked);
    // Opcode/rcode values beyond the named enumerators still round trip
    // numerically: wire -> struct -> wire is the identity.
    EXPECT_EQ(flags.to_wire(), masked);
  }
}

TEST(Codec, UnknownRecordTypeDecodesAsRaw) {
  Message query = make_query(1, name("example.com"), RecordType::A);
  Message response = make_response(query);
  response.answers.push_back(ResourceRecord{name("example.com"), static_cast<RecordType>(99),
                                            RecordClass::IN, 60,
                                            RawRecord{{1, 2, 3, 4, 5}}});
  auto decoded = decode_message(encode_message(response));
  ASSERT_TRUE(decoded.has_value());
  const auto* raw = std::get_if<RawRecord>(&decoded->answers[0].rdata);
  ASSERT_NE(raw, nullptr);
  EXPECT_EQ(raw->data, (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
}

TEST(Codec, OptCarriesPayloadSizeInClassField) {
  Message query = make_query(1, name("example.com"), RecordType::A);
  query.additionals.push_back(
      ResourceRecord{DnsName{}, RecordType::OPT, RecordClass::IN, 0, OptRecord{4096, {}}});
  auto decoded = decode_message(encode_message(query));
  ASSERT_TRUE(decoded.has_value());
  const auto* opt = std::get_if<OptRecord>(&decoded->additionals[0].rdata);
  ASSERT_NE(opt, nullptr);
  EXPECT_EQ(opt->udp_payload_size, 4096);
}

// ---- malformed input corpus ----

TEST(Decoder, RejectsTruncatedHeader) {
  std::vector<std::uint8_t> wire = {0, 1, 0};
  DecodeError error;
  EXPECT_FALSE(decode_message(wire, &error).has_value());
  EXPECT_EQ(error.code, DecodeError::Code::truncated);
}

TEST(Decoder, RejectsTruncationAtEveryPrefix) {
  Message response = make_response(make_query(1, name("www.example.com"), RecordType::A));
  response.answers.push_back(make_a(name("www.example.com"), netbase::Ipv4Address(1, 2, 3, 4)));
  auto wire = encode_message(response);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    auto truncated = std::span<const std::uint8_t>(wire.data(), len);
    EXPECT_FALSE(decode_message(truncated).has_value()) << "prefix length " << len;
  }
  EXPECT_TRUE(decode_message(wire).has_value());
}

TEST(Decoder, RejectsForwardCompressionPointer) {
  // Query whose QNAME is a pointer to itself (offset 12 -> offset 12).
  std::vector<std::uint8_t> wire = {0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,
                                    0xc0, 12,  // pointer to itself
                                    0, 1, 0, 1};
  DecodeError error;
  EXPECT_FALSE(decode_message(wire, &error).has_value());
  EXPECT_EQ(error.code, DecodeError::Code::bad_pointer);
}

TEST(Decoder, RejectsReservedLabelBits) {
  std::vector<std::uint8_t> wire = {0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,
                                    0x80, 1,  // 10xxxxxx label type is reserved
                                    0, 1, 0, 1};
  DecodeError error;
  EXPECT_FALSE(decode_message(wire, &error).has_value());
  EXPECT_EQ(error.code, DecodeError::Code::bad_label);
}

TEST(Decoder, RejectsBadARdataLength) {
  Message response = make_response(make_query(1, name("a.com"), RecordType::A));
  response.answers.push_back(make_a(name("a.com"), netbase::Ipv4Address(1, 2, 3, 4)));
  auto wire = encode_message(response, {.compress_names = false});
  // Patch RDLENGTH (last 6 bytes are rdlength(2) + rdata(4)).
  wire[wire.size() - 6] = 0;
  wire[wire.size() - 5] = 3;
  wire.pop_back();  // keep total consistent with claimed length
  DecodeError error;
  EXPECT_FALSE(decode_message(wire, &error).has_value());
  EXPECT_EQ(error.code, DecodeError::Code::bad_rdata);
}

TEST(Decoder, TrailingBytesPolicy) {
  Message query = make_query(1, name("a.com"), RecordType::A);
  auto wire = encode_message(query);
  wire.push_back(0xde);
  wire.push_back(0xad);
  EXPECT_TRUE(decode_message(wire).has_value());  // lenient by default
  DecodeError error;
  EXPECT_FALSE(decode_message(wire, &error, {.reject_trailing_bytes = true}).has_value());
  EXPECT_EQ(error.code, DecodeError::Code::trailing_bytes);
}

TEST(Decoder, RejectsEmptyTxtRdata) {
  Message response = make_response(make_query(1, name("t.com"), RecordType::TXT));
  // Hand-craft a TXT RR with rdlength 0.
  auto wire = encode_message(response);
  // Append one answer manually: name ptr to question (offset 12), TXT, IN,
  // ttl 0, rdlength 0. Fix ANCOUNT.
  wire[7] = 1;
  const std::uint8_t rr[] = {0xc0, 12, 0, 16, 0, 1, 0, 0, 0, 0, 0, 0};
  wire.insert(wire.end(), std::begin(rr), std::end(rr));
  DecodeError error;
  EXPECT_FALSE(decode_message(wire, &error).has_value());
  EXPECT_EQ(error.code, DecodeError::Code::bad_rdata);
}

TEST(Decoder, RandomBytesNeverCrash) {
  simnet::Rng rng(99);
  for (int i = 0; i < 5000; ++i) {
    std::vector<std::uint8_t> wire(rng.uniform(96));
    for (auto& b : wire) b = static_cast<std::uint8_t>(rng.next_u64());
    (void)decode_message(wire);  // must not crash or hang
  }
}

TEST(Decoder, BitFlippedMessagesNeverCrash) {
  Message response = make_response(make_query(1, name("www.example.com"), RecordType::A));
  response.answers.push_back(make_a(name("www.example.com"), netbase::Ipv4Address(1, 2, 3, 4)));
  response.answers.push_back(make_txt(name("www.example.com"), "abc"));
  auto wire = encode_message(response);
  simnet::Rng rng(123);
  for (int i = 0; i < 5000; ++i) {
    auto mutated = wire;
    std::size_t flips = 1 + rng.uniform(4);
    for (std::size_t f = 0; f < flips; ++f)
      mutated[rng.uniform(mutated.size())] ^= static_cast<std::uint8_t>(1u << rng.uniform(8));
    (void)decode_message(mutated);
  }
}

// ---- randomized round-trip property ----

Message random_message(simnet::Rng& rng) {
  static const char* kNames[] = {"example.com", "www.example.com", "version.bind",
                                 "o-o.myaddr.l.google.com", "a.b.c.d.e.example.org",
                                 "probe.dnslocate.example"};
  Message m;
  m.id = static_cast<std::uint16_t>(rng.next_u64());
  m.flags = Flags::from_wire(static_cast<std::uint16_t>(rng.next_u64() & ~0x0040u));
  // Clamp the opcode to modelled values so equality survives the round trip.
  m.flags.opcode = static_cast<Opcode>(rng.uniform(3));
  m.flags.rcode = static_cast<Rcode>(rng.uniform(6));
  std::size_t questions = rng.uniform(3);
  for (std::size_t i = 0; i < questions; ++i) {
    Question q;
    q.name = name(kNames[rng.uniform(6)]);
    q.type = RecordType::A;
    q.klass = rng.bernoulli(0.2) ? RecordClass::CH : RecordClass::IN;
    m.questions.push_back(std::move(q));
  }
  auto random_rr = [&]() -> ResourceRecord {
    DnsName rr_name = name(kNames[rng.uniform(6)]);
    switch (rng.uniform(5)) {
      case 0:
        return make_a(rr_name, netbase::Ipv4Address(static_cast<std::uint32_t>(rng.next_u64())),
                      static_cast<std::uint32_t>(rng.uniform(100000)));
      case 1: {
        netbase::Ipv6Address::Bytes bytes{};
        for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
        return make_aaaa(rr_name, netbase::Ipv6Address(bytes));
      }
      case 2: {
        std::string text(rng.uniform(300), 'x');
        return make_txt(rr_name, text, RecordClass::CH);
      }
      case 3:
        return make_cname(rr_name, name(kNames[rng.uniform(6)]));
      default:
        return ResourceRecord{rr_name, RecordType::NS, RecordClass::IN, 60,
                              NsRecord{name(kNames[rng.uniform(6)])}};
    }
  };
  std::size_t answers = rng.uniform(4);
  for (std::size_t i = 0; i < answers; ++i) m.answers.push_back(random_rr());
  std::size_t authorities = rng.uniform(2);
  for (std::size_t i = 0; i < authorities; ++i) m.authorities.push_back(random_rr());
  return m;
}

struct CodecProperty : ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecProperty, RandomMessagesRoundTrip) {
  simnet::Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    Message m = random_message(rng);
    for (bool compress : {true, false}) {
      auto wire = encode_message(m, {.compress_names = compress});
      auto decoded = decode_message(wire);
      ASSERT_TRUE(decoded.has_value());
      EXPECT_EQ(*decoded, m);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecProperty, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Wire fields are narrowed with bounds checks: values that cannot fit a
// u8/u16 field make the message unencodable instead of silently truncating
// (a wrong RDLENGTH would desynchronize every later record).
TEST(Encoder, OversizedTxtCharacterStringThrows) {
  Message m;
  TxtRecord txt;
  txt.strings.push_back(std::string(256, 'x'));  // character-strings cap at 255
  m.answers.push_back({*DnsName::parse("big.example.com"), RecordType::TXT,
                       RecordClass::IN, 300, txt});
  EXPECT_THROW((void)encode_message(m), std::length_error);
}

TEST(Encoder, OversizedRdataThrows) {
  Message m;
  RawRecord raw;
  raw.data.assign(65536, 0xaa);  // RDLENGTH is u16
  m.answers.push_back({*DnsName::parse("blob.example.com"), static_cast<RecordType>(10),
                       RecordClass::IN, 300, raw});
  EXPECT_THROW((void)encode_message(m), std::length_error);
}

TEST(Encoder, InRangeRdlengthStaysExact) {
  Message m;
  RawRecord raw;
  raw.data.assign(65535, 0xaa);  // largest encodable RDATA
  m.answers.push_back({*DnsName::parse("blob.example.com"), static_cast<RecordType>(10),
                       RecordClass::IN, 300, raw});
  auto wire = encode_message(m);
  auto decoded = decode_message(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, m);
}

}  // namespace
}  // namespace dnslocate::dnswire
