// Zero-copy view vs owning decoder: over every corpus input the two must
// agree exactly — decode_message succeeds iff decode_view succeeds AND full
// materialization (to_message) succeeds, and when both succeed the
// materialized message is field-for-field identical. The split matters: the
// view validates structure only (bounds, pointer discipline, name length)
// and defers typed RDATA strictness to to_record(), so a structurally sound
// message with a malformed A rdlength passes decode_view but fails
// to_message — exactly like decode_message fails it. decode_message is now
// built from the view, so the golden below is the independent reference.
//
// The corpus is fuzz/corpus/dnswire/*.bin (the curated seeds the fuzzer
// mutates) plus a seeded sweep of encoder-produced messages, compressed and
// not, with trailing padding — several hundred inputs per run, all
// deterministic.
//
// tests/golden/dnswire_outcomes.txt pins what the decoder makes of each
// seed's bit-flip neighbourhood (fuzz/bitflip.h): how many mutants walk
// cleanly, how many decode, lax and strict, and a digest of their canonical
// re-encodings.
// Regeneration (deliberate decoder changes only):
//   DNSLOCATE_UPDATE_GOLDEN=1 ./build/tests/test_dnswire_view
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <span>
#include <string>
#include <vector>

#include "dnswire/decoder.h"
#include "dnswire/encoder.h"
#include "dnswire/message.h"
#include "dnswire/view.h"
#include "bitflip.h"

namespace dnslocate::dnswire {
namespace {

std::vector<std::uint8_t> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::vector<std::filesystem::path> corpus_files() {
  std::vector<std::filesystem::path> files;
  const char* dir = DNSLOCATE_WIRE_CORPUS;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec))
    if (entry.path().extension() == ".bin") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  return files;
}

/// The core equivalence oracle, applied to one wire buffer.
void expect_view_agrees(std::span<const std::uint8_t> wire, const std::string& label,
                        DecodeOptions options = {}) {
  auto owned = decode_message(wire, nullptr, options);
  auto view = decode_view(wire, nullptr, options);

  if (owned.has_value()) {
    // Owning decoder accepted: the view must accept, and materialize to the
    // exact same message.
    ASSERT_TRUE(view.has_value()) << label;
    auto materialized = view->to_message();
    ASSERT_TRUE(materialized.has_value()) << label;
    EXPECT_EQ(*materialized, *owned) << label;

    // Field-for-field spot checks straight off the view, no materialization.
    EXPECT_EQ(view->id(), owned->id) << label;
    EXPECT_EQ(view->flags(), owned->flags) << label;
    EXPECT_EQ(view->is_response(), owned->is_response()) << label;
    ASSERT_EQ(view->question_count(), owned->questions.size()) << label;
    ASSERT_EQ(view->answer_count(), owned->answers.size()) << label;
    ASSERT_EQ(view->authority_count(), owned->authorities.size()) << label;
    ASSERT_EQ(view->additional_count(), owned->additionals.size()) << label;
    for (std::size_t i = 0; i < owned->questions.size(); ++i) {
      const QuestionView& q = view->question(i);
      EXPECT_EQ(q.type(), owned->questions[i].type) << label;
      EXPECT_EQ(q.klass(), owned->questions[i].klass) << label;
      auto name = q.name();
      ASSERT_TRUE(name.has_value()) << label;
      EXPECT_EQ(*name, owned->questions[i].name) << label;
      EXPECT_TRUE(q.name_equals(owned->questions[i].name)) << label;
      auto question = q.to_question();
      ASSERT_TRUE(question.has_value()) << label;
      EXPECT_EQ(*question, owned->questions[i]) << label;
    }
    auto check_section = [&](std::size_t count, auto&& get_view, const auto& records) {
      for (std::size_t i = 0; i < count; ++i) {
        const RecordView& r = get_view(i);
        EXPECT_EQ(r.type(), records[i].type) << label;
        EXPECT_EQ(r.ttl(), records[i].ttl) << label;
        auto record = r.to_record();
        ASSERT_TRUE(record.has_value()) << label;
        EXPECT_EQ(*record, records[i]) << label;
      }
    };
    check_section(view->answer_count(), [&](std::size_t i) -> const RecordView& {
      return view->answer(i);
    }, owned->answers);
    check_section(view->authority_count(), [&](std::size_t i) -> const RecordView& {
      return view->authority(i);
    }, owned->authorities);
    check_section(view->additional_count(), [&](std::size_t i) -> const RecordView& {
      return view->additional(i);
    }, owned->additionals);
  } else {
    // Owning decoder rejected: the view must reject structurally, or accept
    // structurally and then fail typed materialization — never produce a
    // message the full decoder would not.
    if (view.has_value()) {
      auto materialized = view->to_message();
      EXPECT_FALSE(materialized.has_value())
          << label << ": view materialized a message decode_message rejects";
    }
  }
}

TEST(DnswireView, AgreesWithOwningDecoderOverFuzzCorpus) {
  auto files = corpus_files();
  ASSERT_FALSE(files.empty()) << "no corpus at " DNSLOCATE_WIRE_CORPUS;
  for (const auto& path : files) {
    auto bytes = read_file(path);
    expect_view_agrees(bytes, path.filename().string());
    DecodeOptions strict;
    strict.reject_trailing_bytes = true;
    expect_view_agrees(bytes, path.filename().string() + " (strict)", strict);
  }
}

TEST(DnswireView, AgreesWithOwningDecoderOverEncodedSweep) {
  // Deterministic message generator: shapes the encoder can produce, both
  // compressed and uncompressed, with and without trailing padding.
  std::uint64_t state = 0x1035;
  auto next = [&state] {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  const char* names[] = {"example.com", "a.b.c.d.example.org", "whoami.akamai.net",
                         "EXAMPLE.COM", "x", "."};
  for (int round = 0; round < 200; ++round) {
    Message message;
    message.id = static_cast<std::uint16_t>(next());
    message.flags.qr = (next() & 1) != 0;
    message.flags.ra = (next() & 1) != 0;
    message.flags.rcode = (next() % 8 == 0) ? Rcode::NXDOMAIN : Rcode::NOERROR;
    auto name = *DnsName::parse(names[next() % 6]);
    message.questions.push_back(
        {name, (next() & 1) != 0 ? RecordType::A : RecordType::TXT, RecordClass::IN});
    std::size_t answers = next() % 4;
    for (std::size_t i = 0; i < answers; ++i) {
      auto ttl = static_cast<std::uint32_t>(next() % 3600);
      if (next() & 1) {
        message.answers.push_back(make_a(
            name, netbase::Ipv4Address(static_cast<std::uint8_t>(next()), 0, 0, 1), ttl));
      } else {
        message.answers.push_back(make_txt(name, "abc", RecordClass::IN, ttl));
      }
    }

    EncodeOptions encode_options;
    encode_options.compress_names = (next() & 1) != 0;
    WireBuffer wire = encode_message(message, encode_options);
    expect_view_agrees(wire, "sweep round " + std::to_string(round));

    // Trailing padding: lenient mode must surface it via trailing_bytes()
    // and still agree; strict mode must reject in both decoders.
    WireBuffer padded = wire;
    std::size_t pad = 1 + next() % 9;
    for (std::size_t i = 0; i < pad; ++i)
      padded.push_back(static_cast<std::uint8_t>(next()));
    expect_view_agrees(padded, "sweep round " + std::to_string(round) + " (padded)");
    auto view = decode_view(padded);
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->trailing_bytes(), pad);
    DecodeOptions strict;
    strict.reject_trailing_bytes = true;
    expect_view_agrees(padded, "sweep round " + std::to_string(round) + " (padded, strict)",
                       strict);
    EXPECT_FALSE(decode_view(padded, nullptr, strict).has_value());
  }
}

/// One golden line: the seed, then over the seed and its first 256 mutants
/// how many decode_view walks cleanly, how many decode_message accepts (lax
/// and strict), and an FNV-1a digest of every accepted input's canonical
/// re-encoding.
std::string outcome_line(const std::filesystem::path& seed) {
  constexpr std::uint64_t kMutants = 256;
  std::vector<std::uint8_t> bytes = read_file(seed);
  std::size_t inputs = 0, walked = 0, accepted = 0, strict_accepted = 0;
  std::uint64_t digest = 0xcbf29ce484222325ull;
  auto mix = [&digest](std::uint8_t byte) { digest = (digest ^ byte) * 0x100000001b3ull; };
  for (std::uint64_t round = 0; round <= kMutants && (round == 0 || !bytes.empty()); ++round) {
    std::vector<std::uint8_t> input =
        round == 0 ? bytes : fuzzing::bitflip_mutant(bytes, round - 1);
    ++inputs;
    if (decode_view(input)) ++walked;
    if (decode_message(input, nullptr, {.reject_trailing_bytes = true})) ++strict_accepted;
    auto decoded = decode_message(input);
    if (!decoded) continue;
    ++accepted;
    WireBuffer canonical = encode_message(*decoded);
    mix(static_cast<std::uint8_t>(canonical.size() >> 8));
    mix(static_cast<std::uint8_t>(canonical.size()));
    for (std::uint8_t byte : canonical) mix(byte);
  }
  char line[256];
  std::snprintf(line, sizeof line,
                "%s inputs=%zu walked=%zu accepted=%zu strict=%zu digest=%016llx\n",
                seed.filename().string().c_str(), inputs, walked, accepted, strict_accepted,
                static_cast<unsigned long long>(digest));
  return line;
}

TEST(DnswireView, CorpusOutcomesMatchRecordedGolden) {
  std::string live;
  for (const auto& path : corpus_files()) live += outcome_line(path);
  ASSERT_FALSE(live.empty()) << "no corpus at " DNSLOCATE_WIRE_CORPUS;
  if (std::getenv("DNSLOCATE_UPDATE_GOLDEN") != nullptr) {
    std::ofstream file(DNSLOCATE_WIRE_OUTCOMES);
    ASSERT_TRUE(file.good()) << "cannot write " << DNSLOCATE_WIRE_OUTCOMES;
    file << live;
    GTEST_SKIP() << "golden regenerated at " << DNSLOCATE_WIRE_OUTCOMES;
  }
  std::ifstream file(DNSLOCATE_WIRE_OUTCOMES);
  std::stringstream golden;
  golden << file.rdbuf();
  ASSERT_FALSE(golden.str().empty())
      << "missing golden file " << DNSLOCATE_WIRE_OUTCOMES
      << " — regenerate with DNSLOCATE_UPDATE_GOLDEN=1";
  EXPECT_EQ(live, golden.str())
      << "decode outcomes over the corpus neighbourhood drifted; if the change is "
         "deliberate, regenerate with DNSLOCATE_UPDATE_GOLDEN=1";
}

TEST(DnswireView, PrefilterFieldsWithoutAllocation) {
  // The demux prefilter path: id + QR + first question, straight off the
  // buffer. Compressed names resolve without materializing.
  Message query = make_query(0xbeef, *DnsName::parse("Probe.Example.COM"), RecordType::A);
  Message response = make_txt_response(query, "hello");
  response.flags.qr = true;
  WireBuffer wire = encode_message(response, {.compress_names = true});

  auto view = decode_view(wire);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->id(), 0xbeef);
  EXPECT_TRUE(view->is_response());
  const QuestionView* question = view->first_question();
  ASSERT_NE(question, nullptr);
  // Case-insensitive match without allocation, against any case variant.
  EXPECT_TRUE(question->name_equals(*DnsName::parse("probe.example.com")));
  EXPECT_TRUE(question->name_equals(*DnsName::parse("PROBE.EXAMPLE.COM")));
  EXPECT_FALSE(question->name_equals(*DnsName::parse("probe.example.org")));
  EXPECT_FALSE(question->name_equals(*DnsName::parse("example.com")));
}

TEST(DnswireView, RdataSpanPointsIntoTheWireBuffer) {
  Message message = make_query(7, *DnsName::parse("example.com"), RecordType::A);
  message.flags.qr = true;
  message.answers.push_back(
      make_a(*DnsName::parse("example.com"), netbase::Ipv4Address(192, 0, 2, 1), 60));
  WireBuffer wire = encode_message(message);

  auto view = decode_view(wire);
  ASSERT_TRUE(view.has_value());
  ASSERT_EQ(view->answer_count(), 1u);
  auto rdata = view->answer(0).rdata();
  ASSERT_EQ(rdata.size(), 4u);
  EXPECT_EQ(rdata[0], 192);
  EXPECT_EQ(rdata[3], 1);
  // Zero-copy: the span aliases the wire bytes themselves.
  EXPECT_GE(rdata.data(), wire.data());
  EXPECT_LE(rdata.data() + rdata.size(), wire.data() + wire.size());
}

TEST(DnswireView, MaterializationOutlivesTheBuffer) {
  // The sanctioned pattern for keeping data past the buffer's lifetime:
  // materialize with to_message() while the buffer is alive, then drop the
  // buffer. The owning Message must be self-contained (asan guards this
  // test: any borrow surviving into `owned` would read freed memory).
  Message original = make_query(21, *DnsName::parse("keep.example.com"), RecordType::TXT);
  std::optional<Message> owned;
  {
    WireBuffer wire = encode_message(original, {.compress_names = true});
    auto view = decode_view(wire);
    ASSERT_TRUE(view.has_value());
    owned = view->to_message();
    ASSERT_TRUE(owned.has_value());
  }  // wire freed; `owned` must not borrow from it
  EXPECT_EQ(*owned, original);
  EXPECT_EQ(owned->question()->name.to_string(), "keep.example.com");
}

TEST(DnswireView, StructurallyValidButTypedInvalidSplits) {
  // An A record with RDLENGTH 3 — structurally sound (the envelope parses,
  // the RDATA fits the buffer) but typed materialization must fail, exactly
  // like decode_message. The encoder cannot produce this shape, so the wire
  // is hand-assembled: header, one question, one answer with a compression
  // pointer back to the question name.
  const std::vector<std::uint8_t> wire = {
      0x00, 0x09,              // id
      0x80, 0x00,              // flags: QR
      0x00, 0x01,              // qdcount
      0x00, 0x01,              // ancount
      0x00, 0x00, 0x00, 0x00,  // nscount, arcount
      // question: example.com A IN
      7, 'e', 'x', 'a', 'm', 'p', 'l', 'e', 3, 'c', 'o', 'm', 0,
      0x00, 0x01, 0x00, 0x01,
      // answer: pointer to offset 12, type A, class IN, ttl 0, RDLENGTH 3
      0xc0, 0x0c, 0x00, 0x01, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03,
      192, 0, 2,  // 3 RDATA bytes: malformed for A
  };

  EXPECT_FALSE(decode_message(wire).has_value());
  auto view = decode_view(wire);
  ASSERT_TRUE(view.has_value()) << "structure is sound; only the typed check fails";
  ASSERT_EQ(view->answer_count(), 1u);
  EXPECT_EQ(view->answer(0).rdata().size(), 3u);
  DecodeError error;
  EXPECT_FALSE(view->answer(0).to_record(&error).has_value());
  EXPECT_FALSE(view->to_message().has_value());
}

TEST(DnswireView, TypedRdataSeedWalksButEveryAnswerFailsItsTypedCheck) {
  // fuzz/corpus/dnswire/typed_rdata_bad.bin: an A record with RDLENGTH 3,
  // an empty TXT and a CNAME one byte shorter than its RDLENGTH. The walk
  // accepts all three envelopes; decode_rdata rejects each one.
  auto wire = read_file(std::filesystem::path(DNSLOCATE_WIRE_CORPUS) / "typed_rdata_bad.bin");
  auto view = decode_view(wire);
  ASSERT_TRUE(view.has_value());
  ASSERT_EQ(view->answer_count(), 3u);
  for (std::size_t i = 0; i < view->answer_count(); ++i) {
    DecodeError error;
    EXPECT_FALSE(view->answer(i).to_record(&error).has_value()) << "answer " << i;
    EXPECT_EQ(error.code, DecodeError::Code::bad_rdata) << "answer " << i;
  }
  DecodeError error;
  EXPECT_FALSE(decode_message(wire, &error).has_value());
  EXPECT_EQ(error.code, DecodeError::Code::bad_rdata);
}

}  // namespace
}  // namespace dnslocate::dnswire
