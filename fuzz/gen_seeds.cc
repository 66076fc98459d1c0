// Regenerates the checked-in seed corpora under fuzz/corpus/ from the same
// vectors the unit tests exercise: valid queries/responses across every
// RDATA type, truncations, compression-pointer pathologies, envelopes that
// are structurally sound but carry malformed typed RDATA, and journal
// files that are intact, truncated mid-line, and bit-flipped.
//
//   gen_seeds <corpus-root>     # writes <root>/dnswire/* and <root>/journal/*
#include <cstdio>
#include <filesystem>
#include <span>
#include <fstream>
#include <string>
#include <vector>

#include "atlas/journal.h"
#include "dnswire/encoder.h"
#include "dnswire/message.h"
#include "dnswire/record.h"
#include "netbase/ipv4.h"
#include "netbase/ipv6.h"

namespace fs = std::filesystem;
using namespace dnslocate;  // tool-only TU; keeps the vector table readable

namespace {

void write_bytes(const fs::path& path, std::span<const std::uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

void write_text(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

dnswire::DnsName name(const char* text) { return *dnswire::DnsName::parse(text); }

dnswire::WireBuffer query_example() {
  dnswire::Message m;
  m.id = 0x1234;
  m.questions.push_back({name("whoami.akamai.net"), dnswire::RecordType::A,
                         dnswire::RecordClass::IN});
  return dnswire::encode_message(m);
}

dnswire::WireBuffer response_all_types(bool compress) {
  dnswire::Message m;
  m.id = 0xbeef;
  m.flags.qr = true;
  m.flags.ra = true;
  m.questions.push_back({name("o-o.myaddr.l.google.com"), dnswire::RecordType::TXT,
                         dnswire::RecordClass::IN});
  m.answers.push_back(dnswire::make_txt(name("o-o.myaddr.l.google.com"), "192.0.2.33"));
  m.answers.push_back(dnswire::make_a(name("example.com"), netbase::Ipv4Address(192, 0, 2, 1)));
  m.answers.push_back(dnswire::make_cname(name("www.example.com"), name("example.com")));
  dnswire::SoaRecord soa{name("ns1.example.com"), name("hostmaster.example.com"),
                         2021, 7200, 900, 1209600, 300};
  m.authorities.push_back({name("example.com"), dnswire::RecordType::SOA,
                           dnswire::RecordClass::IN, 3600, soa});
  dnswire::MxRecord mx{10, name("mail.example.com")};
  m.additionals.push_back({name("example.com"), dnswire::RecordType::MX,
                           dnswire::RecordClass::IN, 3600, mx});
  dnswire::SrvRecord srv{0, 5, 853, name("dot.example.com")};
  m.additionals.push_back({name("_dns._tcp.example.com"), dnswire::RecordType::SRV,
                           dnswire::RecordClass::IN, 300, srv});
  dnswire::OptRecord opt;
  opt.udp_payload_size = 4096;
  m.additionals.push_back({name("."), dnswire::RecordType::OPT, dnswire::RecordClass::IN,
                           0, opt});
  return dnswire::encode_message(m, {.compress_names = compress});
}

/// Hand-crafted header + QNAME whose compression pointer points at itself.
std::vector<std::uint8_t> pointer_loop() {
  std::vector<std::uint8_t> wire = {0xab, 0xcd, 0x01, 0x00, 0x00, 0x01,
                                    0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  wire.push_back(0xc0);  // pointer ...
  wire.push_back(0x0c);  // ... to itself (offset 12)
  wire.push_back(0x00);  // qtype/qclass
  wire.push_back(0x01);
  wire.push_back(0x00);
  wire.push_back(0x01);
  return wire;
}

/// QNAME with reserved label bits (01) — the bad_label path.
std::vector<std::uint8_t> reserved_label_bits() {
  std::vector<std::uint8_t> wire = {0x00, 0x02, 0x00, 0x00, 0x00, 0x01,
                                    0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  wire.push_back(0x40);  // label type 01: reserved
  wire.push_back('x');
  wire.push_back(0x00);
  return wire;
}

// --- adversary-shaped wire (simnet/adversary.h's observable outputs) -----
// What the DPI personalities and spoofing injectors actually put on the
// wire, so the decoder's fuzz corpus covers the same ambiguities the
// arbitration layer has to survive: case-folded echoes, EDNS-stripped
// queries, self-contradictory TC responses, and forged racing answers.

/// A mixed-case 0x20 query carrying an OPT record — the input a DPI box
/// case-folds and/or EDNS-strips.
dnswire::Message query_mixed_case_edns() {
  dnswire::Message m;
  m.id = 0x2020;
  m.questions.push_back({name("WhOaMi.AkAmAi.NeT"), dnswire::RecordType::A,
                         dnswire::RecordClass::IN});
  dnswire::OptRecord opt;
  opt.udp_payload_size = 1232;
  m.additionals.push_back({name("."), dnswire::RecordType::OPT, dnswire::RecordClass::IN,
                           0, opt});
  return m;
}

/// The same query after dpi_foldix + dpi_optstrip mangling: question
/// lowercased, OPT gone (a 512-byte ceiling the client never asked for).
dnswire::WireBuffer adversary_folded_stripped() {
  dnswire::Message m = query_mixed_case_edns();
  m.questions.front().name = name("whoami.akamai.net");
  m.additionals.clear();
  return dnswire::encode_message(m);
}

/// dpi_truncor's output: TC set while the answer section is intact — a
/// self-contradictory message no real server emits.
dnswire::WireBuffer adversary_tc_with_answers() {
  dnswire::Message m;
  m.id = 0x7c7c;
  m.flags.qr = true;
  m.flags.ra = true;
  m.flags.tc = true;
  m.questions.push_back({name("whoami.akamai.net"), dnswire::RecordType::A,
                         dnswire::RecordClass::IN});
  m.answers.push_back(dnswire::make_a(name("whoami.akamai.net"),
                                      netbase::Ipv4Address(192, 0, 2, 33)));
  return dnswire::encode_message(m);
}

/// An on-path spoofer's forged location answer: copied ID and casing (it
/// passes RFC 5452 and must be caught by arbitration), payload that matches
/// no resolver's catalogue.
dnswire::WireBuffer adversary_spoofed_txt() {
  dnswire::Message m;
  m.id = 0x2020;
  m.flags.qr = true;
  m.flags.ra = true;
  m.questions.push_back({name("WhOaMi.AkAmAi.NeT"), dnswire::RecordType::TXT,
                         dnswire::RecordClass::IN});
  m.answers.push_back(dnswire::make_txt(name("WhOaMi.AkAmAi.NeT"), "SPOOFED"));
  return dnswire::encode_message(m);
}

// --- structure sound, typed RDATA bad ------------------------------------
// The view's walk accepts these envelopes; only decode_rdata rejects them.
// The encoder cannot produce either shape, so the wire is hand-assembled.

/// A response whose three answers each fail one typed check: an A record
/// with RDLENGTH 3, a TXT record with no character-string, and a CNAME whose
/// RDLENGTH (4) is one more than its target name's wire length (3).
std::vector<std::uint8_t> typed_rdata_bad() {
  std::vector<std::uint8_t> wire = {0x0b, 0xad, 0x81, 0x80, 0x00, 0x01,
                                    0x00, 0x03, 0x00, 0x00, 0x00, 0x00};
  const std::uint8_t question[] = {3, 'b', 'a', 'd', 7, 'e', 'x', 'a', 'm', 'p', 'l', 'e',
                                   0, 0x00, 0x01, 0x00, 0x01};
  wire.insert(wire.end(), std::begin(question), std::end(question));
  // Owner: pointer to the question name; TTL 60 on each record.
  auto answer = [&wire](std::uint8_t type, std::initializer_list<std::uint8_t> rdata) {
    const std::uint8_t envelope[] = {0xc0, 0x0c, 0x00, type, 0x00, 0x01, 0x00, 0x00, 0x00, 60,
                                     0x00, static_cast<std::uint8_t>(rdata.size())};
    wire.insert(wire.end(), std::begin(envelope), std::end(envelope));
    wire.insert(wire.end(), rdata.begin(), rdata.end());
  };
  answer(1, {192, 0, 2});      // A, RDLENGTH 3
  answer(16, {});              // TXT, RDLENGTH 0
  answer(5, {1, 'x', 0, 0});   // CNAME "x." plus one stray byte
  return wire;
}

/// A plain answer with TC clear that echoes an OPT record — what the
/// truncor DPI sets TC on in place, and what an EDNS-aware server returns.
dnswire::WireBuffer response_tc_clear_with_opt() {
  dnswire::Message m = query_mixed_case_edns();
  m.flags.qr = true;
  m.flags.ra = true;
  m.answers.push_back(dnswire::make_a(m.questions.front().name,
                                      netbase::Ipv4Address(192, 0, 2, 53)));
  return dnswire::encode_message(m);
}

std::string journal_text() {
  atlas::JournalHeader header;
  header.fingerprint = 0x0123456789abcdefull;
  header.fleet_size = 3;
  fs::path tmp = fs::temp_directory_path() / "dnslocate_gen_seeds_journal.jsonl";
  {
    atlas::JournalWriter writer(tmp.string(), header);
    atlas::ProbeRecord ok;
    ok.probe_id = 1;
    ok.org.asn = 7922;
    ok.tested_v6 = true;
    ok.elapsed = std::chrono::microseconds(4242);
    atlas::ProbeRecord failed;
    failed.probe_id = 2;
    failed.outcome = atlas::ProbeOutcome::failed;
    failed.error = "transport exploded";
    atlas::ProbeRecord late;
    late.probe_id = 3;
    late.outcome = atlas::ProbeOutcome::deadline_exceeded;
    late.verdict.skipped_stages = 0x18;  // replication + transparency bits
    writer.append_batch({&ok, &failed, &late});
    writer.sync();
  }
  std::ifstream in(tmp, std::ios::binary);
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  fs::remove(tmp);
  return text;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: gen_seeds <corpus-root>\n");
    return 2;
  }
  fs::path root(argv[1]);
  fs::create_directories(root / "dnswire");
  fs::create_directories(root / "journal");

  // --- dnswire seeds -------------------------------------------------------
  write_bytes(root / "dnswire" / "query_a.bin", query_example());
  write_bytes(root / "dnswire" / "response_compressed.bin", response_all_types(true));
  write_bytes(root / "dnswire" / "response_uncompressed.bin", response_all_types(false));
  dnswire::WireBuffer truncated = response_all_types(true);
  truncated.resize(truncated.size() * 3 / 5);
  write_bytes(root / "dnswire" / "response_truncated.bin", truncated);
  write_bytes(root / "dnswire" / "pointer_loop.bin", pointer_loop());
  write_bytes(root / "dnswire" / "reserved_label.bin", reserved_label_bits());
  dnswire::WireBuffer trailing = query_example();
  trailing.insert(trailing.end(), {0xde, 0xad, 0xbe, 0xef});
  write_bytes(root / "dnswire" / "query_trailing_bytes.bin", trailing);
  const std::vector<std::uint8_t> header_only = {0x00, 0x01, 0x80, 0x00, 0x00, 0x00,
                                                 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  write_bytes(root / "dnswire" / "header_only.bin", header_only);
  write_bytes(root / "dnswire" / "adversary_query_mixed_case_edns.bin",
              dnswire::encode_message(query_mixed_case_edns()));
  write_bytes(root / "dnswire" / "adversary_query_folded_stripped.bin",
              adversary_folded_stripped());
  write_bytes(root / "dnswire" / "adversary_tc_with_answers.bin", adversary_tc_with_answers());
  write_bytes(root / "dnswire" / "adversary_spoofed_txt.bin", adversary_spoofed_txt());
  write_bytes(root / "dnswire" / "typed_rdata_bad.bin", typed_rdata_bad());
  write_bytes(root / "dnswire" / "response_tc_clear_with_opt.bin", response_tc_clear_with_opt());

  // --- journal seeds -------------------------------------------------------
  std::string intact = journal_text();
  write_text(root / "journal" / "intact.jsonl", intact);
  write_text(root / "journal" / "truncated_tail.jsonl",
             intact.substr(0, intact.size() - intact.size() / 4));
  std::string flipped = intact;
  flipped[intact.size() / 2] ^= 0x20;  // corrupt one record body mid-file
  write_text(root / "journal" / "bitflip_body.jsonl", flipped);
  std::string bad_header = intact;
  bad_header[10] ^= 0x01;  // corrupt the header line
  write_text(root / "journal" / "bitflip_header.jsonl", bad_header);
  write_text(root / "journal" / "header_only.jsonl",
             intact.substr(0, intact.find('\n') + 1));

  std::printf("gen_seeds: corpora written under %s\n", root.string().c_str());
  return 0;
}
