// DNS message: header + four record sections, plus builders for the message
// shapes the localization technique sends and receives.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>

#include "dnswire/record.h"
#include "netbase/ip_address.h"
#include "netbase/small_vector.h"

namespace dnslocate::dnswire {

/// The question section entry.
struct Question {
  DnsName name;
  RecordType type = RecordType::A;
  RecordClass klass = RecordClass::IN;

  [[nodiscard]] std::string to_string() const;
  friend auto operator<=>(const Question&, const Question&) = default;
};

/// Decoded header flag word (RFC 1035 §4.1.1).
struct Flags {
  bool qr = false;                  // response?
  Opcode opcode = Opcode::QUERY;
  bool aa = false;                  // authoritative answer
  bool tc = false;                  // truncated
  bool rd = true;                   // recursion desired
  bool ra = false;                  // recursion available
  bool ad = false;                  // authentic data (DNSSEC)
  bool cd = false;                  // checking disabled (DNSSEC)
  Rcode rcode = Rcode::NOERROR;

  [[nodiscard]] std::uint16_t to_wire() const;
  static Flags from_wire(std::uint16_t wire);
  friend auto operator<=>(const Flags&, const Flags&) = default;
};

/// Question section storage: probe queries carry exactly one question, so
/// the single inline slot covers every message this library builds itself.
using QuestionSection = netbase::SmallVector<Question, 1>;

/// Record section storage: inline capacity sized for the answer shapes the
/// interception classifiers see (address + CNAME + TXT fits without a spill).
using RecordSection = netbase::SmallVector<ResourceRecord, 3>;

/// A full DNS message.
struct Message {
  std::uint16_t id = 0;
  Flags flags;
  QuestionSection questions;
  RecordSection answers;
  RecordSection authorities;
  RecordSection additionals;

  /// First question, if any (the overwhelmingly common single-question case).
  [[nodiscard]] const Question* question() const {
    return questions.empty() ? nullptr : &questions.front();
  }

  /// First answer of the given type, or nullptr.
  [[nodiscard]] const ResourceRecord* first_answer(RecordType type) const;

  /// Concatenated TXT strings of the first TXT answer; nullopt if none.
  /// This is the payload the location-query classifiers inspect.
  [[nodiscard]] std::optional<std::string> first_txt() const;

  /// First A/AAAA answer as an address; follows nothing (no CNAME chasing).
  [[nodiscard]] std::optional<netbase::IpAddress> first_address() const;

  [[nodiscard]] bool is_response() const { return flags.qr; }
  [[nodiscard]] Rcode rcode() const { return flags.rcode; }

  /// The additional section carries an EDNS OPT record (RFC 6891).
  [[nodiscard]] bool has_opt() const;
  /// Append a default OPT record, owned by the root (RFC 6891 §6.1.2).
  void add_opt();

  /// Multi-line human rendering for traces and examples.
  [[nodiscard]] std::string to_string() const;

  friend auto operator<=>(const Message&, const Message&) = default;
};

/// RFC 5452 §9-style response acceptance: QR set, ids equal, opcodes equal,
/// and the first question echoed (name compared case-insensitively, type
/// and class exactly). Careful stubs apply these checks before accepting a
/// UDP response; all of this library's transports do.
bool is_acceptable_response(const Message& query, const Message& response);

/// Build a standard recursive query with a single question.
Message make_query(std::uint16_t id, const DnsName& name, RecordType type,
                   RecordClass klass = RecordClass::IN);

/// Build a response to `query`: copies id and question, sets QR/RA and rcode.
Message make_response(const Message& query, Rcode rcode = Rcode::NOERROR);

/// Build a response carrying a single TXT answer in the query's class —
/// the shape of every version.bind / id.server answer.
Message make_txt_response(const Message& query, std::string text, std::uint32_t ttl = 0);

}  // namespace dnslocate::dnswire
