#include "dnswire/message.h"

namespace dnslocate::dnswire {

std::string Question::to_string() const {
  std::string out = name.to_string();
  out += " ";
  out += dnswire::to_string(klass);
  out += " ";
  out += dnswire::to_string(type);
  return out;
}

std::uint16_t Flags::to_wire() const {
  std::uint16_t w = 0;
  if (qr) w |= 0x8000;
  w |= static_cast<std::uint16_t>((static_cast<std::uint16_t>(opcode) & 0xf) << 11);
  if (aa) w |= 0x0400;
  if (tc) w |= 0x0200;
  if (rd) w |= 0x0100;
  if (ra) w |= 0x0080;
  if (ad) w |= 0x0020;
  if (cd) w |= 0x0010;
  w |= static_cast<std::uint16_t>(static_cast<std::uint16_t>(rcode) & 0xf);
  return w;
}

Flags Flags::from_wire(std::uint16_t wire) {
  Flags f;
  f.qr = (wire & 0x8000) != 0;
  f.opcode = static_cast<Opcode>((wire >> 11) & 0xf);
  f.aa = (wire & 0x0400) != 0;
  f.tc = (wire & 0x0200) != 0;
  f.rd = (wire & 0x0100) != 0;
  f.ra = (wire & 0x0080) != 0;
  f.ad = (wire & 0x0020) != 0;
  f.cd = (wire & 0x0010) != 0;
  f.rcode = static_cast<Rcode>(wire & 0xf);
  return f;
}

const ResourceRecord* Message::first_answer(RecordType type) const {
  for (const auto& rr : answers)
    if (rr.type == type) return &rr;
  return nullptr;
}

bool Message::has_opt() const {
  for (const auto& rr : additionals)
    if (rr.type == RecordType::OPT) return true;
  return false;
}

void Message::add_opt() {
  ResourceRecord opt;
  opt.type = RecordType::OPT;
  opt.rdata = OptRecord{};
  additionals.push_back(std::move(opt));
}

std::optional<std::string> Message::first_txt() const {
  const ResourceRecord* rr = first_answer(RecordType::TXT);
  if (!rr) return std::nullopt;
  if (const auto* txt = std::get_if<TxtRecord>(&rr->rdata)) return txt->joined();
  return std::nullopt;
}

std::optional<netbase::IpAddress> Message::first_address() const {
  for (const auto& rr : answers) {
    if (rr.type == RecordType::A) {
      if (const auto* a = std::get_if<ARecord>(&rr.rdata))
        return netbase::IpAddress(a->address);
    } else if (rr.type == RecordType::AAAA) {
      if (const auto* aaaa = std::get_if<AaaaRecord>(&rr.rdata))
        return netbase::IpAddress(aaaa->address);
    }
  }
  return std::nullopt;
}

std::string Message::to_string() const {
  std::string out;
  out += ";; id=" + std::to_string(id);
  out += is_response() ? " response" : " query";
  out += " ";
  out += dnswire::to_string(flags.opcode);
  out += " ";
  out += dnswire::to_string(flags.rcode);
  if (flags.aa) out += " aa";
  if (flags.tc) out += " tc";
  if (flags.rd) out += " rd";
  if (flags.ra) out += " ra";
  out += "\n";
  for (const auto& q : questions) out += ";; question: " + q.to_string() + "\n";
  for (const auto& rr : answers) out += ";; answer: " + rr.to_string() + "\n";
  for (const auto& rr : authorities) out += ";; authority: " + rr.to_string() + "\n";
  for (const auto& rr : additionals) out += ";; additional: " + rr.to_string() + "\n";
  return out;
}

bool is_acceptable_response(const Message& query, const Message& response) {
  if (!response.is_response() || response.id != query.id) return false;
  if (response.flags.opcode != query.flags.opcode) return false;
  const Question* asked = query.question();
  const Question* echoed = response.question();
  if (asked == nullptr) return echoed == nullptr || response.questions.empty();
  if (echoed == nullptr) return false;
  return asked->type == echoed->type && asked->klass == echoed->klass &&
         asked->name.equals_ignore_case(echoed->name);
}

Message make_query(std::uint16_t id, const DnsName& name, RecordType type, RecordClass klass) {
  Message m;
  m.id = id;
  m.flags.qr = false;
  m.flags.rd = true;
  m.questions.push_back(Question{name, type, klass});
  return m;
}

Message make_response(const Message& query, Rcode rcode) {
  Message m;
  m.id = query.id;
  m.flags.qr = true;
  m.flags.rd = query.flags.rd;
  m.flags.ra = true;
  m.flags.rcode = rcode;
  m.questions = query.questions;
  return m;
}

Message make_txt_response(const Message& query, std::string text, std::uint32_t ttl) {
  Message m = make_response(query, Rcode::NOERROR);
  if (const Question* q = query.question()) {
    m.answers.push_back(make_txt(q->name, std::move(text), q->klass, ttl));
  }
  return m;
}

}  // namespace dnslocate::dnswire
