#include "dnswire/view.h"

#include <algorithm>
#include <string>
#include <vector>

namespace dnslocate::dnswire {
namespace {

char ascii_lower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

/// Iterate the labels of a wire name, calling `visit(label_span)` for each.
/// Assumes the name already passed Cursor::name; checks only what safe
/// traversal needs.
template <typename Visit>
bool for_each_label(std::span<const std::uint8_t> wire, std::size_t offset, Visit&& visit) {
  std::size_t cursor = offset;
  std::size_t jumps = 0;
  while (cursor < wire.size()) {
    std::uint8_t len = wire[cursor];
    if ((len & 0xc0) == 0xc0) {
      if (cursor + 1 >= wire.size() || ++jumps > 64) return false;
      cursor = (static_cast<std::size_t>(len & 0x3f) << 8) | wire[cursor + 1];
      continue;
    }
    if (len == 0) return true;
    if ((len & 0xc0) != 0 || cursor + 1 + len > wire.size()) return false;
    if (!visit(wire.subspan(cursor + 1, len))) return false;
    cursor += 1u + len;
  }
  return false;
}

/// Copy the labels of a name Cursor::name validated and counted into a
/// vector reserved to exactly that count.
std::optional<DnsName> copy_name(std::span<const std::uint8_t> wire, std::size_t offset,
                                 std::size_t label_count) {
  std::vector<std::string> labels;
  labels.reserve(label_count);
  bool ok = for_each_label(wire, offset, [&labels](std::span<const std::uint8_t> label) {
    labels.emplace_back(label.begin(), label.end());
    return true;
  });
  if (!ok) return std::nullopt;
  return DnsName::from_labels(std::move(labels));
}

/// Bounds-checked cursor over a whole wire message: the only code that reads
/// DNS structure. decode_view walks sections with it and decode_rdata reads
/// typed RDATA with it. The first failure is reported through `error`.
class Cursor {
 public:
  Cursor(std::span<const std::uint8_t> wire, DecodeError* error, std::size_t start = 0)
      : wire_(wire), error_(error), offset_(start) {}

  [[nodiscard]] std::size_t offset() const { return offset_; }
  [[nodiscard]] std::size_t remaining() const { return wire_.size() - offset_; }

  bool fail(DecodeError::Code code, std::string context) {
    if (error_ && !failed_) *error_ = DecodeError{code, offset_, std::move(context)};
    failed_ = true;
    return false;
  }

  bool u8(std::uint8_t& out) {
    if (remaining() < 1) return fail(DecodeError::Code::truncated, "u8");
    out = wire_[offset_++];
    return true;
  }
  bool u16(std::uint16_t& out) {
    if (remaining() < 2) return fail(DecodeError::Code::truncated, "u16");
    out = static_cast<std::uint16_t>((std::uint16_t{wire_[offset_]} << 8) | wire_[offset_ + 1]);
    offset_ += 2;
    return true;
  }
  bool u32(std::uint32_t& out) {
    std::uint16_t hi = 0, lo = 0;
    if (!u16(hi) || !u16(lo)) return false;
    out = (std::uint32_t{hi} << 16) | lo;
    return true;
  }
  bool bytes(std::size_t n, std::span<const std::uint8_t>& out) {
    if (remaining() < n) return fail(DecodeError::Code::truncated, "bytes");
    out = wire_.subspan(offset_, n);
    offset_ += n;
    return true;
  }
  bool skip(std::size_t n, const char* what) {
    if (remaining() < n) return fail(DecodeError::Code::truncated, what);
    offset_ += n;
    return true;
  }

  /// Validate the (possibly compressed) name at the cursor and step past it,
  /// returning its label count. These are the name rules: pointers only go
  /// strictly backwards, at most 64 jumps, reserved label bits are rejected,
  /// and the expanded name is at most 255 octets.
  std::optional<std::size_t> name() {
    std::size_t cursor = offset_;
    bool jumped = false;
    std::size_t jumps = 0;
    std::size_t expanded = 1;  // root byte
    std::size_t labels = 0;

    while (true) {
      if (cursor >= wire_.size()) return fail_name(DecodeError::Code::truncated, "name");
      std::uint8_t len = wire_[cursor];
      if ((len & 0xc0) == 0xc0) {
        if (cursor + 1 >= wire_.size())
          return fail_name(DecodeError::Code::truncated, "name pointer");
        std::size_t target =
            (static_cast<std::size_t>(len & 0x3f) << 8) | wire_[cursor + 1];
        if (!jumped) offset_ = cursor + 2;
        // Backward-only pointers already bound the walk; the jump cap is
        // defence in depth.
        if (target >= cursor) return fail_name(DecodeError::Code::bad_pointer, "forward pointer");
        if (++jumps > 64) return fail_name(DecodeError::Code::bad_pointer, "pointer loop");
        cursor = target;
        jumped = true;
        continue;
      }
      if ((len & 0xc0) != 0)
        return fail_name(DecodeError::Code::bad_label, "reserved label bits");
      if (len == 0) {
        if (!jumped) offset_ = cursor + 1;
        return labels;
      }
      if (cursor + 1 + len > wire_.size())
        return fail_name(DecodeError::Code::truncated, "label body");
      expanded += 1u + len;
      if (expanded > kMaxNameLength)
        return fail_name(DecodeError::Code::name_too_long, "name > 255 octets");
      ++labels;
      cursor += 1u + len;
    }
  }

  /// Validate the name at the cursor, step past it, and copy it into `out`.
  bool name(DnsName& out) {
    std::size_t start = offset_;
    std::optional<std::size_t> count = name();
    if (!count) return false;
    std::optional<DnsName> copied = copy_name(wire_, start, *count);
    if (!copied) return fail(DecodeError::Code::name_too_long, "invalid labels");
    out = std::move(*copied);
    return true;
  }

 private:
  std::nullopt_t fail_name(DecodeError::Code code, std::string context) {
    fail(code, std::move(context));
    return std::nullopt;
  }

  std::span<const std::uint8_t> wire_;
  DecodeError* error_;
  std::size_t offset_ = 0;
  bool failed_ = false;
};

/// Read typed RDATA of `rdlength` octets at the cursor: the one check of
/// what each record type's RDATA must hold.
bool decode_rdata(Cursor& r, RecordType type, std::uint16_t rdlength, Rdata& out) {
  std::size_t end = r.offset() + rdlength;
  switch (type) {
    case RecordType::A: {
      if (rdlength != 4) return r.fail(DecodeError::Code::bad_rdata, "A rdlength != 4");
      std::span<const std::uint8_t> b;
      if (!r.bytes(4, b)) return false;
      out = ARecord{netbase::Ipv4Address(b[0], b[1], b[2], b[3])};
      return true;
    }
    case RecordType::AAAA: {
      if (rdlength != 16) return r.fail(DecodeError::Code::bad_rdata, "AAAA rdlength != 16");
      std::span<const std::uint8_t> b;
      if (!r.bytes(16, b)) return false;
      netbase::Ipv6Address::Bytes bytes{};
      std::copy(b.begin(), b.end(), bytes.begin());
      out = AaaaRecord{netbase::Ipv6Address(bytes)};
      return true;
    }
    case RecordType::TXT: {
      TxtRecord txt;
      while (r.offset() < end) {
        std::uint8_t len = 0;
        if (!r.u8(len)) return false;
        if (r.offset() + len > end)
          return r.fail(DecodeError::Code::bad_rdata, "TXT string overruns rdata");
        std::span<const std::uint8_t> b;
        if (!r.bytes(len, b)) return false;
        txt.strings.emplace_back(b.begin(), b.end());
      }
      // RFC 1035 requires at least one character-string.
      if (txt.strings.empty())
        return r.fail(DecodeError::Code::bad_rdata, "empty TXT rdata");
      out = std::move(txt);
      return true;
    }
    case RecordType::CNAME:
    case RecordType::NS:
    case RecordType::PTR: {
      DnsName name;
      if (!r.name(name)) return false;
      if (r.offset() != end)
        return r.fail(DecodeError::Code::bad_rdata, "name rdata length mismatch");
      if (type == RecordType::CNAME)
        out = CnameRecord{std::move(name)};
      else if (type == RecordType::NS)
        out = NsRecord{std::move(name)};
      else
        out = PtrRecord{std::move(name)};
      return true;
    }
    case RecordType::MX: {
      MxRecord mx;
      if (!r.u16(mx.preference) || !r.name(mx.exchange)) return false;
      if (r.offset() != end)
        return r.fail(DecodeError::Code::bad_rdata, "MX rdata length mismatch");
      out = std::move(mx);
      return true;
    }
    case RecordType::SRV: {
      SrvRecord srv;
      if (!r.u16(srv.priority) || !r.u16(srv.weight) || !r.u16(srv.port) ||
          !r.name(srv.target))
        return false;
      if (r.offset() != end)
        return r.fail(DecodeError::Code::bad_rdata, "SRV rdata length mismatch");
      out = std::move(srv);
      return true;
    }
    case RecordType::SOA: {
      SoaRecord soa;
      if (!r.name(soa.mname) || !r.name(soa.rname)) return false;
      if (!r.u32(soa.serial) || !r.u32(soa.refresh) || !r.u32(soa.retry) ||
          !r.u32(soa.expire) || !r.u32(soa.minimum))
        return false;
      if (r.offset() != end)
        return r.fail(DecodeError::Code::bad_rdata, "SOA rdata length mismatch");
      out = std::move(soa);
      return true;
    }
    case RecordType::OPT: {
      OptRecord opt;
      std::span<const std::uint8_t> b;
      if (!r.bytes(rdlength, b)) return false;
      opt.options.assign(b.begin(), b.end());
      out = std::move(opt);
      return true;
    }
    default: {
      RawRecord raw;
      std::span<const std::uint8_t> b;
      if (!r.bytes(rdlength, b)) return false;
      raw.data.assign(b.begin(), b.end());
      out = std::move(raw);
      return true;
    }
  }
}

}  // namespace

std::optional<DnsName> QuestionView::name() const {
  return copy_name(wire_, name_offset_, name_labels_);
}

bool QuestionView::name_equals(const DnsName& other) const {
  const auto& labels = other.labels();
  std::size_t next = 0;
  bool ok = for_each_label(wire_, name_offset_, [&](std::span<const std::uint8_t> label) {
    if (next >= labels.size()) return false;
    const std::string& expected = labels[next++];
    if (label.size() != expected.size()) return false;
    for (std::size_t i = 0; i < label.size(); ++i) {
      if (ascii_lower(static_cast<char>(label[i])) != ascii_lower(expected[i])) return false;
    }
    return true;
  });
  return ok && next == labels.size();
}

std::optional<Question> QuestionView::to_question() const {
  std::optional<DnsName> n = name();
  if (!n) return std::nullopt;
  return Question{std::move(*n), type_, klass_};
}

std::optional<DnsName> RecordView::name() const {
  return copy_name(wire_, name_offset_, name_labels_);
}

std::optional<ResourceRecord> RecordView::to_record(DecodeError* error) const {
  ResourceRecord rr;
  if (!materialize(rr, error)) return std::nullopt;
  return rr;
}

bool RecordView::materialize(ResourceRecord& rr, DecodeError* error) const {
  std::optional<DnsName> owner = name();
  if (!owner) {
    if (error) *error = DecodeError{DecodeError::Code::truncated, name_offset_, "name"};
    return false;
  }
  rr.name = std::move(*owner);
  rr.type = type_;
  rr.ttl = ttl_;
  Cursor rdata(wire_, error, rdata_offset_);
  if (!decode_rdata(rdata, type_, rdata_length_, rr.rdata)) return false;
  if (type_ == RecordType::OPT) {
    // CLASS field of OPT is the advertised UDP payload size.
    rr.klass = RecordClass::IN;
    std::get<OptRecord>(rr.rdata).udp_payload_size = raw_klass_;
  } else {
    rr.klass = static_cast<RecordClass>(raw_klass_);
  }
  return true;
}

std::optional<Message> MessageView::to_message(DecodeError* error) const {
  Message m;
  m.id = id_;
  m.flags = flags_;
  m.questions.reserve(questions_.size());
  for (const QuestionView& qv : questions_) {
    std::optional<Question> q = qv.to_question();
    if (!q) {
      if (error) *error = DecodeError{DecodeError::Code::truncated, qv.name_offset_, "name"};
      return std::nullopt;
    }
    m.questions.push_back(std::move(*q));
  }
  auto section = [error](const auto& views, RecordSection& out) {
    out.reserve(views.size());
    for (const RecordView& rv : views)
      if (!rv.materialize(out.emplace_back(), error)) return false;
    return true;
  };
  if (!section(answers_, m.answers) || !section(authorities_, m.authorities) ||
      !section(additionals_, m.additionals))
    return std::nullopt;
  return m;
}

std::optional<MessageView> decode_view(std::span<const std::uint8_t> wire, DecodeError* error,
                                       DecodeOptions options) {
  Cursor w(wire, error);
  MessageView view;
  view.wire_ = wire;

  std::uint16_t flags_wire = 0, qdcount = 0, ancount = 0, nscount = 0, arcount = 0;
  if (!w.u16(view.id_) || !w.u16(flags_wire) || !w.u16(qdcount) || !w.u16(ancount) ||
      !w.u16(nscount) || !w.u16(arcount))
    return std::nullopt;
  view.flags_ = Flags::from_wire(flags_wire);

  for (std::uint16_t i = 0; i < qdcount; ++i) {
    QuestionView qv;
    qv.wire_ = wire;
    qv.name_offset_ = w.offset();
    std::optional<std::size_t> labels = w.name();
    std::uint16_t type = 0, klass = 0;
    if (!labels || !w.u16(type) || !w.u16(klass)) return std::nullopt;
    qv.name_labels_ = static_cast<std::uint8_t>(*labels);
    qv.type_ = static_cast<RecordType>(type);
    qv.klass_ = static_cast<RecordClass>(klass);
    view.questions_.push_back(qv);
  }

  auto section = [&](std::uint16_t count, auto& out) {
    for (std::uint16_t i = 0; i < count; ++i) {
      RecordView rv;
      rv.wire_ = wire;
      rv.name_offset_ = w.offset();
      std::optional<std::size_t> labels = w.name();
      std::uint16_t type = 0, klass = 0, rdlength = 0;
      std::uint32_t ttl = 0;
      if (!labels || !w.u16(type) || !w.u16(klass) || !w.u32(ttl) || !w.u16(rdlength))
        return false;
      rv.name_labels_ = static_cast<std::uint8_t>(*labels);
      rv.type_ = static_cast<RecordType>(type);
      rv.raw_klass_ = klass;
      rv.ttl_ = ttl;
      rv.rdata_offset_ = w.offset();
      rv.rdata_length_ = rdlength;
      if (!w.skip(rdlength, "rdata")) return false;
      out.push_back(rv);
    }
    return true;
  };
  if (!section(ancount, view.answers_) || !section(nscount, view.authorities_) ||
      !section(arcount, view.additionals_))
    return std::nullopt;

  view.trailing_ = w.remaining();
  if (options.reject_trailing_bytes && view.trailing_ > 0) {
    w.fail(DecodeError::Code::trailing_bytes,
           std::to_string(view.trailing_) + " bytes after message");
    return std::nullopt;
  }
  return view;
}

}  // namespace dnslocate::dnswire
