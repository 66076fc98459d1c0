#include "dnswire/encoder.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "netbase/small_vector.h"

namespace dnslocate::dnswire {
namespace {

/// Checked narrowing for wire fields. Counts, character-string lengths, and
/// RDLENGTH are u8/u16 on the wire; a value that does not fit is an
/// unencodable message, never a silent truncation (a truncated RDLENGTH
/// would desynchronize every later record in the message).
std::uint16_t checked_u16(std::size_t v, const char* field) {
  if (v > 0xffff) throw std::length_error(std::string(field) + " exceeds 65535");
  return static_cast<std::uint16_t>(v);
}
std::uint8_t checked_u8(std::size_t v, const char* field) {
  if (v > 0xff) throw std::length_error(std::string(field) + " exceeds 255");
  return static_cast<std::uint8_t>(v);
}

/// Append helpers over a byte vector.
class Writer {
 public:
  explicit Writer(WireBuffer& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
    out_.push_back(static_cast<std::uint8_t>(v & 0xff));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v & 0xffff));
  }
  void bytes(std::span<const std::uint8_t> b) { out_.insert(out_.end(), b.begin(), b.end()); }
  void text(std::string_view s) {
    out_.insert(out_.end(), s.begin(), s.end());
  }

  /// Patch a previously written u16 at `offset`.
  void patch_u16(std::size_t offset, std::uint16_t v) {
    out_[offset] = static_cast<std::uint8_t>(v >> 8);
    out_[offset + 1] = static_cast<std::uint8_t>(v & 0xff);
  }

  [[nodiscard]] std::size_t size() const { return out_.size(); }

 private:
  WireBuffer& out_;
};

/// Tracks offsets of previously written name suffixes for compression. Each
/// entry is a suffix of a name already in the message (the name's labels,
/// its first label, the suffix's offset). A new suffix matches an entry when
/// the two label sequences are equal label by label, ignoring ASCII case.
/// Messages hold a handful of names, so a linear scan over an inline list
/// beats any index and allocates nothing.
class Compressor {
 public:
  explicit Compressor(bool enabled) : enabled_(enabled) {}

  void write_name(Writer& w, const DnsName& name) {
    const auto& labels = name.labels();
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (enabled_) {
        if (const Suffix* seen = find(labels, i)) {
          // Pointer: two bytes, top bits 11; offset < 0x4000 by construction.
          w.u16(static_cast<std::uint16_t>(0xc000 | seen->offset));
          return;
        }
        // Compression pointers can only address offsets < 0x4000.
        if (w.size() < 0x4000)
          seen_.push_back(Suffix{&labels, i, static_cast<std::uint16_t>(w.size())});
      }
      const std::string& label = labels[i];
      w.u8(checked_u8(label.size(), "label length"));
      w.text(label);
    }
    w.u8(0);  // root
  }

 private:
  struct Suffix {
    const std::vector<std::string>* labels;  // owned by the message being encoded
    std::size_t first;
    std::uint16_t offset;
  };

  [[nodiscard]] const Suffix* find(const std::vector<std::string>& labels,
                                   std::size_t first) const {
    const std::size_t count = labels.size() - first;
    for (const Suffix& s : seen_) {
      if (s.labels->size() - s.first != count) continue;
      auto earlier = s.labels->begin() + static_cast<std::ptrdiff_t>(s.first);
      if (std::equal(earlier, s.labels->end(), labels.begin() + static_cast<std::ptrdiff_t>(first),
                     label_equals_ignore_case))
        return &s;
    }
    return nullptr;
  }

  bool enabled_;
  netbase::SmallVector<Suffix, 16> seen_;
};

void write_rdata(Writer& w, Compressor& compressor, const ResourceRecord& rr) {
  // RDLENGTH placeholder, patched after the RDATA is known.
  std::size_t len_offset = w.size();
  w.u16(0);
  std::size_t start = w.size();
  std::visit(
      [&](const auto& rd) {
        using T = std::decay_t<decltype(rd)>;
        if constexpr (std::is_same_v<T, ARecord>) {
          w.bytes(rd.address.to_bytes());
        } else if constexpr (std::is_same_v<T, AaaaRecord>) {
          w.bytes(rd.address.bytes());
        } else if constexpr (std::is_same_v<T, TxtRecord>) {
          for (const auto& s : rd.strings) {
            w.u8(checked_u8(s.size(), "TXT character-string length"));
            w.text(s);
          }
        } else if constexpr (std::is_same_v<T, CnameRecord>) {
          compressor.write_name(w, rd.target);
        } else if constexpr (std::is_same_v<T, NsRecord>) {
          compressor.write_name(w, rd.nameserver);
        } else if constexpr (std::is_same_v<T, PtrRecord>) {
          compressor.write_name(w, rd.target);
        } else if constexpr (std::is_same_v<T, SoaRecord>) {
          compressor.write_name(w, rd.mname);
          compressor.write_name(w, rd.rname);
          w.u32(rd.serial);
          w.u32(rd.refresh);
          w.u32(rd.retry);
          w.u32(rd.expire);
          w.u32(rd.minimum);
        } else if constexpr (std::is_same_v<T, MxRecord>) {
          w.u16(rd.preference);
          compressor.write_name(w, rd.exchange);
        } else if constexpr (std::is_same_v<T, SrvRecord>) {
          w.u16(rd.priority);
          w.u16(rd.weight);
          w.u16(rd.port);
          // RFC 2782: the SRV target must not be compressed.
          Compressor uncompressed(false);
          uncompressed.write_name(w, rd.target);
        } else if constexpr (std::is_same_v<T, OptRecord>) {
          w.bytes(rd.options);
        } else {
          w.bytes(rd.data);
        }
      },
      rr.rdata);
  w.patch_u16(len_offset, checked_u16(w.size() - start, "RDLENGTH"));
}

void write_record(Writer& w, Compressor& compressor, const ResourceRecord& rr) {
  compressor.write_name(w, rr.name);
  w.u16(static_cast<std::uint16_t>(rr.type));
  if (rr.type == RecordType::OPT) {
    // For OPT, the CLASS field carries the advertised UDP payload size.
    const auto* opt = std::get_if<OptRecord>(&rr.rdata);
    w.u16(opt ? opt->udp_payload_size : 512);
  } else {
    w.u16(static_cast<std::uint16_t>(rr.klass));
  }
  w.u32(rr.ttl);
  write_rdata(w, compressor, rr);
}

}  // namespace

WireBuffer encode_message(const Message& message, EncodeOptions options) {
  WireBuffer out;
  out.reserve(512);
  Writer w(out);
  Compressor compressor(options.compress_names);

  w.u16(message.id);
  w.u16(message.flags.to_wire());
  w.u16(checked_u16(message.questions.size(), "QDCOUNT"));
  w.u16(checked_u16(message.answers.size(), "ANCOUNT"));
  w.u16(checked_u16(message.authorities.size(), "NSCOUNT"));
  w.u16(checked_u16(message.additionals.size(), "ARCOUNT"));

  for (const auto& q : message.questions) {
    compressor.write_name(w, q.name);
    w.u16(static_cast<std::uint16_t>(q.type));
    w.u16(static_cast<std::uint16_t>(q.klass));
  }
  for (const auto& rr : message.answers) write_record(w, compressor, rr);
  for (const auto& rr : message.authorities) write_record(w, compressor, rr);
  for (const auto& rr : message.additionals) write_record(w, compressor, rr);
  return out;
}

WireBuffer encode_name(const DnsName& name) {
  WireBuffer out;
  Writer w(out);
  Compressor compressor(false);
  compressor.write_name(w, name);
  return out;
}

}  // namespace dnslocate::dnswire
