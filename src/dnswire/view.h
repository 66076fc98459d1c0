// Zero-copy decode view over a wire-format message. decode_view() walks the
// buffer once, validating structure (bounds, compression-pointer discipline,
// name length) without materializing names, strings, or rdata — no allocation
// happens until a caller asks for an owning value. This walk is the library's
// only structural validator: decode_message() is decode_view() followed by
// to_message(). The UDP engine uses the view as a cheap demux prefilter: most
// inbound datagrams only need the id, the QR bit, and the first question to
// find their owner; full decoding happens once, on the matched query's
// thread.
//
// A view BORROWS the buffer it was decoded from. It is valid only while those
// bytes outlive it; copying a view copies the borrow, not the bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "dnswire/decoder.h"
#include "dnswire/message.h"
#include "dnswire/record.h"
#include "netbase/small_vector.h"

namespace dnslocate::dnswire {

class MessageView;

/// Walk `wire` and locate every section entry, validating structure without
/// materializing anything: truncation, bad pointers, reserved label bits,
/// names over 255 octets, RDLENGTH past the buffer, and (strict mode)
/// trailing bytes. Typed RDATA errors are left to RecordView::to_record().
/// The returned view borrows `wire`.
std::optional<MessageView> decode_view(std::span<const std::uint8_t> wire,
                                       DecodeError* error = nullptr,
                                       DecodeOptions options = {});

/// A question entry located in the wire buffer.
class QuestionView {
 public:
  [[nodiscard]] RecordType type() const { return type_; }
  [[nodiscard]] RecordClass klass() const { return klass_; }

  /// Materialize the (possibly compressed) owner name. Allocates.
  [[nodiscard]] std::optional<DnsName> name() const;

  /// Case-insensitive comparison against `other` without materializing.
  [[nodiscard]] bool name_equals(const DnsName& other) const;

  /// Owning equivalent of this entry. Allocates.
  [[nodiscard]] std::optional<Question> to_question() const;

 private:
  friend class MessageView;
  friend std::optional<MessageView> decode_view(std::span<const std::uint8_t>, DecodeError*,
                                                DecodeOptions);
  std::span<const std::uint8_t> wire_;
  std::size_t name_offset_ = 0;
  std::uint8_t name_labels_ = 0;  // counted by the walk; sizes the copy
  RecordType type_ = RecordType::A;
  RecordClass klass_ = RecordClass::IN;
};

/// A resource record located in the wire buffer. The structural walk has
/// verified the envelope (name, fixed fields, RDLENGTH bounds); typed RDATA
/// strictness — A rdlength == 4, non-empty TXT, name-rdata length agreement —
/// is checked by to_record(), the library's one typed RDATA check.
class RecordView {
 public:
  [[nodiscard]] RecordType type() const { return type_; }
  [[nodiscard]] std::uint32_t ttl() const { return ttl_; }

  /// Raw CLASS field. For OPT this is the advertised UDP payload size.
  [[nodiscard]] std::uint16_t raw_klass() const { return raw_klass_; }

  /// The RDATA bytes, unparsed. Borrowed from the wire buffer.
  [[nodiscard]] std::span<const std::uint8_t> rdata() const {
    return wire_.subspan(rdata_offset_, rdata_length_);
  }

  /// Materialize the owner name. Allocates.
  [[nodiscard]] std::optional<DnsName> name() const;

  /// Owning equivalent of this record: the walk's TYPE, CLASS, TTL and
  /// RDLENGTH plus typed RDATA. Returns nullopt (and fills `error`) when the
  /// RDATA is malformed for the record type.
  [[nodiscard]] std::optional<ResourceRecord> to_record(DecodeError* error = nullptr) const;

 private:
  friend class MessageView;
  friend std::optional<MessageView> decode_view(std::span<const std::uint8_t>, DecodeError*,
                                                DecodeOptions);
  /// to_record() into `out`, which to_message() emplaces in its section.
  bool materialize(ResourceRecord& out, DecodeError* error) const;

  std::span<const std::uint8_t> wire_;
  std::size_t name_offset_ = 0;
  std::size_t rdata_offset_ = 0;
  std::uint16_t rdata_length_ = 0;
  RecordType type_ = RecordType::A;
  std::uint16_t raw_klass_ = 0;
  std::uint8_t name_labels_ = 0;  // counted by the walk; sizes the copy
  std::uint32_t ttl_ = 0;
};

/// A structurally validated message, located but not materialized.
class MessageView {
 public:
  [[nodiscard]] std::uint16_t id() const { return id_; }
  [[nodiscard]] Flags flags() const { return flags_; }
  [[nodiscard]] bool is_response() const { return flags_.qr; }

  [[nodiscard]] std::size_t question_count() const { return questions_.size(); }
  [[nodiscard]] std::size_t answer_count() const { return answers_.size(); }
  [[nodiscard]] std::size_t authority_count() const { return authorities_.size(); }
  [[nodiscard]] std::size_t additional_count() const { return additionals_.size(); }

  [[nodiscard]] const QuestionView& question(std::size_t i) const { return questions_[i]; }
  [[nodiscard]] const RecordView& answer(std::size_t i) const { return answers_[i]; }
  [[nodiscard]] const RecordView& authority(std::size_t i) const { return authorities_[i]; }
  [[nodiscard]] const RecordView& additional(std::size_t i) const { return additionals_[i]; }

  /// First question, or nullptr — mirrors Message::question().
  [[nodiscard]] const QuestionView* first_question() const {
    return questions_.empty() ? nullptr : &questions_.front();
  }

  /// Bytes past the last section (padding middleboxes append).
  [[nodiscard]] std::size_t trailing_bytes() const { return trailing_; }

  /// Fully materialize; decode_message() is decode_view() plus this. Succeeds
  /// iff every record's typed RDATA validates.
  [[nodiscard]] std::optional<Message> to_message(DecodeError* error = nullptr) const;

 private:
  friend std::optional<MessageView> decode_view(std::span<const std::uint8_t>, DecodeError*,
                                                DecodeOptions);
  std::span<const std::uint8_t> wire_;
  std::uint16_t id_ = 0;
  Flags flags_;
  netbase::SmallVector<QuestionView, 1> questions_;
  netbase::SmallVector<RecordView, 3> answers_;
  netbase::SmallVector<RecordView, 3> authorities_;
  netbase::SmallVector<RecordView, 3> additionals_;
  std::size_t trailing_ = 0;
};

}  // namespace dnslocate::dnswire
