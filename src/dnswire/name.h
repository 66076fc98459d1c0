// DNS domain names: a validated sequence of labels.
//
// Names compare case-insensitively (RFC 1035 §2.3.3) but preserve the case
// they were constructed with, matching resolver behaviour (0x20 encoding
// relies on this).
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dnslocate::dnswire {

/// Maximum label length in octets (RFC 1035 §2.3.4).
inline constexpr std::size_t kMaxLabelLength = 63;
/// Maximum total name length in wire octets, including length bytes and the
/// terminating root label.
inline constexpr std::size_t kMaxNameLength = 255;

/// A domain name. The root name has zero labels.
class DnsName {
 public:
  /// The root name ".".
  DnsName() = default;

  /// Parse presentation format ("www.example.com", trailing dot optional,
  /// "." for root). Rejects empty labels, oversize labels/names. Does not
  /// support \DDD escapes (none of the names this library handles need them).
  static std::optional<DnsName> parse(std::string_view text);

  /// Build from raw labels; returns nullopt if any label is empty/oversize
  /// or the total exceeds kMaxNameLength.
  static std::optional<DnsName> from_labels(std::vector<std::string> labels);

  [[nodiscard]] const std::vector<std::string>& labels() const { return labels_; }
  [[nodiscard]] bool is_root() const { return labels_.empty(); }
  [[nodiscard]] std::size_t label_count() const { return labels_.size(); }

  /// Presentation form without trailing dot ("example.com"); "." for root.
  [[nodiscard]] std::string to_string() const;

  /// Wire-format length in octets (sum of 1+len per label, +1 for root).
  [[nodiscard]] std::size_t wire_length() const;

  /// Case-insensitive equality (the DNS notion of "the same name").
  [[nodiscard]] bool equals_ignore_case(const DnsName& other) const;

  /// True if this name is `suffix` or ends with its labels
  /// (case-insensitive): "a.b.example.com".ends_with("example.com").
  [[nodiscard]] bool ends_with(const DnsName& suffix) const;

  /// Name with the first label removed; root stays root.
  [[nodiscard]] DnsName parent() const;

  /// Lowercased copy, for canonical map keys.
  [[nodiscard]] DnsName to_lower() const;

  /// Byte-wise (case-sensitive) comparison; use equals_ignore_case for DNS
  /// semantics.
  friend auto operator<=>(const DnsName&, const DnsName&) = default;

 private:
  std::vector<std::string> labels_;
};

/// ASCII case-insensitive label equality (RFC 4343): the DNS notion of "the
/// same label". Names compare equal iff their labels do, pairwise.
[[nodiscard]] bool label_equals_ignore_case(std::string_view a, std::string_view b);

/// Case-insensitive hash matching equals_ignore_case; pair them when using
/// DnsName as a hash key.
struct DnsNameCaseHash {
  std::size_t operator()(const DnsName& name) const noexcept;
};
struct DnsNameCaseEq {
  bool operator()(const DnsName& a, const DnsName& b) const noexcept {
    return a.equals_ignore_case(b);
  }
};

}  // namespace dnslocate::dnswire
