#include "dnswire/name.h"

#include <algorithm>
#include <cctype>

namespace dnslocate::dnswire {
namespace {

char ascii_lower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

bool labels_valid(const std::vector<std::string>& labels) {
  std::size_t wire = 1;  // root byte
  for (const auto& label : labels) {
    if (label.empty() || label.size() > kMaxLabelLength) return false;
    wire += 1 + label.size();
  }
  return wire <= kMaxNameLength;
}

}  // namespace

std::optional<DnsName> DnsName::parse(std::string_view text) {
  if (text.empty()) return std::nullopt;
  if (text == ".") return DnsName{};
  if (text.back() == '.') text.remove_suffix(1);
  if (text.empty()) return std::nullopt;

  std::vector<std::string> labels;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t dot = text.find('.', start);
    std::string_view label =
        dot == std::string_view::npos ? text.substr(start) : text.substr(start, dot - start);
    labels.emplace_back(label);
    if (dot == std::string_view::npos) break;
    start = dot + 1;
  }
  return from_labels(std::move(labels));
}

std::optional<DnsName> DnsName::from_labels(std::vector<std::string> labels) {
  if (!labels_valid(labels)) return std::nullopt;
  DnsName name;
  name.labels_ = std::move(labels);
  return name;
}

std::string DnsName::to_string() const {
  if (labels_.empty()) return ".";
  std::string out;
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    if (i > 0) out.push_back('.');
    out += labels_[i];
  }
  return out;
}

std::size_t DnsName::wire_length() const {
  std::size_t len = 1;
  for (const auto& label : labels_) len += 1 + label.size();
  return len;
}

bool DnsName::equals_ignore_case(const DnsName& other) const {
  return labels_.size() == other.labels_.size() &&
         std::equal(labels_.begin(), labels_.end(), other.labels_.begin(),
                    label_equals_ignore_case);
}

bool DnsName::ends_with(const DnsName& suffix) const {
  if (suffix.labels_.size() > labels_.size()) return false;
  return std::equal(suffix.labels_.begin(), suffix.labels_.end(),
                    labels_.end() - static_cast<std::ptrdiff_t>(suffix.labels_.size()),
                    label_equals_ignore_case);
}

bool label_equals_ignore_case(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (ascii_lower(a[i]) != ascii_lower(b[i])) return false;
  return true;
}

DnsName DnsName::parent() const {
  DnsName out;
  if (labels_.size() <= 1) return out;
  out.labels_.assign(labels_.begin() + 1, labels_.end());
  return out;
}

DnsName DnsName::to_lower() const {
  DnsName out;
  out.labels_.reserve(labels_.size());
  for (const auto& label : labels_) {
    std::string lower = label;
    std::transform(lower.begin(), lower.end(), lower.begin(), ascii_lower);
    out.labels_.push_back(std::move(lower));
  }
  return out;
}

std::size_t DnsNameCaseHash::operator()(const DnsName& name) const noexcept {
  std::size_t h = 0xcbf29ce484222325ull;
  for (const auto& label : name.labels()) {
    for (char c : label) h = (h ^ static_cast<unsigned char>(ascii_lower(c))) * 0x100000001b3ull;
    h = (h ^ 0xff) * 0x100000001b3ull;  // label separator
  }
  return h;
}

}  // namespace dnslocate::dnswire
