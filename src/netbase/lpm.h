// Longest-prefix-match table, generic over the value attached to each route.
// Used for routing tables, bogon catalogs with custom entries, and resolver
// anycast catchments.
//
// Size assumption: every table this program builds is small. Simulated
// devices hold 2-7 routes, ISP routers 18-21, the standard bogon catalog 23.
// At those sizes a linear scan over a flat, length-sorted vector beats a
// pointer-chasing trie on lookup and costs one allocation to build. Lookup
// is O(routes): do not use this for full Internet tables (bench/perf_micro
// keeps a 1000-route case to show the cliff).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "netbase/prefix.h"

namespace dnslocate::netbase {

/// Insert Prefix -> Value; lookup(addr) returns the value of the longest
/// matching prefix, or nullptr. Routes are kept longest-first, so the first
/// match of a scan is the longest. v4 and v6 routes never match each other's
/// addresses.
template <typename Value>
class LpmTable {
 public:
  LpmTable() = default;

  /// Insert or replace the value for `prefix`.
  void insert(const Prefix& prefix, Value value) {
    auto it = std::find_if(routes_.begin(), routes_.end(), [&](const Route& r) {
      return r.prefix.length() <= prefix.length();
    });
    for (; it != routes_.end() && it->prefix.length() == prefix.length(); ++it) {
      if (it->prefix == prefix) {
        it->value = std::move(value);
        return;
      }
    }
    routes_.insert(it, Route{prefix, std::move(value)});
  }

  /// Longest-prefix match. Returns a pointer into the table (stable until
  /// the next insert/clear), or nullptr if nothing matches.
  [[nodiscard]] const Value* lookup(const IpAddress& addr) const {
    if (addr.is_v4()) {
      const std::uint32_t bits = addr.v4().value();
      for (const Route& r : routes_) {
        if (!r.prefix.address().is_v4()) continue;
        const unsigned len = r.prefix.length();
        const std::uint32_t mask = len == 0 ? 0u : ~std::uint32_t{0} << (32 - len);
        if ((bits & mask) == r.prefix.address().v4().value()) return &r.value;
      }
      return nullptr;
    }
    for (const Route& r : routes_)
      if (r.prefix.contains(addr)) return &r.value;
    return nullptr;
  }

  /// Exact-match lookup of a previously inserted prefix.
  [[nodiscard]] const Value* lookup_exact(const Prefix& prefix) const {
    for (const Route& r : routes_)
      if (r.prefix == prefix) return &r.value;
    return nullptr;
  }

  [[nodiscard]] std::size_t size() const { return routes_.size(); }
  [[nodiscard]] bool empty() const { return routes_.empty(); }
  void clear() { routes_.clear(); }

 private:
  struct Route {
    Prefix prefix;  // address already masked to its length
    Value value;
  };

  std::vector<Route> routes_;  // longest prefix first
};

}  // namespace dnslocate::netbase
