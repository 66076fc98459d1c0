// Fixture: src/core/retry.* defines the retry primitives, so backoff
// arithmetic there is not an R6 finding.
#include <chrono>

namespace dnslocate::core {

struct RetryPolicy {
  std::chrono::milliseconds initial_backoff{250};
  std::chrono::milliseconds backoff_before(unsigned attempt) const;
};

std::chrono::milliseconds RetryPolicy::backoff_before(unsigned attempt) const {
  return attempt <= 1 ? std::chrono::milliseconds(0) : initial_backoff;
}

}  // namespace dnslocate::core
