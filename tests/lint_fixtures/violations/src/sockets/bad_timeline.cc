// Violation fixture for R6 (single-acceptance-seam): an engine growing its
// own copy of the attempt timeline — backoff arithmetic and a retry re-roll
// — instead of driving a core::Exchange. Every backoff_before and
// prepare_retry_attempt below is a finding outside src/core/exchange.* and
// src/core/retry.*.
#include <chrono>

namespace dnslocate::sockets {

struct Message {
  unsigned short id = 0;
};

struct Policy {
  std::chrono::milliseconds backoff_before(unsigned attempt) const;
};

void prepare_retry_attempt(Message& message);

std::chrono::milliseconds schedule_retry(const Policy& policy, unsigned attempt,
                                         Message& message) {
  prepare_retry_attempt(message);
  return policy.backoff_before(attempt + 1);
}

}  // namespace dnslocate::sockets
