// Fixture: an engine that drives the attempt timeline instead of owning it.
// It asks the exchange when to wake and what a timer expiry does; no
// backoff arithmetic or re-roll of its own.
#include <chrono>

namespace dnslocate::sockets {

struct Exchange {
  std::chrono::nanoseconds wake_at() const { return std::chrono::nanoseconds(0); }
  void on_expiry(std::chrono::nanoseconds) {}
};

std::chrono::nanoseconds on_timer(Exchange& exchange, std::chrono::nanoseconds now) {
  exchange.on_expiry(now);
  return exchange.wake_at();
}

}  // namespace dnslocate::sockets
