#include "core/sim_transport.h"

#include <vector>

#include "core/exchange.h"
#include "dnswire/encoder.h"
#include "obs/span.h"

namespace dnslocate::core {
namespace {

/// The simulated ExchangeChannel: binds a fresh ephemeral port per attempt,
/// injects the datagram, and steps the simulator to hand inbound packets to
/// the exchange kernel one at a time. The per-attempt deadline is a
/// scheduled simulator event (not a time comparison), so event-queue
/// ordering at the horizon is exactly what the sequential transport had.
class SimChannel final : public ExchangeChannel, private simnet::UdpApp {
 public:
  SimChannel(simnet::Simulator& sim, simnet::Device& host, const netbase::Endpoint& server,
             const QueryOptions& options, std::uint16_t& next_port, std::uint64_t& queries_sent,
             std::vector<Inbound>& pool)
      : sim_(sim),
        host_(host),
        server_(server),
        options_(options),
        next_port_(next_port),
        queries_sent_(queries_sent),
        pool_(pool) {}

  ~SimChannel() override { end_attempt(); }

  [[nodiscard]] std::chrono::nanoseconds now() override { return sim_.now(); }

  bool begin_attempt_and_send(const dnswire::Message& attempt,
                              std::chrono::nanoseconds deadline) override {
    port_ = next_port_++;
    if (next_port_ < 40000) next_port_ = 40000;
    deadline_passed_ = false;
    head_ = count_ = 0;
    host_.bind_udp(port_, this);
    bound_ = true;
    ++queries_sent_;

    auto source = host_.local_ip(server_.address.family());
    if (!source) return false;  // family unsupported: behaves as a timeout

    simnet::UdpPacket packet;
    packet.src = *source;
    packet.dst = server_.address;
    packet.sport = port_;
    packet.dport = server_.port;
    if (options_.ttl) packet.ttl = *options_.ttl;
    packet.channel = options_.channel;
    if (options_.channel == simnet::Channel::dot_strict)
      packet.tls_expected_peer = server_.address;
    packet.payload = dnswire::encode_message(attempt);
    packet.trace_id = sim_.next_trace_id();
    host_.send_local(sim_, std::move(packet));

    // Sending costs no simulated time, so the horizon event lands exactly
    // `timeout` after the send — byte-identical to the pre-kernel schedule.
    bool* flag = &deadline_passed_;
    sim_.schedule(std::chrono::duration_cast<simnet::SimDuration>(deadline - sim_.now()),
                  [flag]() { *flag = true; });
    return true;
  }

  Inbound* receive(std::chrono::nanoseconds, const CancelToken&) override {
    // Drive the simulator until something lands on our port or the deadline
    // event fires; packets already queued are drained first so deliveries
    // from the final step are never lost. The slot handed out stays valid
    // until the next receive(): pool_ can only grow (and so reallocate)
    // inside this loop, by which time the kernel is done with the previous
    // slot.
    while (head_ == count_ && !deadline_passed_ && sim_.step()) {
    }
    if (head_ == count_) return nullptr;
    return &pool_[head_++];
  }

  void end_attempt() override {
    if (bound_) {
      host_.unbind_udp(port_);
      bound_ = false;
    }
    head_ = count_ = 0;
  }

  bool wait_backoff(std::chrono::milliseconds backoff, const CancelToken&) override {
    // Backoff in simulated time: let the world run until the wait ends.
    bool waited = false;
    sim_.schedule(std::chrono::duration_cast<simnet::SimDuration>(backoff),
                  [&waited]() { waited = true; });
    while (!waited && sim_.step()) {
    }
    return true;
  }

 private:
  void on_datagram(simnet::Simulator&, simnet::Device&,
                   const simnet::UdpPacket& packet) override {
    if (!bound_ || packet.dport != port_) return;
    // Reuse a pool slot: payload capacity survives, so the steady-state
    // delivery costs one payload copy and no allocation.
    if (count_ == pool_.size()) pool_.emplace_back();
    Inbound& in = pool_[count_++];
    in.payload.assign(packet.payload.begin(), packet.payload.end());
    if (packet.kind == simnet::PacketKind::icmp_ttl_exceeded) {
      in.kind = Inbound::Kind::icmp_ttl_exceeded;
      in.icmp_from = packet.src;
      in.source_matches = false;
      in.source = SourceKey{};
    } else {
      in.kind = Inbound::Kind::datagram;
      in.icmp_from.reset();
      in.source_matches = packet.src_endpoint() == server_;
      in.source = source_key_from(packet.src_endpoint());
    }
  }

  simnet::Simulator& sim_;
  simnet::Device& host_;
  netbase::Endpoint server_;
  const QueryOptions& options_;
  std::uint16_t& next_port_;
  std::uint64_t& queries_sent_;
  /// Slot pool owned by the transport (outlives this per-query channel);
  /// [head_, count_) are the undelivered inbounds of the current attempt.
  std::vector<Inbound>& pool_;

  std::uint16_t port_ = 0;
  bool bound_ = false;
  bool deadline_passed_ = false;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace

SimTransport::SimTransport(simnet::Simulator& sim, simnet::Device& host)
    : sim_(sim), host_(host) {}

bool SimTransport::supports_family(netbase::IpFamily family) const {
  return host_.local_ip(family).has_value();
}

QueryResult SimTransport::query(const netbase::Endpoint& server,
                                const dnswire::Message& message, const QueryOptions& options) {
  // All telemetry inside this query reads simulated time (deterministic),
  // even when the caller did not install a probe-wide simulated clock.
  SimulatorClock clock(sim_);
  obs::ScopedClock clock_scope(&clock);
  obs::Span query_span("transport/query");

  SimChannel channel(sim_, host_, server, options, next_port_, queries_sent_, inbound_pool_);
  // Single-shot unless the query asks for retries. Simulated waits cost no
  // wall-clock, so the full timeout window is always observed for
  // replication duplicates (no separate window), and the wall-clock
  // cancellation budget is meaningless in simulated time.
  ExchangePolicy policy;
  policy.duplicate_window = std::nullopt;
  policy.honour_cancellation = false;
  QueryResult result = run_exchange(channel, message, options, policy, &sim_.rng());
  record_telemetry(result);
  return result;
}

void SimTransport::run(QueryBatch& batch) {
  SimulatorClock clock(sim_);
  obs::ScopedClock clock_scope(&clock);
  obs::Span span("batch/sim_run");
  std::uint64_t started_ns = obs::now_ns();
  // Strict submission order: each query's cascade runs to its horizon before
  // the next begins, so the simulator's shared RNG stream is consumed in
  // exactly the sequential engine's order (see the header's determinism
  // note). Simulated time advances; wall time barely does.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const QuerySpec& spec = batch.spec(i);
    batch.result(i) = query(spec.server, spec.message, spec.options);
  }
  note_batch_metrics(batch.size(), obs::now_ns() - started_ns, batch.empty() ? 0 : 1, false);
}

}  // namespace dnslocate::core
