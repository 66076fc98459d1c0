#include "core/query_batch.h"

#include "obs/metrics.h"
#include "obs/span.h"

namespace dnslocate::core {

QueryResult query_one(AsyncQueryTransport& engine, const netbase::Endpoint& server,
                      const dnswire::Message& message, const QueryOptions& options) {
  QueryBatch batch;
  batch.add(server, message, options);
  engine.run(batch);
  return std::move(batch.result(0));
}

void SequentialTransport::run(QueryBatch& batch) {
  obs::Span span("batch/sequential_run");
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const QuerySpec& spec = batch.spec(i);
    batch.result(i) = query(spec.server, spec.message, spec.options);
  }
  note_batch_metrics(batch.size(), 0, batch.empty() ? 0 : 1, batch.drained());
}

void note_batch_metrics(std::size_t queries, std::uint64_t latency_ns, std::size_t max_inflight,
                        bool drained) {
  if (!obs::metrics_enabled()) return;
  static obs::Counter& runs = obs::registry().counter("batch_runs_total");
  static obs::Counter& total_queries = obs::registry().counter("batch_queries_total");
  static obs::Counter& drains = obs::registry().counter("batch_drained_total");
  static obs::Histogram& size_hist = obs::registry().histogram("batch_size_queries");
  static obs::Histogram& latency_hist = obs::registry().histogram("batch_latency_us");
  static obs::Gauge& inflight_peak = obs::registry().gauge("batch_inflight_peak_queries");
  runs.add_always(1);
  total_queries.add_always(queries);
  if (drained) drains.add_always(1);
  size_hist.record_always(queries);
  if (latency_ns != 0) latency_hist.record_always(latency_ns / 1000);
  if (static_cast<std::int64_t>(max_inflight) > inflight_peak.value()) {
    inflight_peak.set(static_cast<std::int64_t>(max_inflight));
  }
}

}  // namespace dnslocate::core
