// Serving metrics: the snapshot a QueryService reads out of its metrics
// registry, and the one list that names each serving metric once — its
// ServiceMetrics member (which is also its JSON key and, by rule, its
// Prometheus name), type and help. The service registers, reads and exports
// every metric by looping over that list.

#ifndef MPQ_SERVICE_METRICS_H_
#define MPQ_SERVICE_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>

#include "obs/metrics_registry.h"
#include "profile/op_stats.h"

namespace mpq {

/// A point-in-time snapshot of a QueryService's counters (plain values,
/// safe to copy around).
struct ServiceMetrics {
  uint64_t queries = 0;        ///< Execute calls that reached execution.
  uint64_t errors = 0;         ///< Execute calls returning non-OK.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_insertions = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_entries = 0;
  uint64_t rows_returned = 0;
  uint64_t transfer_bytes = 0;
  uint64_t messages = 0;
  /// Executes that blocked on the in-flight cap.
  uint64_t admission_waits = 0;
  uint64_t in_flight_peak = 0;
  double hit_rate = 0;  ///< hits / (hits + misses), 0 when idle.

  // Async serving path (ExecuteAsync) and morsel scheduling.
  uint64_t async_queries = 0;  ///< Async submissions accepted.
  uint64_t sheds = 0;          ///< Async submissions rejected at the cap.
  uint64_t cancelled = 0;      ///< Async queries cancelled before running.
  uint64_t queue_depth_peak = 0;  ///< Peak in-flight + queued async queries.
  uint64_t morsels_executed = 0;   ///< Morsels run by the pool.
  uint64_t morsel_queue_depth = 0;  ///< Morsels registered, not yet run.
  uint64_t scan_leads = 0;     ///< Always 0 (no shared scans); for perfbench.
  uint64_t scan_attaches = 0;  ///< Always 0 (no shared scans); for perfbench.

  // Failover accounting (queries recovered via an alternative authorized
  // assignment after a provider failure).
  uint64_t failovers = 0;
  uint64_t failover_retransfer_bytes = 0;

  // Write path (ExecuteWrite + MRV counter APIs).
  uint64_t writes = 0;        ///< Write statements attempted.
  uint64_t write_errors = 0;  ///< Write statements returning non-OK.
  uint64_t rows_written = 0;  ///< Rows inserted/updated/deleted.
  uint64_t counter_ops = 0;   ///< MRV counter API calls.
  uint64_t snapshot_epoch = 0;  ///< Current store snapshot id (0 = no store).

  // End-to-end Execute latency, split by cache outcome (milliseconds).
  double total_p50_ms = 0, total_p95_ms = 0, total_p99_ms = 0;
  double hit_p50_ms = 0, hit_p95_ms = 0, hit_p99_ms = 0;
  double miss_p50_ms = 0, miss_p95_ms = 0, miss_p99_ms = 0;
  // Added latency of recovered queries: failure detection → recovered
  // result (milliseconds).
  double failover_p50_ms = 0, failover_p95_ms = 0, failover_p99_ms = 0;

  /// Per-operator engine counters (filter/join/groupby/encrypt/… wall
  /// nanoseconds and row volumes) aggregated over every query this service
  /// executed — the observable for hot-path regressions in serving.
  OpProfileSnapshot ops;

  /// The JSON object of every kServiceMetrics and kLatencyMetrics key, then
  /// `hit_rate` and `ops`.
  std::string ToJson() const;
};

/// One integer ServiceMetrics field. Its JSON key is the member's name; its
/// Prometheus series is `mpq_<key>`, with `_total` appended for counters.
struct ServiceMetricDef {
  const char* key;
  uint64_t ServiceMetrics::*field;
  MetricType type;
  const char* help;

  std::string Name() const {
    return std::string("mpq_") + key +
           (type == MetricType::kCounter ? "_total" : "");
  }
};

#define MPQ_METRIC(field, type, help) \
  { #field, &ServiceMetrics::field, MetricType::type, help }
/// Every integer ServiceMetrics field except the always-zero scan_leads and
/// scan_attaches, each named once. `hit_rate` is derived from the cache
/// rows and has no series of its own.
inline constexpr ServiceMetricDef kServiceMetrics[] = {
    MPQ_METRIC(queries, kCounter, "Executes that reached execution"),
    MPQ_METRIC(errors, kCounter, "Executes returning non-OK"),
    MPQ_METRIC(cache_hits, kCounter, "Plan cache hits"),
    MPQ_METRIC(cache_misses, kCounter, "Plan cache misses"),
    MPQ_METRIC(cache_insertions, kCounter, "Plans inserted into the cache"),
    MPQ_METRIC(cache_evictions, kCounter, "Plan cache evictions"),
    MPQ_METRIC(cache_entries, kGauge, "Plans currently cached"),
    MPQ_METRIC(rows_returned, kCounter, "Result rows delivered"),
    MPQ_METRIC(transfer_bytes, kCounter, "Bytes crossing assignee boundaries"),
    MPQ_METRIC(messages, kCounter, "Fragment messages delivered"),
    MPQ_METRIC(admission_waits, kCounter, "Executes that blocked on admission"),
    MPQ_METRIC(in_flight_peak, kGauge, "Peak concurrent Executes"),
    MPQ_METRIC(async_queries, kCounter, "Async submissions accepted"),
    MPQ_METRIC(sheds, kCounter, "Async submissions rejected at the queue cap"),
    MPQ_METRIC(cancelled, kCounter, "Async queries cancelled before execution"),
    MPQ_METRIC(queue_depth_peak, kGauge, "Peak in-flight plus queued queries"),
    MPQ_METRIC(morsels_executed, kCounter, "Morsels run by the pool"),
    MPQ_METRIC(morsel_queue_depth, kGauge, "Morsels registered, not yet run"),
    MPQ_METRIC(failovers, kCounter, "Re-plans after provider failures"),
    MPQ_METRIC(failover_retransfer_bytes, kCounter,
               "Bytes moved again by recovery plans"),
    MPQ_METRIC(writes, kCounter, "Write statements attempted"),
    MPQ_METRIC(write_errors, kCounter, "Write statements returning non-OK"),
    MPQ_METRIC(rows_written, kCounter, "Rows inserted/updated/deleted"),
    MPQ_METRIC(counter_ops, kCounter, "MRV counter API calls"),
    MPQ_METRIC(snapshot_epoch, kGauge, "Current table store snapshot id"),
};
#undef MPQ_METRIC

/// The quantiles every latency row reports: JSON key suffix and rank.
inline constexpr const char* kLatencySuffixes[] = {"_p50_ms", "_p95_ms",
                                                   "_p99_ms"};
inline constexpr double kLatencyRanks[] = {0.50, 0.95, 0.99};

/// One latency histogram: JSON keys `<key>_p50_ms` … `<key>_p99_ms` (the
/// `ms` members, in milliseconds), exported as a Prometheus summary.
struct LatencyMetricDef {
  const char* key;
  double ServiceMetrics::*ms[3];
  const char* name;
  const char* labels;
  const char* help;
};

/// Indices into kLatencyMetrics.
enum LatencyRow : size_t {
  kTotalLatency,
  kHitLatency,
  kMissLatency,
  kFailoverLatency,
};

#define MPQ_LATENCY(key, name, labels, help)                             \
  {#key, {&ServiceMetrics::key##_p50_ms, &ServiceMetrics::key##_p95_ms,  \
          &ServiceMetrics::key##_p99_ms}, name, labels, help}
/// End-to-end latency by cache outcome, and failover recovery latency, in
/// the order of LatencyRow. A family's help is given on its first row.
inline constexpr LatencyMetricDef kLatencyMetrics[] = {
    MPQ_LATENCY(total, "mpq_query_latency_seconds", "outcome=\"total\"",
                "End-to-end Execute latency"),
    MPQ_LATENCY(hit, "mpq_query_latency_seconds", "outcome=\"hit\"", ""),
    MPQ_LATENCY(miss, "mpq_query_latency_seconds", "outcome=\"miss\"", ""),
    MPQ_LATENCY(failover, "mpq_failover_latency_seconds", "",
                "Failure detection to recovered result"),
};
#undef MPQ_LATENCY

}  // namespace mpq

#endif  // MPQ_SERVICE_METRICS_H_
