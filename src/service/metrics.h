// Serving metrics: lock-free log-bucketed latency histograms (p50/p95/p99),
// cache and admission counters, and a JSON dump for dashboards and the
// benchmark harness.

#ifndef MPQ_SERVICE_METRICS_H_
#define MPQ_SERVICE_METRICS_H_

#include <cstdint>
#include <string>

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
  size_t cache_entries = 0;
  uint64_t rows_returned = 0;
  uint64_t transfer_bytes = 0;
  uint64_t messages = 0;
  /// Executes that blocked on the in-flight cap.
  uint64_t admission_waits = 0;
  size_t in_flight_peak = 0;
  double hit_rate = 0;  ///< hits / (hits + misses), 0 when idle.

  // Async serving path (ExecuteAsync) and morsel scheduling.
  uint64_t async_queries = 0;  ///< Async submissions accepted.
  uint64_t sheds = 0;          ///< Async submissions rejected at the cap.
  uint64_t cancelled = 0;      ///< Async queries cancelled before running.
  size_t queue_depth_peak = 0;  ///< Peak in-flight + queued async queries.
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

  /// One-line-per-field JSON object.
  std::string ToJson() const;
};

}  // namespace mpq

#endif  // MPQ_SERVICE_METRICS_H_
