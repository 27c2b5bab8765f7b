// Shared declarations of the repository benchmark (perfbench).
//
// The benchmark drives QueryService over the TPC-H UAPenc scenario and
// prints one JSON result line; perfbench/run.py builds it and documents the
// command line. Three pieces live in separate files:
//
//   stats.cc     — percentiles, open-loop timing, RSS; pure and self-checked
//   ledger.cc    — the traced run's per-layer span ledger
//   workloads.cc — set-up, closed-loop readers, the writer, oracle checks,
//                  the traced service and the front-half replay

#ifndef MPQ_PERFBENCH_BENCH_H_
#define MPQ_PERFBENCH_BENCH_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/trace.h"

namespace perfbench {

// ------------------------------------------------------------------ stats ---

/// Nearest-rank percentile of `samples` (p in (0, 1]): the smallest sample
/// with at least p of all samples at or below it. Fails unless at least
/// `min_beyond` samples lie strictly above the reported rank, so a tail
/// percentile is never read off a handful of samples.
mpq::Result<double> TailPercentile(std::vector<double> samples, double p,
                                   size_t min_beyond = 10);

/// Robust form of TailPercentile for a run: splits `in_order` (samples in
/// completion order) into floor(n / window) consecutive windows of at least
/// `window` samples and returns the median of the windows' percentiles, so
/// a burst of host noise confined to a few windows moves the result little.
/// With fewer than two windows' worth of samples it is TailPercentile.
mpq::Result<double> WindowedPercentile(const std::vector<double>& in_order,
                                       double p, size_t window,
                                       size_t min_beyond = 10);

/// Completions per second over the same windows of `done_s` (ascending
/// completion times, seconds from the phase start): the median window rate.
double WindowedRate(const std::vector<double>& done_s, size_t window);

/// Timing of one open-loop request. `due` is when the schedule wanted it
/// sent, `free` when the sender finished its previous request, `issue` when
/// it was actually sent and `done` when it completed (all in seconds).
struct OpenLoopTiming {
  /// done - due: counts the wait a stall imposes on later requests.
  double latency_s = 0;
  /// How late the generator itself sent: issue - max(due, free). Queueing
  /// behind a slow previous request is latency, not generator lateness.
  double lateness_s = 0;
};
OpenLoopTiming TimeFromDue(double due, double free, double issue,
                           double done);

/// Median (mean of the middle two for an even count); 0 when empty.
double Median(std::vector<double> v);

/// Peak resident set size of this process in MiB (VmHWM), 0 if unknown.
double PeakRssMb();

/// Runs the self-checks of the pure helpers above; prints each failure and
/// returns the number of failures.
int RunStatsSelfChecks();

// ----------------------------------------------------------------- ledger ---

/// Per-layer accounting of a traced run. Two kinds of trace are folded in:
///
///  - a request: the trace the service records itself, rooted at its
///    "query" span. Spans directly under the root (the cache probe, the
///    service's plan spans, Run's "dispatch") book their duration to their
///    layer, "dispatch" as exec.run and the others as service.<name>.
///    Operator and transfer spans inside Run book their duration (busy time,
///    which may overlap across workers) to exec.op.*, crypto.* and net.xfer;
///    exec.sched is Run time with no operator or transfer in progress.
///  - a replay: the benchmark's re-run of a missed request's front half,
///    one span per module call directly under its root.
class Ledger {
 public:
  void AddRequest(const std::vector<mpq::SpanRecord>& spans);
  void AddReplay(const std::vector<mpq::SpanRecord>& spans);

  /// Adds to a per-request count (messages, virtual seconds).
  void Count(const std::string& name, double v) { counts_[name] += v; }

  size_t requests() const { return requests_; }
  size_t misses() const { return misses_; }

  /// Mean milliseconds of `layer` per request (front-half layers: per
  /// replay). 0 when nothing was recorded.
  double MeanMs(const std::string& layer) const;
  /// Mean of a count per request.
  double MeanCount(const std::string& name) const;
  /// Share of request time (the service's root span) covered by no span
  /// directly under the root.
  double UnattributedFrac() const;
  /// Total milliseconds by layer, for the printed breakdown.
  const std::map<std::string, double>& layer_ms() const { return layer_ms_; }
  double request_ms() const { return request_ms_; }

  /// True for the layers of the replayed front half.
  static bool IsFrontHalf(const std::string& layer);

 private:
  std::map<std::string, double> layer_ms_;
  std::map<std::string, double> counts_;
  double request_ms_ = 0;
  double unattributed_ms_ = 0;
  size_t requests_ = 0;
  size_t misses_ = 0;
};

int RunLedgerSelfChecks();

// -------------------------------------------------------------- workloads ---

/// One workload's parameters, all from the command line (run.py reads them
/// from perfbench/design.json).
struct WorkloadParams {
  std::string name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double data_sf = 5e-5;
  int exec_threads = 0;
  /// Fresh seeded literals per request (drawn from a pool of this many
  /// statements with precomputed oracle results); 0 = the fixed mix.
  int adhoc_pool = 0;
  /// Open-loop insert/delete writes per second alongside the readers.
  double write_rate = 0;
  /// Directory the traced run writes its Chrome trace to.
  std::string out_dir = ".";
};

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Runs one workload end to end; prints human-readable progress on stdout.
mpq::Result<RunResult> RunWorkload(const WorkloadParams& params);

}  // namespace perfbench

#endif  // MPQ_PERFBENCH_BENCH_H_
