// Unified metrics registry: named counters, gauges and latency histograms,
// plus read-function series over state another subsystem owns (the plan
// cache, the pool's morsel counts, per-operator profiles), all exported in
// one Prometheus-style text exposition. The registry is the store: the
// serving layer's snapshot (QueryService::Metrics) reads it back. Instrument
// handles are stable pointers — callers resolve a metric once and update it
// with relaxed atomics, no lock on the hot path.

#ifndef MPQ_OBS_METRICS_REGISTRY_H_
#define MPQ_OBS_METRICS_REGISTRY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace mpq {

/// Monotone counter. Updates are relaxed atomic adds.
class MetricCounter {
 public:
  void Inc(uint64_t by = 1) { v_.fetch_add(by, std::memory_order_relaxed); }
  uint64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Last-write-wins gauge.
class MetricGauge {
 public:
  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  /// Raises the gauge to `v` when it is lower (a peak).
  void SetMax(double v) {
    double cur = v_.load(std::memory_order_relaxed);
    while (cur < v &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  double Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0};
};

/// Fixed-bucket latency histogram over [10 ns, ~86 s), eight log-spaced
/// sub-buckets per octave (≤ ~9% relative quantile error). The range starts
/// far below a microsecond so sub-millisecond warm-cache hits land in real
/// buckets instead of the underflow bucket — tests/service_test.cc pins
/// this resolution. Record is a pair of relaxed atomic adds, safe from any
/// number of threads.
class LatencyHistogram {
 public:
  void Record(double seconds);

  /// Estimated quantile in seconds (`p` in [0, 1]); 0 when empty. Linear
  /// interpolation inside the winning bucket.
  double Quantile(double p) const;

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }

  /// Sum of recorded values in seconds (nanosecond resolution) — the
  /// exposition's `_sum` series.
  double SumSeconds() const {
    return static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) / 1e9;
  }

  void Reset();

 private:
  static constexpr size_t kSubBuckets = 8;   ///< per octave
  static constexpr size_t kOctaves = 33;     ///< 10 ns << 33 ≈ 86 s
  static constexpr size_t kBuckets = kSubBuckets * kOctaves + 2;  // ± overflow

  static size_t BucketOf(double seconds);
  static double BucketLowerBound(size_t bucket);

  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_ns_{0};
};

/// Exposition type of a metric family.
enum class MetricType { kCounter, kGauge, kSummary };

/// The registry. Get* registers on first use and returns the existing
/// instrument on every later call with the same (name, labels); the pointer
/// stays valid for the registry's lifetime. A family's type and help come
/// from its first registration. Registration takes a lock; instrument
/// updates never do.
class MetricsRegistry {
 public:
  /// `labels` is the literal label body, e.g. `op="join"` (empty = none).
  MetricCounter* GetCounter(const std::string& name, const std::string& help,
                            const std::string& labels = "");
  MetricGauge* GetGauge(const std::string& name, const std::string& help,
                        const std::string& labels = "");
  /// Histograms expose as Prometheus summaries: quantile series + _sum +
  /// _count.
  LatencyHistogram* GetHistogram(const std::string& name,
                                 const std::string& help,
                                 const std::string& labels = "");

  /// Registers a counter or gauge series whose value lives elsewhere: the
  /// registry calls `read` whenever it exports or reads the series. `read`
  /// runs under the registry's lock, so it must not call back into the
  /// registry. Registering (name, labels) again replaces the function.
  void AddReadFn(const std::string& name, const std::string& help,
                 MetricType type, const std::string& labels,
                 std::function<uint64_t()> read);

  /// The value of the counter, gauge or read-function series (name,
  /// labels); 0 when none is registered.
  double Value(const std::string& name, const std::string& labels = "") const;

  /// The full Prometheus text exposition: one group per family, sorted by
  /// name, its HELP and TYPE lines first and then every series sorted by
  /// label body.
  std::string TextExposition() const;

 private:
  /// Each series holds exactly one instrument or read function.
  struct Series {
    std::unique_ptr<MetricCounter> counter;
    std::unique_ptr<MetricGauge> gauge;
    std::unique_ptr<LatencyHistogram> histogram;
    std::function<uint64_t()> read;
  };
  struct Family {
    MetricType type = MetricType::kCounter;
    std::string help;
    std::map<std::string, Series> series;  // by label body
  };

  /// The series (name, labels), created with its family on first use.
  /// Requires mu_.
  Series& SeriesOf(const std::string& name, const std::string& help,
                   MetricType type, const std::string& labels);

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;  // by name; guarded by mu_
};

}  // namespace mpq

#endif  // MPQ_OBS_METRICS_REGISTRY_H_
