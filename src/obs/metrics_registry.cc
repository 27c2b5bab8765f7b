#include "obs/metrics_registry.h"

#include <cassert>
#include <cmath>
#include <utility>

#include "common/str_util.h"

namespace mpq {

namespace {
constexpr double kMinLatencyS = 1e-8;  // bucket 1 lower bound

/// The quantiles a summary exports: label value and rank.
constexpr std::pair<const char*, double> kQuantiles[] = {
    {"0.5", 0.50}, {"0.95", 0.95}, {"0.99", 0.99}};

std::string SeriesName(const std::string& name, const std::string& labels) {
  if (labels.empty()) return name;
  return name + "{" + labels + "}";
}

std::string QuantileSeries(const std::string& name, const std::string& labels,
                           const char* q) {
  if (labels.empty()) {
    return StrFormat("%s{quantile=\"%s\"}", name.c_str(), q);
  }
  return StrFormat("%s{%s,quantile=\"%s\"}", name.c_str(), labels.c_str(), q);
}

}  // namespace

size_t LatencyHistogram::BucketOf(double seconds) {
  if (!(seconds > kMinLatencyS)) return 0;  // underflow (also NaN)
  double octaves = std::log2(seconds / kMinLatencyS);
  auto idx = static_cast<size_t>(octaves * kSubBuckets);
  if (idx >= kSubBuckets * kOctaves) return kBuckets - 1;  // overflow
  size_t bucket = idx + 1;
  // log2 rounding can land a value sitting exactly on a bucket boundary one
  // bucket off in either direction (2^(k/8) recomputed through log2 is not
  // exact). Correct against the authoritative bounds so bucket b always
  // covers exactly [BucketLowerBound(b), BucketLowerBound(b + 1)).
  if (seconds < BucketLowerBound(bucket)) {
    --bucket;
  } else if (bucket + 1 < kBuckets &&
             seconds >= BucketLowerBound(bucket + 1)) {
    ++bucket;
  }
  return bucket;
}

double LatencyHistogram::BucketLowerBound(size_t bucket) {
  if (bucket == 0) return 0;
  return kMinLatencyS *
         std::exp2(static_cast<double>(bucket - 1) / kSubBuckets);
}

void LatencyHistogram::Record(double seconds) {
  buckets_[BucketOf(seconds)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  if (seconds > 0 && std::isfinite(seconds)) {
    sum_ns_.fetch_add(static_cast<uint64_t>(seconds * 1e9),
                      std::memory_order_relaxed);
  }
}

double LatencyHistogram::Quantile(double p) const {
  uint64_t total = 0;
  std::array<uint64_t, kBuckets> snap;
  for (size_t i = 0; i < kBuckets; ++i) {
    snap[i] = buckets_[i].load(std::memory_order_relaxed);
    total += snap[i];
  }
  if (total == 0) return 0;
  if (p < 0) p = 0;
  if (p > 1) p = 1;
  // Rank of the target observation (1-based, ceil).
  auto rank = static_cast<uint64_t>(std::ceil(p * static_cast<double>(total)));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    if (snap[i] == 0) continue;
    if (seen + snap[i] >= rank) {
      double lo = BucketLowerBound(i);
      double hi = i + 1 < kBuckets ? BucketLowerBound(i + 1) : lo * 2;
      // Place the rank-th observation at the midpoint of its within-bucket
      // slot ((rank - seen - 1/2) of snap[i] equal slices) instead of the
      // slot's upper edge: a single-sample bucket then reports its center
      // rather than its upper bound, and the estimate is unbiased for
      // uniformly spread observations.
      double frac = (static_cast<double>(rank - seen) - 0.5) /
                    static_cast<double>(snap[i]);
      return lo + (hi - lo) * frac;
    }
    seen += snap[i];
  }
  return BucketLowerBound(kBuckets - 1);
}

void LatencyHistogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_ns_.store(0, std::memory_order_relaxed);
}

MetricsRegistry::Series& MetricsRegistry::SeriesOf(const std::string& name,
                                                   const std::string& help,
                                                   MetricType type,
                                                   const std::string& labels) {
  auto [it, fresh] = families_.try_emplace(name);
  Family& fam = it->second;
  if (fresh) {
    fam.type = type;
    fam.help = help;
  }
  assert(fam.type == type && "a metric name has one type");
  return fam.series[labels];
}

MetricCounter* MetricsRegistry::GetCounter(const std::string& name,
                                           const std::string& help,
                                           const std::string& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Series& s = SeriesOf(name, help, MetricType::kCounter, labels);
  if (s.counter == nullptr) s.counter = std::make_unique<MetricCounter>();
  return s.counter.get();
}

MetricGauge* MetricsRegistry::GetGauge(const std::string& name,
                                       const std::string& help,
                                       const std::string& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Series& s = SeriesOf(name, help, MetricType::kGauge, labels);
  if (s.gauge == nullptr) s.gauge = std::make_unique<MetricGauge>();
  return s.gauge.get();
}

LatencyHistogram* MetricsRegistry::GetHistogram(const std::string& name,
                                                const std::string& help,
                                                const std::string& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Series& s = SeriesOf(name, help, MetricType::kSummary, labels);
  if (s.histogram == nullptr) {
    s.histogram = std::make_unique<LatencyHistogram>();
  }
  return s.histogram.get();
}

void MetricsRegistry::AddReadFn(const std::string& name,
                                const std::string& help, MetricType type,
                                const std::string& labels,
                                std::function<uint64_t()> read) {
  std::lock_guard<std::mutex> lock(mu_);
  SeriesOf(name, help, type, labels).read = std::move(read);
}

double MetricsRegistry::Value(const std::string& name,
                              const std::string& labels) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto fam = families_.find(name);
  if (fam == families_.end()) return 0;
  auto it = fam->second.series.find(labels);
  if (it == fam->second.series.end()) return 0;
  const Series& s = it->second;
  if (s.gauge != nullptr) return s.gauge->Value();
  if (s.read) return static_cast<double>(s.read());
  return s.counter != nullptr ? static_cast<double>(s.counter->Value()) : 0;
}

std::string MetricsRegistry::TextExposition() const {
  static const char* const kTypeNames[] = {"counter", "gauge", "summary"};
  std::string out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, fam] : families_) {
    out.append("# HELP " + name + " " + fam.help + "\n");
    out.append("# TYPE " + name + " ");
    out.append(kTypeNames[static_cast<int>(fam.type)]);
    out.append("\n");
    for (const auto& [labels, s] : fam.series) {
      if (const LatencyHistogram* h = s.histogram.get()) {
        for (const auto& [q, p] : kQuantiles) {
          out.append(StrFormat("%s %.9g\n",
                               QuantileSeries(name, labels, q).c_str(),
                               h->Quantile(p)));
        }
        out.append(StrFormat("%s %.9g\n",
                             SeriesName(name + "_sum", labels).c_str(),
                             h->SumSeconds()));
        out.append(StrFormat(
            "%s %llu\n", SeriesName(name + "_count", labels).c_str(),
            static_cast<unsigned long long>(h->Count())));
      } else if (s.gauge != nullptr) {
        out.append(StrFormat("%s %.17g\n", SeriesName(name, labels).c_str(),
                             s.gauge->Value()));
      } else {
        uint64_t v = s.read ? s.read() : s.counter->Value();
        out.append(StrFormat("%s %llu\n", SeriesName(name, labels).c_str(),
                             static_cast<unsigned long long>(v)));
      }
    }
  }
  return out;
}

}  // namespace mpq
