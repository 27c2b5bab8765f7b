#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "bench.h"

namespace perfbench {

mpq::Result<double> TailPercentile(std::vector<double> samples, double p,
                                   size_t min_beyond) {
  if (samples.empty() || !(p > 0) || p > 1) {
    return mpq::Status::InvalidArgument("percentile of no samples");
  }
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  // The epsilon keeps p * n that lands on an integer (0.99 * 1000) from
  // rounding up one rank through floating-point error.
  size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  const size_t beyond = n - rank;
  if (beyond < min_beyond) {
    return mpq::Status::InvalidArgument(
        "p" + std::to_string(p * 100) + " of " + std::to_string(n) +
        " samples leaves " + std::to_string(beyond) + " beyond it, need " +
        std::to_string(min_beyond));
  }
  return samples[rank - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

namespace {

/// [begin, end) of floor(n / window) consecutive windows (at least one);
/// the last window takes the remainder.
std::vector<std::pair<size_t, size_t>> Windows(size_t n, size_t window) {
  const size_t k = std::max<size_t>(1, window == 0 ? 1 : n / window);
  std::vector<std::pair<size_t, size_t>> out;
  for (size_t i = 0; i < k; ++i) {
    out.emplace_back(i * (n / k), i + 1 == k ? n : (i + 1) * (n / k));
  }
  return out;
}

}  // namespace

mpq::Result<double> WindowedPercentile(const std::vector<double>& in_order,
                                       double p, size_t window,
                                       size_t min_beyond) {
  std::vector<double> per_window;
  for (const auto& [b, e] : Windows(in_order.size(), window)) {
    MPQ_ASSIGN_OR_RETURN(
        double v, TailPercentile(std::vector<double>(in_order.begin() + b,
                                                     in_order.begin() + e),
                                 p, min_beyond));
    per_window.push_back(v);
  }
  return Median(per_window);
}

double WindowedRate(const std::vector<double>& done_s, size_t window) {
  if (done_s.empty()) return 0;
  std::vector<double> rates;
  double prev = 0;
  for (const auto& [b, e] : Windows(done_s.size(), window)) {
    const double span = done_s[e - 1] - prev;
    if (span > 0) rates.push_back(static_cast<double>(e - b) / span);
    prev = done_s[e - 1];
  }
  return rates.empty() ? 0 : Median(rates);
}

OpenLoopTiming TimeFromDue(double due, double free, double issue,
                           double done) {
  OpenLoopTiming t;
  t.latency_s = done - due;
  t.lateness_s = issue - std::max(due, free);
  return t;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB
    }
  }
  return 0;
}

namespace {

int Check(bool ok, const char* what) {
  if (!ok) std::printf("self-check FAILED: %s\n", what);
  return ok ? 0 : 1;
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

}  // namespace

int RunStatsSelfChecks() {
  int failures = 0;
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);  // unsorted input
  {
    auto p50 = TailPercentile(hundred, 0.50);
    failures += Check(p50.ok() && *p50 == 50, "p50 of 1..100 is 50");
    auto p90 = TailPercentile(hundred, 0.90);
    failures += Check(p90.ok() && *p90 == 90,
                      "p90 of 1..100 is 90 with 10 samples beyond");
    failures += Check(!TailPercentile(hundred, 0.95).ok(),
                      "p95 of 100 samples has only 5 beyond: refused");
  }
  {
    std::vector<double> thousand;
    for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
    auto p99 = TailPercentile(thousand, 0.99);
    failures += Check(p99.ok() && *p99 == 990,
                      "p99 of 1000 samples is rank 990, 10 beyond");
    thousand.pop_back();
    failures += Check(!TailPercentile(thousand, 0.99).ok(),
                      "p99 of 999 samples has 9 beyond: refused");
    failures += Check(TailPercentile({7}, 1.0, 0).ok(),
                      "p100 with no tail requirement is the max");
    failures += Check(!TailPercentile({}, 0.5).ok(), "no samples: refused");
  }
  {
    // Four windows of 1000; the third holds a burst of slow samples. The
    // windowed p99 is the median of the window p99s: the burst moves one
    // window only.
    std::vector<double> v;
    for (int w = 0; w < 4; ++w) {
      for (int i = 1; i <= 1000; ++i) v.push_back(w == 2 ? 100.0 * i : i);
    }
    auto p99 = WindowedPercentile(v, 0.99, 1000);
    failures += Check(p99.ok() && *p99 == 990,
                      "windowed p99 is the median of window p99s");
    auto whole = TailPercentile(v, 0.99);
    failures += Check(whole.ok() && *whole > 90000,
                      "the burst dominates the plain p99");
    v.resize(1999);  // one window: plain p99
    auto one = WindowedPercentile(v, 0.99, 1000);
    failures += Check(one.ok() && *one == *TailPercentile(v, 0.99),
                      "fewer than two windows: the plain percentile");
    failures += Check(!WindowedPercentile(std::vector<double>(999, 1.0), 0.99,
                                          1000)
                           .ok(),
                      "a window of 999 samples cannot give a p99");
    // 3000 completions: 1000 in the first second, 1000 in the next two
    // (a slow patch), 1000 in the fourth. Median window rate: 1000/s.
    std::vector<double> done;
    for (int i = 1; i <= 1000; ++i) done.push_back(i / 1000.0);
    for (int i = 1; i <= 1000; ++i) done.push_back(1 + i / 500.0);
    for (int i = 1; i <= 1000; ++i) done.push_back(3 + i / 1000.0);
    failures += Check(Near(WindowedRate(done, 1000), 1000),
                      "windowed rate is the median window rate");
    failures += Check(WindowedRate({}, 1000) == 0, "no completions: rate 0");
  }
  {
    // A writer due every 10 ms whose first request takes 35 ms: the next
    // two go out as soon as the sender is free. Their latency counts from
    // when they were due; the generator itself was never late.
    auto a = TimeFromDue(0.000, 0.000, 0.000, 0.035);
    auto b = TimeFromDue(0.010, 0.035, 0.035, 0.036);
    auto c = TimeFromDue(0.020, 0.036, 0.036, 0.037);
    failures += Check(Near(a.latency_s, 0.035) && Near(a.lateness_s, 0),
                      "on-time request: latency = service time");
    failures += Check(Near(b.latency_s, 0.026) && Near(b.lateness_s, 0),
                      "stalled request: latency counted from due time");
    failures += Check(Near(c.latency_s, 0.017) && Near(c.lateness_s, 0),
                      "second stalled request: still from due time");
    // A sender that was free but woke 2 ms late is generator lateness.
    auto d = TimeFromDue(0.100, 0.050, 0.102, 0.103);
    failures += Check(Near(d.latency_s, 0.003) && Near(d.lateness_s, 0.002),
                      "late wake-up: lateness = issue - due");
  }
  return failures;
}

}  // namespace perfbench
