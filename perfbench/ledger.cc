#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "bench.h"

namespace perfbench {

namespace {

using Interval = std::pair<uint64_t, uint64_t>;

/// Length of the union of `intervals` clipped to [lo, hi].
uint64_t CoveredNs(std::vector<Interval> intervals, uint64_t lo, uint64_t hi) {
  for (Interval& iv : intervals) {
    iv.first = std::max(iv.first, lo);
    iv.second = std::min(iv.second, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  uint64_t covered = 0;
  uint64_t cursor = lo;
  for (const Interval& iv : intervals) {
    uint64_t from = std::max(iv.first, cursor);
    if (iv.second > from) {
      covered += iv.second - from;
      cursor = iv.second;
    }
  }
  return covered;
}

constexpr double kNsPerMs = 1e6;

/// The layer an operator or transfer span inside Run books its busy time
/// to.
std::string LayerOf(const mpq::SpanRecord& span) {
  if (span.cat == "op") {
    if (span.name == "encrypt") return "crypto.encrypt";
    if (span.name == "decrypt") return "crypto.decrypt";
    return "exec.op." + span.name;
  }
  return "net.xfer";
}

/// The layer a span directly under the service's root books to: Run's
/// dispatch umbrella is exec.run; the cache probe and the service's own plan
/// spans keep their names under "service.".
std::string LayerOfServiceChild(const mpq::SpanRecord& span) {
  if (span.name == "dispatch") return "exec.run";
  return "service." + span.name;
}

const mpq::SpanRecord* RootOf(const std::vector<mpq::SpanRecord>& spans) {
  for (const mpq::SpanRecord& s : spans) {
    if (s.parent_id == 0) return &s;
  }
  return nullptr;
}

double Ms(uint64_t ns) { return static_cast<double>(ns) / kNsPerMs; }

}  // namespace

bool Ledger::IsFrontHalf(const std::string& layer) {
  static const char* const kFrontHalf[] = {
      "sql.parse",         "sql.bind",         "profile.annotate",
      "candidates.compute", "assign.optimize", "extend.verify",
      "extend.keys",       "exec.distribute_keys"};
  for (const char* l : kFrontHalf) {
    if (layer == l) return true;
  }
  return false;
}

void Ledger::AddRequest(const std::vector<mpq::SpanRecord>& spans) {
  const mpq::SpanRecord* root = RootOf(spans);
  if (root == nullptr) return;
  ++requests_;

  std::vector<Interval> root_children;
  std::vector<const mpq::SpanRecord*> runs;
  std::vector<Interval> exec_work;  // operator and wire spans inside Run
  for (const mpq::SpanRecord& s : spans) {
    if (&s == root) continue;
    const uint64_t dur = s.end_ns - s.start_ns;
    if (s.parent_id == root->span_id) {
      root_children.emplace_back(s.start_ns, s.end_ns);
      layer_ms_[LayerOfServiceChild(s)] += Ms(dur);
      if (s.name == "dispatch") runs.push_back(&s);
    } else if (s.cat == "op" || s.name == "xfer") {
      exec_work.emplace_back(s.start_ns, s.end_ns);
      layer_ms_[LayerOf(s)] += Ms(dur);
    } else if (s.cat == "frag") {
      for (const mpq::SpanArg& a : s.args) {
        if (a.key == "hom_folds") {
          counts_["crypto.hom_folds"] += static_cast<double>(a.i);
        }
      }
    }
  }
  const uint64_t root_ns = root->end_ns - root->start_ns;
  request_ms_ += Ms(root_ns);
  unattributed_ms_ +=
      Ms(root_ns - CoveredNs(root_children, root->start_ns, root->end_ns));
  // Run time with no operator or transfer in progress: fragment dispatch,
  // mailboxes, morsel waits and the final merge.
  for (const mpq::SpanRecord* run : runs) {
    layer_ms_["exec.sched"] +=
        Ms(run->end_ns - run->start_ns -
           CoveredNs(exec_work, run->start_ns, run->end_ns));
  }
}

void Ledger::AddReplay(const std::vector<mpq::SpanRecord>& spans) {
  const mpq::SpanRecord* root = RootOf(spans);
  if (root == nullptr) return;
  ++misses_;
  for (const mpq::SpanRecord& s : spans) {
    if (s.parent_id == root->span_id) {
      layer_ms_[s.name] += Ms(s.end_ns - s.start_ns);
    }
  }
}

double Ledger::MeanMs(const std::string& layer) const {
  auto it = layer_ms_.find(layer);
  if (it == layer_ms_.end()) return 0;
  const size_t n = IsFrontHalf(layer) ? misses_ : requests_;
  return n == 0 ? 0 : it->second / static_cast<double>(n);
}

double Ledger::MeanCount(const std::string& name) const {
  auto it = counts_.find(name);
  if (it == counts_.end() || requests_ == 0) return 0;
  return it->second / static_cast<double>(requests_);
}

double Ledger::UnattributedFrac() const {
  return request_ms_ > 0 ? unattributed_ms_ / request_ms_ : 0;
}

namespace {

mpq::SpanRecord MakeSpan(uint64_t id, uint64_t parent, const char* name,
                         const char* cat, uint64_t start, uint64_t end) {
  mpq::SpanRecord s;
  s.span_id = id;
  s.parent_id = parent;
  s.name = name;
  s.cat = cat;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

}  // namespace

int RunLedgerSelfChecks() {
  int failures = 0;
  auto check = [&](bool ok, const char* what) {
    if (!ok) {
      std::printf("self-check FAILED: %s\n", what);
      ++failures;
    }
  };
  auto near = [](double a, double b) { return std::fabs(a - b) < 1e-9; };
  constexpr uint64_t kMs = 1000000;

  // A missed request as the service traces it: cache probe 0-1 ms, the
  // service's plan spans 1-10, Run's dispatch 20-90; inside Run two
  // overlapping operators (25-40, 30-50) on different workers, a transfer
  // (60-70) and an encrypt, under a fragment that folded 3 ciphertexts.
  std::vector<mpq::SpanRecord> spans = {
      MakeSpan(1, 0, "query", "exec", 0, 100 * kMs),
      MakeSpan(2, 1, "cache_probe", "cache", 0, 1 * kMs),
      MakeSpan(3, 1, "bind", "plan", 1 * kMs, 10 * kMs),
      MakeSpan(4, 1, "dispatch", "exec", 20 * kMs, 90 * kMs),
      MakeSpan(5, 4, "frag:select", "frag", 24 * kMs, 72 * kMs),
      MakeSpan(6, 5, "select", "op", 25 * kMs, 40 * kMs),
      MakeSpan(7, 5, "join", "op", 30 * kMs, 50 * kMs),
      MakeSpan(8, 5, "xfer", "net", 60 * kMs, 70 * kMs),
      MakeSpan(9, 5, "encrypt", "op", 65 * kMs, 66 * kMs),
  };
  mpq::SpanArg folds;
  folds.key = "hom_folds";
  folds.i = 3;
  spans[4].args.push_back(folds);
  Ledger ledger;
  ledger.AddRequest(spans);
  // Its replayed front half, outside the request.
  ledger.AddReplay({MakeSpan(1, 0, "replay", "bench", 200 * kMs, 220 * kMs),
                    MakeSpan(2, 1, "sql.parse", "sql", 200 * kMs, 204 * kMs),
                    MakeSpan(3, 1, "exec.distribute_keys", "exec", 210 * kMs,
                             220 * kMs)});
  // A hit: Run only, 1-11 ms inside a 12 ms request.
  ledger.AddRequest({MakeSpan(1, 0, "query", "exec", 0, 12 * kMs),
                     MakeSpan(2, 1, "dispatch", "exec", 1 * kMs, 11 * kMs),
                     MakeSpan(3, 2, "select", "op", 2 * kMs, 6 * kMs)});

  check(ledger.requests() == 2 && ledger.misses() == 1, "request counts");
  check(near(ledger.UnattributedFrac(), (20.0 + 2.0) / 112.0),
        "unattributed = service root time outside every direct child span");
  check(near(ledger.MeanMs("sql.parse"), 4.0) &&
            near(ledger.MeanMs("exec.distribute_keys"), 10.0),
        "front-half layers average over replayed misses only");
  check(near(ledger.MeanMs("exec.run"), (70.0 + 10.0) / 2),
        "exec.run is Run's dispatch span, averaged over every request");
  check(near(ledger.MeanMs("service.bind"), 4.5) &&
            near(ledger.MeanMs("service.cache_probe"), 0.5),
        "the service's own plan spans keep their names");
  check(near(ledger.MeanMs("exec.op.select"), (15.0 + 4.0) / 2) &&
            near(ledger.MeanMs("exec.op.join"), 10.0) &&
            near(ledger.MeanMs("net.xfer"), 5.0) &&
            near(ledger.MeanMs("crypto.encrypt"), 0.5),
        "operator and wire layers book busy time per request");
  // Run 20-90 minus the union of 25-50 and 60-70 = 35 ms; the hit's Run
  // 1-11 minus 2-6 = 6 ms.
  check(near(ledger.MeanMs("exec.sched"), (35.0 + 6.0) / 2),
        "sched = Run time with no operator or transfer in progress");
  check(near(ledger.MeanCount("crypto.hom_folds"), 1.5),
        "hom folds come from the fragment spans");
  check(LayerOf(spans[5]) == "exec.op.select" &&
            LayerOf(spans[7]) == "net.xfer" &&
            LayerOf(spans[8]) == "crypto.encrypt",
        "layer names");

  std::vector<Interval> none;
  check(CoveredNs(none, 0, 10) == 0, "empty union");
  check(CoveredNs({{0, 5}, {3, 8}, {20, 30}}, 2, 25) == 11,
        "clipped overlapping union");
  return failures;
}

}  // namespace perfbench
