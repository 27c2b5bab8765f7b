// Observability tests: LatencyHistogram quantile accuracy against a
// sorted-sample oracle, MetricsRegistry concurrent-update safety and
// Prometheus exposition grammar, the slow-query log, deterministic trace and
// span ids at every thread count, traced ≡ untraced bit-identity through
// QueryService, EXPLAIN ANALYZE predicted-vs-observed byte calibration on a
// TPC-H query, and failover attribution in traces and reports.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/flat_hash.h"
#include "exec/failover.h"
#include "net/pricing.h"
#include "net/simnet.h"
#include "net/topology.h"
#include "obs/clock.h"
#include "obs/explain.h"
#include "obs/metrics_registry.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "paper_example.h"
#include "service/query_service.h"
#include "testing/reference_exec.h"
#include "tpch/dbgen.h"
#include "tpch/scenarios.h"
#include "table_fingerprint.h"

namespace mpq {
namespace {

using testing::MakePaperExample;
using testing::PaperExample;

// ---------------------------------------------------------------- helpers ---

constexpr const char* kPaperSql =
    "select T, avg(P) from Hosp join Ins on S = C "
    "where D = 'stroke' group by T having avg(P) > 100";

/// Quote-aware structural check: braces/brackets balance and depth never
/// goes negative. Not a full parser, but catches truncated or interleaved
/// writer output.
bool JsonBalanced(const std::string& s) {
  int depth = 0;
  bool in_str = false;
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (in_str) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_str = false;
      }
      continue;
    }
    if (c == '"') {
      in_str = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_str;
}

/// Asserts `text` is a well-formed Prometheus text exposition. Every line
/// is a `# HELP name text`, a `# TYPE name counter|gauge|summary`, or a
/// `series value` sample where `series` is `name` or `name{label="v",…}` and
/// `value` parses as a double. Each family is one group: its HELP and TYPE
/// appear at most once and before its first sample, and its samples are
/// contiguous. `_sum`, `_count` and `quantile=` appear only under a
/// `summary` TYPE.
void ExpectPrometheusGrammar(const std::string& text) {
  std::map<std::string, std::string> type_of;  // family -> TYPE
  std::set<std::string> helped, sampled, closed;
  std::string current;  // the family whose group is being read
  int line_no = 0;
  auto enter = [&](const std::string& family) {
    if (family == current) return;
    EXPECT_EQ(closed.count(family), 0u)
        << "line " << line_no << ": family " << family
        << " is split into more than one group";
    if (!current.empty()) closed.insert(current);
    current = family;
  };
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    ASSERT_NE(eol, std::string::npos) << "exposition not newline-terminated";
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      const bool help = line.rfind("# HELP ", 0) == 0;
      const bool type = line.rfind("# TYPE ", 0) == 0;
      ASSERT_TRUE(help || type) << "line " << line_no << ": " << line;
      size_t name_end = line.find(' ', 7);
      ASSERT_NE(name_end, std::string::npos)
          << "line " << line_no << ": " << line;
      std::string family = line.substr(7, name_end - 7);
      EXPECT_EQ(sampled.count(family), 0u)
          << "line " << line_no << ": HELP/TYPE after a sample: " << line;
      if (help) {
        EXPECT_TRUE(helped.insert(family).second)
            << "line " << line_no << ": second HELP: " << line;
      } else {
        std::string kind = line.substr(name_end + 1);
        EXPECT_TRUE(kind == "counter" || kind == "gauge" || kind == "summary")
            << "line " << line_no << ": " << line;
        EXPECT_TRUE(type_of.emplace(family, kind).second)
            << "line " << line_no << ": second TYPE: " << line;
      }
      enter(family);
      continue;
    }
    size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << "line " << line_no << ": " << line;
    std::string series = line.substr(0, sp);
    std::string value = line.substr(sp + 1);
    ASSERT_FALSE(series.empty()) << "line " << line_no;
    // Series: bare name, or name{...} with balanced quotes.
    size_t brace = series.find('{');
    if (brace != std::string::npos) {
      EXPECT_EQ(series.back(), '}') << "line " << line_no << ": " << line;
    }
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    EXPECT_EQ(*end, '\0') << "line " << line_no << ": bad value " << value;
    // A summary's _sum and _count samples belong to the summary's family.
    std::string name = series.substr(0, brace);
    std::string family = name;
    for (const std::string suffix : {"_sum", "_count"}) {
      if (type_of.count(name) == 0 && name.size() > suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        family = name.substr(0, name.size() - suffix.size());
        EXPECT_EQ(type_of[family], "summary")
            << "line " << line_no << ": " << suffix
            << " outside a summary: " << line;
      }
    }
    if (series.find("quantile=") != std::string::npos) {
      EXPECT_EQ(type_of[family], "summary")
          << "line " << line_no << ": quantile outside a summary: " << line;
    }
    sampled.insert(family);
    enter(family);
  }
}

const SpanArg* FindArg(const SpanRecord& r, const char* key) {
  for (const SpanArg& a : r.args) {
    if (a.key == key) return &a;
  }
  return nullptr;
}

/// The scheduling-independent shape of a trace: every span's identity and
/// topology, without timestamps or measured annotations.
std::set<std::tuple<uint64_t, uint64_t, std::string, std::string, int, int>>
SpanShape(const QueryTrace& trace) {
  std::set<std::tuple<uint64_t, uint64_t, std::string, std::string, int, int>>
      shape;
  for (const SpanRecord& r : trace.Spans()) {
    shape.emplace(r.span_id, r.parent_id, r.name, r.cat, r.node_id, r.track);
  }
  return shape;
}

// ------------------------------------------------------ LatencyHistogram ---

TEST(LatencyHistogramTest, QuantilesTrackSortedSampleOracle) {
  // Log-uniform samples over [1 us, 10 s] — five decades, the serving
  // range. The histogram's log-spaced buckets (8 per octave) bound the
  // relative quantile error at ~9%; interpolation should keep estimates
  // well inside 12% of the exact sorted-sample quantile.
  std::mt19937_64 rng(20250809);
  std::uniform_real_distribution<double> u(std::log(1e-6), std::log(10.0));
  constexpr size_t kN = 20000;
  LatencyHistogram h;
  std::vector<double> samples;
  samples.reserve(kN);
  for (size_t i = 0; i < kN; ++i) {
    double s = std::exp(u(rng));
    samples.push_back(s);
    h.Record(s);
  }
  std::sort(samples.begin(), samples.end());
  EXPECT_EQ(h.Count(), kN);
  double sum = 0;
  for (double s : samples) sum += s;
  EXPECT_NEAR(h.SumSeconds(), sum, sum * 1e-6 + kN * 1e-9);
  for (double p : {0.10, 0.50, 0.90, 0.95, 0.99}) {
    auto rank = static_cast<size_t>(
        std::ceil(p * static_cast<double>(kN)));
    double oracle = samples[rank - 1];
    double got = h.Quantile(p);
    EXPECT_NEAR(got, oracle, oracle * 0.12)
        << "p=" << p << " oracle=" << oracle << " got=" << got;
  }
}

TEST(LatencyHistogramTest, BoundaryValuesLandInTheirOwnBucket) {
  // A value sitting exactly on a bucket boundary 1e-8 * 2^(k/8) belongs to
  // the bucket whose lower bound it is. Recomputing the bucket through
  // log2 is not exact — for about half the boundaries the index truncated
  // one bucket short, so the quantile estimate of boundary-valued samples
  // fell BELOW the recorded value. The estimate must lie in [v, v*2^(1/8)).
  for (int k = 1; k <= 260; k += 3) {
    const double v = 1e-8 * std::exp2(static_cast<double>(k) / 8.0);
    LatencyHistogram h;
    for (int i = 0; i < 100; ++i) h.Record(v);
    const double q = h.Quantile(0.5);
    EXPECT_GE(q, v) << "boundary k=" << k
                    << ": estimate fell into the previous bucket";
    EXPECT_LT(q, v * std::exp2(1.0 / 8.0) * (1 + 1e-12)) << "boundary k=" << k;
  }
}

TEST(LatencyHistogramTest, SingleSampleEstimateIsTheBucketMidpointNotItsEdge) {
  // One observation just above a bucket's lower bound: upper-edge
  // interpolation (the historical rank/count fraction) reported the full
  // bucket width (~9.1%) as error; the midpoint rule halves the worst case.
  for (int k : {40, 81, 122, 163, 204}) {
    const double v = 1e-8 * std::exp2((static_cast<double>(k) + 0.01) / 8.0);
    LatencyHistogram h;
    h.Record(v);
    for (double p : {0.01, 0.5, 1.0}) {
      const double q = h.Quantile(p);
      EXPECT_NEAR(q, v, v * 0.05) << "k=" << k << " p=" << p;
    }
  }
}

TEST(LatencyHistogramTest, EdgeCasesUnderflowOverflowEmptyReset) {
  LatencyHistogram h;
  EXPECT_EQ(h.Quantile(0.5), 0.0);  // empty
  h.Record(0.0);                    // underflow bucket
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_LE(h.Quantile(1.0), 1e-8);
  h.Record(1000.0);  // over the ~86 s range: clamps to the top bucket
  EXPECT_GE(h.Quantile(1.0), 80.0);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
}

// ------------------------------------------------------- MetricsRegistry ---

TEST(MetricsRegistryTest, InstrumentsAreStablePerNameAndLabels) {
  MetricsRegistry reg;
  MetricCounter* a = reg.GetCounter("t_total", "help a", "k=\"1\"");
  MetricCounter* b = reg.GetCounter("t_total", "ignored", "k=\"1\"");
  MetricCounter* c = reg.GetCounter("t_total", "ignored", "k=\"2\"");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  a->Inc(3);
  c->Inc();
  MetricGauge* g = reg.GetGauge("t_gauge", "g", "");
  g->Set(2.5);
  LatencyHistogram* h = reg.GetHistogram("t_seconds", "h", "");
  h->Record(0.001);
  std::string text = reg.TextExposition();
  // First registration's help wins; later empty/conflicting help is ignored.
  EXPECT_NE(text.find("# HELP t_total help a"), std::string::npos) << text;
  EXPECT_NE(text.find("t_total{k=\"1\"} 3"), std::string::npos) << text;
  EXPECT_NE(text.find("t_total{k=\"2\"} 1"), std::string::npos) << text;
  EXPECT_NE(text.find("t_gauge 2.5"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE t_seconds summary"), std::string::npos) << text;
  EXPECT_NE(text.find("t_seconds{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(text.find("t_seconds_count 1"), std::string::npos) << text;
  ExpectPrometheusGrammar(text);
}

TEST(MetricsRegistryTest, ConcurrentUpdatesRegistrationAndExposition) {
  // TSan target (this suite is labeled quick): registration of instruments
  // and read functions races with updates and exposition from many
  // threads; then a service's Metrics() and MetricsText() race with
  // Executes on other threads.
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::atomic<uint64_t> source{0};
  std::atomic<uint64_t> expositions{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::string label =
          std::string("shard=\"") + (t % 2 == 0 ? "even" : "odd") + "\"";
      for (int i = 0; i < kIters; ++i) {
        reg.GetCounter("c_total", "c", label)->Inc();
        reg.GetHistogram("h_seconds", "h", "")->Record(1e-4 * (t + 1));
        reg.GetGauge("g", "g", "")->Set(static_cast<double>(i));
        if (i % 500 == 0) {
          reg.AddReadFn("x_total", "x", MetricType::kCounter,
                        "t=\"" + std::to_string(t) + "\"",
                        [&source] { return source.load(); });
          source.fetch_add(1);
          std::string text = reg.TextExposition();
          if (!text.empty()) expositions.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  uint64_t even = reg.GetCounter("c_total", "c", "shard=\"even\"")->Value();
  uint64_t odd = reg.GetCounter("c_total", "c", "shard=\"odd\"")->Value();
  EXPECT_EQ(even + odd, static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(reg.GetHistogram("h_seconds", "h", "")->Count(),
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(reg.Value("x_total", "t=\"3\""), kThreads * (kIters / 500));
  EXPECT_GT(expositions.load(), 0u);
  ExpectPrometheusGrammar(reg.TextExposition());

  auto ex = MakePaperExample();
  PricingTable prices = PricingTable::PaperDefaults(ex->subjects);
  Topology topo = Topology::PaperDefaults(ex->subjects);
  Table hosp = ex->HospData();
  Table ins = ex->InsData();
  ServiceConfig config;
  config.exec_threads = 2;
  QueryService service(&ex->catalog, &ex->subjects, ex->policy.get(),
                       &prices, &topo, config);
  service.LoadTable(ex->hosp, &hosp);
  service.LoadTable(ex->ins, &ins);
  auto session = service.OpenSession(ex->U);
  ASSERT_TRUE(session.ok());
  constexpr int kExecutors = 2;
  constexpr int kQueries = 8;
  std::atomic<int> executing{kExecutors};
  std::vector<std::thread> workers;
  for (int t = 0; t < kExecutors; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kQueries; ++i) {
        EXPECT_TRUE(service.ExecuteSql(kPaperSql, *session).ok());
      }
      executing.fetch_sub(1);
    });
  }
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&] {
      do {
        ServiceMetrics m = service.Metrics();
        EXPECT_LE(m.queries, uint64_t{kExecutors * kQueries});
        ExpectPrometheusGrammar(service.MetricsText());
      } while (executing.load() > 0);
    });
  }
  for (auto& th : workers) th.join();
  EXPECT_EQ(service.Metrics().queries, uint64_t{kExecutors * kQueries});
}

// --------------------------------------------------------- SlowQueryLog ---

TEST(SlowQueryLogTest, RecordsAggregatesEvictsAndSerializes) {
  SlowQueryLog log(/*threshold_s=*/0.01, /*capacity=*/2);
  log.Record(1, "select a", 0.005);  // under threshold: ignored
  EXPECT_EQ(log.size(), 0u);
  log.Record(1, "select a", 0.02, /*trace_id=*/111);
  log.Record(1, "select a", 0.05, /*trace_id=*/222);
  log.Record(1, "select a", 0.03, /*trace_id=*/333);
  log.Record(2, "select b", 0.10, /*trace_id=*/444);
  auto entries = log.Entries();
  ASSERT_EQ(entries.size(), 2u);
  // Worst offender first.
  EXPECT_EQ(entries[0].digest, 2u);
  EXPECT_EQ(entries[1].digest, 1u);
  EXPECT_EQ(entries[1].count, 3u);
  EXPECT_DOUBLE_EQ(entries[1].max_s, 0.05);
  EXPECT_DOUBLE_EQ(entries[1].last_s, 0.03);
  EXPECT_DOUBLE_EQ(entries[1].total_s, 0.10);
  EXPECT_EQ(entries[1].trace_id, 222u);  // trace of the slowest occurrence
  // Full at capacity 2: a slower statement evicts the least-bad entry, a
  // faster one bounces off.
  log.Record(3, "select c", 0.04);
  EXPECT_EQ(log.size(), 2u);
  log.Record(4, "select d", 0.20);
  entries = log.Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].digest, 4u);
  EXPECT_EQ(entries[1].digest, 2u);
  std::string json = log.ToJson();
  EXPECT_TRUE(JsonBalanced(json)) << json;
  EXPECT_NE(json.find("\"threshold_s\""), std::string::npos);
  EXPECT_NE(json.find("\"entries\""), std::string::npos);
  EXPECT_NE(json.find("select d"), std::string::npos);
}

// ----------------------------------------------------------- trace core ---

TEST(TraceTest, IdsAreDeterministicFunctionsOfTheirInputs) {
  EXPECT_EQ(MakeTraceId(1, 42, 0), MakeTraceId(1, 42, 0));
  EXPECT_NE(MakeTraceId(1, 42, 0), MakeTraceId(1, 42, 1));
  EXPECT_NE(MakeTraceId(1, 42, 0), MakeTraceId(2, 42, 0));
  EXPECT_NE(MakeTraceId(1, 42, 0), MakeTraceId(1, 43, 0));
  EXPECT_NE(MakeTraceId(0, 0, 0), 0u);
}

TEST(TraceTest, SpansPinTimestampsFromTheInjectedClockAndExportChrome) {
  VirtualClock clock;
  clock.SetNs(5000);
  QueryTrace trace(MakeTraceId(7, 9, 0), &clock);
  Span root = trace.StartSpan("query", "exec");
  clock.AdvanceNs(2000);
  Span child = trace.StartSpan("op", "op", root.id(), /*node_id=*/3);
  child.AnnInt("rows_out", 17);
  child.AnnDouble("selectivity", 0.5);
  child.AnnStr("note", "x");
  clock.AdvanceNs(1000);
  child.End();
  clock.AdvanceNs(1000);
  root.End();
  auto spans = trace.Spans();
  ASSERT_EQ(spans.size(), 2u);
  // Sorted by start time: root first.
  EXPECT_EQ(spans[0].name, "query");
  EXPECT_EQ(spans[0].start_ns, 5000u);
  EXPECT_EQ(spans[0].end_ns, 9000u);
  EXPECT_EQ(spans[1].name, "op");
  EXPECT_EQ(spans[1].start_ns, 7000u);
  EXPECT_EQ(spans[1].end_ns, 8000u);
  EXPECT_EQ(spans[1].parent_id, spans[0].span_id);
  EXPECT_EQ(spans[1].node_id, 3);
  ASSERT_NE(FindArg(spans[1], "rows_out"), nullptr);
  EXPECT_EQ(FindArg(spans[1], "rows_out")->i, 17);
  // Same inputs → same span ids (a fresh trace reproduces them).
  QueryTrace again(MakeTraceId(7, 9, 0), &clock);
  Span root2 = again.StartSpan("query", "exec");
  EXPECT_EQ(root2.id(), spans[0].span_id);
  root2.End();
  std::string chrome = trace.ToChromeJson();
  EXPECT_TRUE(JsonBalanced(chrome)) << chrome;
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"query\""), std::string::npos);
}

TEST(TraceTest, InertSpanIsANoOpAndDisabledTracerHandsOutNothing) {
  Span inert;
  EXPECT_FALSE(static_cast<bool>(inert));
  EXPECT_EQ(inert.id(), 0u);
  inert.AnnInt("k", 1);  // must not crash
  inert.End();
  Tracer off(TraceConfig{}, nullptr, nullptr);
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.MaybeStart(1, 2), nullptr);
  TraceConfig sampled;
  sampled.enabled = true;
  sampled.sample_every = 3;
  TraceSink sink(8);
  Tracer tracer(sampled, nullptr, &sink);
  int traced = 0;
  for (int i = 0; i < 9; ++i) {
    auto t = tracer.MaybeStart(1, 2);
    if (t != nullptr) {
      ++traced;
      tracer.Finish(t);
    }
  }
  EXPECT_EQ(traced, 3);
  EXPECT_EQ(sink.size(), 3u);
}

// ------------------------------------------------- service (paper example) ---

class ObsServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ex_ = MakePaperExample();
    prices_ = PricingTable::PaperDefaults(ex_->subjects);
    topo_ = Topology::PaperDefaults(ex_->subjects);
    hosp_ = ex_->HospData();
    ins_ = ex_->InsData();
  }

  std::unique_ptr<QueryService> MakeService(ServiceConfig config = {}) {
    auto service = std::make_unique<QueryService>(
        &ex_->catalog, &ex_->subjects, ex_->policy.get(), &prices_, &topo_,
        config);
    service->LoadTable(ex_->hosp, &hosp_);
    service->LoadTable(ex_->ins, &ins_);
    return service;
  }

  std::unique_ptr<PaperExample> ex_;
  PricingTable prices_;
  Topology topo_;
  Table hosp_, ins_;
};

TEST_F(ObsServiceTest, ExplainAnalyzeNamesTheSchemeOfEachEncryptedAttribute) {
  auto service = MakeService();
  auto session = service->OpenSession(ex_->U);
  ASSERT_TRUE(session.ok());
  auto report = service->ExplainAnalyzeSql(kPaperSql, *session);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // The paper's Fig 5 extension: H and I each encrypt their join attribute
  // (S, C) deterministically before the join runs at the provider. The
  // encrypt node's bracket names the scheme, right after its morsels.
  const std::string& text = report->text;
  for (const char* line : {"ENC S  @H  [rows=4 ", "ENC C  @I  [rows=4 "}) {
    size_t at = text.find(line);
    ASSERT_NE(at, std::string::npos) << line << " in\n" << text;
    size_t close = text.find(']', at);
    std::string bracket = text.substr(at, close + 1 - at);
    EXPECT_NE(bracket.find(" morsels=1 schemes="), std::string::npos)
        << bracket;
  }
  EXPECT_NE(text.find(" schemes=S:DET]"), std::string::npos) << text;
  EXPECT_NE(text.find(" schemes=C:DET]"), std::string::npos) << text;
}

TEST_F(ObsServiceTest, TracingIsOffByDefaultAndSamplingHonorsTheConfig) {
  auto plain = MakeService();
  auto session = plain->OpenSession(ex_->U);
  ASSERT_TRUE(session.ok());
  auto r = plain->ExecuteSql(kPaperSql, *session);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->trace, nullptr);

  TraceSink sink(8);
  ServiceConfig config;
  config.trace.enabled = true;
  config.trace.sample_every = 2;
  config.trace_sink = &sink;
  auto sampled = MakeService(config);
  auto s2 = sampled->OpenSession(ex_->U);
  ASSERT_TRUE(s2.ok());
  int traced = 0;
  for (int i = 0; i < 4; ++i) {
    auto resp = sampled->ExecuteSql(kPaperSql, *s2);
    ASSERT_TRUE(resp.ok());
    if (resp->trace != nullptr) ++traced;
  }
  EXPECT_EQ(traced, 2);
  EXPECT_EQ(sink.size(), 2u);
}

TEST_F(ObsServiceTest, TracedRunsAreBitIdenticalToUntracedAtEveryThreadCount) {
  // Fresh service instances per run: the runtime's nonce sequence advances
  // per Execute, so only first executions are comparable bit-for-bit.
  std::string reference_wire;
  std::set<std::tuple<uint64_t, uint64_t, std::string, std::string, int, int>>
      reference_shape;
  for (size_t threads : {size_t{0}, size_t{2}, size_t{8}}) {
    ServiceConfig plain_config;
    plain_config.exec_threads = threads;
    auto plain = MakeService(plain_config);
    auto ps = plain->OpenSession(ex_->U);
    ASSERT_TRUE(ps.ok());
    auto pr = plain->ExecuteSql(kPaperSql, *ps);
    ASSERT_TRUE(pr.ok()) << pr.status().ToString();

    ServiceConfig traced_config;
    traced_config.exec_threads = threads;
    traced_config.trace.enabled = true;
    auto traced = MakeService(traced_config);
    auto ts = traced->OpenSession(ex_->U);
    ASSERT_TRUE(ts.ok());
    auto tr = traced->ExecuteSql(kPaperSql, *ts);
    ASSERT_TRUE(tr.ok()) << tr.status().ToString();
    ASSERT_NE(tr->trace, nullptr);

    std::string plain_wire = Fingerprint(pr->table);
    EXPECT_EQ(plain_wire, Fingerprint(tr->table))
        << "traced run differs from untraced at " << threads << " threads";
    if (reference_wire.empty()) {
      reference_wire = plain_wire;
      reference_shape = SpanShape(*tr->trace);
    } else {
      EXPECT_EQ(plain_wire, reference_wire)
          << "result differs across thread counts at " << threads;
      // Span ids are PRFs of the plan, not of scheduling: the trace's
      // shape is identical at every thread count.
      EXPECT_EQ(SpanShape(*tr->trace), reference_shape)
          << "trace shape differs at " << threads << " threads";
    }
  }
}

TEST_F(ObsServiceTest, SlowQueryLogAndMetricsTextCoverExecutes) {
  ServiceConfig config;
  config.trace.enabled = true;
  config.slow_query_s = 0.0;  // log everything
  auto service = MakeService(config);
  auto session = service->OpenSession(ex_->U);
  ASSERT_TRUE(session.ok());
  auto stmt = service->Prepare(kPaperSql);
  ASSERT_TRUE(stmt.ok());
  auto r = service->Execute(*stmt, *session);
  ASSERT_TRUE(r.ok());
  ASSERT_NE(r->trace, nullptr);

  const SlowQueryLog& log = service->slow_queries();
  auto entries = log.Entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].digest, HashBytes(stmt->normalized_sql));
  EXPECT_EQ(entries[0].normalized_sql, stmt->normalized_sql);
  EXPECT_EQ(entries[0].trace_id, r->trace->trace_id());
  EXPECT_TRUE(JsonBalanced(log.ToJson()));

  std::string text = service->MetricsText();
  ExpectPrometheusGrammar(text);
  EXPECT_NE(text.find("mpq_queries_total 1"), std::string::npos) << text;
  EXPECT_NE(text.find("mpq_query_latency_seconds{outcome=\"total\""),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos) << text;
  EXPECT_NE(text.find("mpq_op_calls_total{op=\"base\"}"), std::string::npos)
      << text;
  EXPECT_NE(text.find("mpq_cache_entries"), std::string::npos) << text;
}

TEST_F(ObsServiceTest, JsonAndTextExportEveryIntegerMetric) {
  // Every integer ServiceMetrics field, as this test enumerates them, except
  // the always-zero scan_leads / scan_attaches: each has a row in the one
  // metrics list and appears with the same value in the JSON (under its
  // key) and in the exposition (under its series name and type).
  using M = ServiceMetrics;
  const std::pair<const char*, uint64_t M::*> fields[] = {
      {"queries", &M::queries},
      {"errors", &M::errors},
      {"cache_hits", &M::cache_hits},
      {"cache_misses", &M::cache_misses},
      {"cache_insertions", &M::cache_insertions},
      {"cache_evictions", &M::cache_evictions},
      {"cache_entries", &M::cache_entries},
      {"rows_returned", &M::rows_returned},
      {"transfer_bytes", &M::transfer_bytes},
      {"messages", &M::messages},
      {"admission_waits", &M::admission_waits},
      {"in_flight_peak", &M::in_flight_peak},
      {"async_queries", &M::async_queries},
      {"sheds", &M::sheds},
      {"cancelled", &M::cancelled},
      {"queue_depth_peak", &M::queue_depth_peak},
      {"morsels_executed", &M::morsels_executed},
      {"morsel_queue_depth", &M::morsel_queue_depth},
      {"failovers", &M::failovers},
      {"failover_retransfer_bytes", &M::failover_retransfer_bytes},
      {"writes", &M::writes},
      {"write_errors", &M::write_errors},
      {"rows_written", &M::rows_written},
      {"counter_ops", &M::counter_ops},
      {"snapshot_epoch", &M::snapshot_epoch},
  };
  ServiceConfig config;
  config.exec_threads = 2;
  auto service = MakeService(config);
  auto session = service->OpenSession(ex_->U);
  ASSERT_TRUE(session.ok());
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(service->ExecuteSql(kPaperSql, *session).ok());
  }
  const ServiceMetrics m = service->Metrics();
  const std::string json = service->MetricsJson();
  const std::string text = service->MetricsText();
  EXPECT_EQ(m.queries, 2u);
  EXPECT_EQ(m.cache_insertions, 1u);
  EXPECT_EQ(m.in_flight_peak, 1u);
  EXPECT_EQ(std::size(kServiceMetrics), std::size(fields));
  for (const auto& [key, field] : fields) {
    SCOPED_TRACE(key);
    const ServiceMetricDef* row = nullptr;
    for (const ServiceMetricDef& d : kServiceMetrics) {
      if (d.field == field) row = &d;
    }
    ASSERT_NE(row, nullptr) << "no metrics-list row";
    EXPECT_STREQ(row->key, key);
    const std::string value = std::to_string(m.*field);
    const std::string name = row->Name();
    const std::string json_entry = "\"" + std::string(key) + "\":" + value;
    size_t at = json.find(json_entry);
    ASSERT_NE(at, std::string::npos) << json_entry << " in " << json;
    EXPECT_TRUE(json[at + json_entry.size()] == ',' ||
                json[at + json_entry.size()] == '}')
        << json_entry << " in " << json;
    EXPECT_NE(text.find("\n" + name + " " + value + "\n"), std::string::npos)
        << name << " " << value << " in\n"
        << text;
    const char* type = row->type == MetricType::kCounter ? "counter" : "gauge";
    EXPECT_NE(text.find("# TYPE " + name + " " + type + "\n"),
              std::string::npos)
        << name << " in\n"
        << text;
  }
  ExpectPrometheusGrammar(text);
}

// -------------------------------------------------------- failover traces ---

class ObsFailoverTest : public ObsServiceTest {
 protected:
  /// The (dispatch step, provider) pairs of a fault-free traced run,
  /// discovered from the run's own frag spans.
  std::vector<std::pair<int, SubjectId>> ProbeProviderSteps() {
    SimNet clean(&ex_->subjects);
    ServiceConfig config;
    config.net = &clean;
    config.trace.enabled = true;
    auto service = MakeService(config);
    auto session = service->OpenSession(ex_->U);
    if (!session.ok()) return {};
    auto r = service->ExecuteSql(kPaperSql, *session);
    if (!r.ok() || r->trace == nullptr) return {};
    baseline_rows_ = CanonicalRows(r->table);
    std::vector<std::pair<int, SubjectId>> steps;
    for (const SpanRecord& s : r->trace->Spans()) {
      if (s.cat != "frag" || s.node_id < 0) continue;
      auto subject = static_cast<SubjectId>(s.track);
      if (ex_->subjects.Get(subject).kind == SubjectKind::kProvider) {
        steps.emplace_back(s.node_id, subject);
      }
    }
    std::sort(steps.begin(), steps.end());
    return steps;
  }

  std::vector<std::string> baseline_rows_;
};

TEST_F(ObsFailoverTest, CrashRecoveryIsAttributedInTraceAndReport) {
  auto steps = ProbeProviderSteps();
  ASSERT_FALSE(steps.empty())
      << "optimizer routed nothing to providers; test is vacuous";
  auto [crash_step, victim] = steps.front();

  SimNet net(&ex_->subjects);
  FaultPlan faults;
  faults.crash_at_step[victim] = crash_step;
  net.SetFaultPlan(faults);
  TraceSink sink(8);
  ServiceConfig config;
  config.net = &net;
  config.trace.enabled = true;
  config.trace_sink = &sink;
  auto service = MakeService(config);
  auto session = service->OpenSession(ex_->U);
  ASSERT_TRUE(session.ok());

  // First execution hits the scheduled crash; EXPLAIN ANALYZE recovers
  // through the failover path and reports against the plan that ran.
  auto report = service->ExplainAnalyzeSql(kPaperSql, *session);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->failovers, 1u);
  EXPECT_GT(report->failover_latency_s, 0.0);
  EXPECT_NE(report->text.find("failover:"), std::string::npos)
      << report->text;
  EXPECT_TRUE(JsonBalanced(report->ToJson()));

  // The trace carries the crash and the recovery attempt.
  ASSERT_GE(sink.size(), 1u);
  auto traces = sink.Traces();
  const QueryTrace& trace = *traces.back();
  auto spans = trace.Spans();
  bool saw_crash = false;
  const SpanRecord* failover_span = nullptr;
  for (const SpanRecord& s : spans) {
    if (s.cat == "frag" && FindArg(s, "crashed") != nullptr) saw_crash = true;
    if (s.cat == "failover") failover_span = &s;
  }
  EXPECT_TRUE(saw_crash) << "no frag span recorded the provider crash";
  ASSERT_NE(failover_span, nullptr) << "no failover span in the trace";
  EXPECT_NE(FindArg(*failover_span, "retransfer_bytes"), nullptr);
  EXPECT_NE(FindArg(*failover_span, "failover_latency_s"), nullptr);

  // The service keeps serving correct results after the crash (re-planned
  // around the dead provider, no further failover needed).
  auto again = service->ExecuteSql(kPaperSql, *session);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->stats.failovers, 0u);
  EXPECT_EQ(CanonicalRows(again->table), baseline_rows_);
  std::string text = service->MetricsText();
  EXPECT_NE(text.find("mpq_failovers_total"), std::string::npos);
}

TEST_F(ObsFailoverTest, SimNetClockStampsSpansInVirtualTime) {
  SimNet net(&ex_->subjects);
  SimNetClock clock(&net);
  ServiceConfig config;
  config.net = &net;
  config.trace.enabled = true;
  config.trace_clock = &clock;
  auto service = MakeService(config);
  auto session = service->OpenSession(ex_->U);
  ASSERT_TRUE(session.ok());
  auto r = service->ExecuteSql(kPaperSql, *session);
  ASSERT_TRUE(r.ok());
  ASSERT_NE(r->trace, nullptr);
  // Every timestamp is the net's accumulated virtual time: bounded by the
  // final virtual clock, monotone within each span.
  uint64_t final_ns = net.VirtualNowNs();
  for (const SpanRecord& s : r->trace->Spans()) {
    EXPECT_LE(s.start_ns, s.end_ns) << s.name;
    EXPECT_LE(s.end_ns, final_ns + 1) << s.name;
  }
}

// ------------------------------------------------------- TPC-H acceptance ---

constexpr const char* kTpchQ3 =
    "select o_orderkey, o_orderdate, o_shippriority, sum(l_extendedprice) "
    "from customer join orders on c_custkey = o_custkey "
    "join lineitem on o_orderkey = l_orderkey "
    "where c_mktsegment = 'BUILDING' and o_orderdate < 1204 "
    "and l_shipdate > 1204 "
    "group by o_orderkey, o_orderdate, o_shippriority";

class ObsTpchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = MakeTpchEnv(/*costing_sf=*/1.0, /*num_providers=*/8);
    db_ = GenerateTpch(env_, /*data_sf=*/0.002, /*seed=*/17);
    auto policy = MakeScenarioPolicy(env_, AuthScenario::kUAPenc);
    ASSERT_TRUE(policy.ok()) << policy.status().ToString();
    policy_ = std::make_unique<Policy>(std::move(*policy));
    prices_ = MakeScenarioPricing(env_);
    topo_ = MakeScenarioTopology(env_);
  }

  std::unique_ptr<QueryService> MakeService(ServiceConfig config = {}) {
    auto service = std::make_unique<QueryService>(
        &env_.catalog, &env_.subjects, policy_.get(), &prices_, &topo_,
        config);
    for (const auto& [rel, t] : db_.tables) service->LoadTable(rel, &t);
    return service;
  }

  TpchEnv env_;
  TpchData db_;
  std::unique_ptr<Policy> policy_;
  PricingTable prices_;
  Topology topo_;
};

TEST_F(ObsTpchTest, TracedQueryCoversTheWholePipelineWithEdgeBytes) {
  ServiceConfig config;
  config.trace.enabled = true;
  auto service = MakeService(config);
  auto session = service->OpenSession(env_.user);
  ASSERT_TRUE(session.ok());
  auto r = service->ExecuteSql(kTpchQ3, *session);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r->trace, nullptr);

  auto spans = r->trace->Spans();
  std::set<std::string> names;
  std::set<uint64_t> span_ids;
  size_t roots = 0, frag_spans = 0, op_spans = 0, net_spans = 0;
  for (const SpanRecord& s : spans) {
    names.insert(s.name);
    span_ids.insert(s.span_id);
    if (s.parent_id == 0) ++roots;
    if (s.cat == "frag") ++frag_spans;
    if (s.cat == "op") {
      ++op_spans;
      EXPECT_NE(FindArg(s, "rows_out"), nullptr) << s.name;
      EXPECT_NE(FindArg(s, "wall_ns"), nullptr) << s.name;
    }
    if (s.cat == "net") {
      ++net_spans;
      const SpanArg* bytes = FindArg(s, "bytes");
      ASSERT_NE(bytes, nullptr);
      EXPECT_GT(bytes->i, 0);
      EXPECT_NE(FindArg(s, "from"), nullptr);
      EXPECT_NE(FindArg(s, "to"), nullptr);
    }
  }
  // Front half, cache, dispatch, fragments, operators, merge — the whole
  // pipeline, in one trace.
  for (const char* want : {"parse", "bind", "candidates", "assign", "keys",
                           "cache_probe", "query", "dispatch", "merge"}) {
    EXPECT_TRUE(names.count(want)) << "missing span " << want;
  }
  EXPECT_GT(frag_spans, 0u);
  EXPECT_GT(op_spans, 0u);
  EXPECT_GT(net_spans, 0u) << "no assignee-crossing edge was traced";
  // The span forest is rooted at exactly the one "query" span and every
  // parent id resolves.
  EXPECT_EQ(roots, 1u);
  for (const SpanRecord& s : spans) {
    if (s.parent_id != 0) {
      EXPECT_TRUE(span_ids.count(s.parent_id)) << s.name;
    }
  }
}

TEST_F(ObsTpchTest, TracedRunsAreBitIdenticalToUntracedAtEveryThreadCount) {
  std::string reference_wire;
  for (size_t threads : {size_t{0}, size_t{2}, size_t{8}}) {
    ServiceConfig plain_config;
    plain_config.exec_threads = threads;
    auto plain = MakeService(plain_config);
    auto ps = plain->OpenSession(env_.user);
    ASSERT_TRUE(ps.ok());
    auto pr = plain->ExecuteSql(kTpchQ3, *ps);
    ASSERT_TRUE(pr.ok()) << pr.status().ToString();

    ServiceConfig traced_config;
    traced_config.exec_threads = threads;
    traced_config.trace.enabled = true;
    auto traced = MakeService(traced_config);
    auto ts = traced->OpenSession(env_.user);
    ASSERT_TRUE(ts.ok());
    auto tr = traced->ExecuteSql(kTpchQ3, *ts);
    ASSERT_TRUE(tr.ok()) << tr.status().ToString();
    ASSERT_NE(tr->trace, nullptr);

    std::string wire = Fingerprint(pr->table);
    EXPECT_EQ(wire, Fingerprint(tr->table))
        << "traced TPC-H run differs from untraced at " << threads
        << " threads";
    if (reference_wire.empty()) {
      reference_wire = wire;
    } else {
      EXPECT_EQ(wire, reference_wire)
          << "TPC-H result differs across thread counts at " << threads;
    }
  }
}

TEST_F(ObsTpchTest, ExplainAnalyzeReportsPredictedVsObservedBytesPerEdge) {
  ServiceConfig config;
  auto service = MakeService(config);  // tracing off: EXPLAIN forces it
  auto session = service->OpenSession(env_.user);
  ASSERT_TRUE(session.ok());
  auto report = service->ExplainAnalyzeSql(kTpchQ3, *session);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  ASSERT_FALSE(report->edges.empty())
      << "no assignee-crossing edges; calibration is vacuous";
  double err_sum = 0;
  for (const EdgeCalibration& e : report->edges) {
    EXPECT_GE(e.node_id, 0);
    EXPECT_FALSE(e.from.empty());
    EXPECT_FALSE(e.to.empty());
    EXPECT_GT(e.observed_bytes, 0u) << "edge at node " << e.node_id;
    EXPECT_GT(e.predicted_bytes, 0.0) << "edge at node " << e.node_id;
    EXPECT_NEAR(e.abs_rel_err,
                std::fabs(e.predicted_bytes -
                          static_cast<double>(e.observed_bytes)) /
                    std::max<double>(
                        static_cast<double>(e.observed_bytes), 1.0),
                1e-12);
    err_sum += e.abs_rel_err;
  }
  EXPECT_NEAR(report->mean_abs_rel_err,
              err_sum / static_cast<double>(report->edges.size()), 1e-12);
  EXPECT_GT(report->total_transfer_bytes, 0u);
  EXPECT_GT(report->num_messages, 0u);
  EXPECT_EQ(report->failovers, 0u);

  EXPECT_NE(report->text.find("EXPLAIN ANALYZE (trace 0x"),
            std::string::npos)
      << report->text;
  EXPECT_NE(report->text.find("cost-model calibration:"), std::string::npos)
      << report->text;
  EXPECT_NE(report->text.find("[net "), std::string::npos) << report->text;
  EXPECT_NE(report->text.find("[rows="), std::string::npos) << report->text;
  std::string json = report->ToJson();
  EXPECT_TRUE(JsonBalanced(json)) << json;
  EXPECT_NE(json.find("\"edges\""), std::string::npos);
  EXPECT_NE(json.find("\"predicted_bytes\""), std::string::npos);

  // The execution behind the report was a real one: it warmed the cache
  // and counted in the metrics.
  auto warm = service->ExplainAnalyzeSql(kTpchQ3, *session);
  ASSERT_TRUE(warm.ok());
  EXPECT_GE(service->Metrics().cache_hits, 1u);
}

}  // namespace
}  // namespace mpq
