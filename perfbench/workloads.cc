// The three workloads: set-up, closed-loop readers, the open-loop writer,
// the oracle gate, and (traced runs) the per-layer booking of each request.
//
// The service receives only generated SQL text. Every read answer is
// compared with the plaintext ReferenceExecutor's answer for the same
// statement over the same data; every write must affect exactly one row;
// lineitem must hold its seed row count at the end.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "assign/assignment.h"
#include "assign/cost_model.h"
#include "assign/schemes.h"
#include "bench.h"
#include "candidates/candidates.h"
#include "common/flat_hash.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "exec/distributed.h"
#include "exec/table_store.h"
#include "extend/extend.h"
#include "extend/keys.h"
#include "net/simnet.h"
#include "obs/trace.h"
#include "profile/propagate.h"
#include "service/query_service.h"
#include "sql/binder.h"
#include "sql/normalize.h"
#include "sql/parser.h"
#include "testing/reference_exec.h"
#include "tpch/dbgen.h"
#include "tpch/scenarios.h"
#include "tpch/vocab.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Closed-loop reader clients of every workload.
constexpr int kClients = 2;
/// Independent set-ups timed per run; setup_s is their median.
constexpr int kSetups = 9;
/// Share of a traced run spent in its untraced phase.
constexpr double kUntracedShare = 0.6;
/// Samples per window of the windowed statistics: enough for a p99 with
/// ten samples beyond it in every window.
constexpr size_t kWindow = 1000;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------- statements ---

/// One read statement with the oracle's canonical answer.
struct Statement {
  std::string sql;
  std::string normalized;
  std::vector<std::string> oracle_rows;
};

/// The five-statement mix of bench_service: selection-heavy (Q6), join
/// chains (Q3, Q10), an attr-attr predicate (Q12) and a HAVING aggregate
/// (Q18 shape), with fixed literals.
std::vector<std::string> FixedMix() {
  return {
      "select sum(l_extendedprice) from lineitem "
      "where l_shipdate >= 730 and l_shipdate < 1095 "
      "and l_discount >= 0.05 and l_discount <= 0.07 and l_quantity < 24.0",
      "select o_orderkey, o_orderdate, o_shippriority, sum(l_extendedprice) "
      "from customer join orders on c_custkey = o_custkey "
      "join lineitem on o_orderkey = l_orderkey "
      "where c_mktsegment = 'BUILDING' and o_orderdate < 1204 "
      "and l_shipdate > 1204 "
      "group by o_orderkey, o_orderdate, o_shippriority",
      "select c_custkey, c_name, n_name, sum(l_extendedprice) "
      "from customer join orders on c_custkey = o_custkey "
      "join lineitem on o_orderkey = l_orderkey "
      "join nation on c_nationkey = n_nationkey "
      "where o_orderdate >= 640 and o_orderdate < 730 "
      "and l_returnflag = 'R' group by c_custkey, c_name, n_name",
      "select l_shipmode, count(*) from orders "
      "join lineitem on o_orderkey = l_orderkey "
      "where l_shipmode = 'MAIL' and l_receiptdate >= 730 "
      "and l_receiptdate < 1095 and l_commitdate < l_receiptdate "
      "group by l_shipmode",
      "select o_custkey, sum(l_extendedprice) from orders "
      "join lineitem on o_orderkey = l_orderkey "
      "group by o_custkey having sum(l_extendedprice) > 1000.0",
  };
}

/// The same five shapes with fresh seeded literals. Dates stay inside the
/// generator's [0, 2555] day range, so answers are mostly non-empty.
std::string AdhocSql(int shape, mpq::Rng* rng) {
  using mpq::StrFormat;
  namespace v = mpq::tpch;
  switch (shape) {
    case 0: {
      int64_t d = rng->Range(0, 2190);
      int64_t disc = rng->Range(2, 8);
      return StrFormat(
          "select sum(l_extendedprice) from lineitem "
          "where l_shipdate >= %lld and l_shipdate < %lld "
          "and l_discount >= %.2f and l_discount <= %.2f "
          "and l_quantity < %lld.0",
          static_cast<long long>(d),
          static_cast<long long>(d + rng->Range(90, 365)), disc / 100.0,
          (disc + 2) / 100.0, static_cast<long long>(rng->Range(10, 50)));
    }
    case 1: {
      int64_t d = rng->Range(300, 2200);
      const std::string& seg = v::Segments()[rng->Uniform(5)];
      return StrFormat(
          "select o_orderkey, o_orderdate, o_shippriority, "
          "sum(l_extendedprice) "
          "from customer join orders on c_custkey = o_custkey "
          "join lineitem on o_orderkey = l_orderkey "
          "where c_mktsegment = '%s' and o_orderdate < %lld "
          "and l_shipdate > %lld "
          "group by o_orderkey, o_orderdate, o_shippriority",
          seg.c_str(), static_cast<long long>(d),
          static_cast<long long>(d + rng->Range(0, 60)));
    }
    case 2: {
      int64_t d = rng->Range(0, 2400);
      const std::string& flag = v::ReturnFlags()[rng->Uniform(3)];
      return StrFormat(
          "select c_custkey, c_name, n_name, sum(l_extendedprice) "
          "from customer join orders on c_custkey = o_custkey "
          "join lineitem on o_orderkey = l_orderkey "
          "join nation on c_nationkey = n_nationkey "
          "where o_orderdate >= %lld and o_orderdate < %lld "
          "and l_returnflag = '%s' group by c_custkey, c_name, n_name",
          static_cast<long long>(d),
          static_cast<long long>(d + rng->Range(60, 180)), flag.c_str());
    }
    case 3: {
      int64_t d = rng->Range(0, 2190);
      const std::string& mode = v::ShipModes()[rng->Uniform(7)];
      return StrFormat(
          "select l_shipmode, count(*) from orders "
          "join lineitem on o_orderkey = l_orderkey "
          "where l_shipmode = '%s' and l_receiptdate >= %lld "
          "and l_receiptdate < %lld and l_commitdate < l_receiptdate "
          "group by l_shipmode",
          mode.c_str(), static_cast<long long>(d),
          static_cast<long long>(d + rng->Range(180, 365)));
    }
    default:
      return StrFormat(
          "select o_custkey, sum(l_extendedprice) from orders "
          "join lineitem on o_orderkey = l_orderkey "
          "group by o_custkey having sum(l_extendedprice) > %lld.0",
          static_cast<long long>(rng->Range(100, 300000)));
  }
}

// ----------------------------------------------------------------- set-up ---

/// The read statements of a run and of the set-up's warm-up with their
/// oracle answers, and lineitem's seed row count. They depend only on the
/// parameters and the seed, so they are computed once, before any set-up is
/// timed.
struct Inputs {
  std::vector<Statement> statements;
  /// The fixed mix on every workload, so the warm-up costs the same
  /// whatever the seed's ad hoc literals are.
  std::vector<Statement> warm_up;
  size_t lineitem_rows = 0;
};

mpq::Result<Inputs> PrepareInputs(const WorkloadParams& p) {
  const mpq::TpchEnv env =
      mpq::MakeTpchEnv(/*costing_sf=*/1.0, /*num_providers=*/8);
  const mpq::TpchData db = mpq::GenerateTpch(env, p.data_sf, p.seed);
  mpq::ReferenceExecutor oracle(&env.catalog);
  for (const auto& [rel, t] : db.tables) oracle.LoadTable(rel, &t);

  auto make = [&](std::string sql) -> mpq::Result<Statement> {
    Statement st;
    st.sql = std::move(sql);
    MPQ_ASSIGN_OR_RETURN(st.normalized, mpq::NormalizeSql(st.sql));
    MPQ_ASSIGN_OR_RETURN(mpq::PlanPtr plan,
                         mpq::PlanFromSql(st.normalized, env.catalog));
    MPQ_ASSIGN_OR_RETURN(mpq::Table answer, oracle.Run(plan.get()));
    st.oracle_rows = mpq::CanonicalRows(answer);
    return st;
  };
  Inputs in;
  for (std::string& sql : FixedMix()) {
    MPQ_ASSIGN_OR_RETURN(Statement st, make(std::move(sql)));
    in.warm_up.push_back(std::move(st));
  }
  if (p.adhoc_pool == 0) in.statements = in.warm_up;
  mpq::Rng rng(mpq::SplitMix64(p.seed ^ 0xad40c));
  std::set<std::string> seen;  // normalized text: the plan-cache key
  while (in.statements.size() < static_cast<size_t>(p.adhoc_pool)) {
    std::string sql =
        AdhocSql(static_cast<int>(in.statements.size() % 5), &rng);
    MPQ_ASSIGN_OR_RETURN(std::string normalized, mpq::NormalizeSql(sql));
    if (!seen.insert(normalized).second) continue;
    MPQ_ASSIGN_OR_RETURN(Statement st, make(std::move(sql)));
    in.statements.push_back(std::move(st));
  }
  in.lineitem_rows = db.at(env.lineitem).num_rows();
  return in;
}

/// Everything one timed set-up builds. Heap-allocated and never moved: the
/// services borrow the members above them.
struct Fixture {
  const Inputs* inputs = nullptr;
  std::unique_ptr<mpq::TpchEnv> env;
  std::unique_ptr<mpq::Policy> policy;
  std::unique_ptr<mpq::PricingTable> prices;
  std::unique_ptr<mpq::Topology> topo;
  std::unique_ptr<mpq::SimNet> net;
  mpq::TableStore store;
  /// Position of the ad hoc walk over the statements; it continues across
  /// phases, so a new phase does not revisit still-cached statements.
  std::atomic<uint64_t> next_adhoc{0};
  std::unique_ptr<mpq::QueryService> service;  ///< Untraced.
};

/// A service over the fixture's store and wire. With a sink it traces every
/// request and hands the finished traces to the sink.
std::unique_ptr<mpq::QueryService> MakeService(Fixture* fx,
                                               const WorkloadParams& p,
                                               mpq::TraceSink* sink) {
  mpq::ServiceConfig config;
  config.exec_threads = static_cast<size_t>(p.exec_threads);
  config.net = fx->net.get();
  config.store = &fx->store;
  if (sink != nullptr) {
    config.trace.enabled = true;
    config.trace.sample_every = 1;
    config.trace_sink = sink;
  }
  return std::make_unique<mpq::QueryService>(
      &fx->env->catalog, &fx->env->subjects, fx->policy.get(),
      fx->prices.get(), fx->topo.get(), config);
}

/// Data generation, store load, service construction and cache warm-up.
mpq::Result<std::unique_ptr<Fixture>> SetUp(const WorkloadParams& p,
                                            const Inputs& inputs) {
  auto fx = std::make_unique<Fixture>();
  fx->inputs = &inputs;
  fx->env = std::make_unique<mpq::TpchEnv>(
      mpq::MakeTpchEnv(/*costing_sf=*/1.0, /*num_providers=*/8));
  const mpq::TpchEnv& env = *fx->env;
  mpq::TpchData db = mpq::GenerateTpch(env, p.data_sf, p.seed);
  MPQ_ASSIGN_OR_RETURN(mpq::Policy policy,
                       mpq::MakeScenarioPolicy(env, mpq::AuthScenario::kUAPenc));
  fx->policy = std::make_unique<mpq::Policy>(std::move(policy));
  fx->prices =
      std::make_unique<mpq::PricingTable>(mpq::MakeScenarioPricing(env));
  fx->topo = std::make_unique<mpq::Topology>(mpq::MakeScenarioTopology(env));
  fx->net = std::make_unique<mpq::SimNet>(&env.subjects);
  fx->net->ConfigureFromTopology(*fx->topo, env.subjects, 0);
  for (auto& [rel, t] : db.tables) fx->store.Put(rel, std::move(t));
  fx->service = MakeService(fx.get(), p, nullptr);

  // Warm-up: one execution per shape fills the plan cache for the fixed
  // mix and finishes lazy initialization for ad hoc statements.
  MPQ_ASSIGN_OR_RETURN(mpq::Session session,
                       fx->service->OpenSession(env.user));
  for (const Statement& st : inputs.warm_up) {
    MPQ_ASSIGN_OR_RETURN(mpq::QueryResponse r,
                         fx->service->ExecuteSql(st.sql, session));
    if (mpq::CanonicalRows(r.table) != st.oracle_rows) {
      return mpq::Status::Internal("warm-up answer differs from the oracle: " +
                                   st.sql);
    }
  }
  return fx;
}

// ---------------------------------------------------------------- tracing ---

/// The traced phase's accounting, shared by all clients. Each response of
/// the traced service carries its own trace (root "query": the cache probe,
/// the service's plan spans, and the dispatch/frag/op/xfer spans of
/// DistributedRuntime::Run); the ledger books it as it is. The service's
/// plan spans are coarser than the module calls, so on a miss the front half
/// is replayed outside the service by the public calls BuildPreparedPlan
/// makes, in its order, each under a benchmark span.
class TraceBook {
 public:
  TraceBook(const Fixture* fx, const mpq::QueryService* service,
            mpq::TraceSink* sink)
      : fx_(fx), service_(service), sink_(sink) {}

  /// Books one checked response; `replay_id` names the replay's trace.
  mpq::Status Record(const Statement& st, const mpq::QueryResponse& r,
                     uint64_t replay_id) {
    if (r.trace == nullptr) {
      return mpq::Status::Internal("the traced service returned no trace");
    }
    std::shared_ptr<mpq::QueryTrace> replay;
    if (r.stats.cache == mpq::CacheOutcome::kMiss) {
      MPQ_ASSIGN_OR_RETURN(replay, ReplayFrontHalf(st.normalized, replay_id));
      sink_->Add(replay);
    }
    const std::vector<mpq::SpanRecord> spans = r.trace->Spans();
    std::lock_guard<std::mutex> lock(mu_);
    ledger_.AddRequest(spans);
    ledger_.Count("net.messages", static_cast<double>(r.stats.num_messages));
    ledger_.Count("net.virtual_s", r.stats.net_virtual_s);
    if (replay != nullptr) ledger_.AddReplay(replay->Spans());
    return mpq::Status::OK();
  }

  Ledger ledger() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ledger_;
  }

 private:
  mpq::Result<std::shared_ptr<mpq::QueryTrace>> ReplayFrontHalf(
      const std::string& sql, uint64_t trace_id) const {
    const mpq::TpchEnv& env = *fx_->env;
    const mpq::ServiceConfig& config = service_->config();
    auto trace =
        std::make_shared<mpq::QueryTrace>(trace_id, mpq::WallClock::Global());
    mpq::Span root = trace->StartSpan("replay", "bench");
    const uint64_t parent = root.id();
    // Key generation time depends on the seed: derive it as the service
    // does for this statement and subject.
    uint64_t seed =
        mpq::SplitMix64(config.key_seed ^ std::hash<std::string>{}(sql));
    seed = mpq::SplitMix64(
        seed ^ (static_cast<uint64_t>(env.user) + 1) * 0x100000001b3ull ^
        fx_->policy->epoch());
    mpq::DistributedRuntime runtime(&env.catalog, &env.subjects);

    mpq::Span span = trace->StartSpan("sql.parse", "sql", parent);
    MPQ_ASSIGN_OR_RETURN(mpq::AstSelect ast, mpq::ParseSelect(sql));
    span = trace->StartSpan("sql.bind", "sql", parent);
    MPQ_ASSIGN_OR_RETURN(mpq::PlanPtr plan, mpq::BindSelect(ast, env.catalog));
    span = trace->StartSpan("profile.annotate", "profile", parent);
    MPQ_RETURN_NOT_OK(
        mpq::DerivePlaintextNeeds(plan.get(), env.catalog, config.caps));
    MPQ_RETURN_NOT_OK(mpq::AnnotatePlan(plan.get(), env.catalog));
    span = trace->StartSpan("candidates.compute", "candidates", parent);
    MPQ_ASSIGN_OR_RETURN(mpq::CandidatePlan cp,
                         mpq::ComputeCandidates(plan.get(), *fx_->policy));
    span = trace->StartSpan("assign.optimize", "assign", parent);
    mpq::SchemeMap schemes =
        mpq::AnalyzeSchemes(plan.get(), env.catalog, config.caps);
    mpq::CostModel cost_model(&env.catalog, fx_->prices.get(),
                              fx_->topo.get(), &schemes);
    mpq::AssignmentOptimizer optimizer(fx_->policy.get(), &cost_model);
    MPQ_ASSIGN_OR_RETURN(mpq::AssignmentResult assignment,
                         optimizer.Optimize(plan.get(), cp, env.user));
    span = trace->StartSpan("extend.verify", "extend", parent);
    MPQ_RETURN_NOT_OK(
        mpq::VerifyAuthorizedAssignment(assignment.extended, *fx_->policy));
    span = trace->StartSpan("extend.keys", "extend", parent);
    const mpq::PlanKeys keys = mpq::DeriveQueryPlanKeys(assignment.extended);
    span = trace->StartSpan("exec.distribute_keys", "exec", parent);
    runtime.DistributeKeys(keys, env.user, seed);
    span.End();
    root.End();
    return trace;
  }

  const Fixture* fx_;
  const mpq::QueryService* service_;
  mpq::TraceSink* sink_;
  mutable std::mutex mu_;
  Ledger ledger_;  // guarded by mu_
};

// ------------------------------------------------------------------ phase ---

/// One correct read: completion time (seconds from the phase start) and
/// latency.
struct Sample {
  double done_s = 0;
  double ms = 0;
};

struct ReadLog {
  std::vector<Sample> samples;
  double cost_usd = 0;
  double transfer_bytes = 0;
  double plan_ms = 0;
  double exec_ms = 0;
  double self_ms = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< Errors, sheds and oracle mismatches.
  uint64_t trace_failed = 0;
  std::string first_error;

  void Merge(const ReadLog& o) {
    samples.insert(samples.end(), o.samples.begin(), o.samples.end());
    cost_usd += o.cost_usd;
    transfer_bytes += o.transfer_bytes;
    plan_ms += o.plan_ms;
    exec_ms += o.exec_ms;
    self_ms += o.self_ms;
    attempted += o.attempted;
    failed += o.failed;
    trace_failed += o.trace_failed;
    if (first_error.empty()) first_error = o.first_error;
  }
};

struct WriteLog {
  std::vector<double> latency_ms;   ///< From due time.
  std::vector<double> lateness_ms;  ///< Generator lateness.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;

  void Merge(const WriteLog& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    lateness_ms.insert(lateness_ms.end(), o.lateness_ms.begin(),
                       o.lateness_ms.end());
    attempted += o.attempted;
    failed += o.failed;
    if (first_error.empty()) first_error = o.first_error;
  }
};

/// Open-loop writer: `count` writes (insert/delete pairs of one lineitem
/// row each) due every 1/rate seconds from `start`. The inserted rows join
/// no order (their l_orderkey exists in no order) and ship outside every
/// Q6 date range, so no read answer changes.
void RunWriter(mpq::QueryService* service, const mpq::Session& session,
               double rate, size_t count, uint64_t key_base,
               Clock::time_point start, WriteLog* log) {
  // Sleeping up to the due time would add the thread's wake-up jitter
  // (tens to hundreds of microseconds on a VM) to every write's latency;
  // sleep to shortly before it and spin the rest.
  constexpr auto kSpin = std::chrono::microseconds(300);
  double free_s = 0;
  for (size_t i = 0; i < count; ++i) {
    const double due_s = static_cast<double>(i) / rate;
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(due_s));
    std::this_thread::sleep_until(due - kSpin);
    while (Clock::now() < due) {
    }
    const uint64_t key = key_base + i / 2;
    const std::string sql =
        i % 2 == 0
            ? mpq::StrFormat(
                  "insert into lineitem values (%llu, 1, 1, 1, 1.0, 1.0, "
                  "0.0, 0.0, 'N', 'O', 3000, 3000, 3000, 'MAIL')",
                  static_cast<unsigned long long>(key))
            : mpq::StrFormat("delete from lineitem where l_orderkey = %llu",
                             static_cast<unsigned long long>(key));
    const double issue_s = SecondsBetween(start, Clock::now());
    mpq::Result<mpq::WriteResult> r = service->ExecuteWrite(sql, session);
    const double done_s = SecondsBetween(start, Clock::now());
    ++log->attempted;
    OpenLoopTiming t = TimeFromDue(due_s, free_s, issue_s, done_s);
    free_s = done_s;
    if (!r.ok() || r->rows_affected != 1) {
      ++log->failed;
      if (log->first_error.empty()) {
        log->first_error = r.ok() ? "write affected " +
                                        std::to_string(r->rows_affected) +
                                        " rows: " + sql
                                  : r.status().ToString();
      }
      continue;
    }
    log->latency_ms.push_back(t.latency_s * 1e3);
    log->lateness_ms.push_back(t.lateness_s * 1e3);
  }
}

struct PhaseLog {
  ReadLog reads;
  WriteLog writes;
  mpq::ServiceMetrics before;
  mpq::ServiceMetrics after;
};

/// One measured phase on `service`: kClients closed-loop readers for
/// `seconds`, plus the open-loop writer when the workload has one. With a
/// trace book, every checked response is booked.
mpq::Result<PhaseLog> RunPhase(Fixture* fx, const WorkloadParams& p,
                               mpq::QueryService* service, double seconds,
                               TraceBook* book, uint64_t* next_key,
                               uint64_t phase_salt) {
  PhaseLog phase;
  std::vector<mpq::Session> sessions;
  for (int c = 0; c < kClients + 1; ++c) {
    MPQ_ASSIGN_OR_RETURN(mpq::Session s, service->OpenSession(fx->env->user));
    sessions.push_back(s);
  }
  size_t writes = 0;
  if (p.write_rate > 0) {
    writes = static_cast<size_t>(p.write_rate * seconds + 1) & ~size_t{1};
  }
  std::vector<ReadLog> logs(static_cast<size_t>(kClients));
  const std::vector<Statement>& statements = fx->inputs->statements;

  phase.before = service->Metrics();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ReadLog& log = logs[static_cast<size_t>(c)];
      const mpq::Session& session = sessions[static_cast<size_t>(c)];
      for (uint64_t i = 0; Clock::now() < deadline; ++i) {
        // Ad hoc: one shared walk over the statement pool; fixed mix: each
        // client cycles the five statements from its own offset.
        const size_t idx =
            p.adhoc_pool > 0
                ? static_cast<size_t>(fx->next_adhoc.fetch_add(1) %
                                      statements.size())
                : static_cast<size_t>((i + static_cast<uint64_t>(c)) %
                                      statements.size());
        const Statement& st = statements[idx];
        const Clock::time_point t0 = Clock::now();
        mpq::Result<mpq::QueryResponse> r =
            service->ExecuteSql(st.sql, session);
        const Clock::time_point t1 = Clock::now();
        const double ms = SecondsBetween(t0, t1) * 1e3;
        ++log.attempted;
        if (!r.ok() || mpq::CanonicalRows(r->table) != st.oracle_rows) {
          ++log.failed;
          if (log.first_error.empty()) {
            log.first_error = r.ok() ? "answer differs from the oracle: " +
                                           st.sql
                                     : r.status().ToString();
          }
          continue;
        }
        log.samples.push_back(Sample{SecondsBetween(start, t1), ms});
        log.cost_usd += r->stats.planned_cost_usd;
        log.transfer_bytes += static_cast<double>(r->stats.transfer_bytes);
        log.plan_ms += r->stats.plan_s * 1e3;
        log.exec_ms += r->stats.exec_s * 1e3;
        log.self_ms += ms - (r->stats.plan_s + r->stats.exec_s) * 1e3;
        if (book != nullptr) {
          const uint64_t replay_id = mpq::MakeTraceId(
              phase_salt + static_cast<uint64_t>(c), mpq::HashBytes(st.sql),
              i);
          mpq::Status s = book->Record(st, *r, replay_id);
          if (!s.ok()) {
            ++log.trace_failed;
            if (log.first_error.empty()) log.first_error = s.ToString();
          }
        }
      }
    });
  }
  if (writes > 0) {
    const uint64_t key_base = *next_key;
    *next_key += writes;
    threads.emplace_back([&, key_base] {
      RunWriter(service, sessions.back(), p.write_rate, writes, key_base,
                start, &phase.writes);
    });
  }
  for (std::thread& t : threads) t.join();
  phase.after = service->Metrics();
  for (const ReadLog& log : logs) phase.reads.Merge(log);
  return phase;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Latencies (ms) and completion times (s) of a phase's correct reads, in
/// completion order.
std::pair<std::vector<double>, std::vector<double>> InCompletionOrder(
    ReadLog log) {
  std::sort(log.samples.begin(), log.samples.end(),
            [](const Sample& a, const Sample& b) { return a.done_s < b.done_s; });
  std::pair<std::vector<double>, std::vector<double>> out;
  for (const Sample& s : log.samples) {
    out.first.push_back(s.ms);
    out.second.push_back(s.done_s);
  }
  return out;
}

/// p-th percentile of `v`, or 0 when `v` is empty (a workload without that
/// kind of request).
mpq::Result<double> PercentileOrZero(const std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  return TailPercentile(v, p, p < 0.9 ? 0 : 10);
}

}  // namespace

mpq::Result<RunResult> RunWorkload(const WorkloadParams& p) {
  if (p.seconds <= 0 || p.data_sf <= 0 || p.exec_threads < 0 ||
      p.adhoc_pool < 0 || p.write_rate < 0) {
    return mpq::Status::InvalidArgument("inconsistent workload parameters");
  }
  std::printf(
      "run_meta {\"nproc\": %u, \"build_type\": \"%s\", \"clients\": %d, "
      "\"exec_threads\": %d, \"writer_threads\": %d}\n",
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE, kClients,
      p.exec_threads, p.write_rate > 0 ? 1 : 0);
  std::fflush(stdout);

  // Statements and oracle answers first, untimed; then the set-up, timed
  // several times. The last set-up is kept and measured.
  MPQ_ASSIGN_OR_RETURN(const Inputs inputs, PrepareInputs(p));
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> fx;
  for (int i = 0; i < kSetups; ++i) {
    fx.reset();
    const Clock::time_point t0 = Clock::now();
    MPQ_ASSIGN_OR_RETURN(fx, SetUp(p, inputs));
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
  }
  std::printf("set-up: %zu statements, lineitem rows %zu, %d set-ups, "
              "median %.4f s:",
              inputs.statements.size(), inputs.lineitem_rows, kSetups,
              Median(setup_s));
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf("\n");

  // Untraced runs measure one phase. Traced runs measure an untraced phase
  // on the set-up's service (service counters, QueryStats split, read p99,
  // the overhead baseline) and then a phase on a second service that traces
  // every request, over the same store and wire.
  uint64_t next_key = 1000000000ull;  // above every generated l_orderkey
  const double untraced_s = p.trace ? kUntracedShare * p.seconds : p.seconds;
  MPQ_ASSIGN_OR_RETURN(PhaseLog untraced,
                       RunPhase(fx.get(), p, fx->service.get(), untraced_s,
                                nullptr, &next_key, /*phase_salt=*/0));
  mpq::TraceSink sink(16);
  std::unique_ptr<mpq::QueryService> traced_service;
  std::unique_ptr<TraceBook> book;
  PhaseLog traced;
  if (p.trace) {
    traced_service = MakeService(fx.get(), p, &sink);
    book = std::make_unique<TraceBook>(fx.get(), traced_service.get(), &sink);
    MPQ_ASSIGN_OR_RETURN(
        traced, RunPhase(fx.get(), p, traced_service.get(),
                         p.seconds - untraced_s, book.get(), &next_key,
                         /*phase_salt=*/1000));
  }
  ReadLog reads = untraced.reads;
  reads.Merge(traced.reads);
  WriteLog writes = untraced.writes;
  writes.Merge(traced.writes);

  // Correctness gate.
  const size_t final_rows =
      fx->store.Current()->Get(fx->env->lineitem)->num_rows();
  const bool rows_ok = final_rows == inputs.lineitem_rows;
  RunResult out;
  out.attempted = reads.attempted + writes.attempted;
  out.failed = reads.failed + writes.failed + reads.trace_failed +
               (rows_ok ? 0 : 1);
  out.correct = out.failed == 0;
  const size_t completed = reads.samples.size();
  const double failed_frac = Ratio(static_cast<double>(out.failed),
                                   static_cast<double>(out.attempted));
  std::printf("reads: %llu attempted, %zu correct; writes: %llu attempted, "
              "%zu ok; failed_frac %.6g; lineitem rows %zu (seed %zu)\n",
              static_cast<unsigned long long>(reads.attempted), completed,
              static_cast<unsigned long long>(writes.attempted),
              writes.latency_ms.size(), failed_frac, final_rows,
              inputs.lineitem_rows);
  if (!reads.first_error.empty()) {
    std::printf("first read failure: %s\n", reads.first_error.c_str());
  }
  if (!writes.first_error.empty()) {
    std::printf("first write failure: %s\n", writes.first_error.c_str());
  }
  if (!out.correct || completed == 0) {
    out.correct = false;
    return out;
  }

  auto add = [&](const char* name, double v, const char* unit) {
    out.metrics.push_back(Metric{name, v, unit});
  };
  if (!p.trace) {
    const auto [ms, done_s] = InCompletionOrder(reads);
    MPQ_ASSIGN_OR_RETURN(double p50, WindowedPercentile(ms, 0.50, kWindow));
    std::printf("samples: %zu reads, %zu writes\n", completed,
                writes.latency_ms.size());
    add("setup_s", Median(setup_s), "s");
    add("latency_p50_ms", p50, "ms");
    add("throughput_qps", WindowedRate(done_s, kWindow), "1/s");
    add("plan_cost_usd", reads.cost_usd / static_cast<double>(completed),
        "usd");
    add("transfer_bytes_per_query",
        reads.transfer_bytes / static_cast<double>(completed), "bytes");
    add("peak_rss_mb", PeakRssMb(), "MiB");
    return out;
  }

  // Per-layer metrics. Service counters and QueryStats come from the
  // untraced phase; span-derived layers from the traced service's traces.
  const Ledger ledger = book->ledger();
  const mpq::ServiceMetrics& m0 = untraced.before;
  const mpq::ServiceMetrics& m1 = untraced.after;
  const double u_done = static_cast<double>(untraced.reads.samples.size());
  const std::vector<double> untraced_ms =
      InCompletionOrder(untraced.reads).first;
  MPQ_ASSIGN_OR_RETURN(double untraced_p50,
                       TailPercentile(untraced_ms, 0.5, 0));
  MPQ_ASSIGN_OR_RETURN(
      double traced_p50,
      TailPercentile(InCompletionOrder(traced.reads).first, 0.5, 0));
  MPQ_ASSIGN_OR_RETURN(double read_p99,
                       WindowedPercentile(untraced_ms, 0.99, kWindow));
  const double hits = static_cast<double>(m1.cache_hits - m0.cache_hits);
  const double misses = static_cast<double>(m1.cache_misses - m0.cache_misses);
  const double leads = static_cast<double>(m1.scan_leads - m0.scan_leads);
  const double attaches =
      static_cast<double>(m1.scan_attaches - m0.scan_attaches);
  MPQ_ASSIGN_OR_RETURN(double write_p50,
                       PercentileOrZero(writes.latency_ms, 0.50));
  MPQ_ASSIGN_OR_RETURN(double write_p99,
                       PercentileOrZero(writes.latency_ms, 0.99));
  MPQ_ASSIGN_OR_RETURN(double lateness_p99,
                       PercentileOrZero(writes.lateness_ms, 0.99));

  for (const char* layer :
       {"sql.parse", "sql.bind", "profile.annotate", "candidates.compute",
        "assign.optimize", "extend.verify", "extend.keys",
        "exec.distribute_keys", "exec.run", "exec.sched", "exec.op.select",
        "exec.op.join", "exec.op.groupby", "exec.op.project", "crypto.encrypt",
        "crypto.decrypt", "net.xfer"}) {
    const std::string name = std::string(layer) + "_ms";
    add(name.c_str(), ledger.MeanMs(layer), "ms");
  }
  add("crypto.hom_folds_per_query", ledger.MeanCount("crypto.hom_folds"),
      "count");
  add("net.messages_per_query", ledger.MeanCount("net.messages"), "count");
  add("net.virtual_s_per_query", ledger.MeanCount("net.virtual_s"), "s");
  add("service.plan_ms", Ratio(untraced.reads.plan_ms, u_done), "ms");
  add("service.exec_ms", Ratio(untraced.reads.exec_ms, u_done), "ms");
  add("service.self_ms", Ratio(untraced.reads.self_ms, u_done), "ms");
  add("service.cache_hit_ratio", Ratio(hits, hits + misses), "ratio");
  add("service.cache_evictions",
      static_cast<double>(m1.cache_evictions - m0.cache_evictions), "count");
  add("exec.snapshots_published",
      static_cast<double>(m1.snapshot_epoch - m0.snapshot_epoch), "count");
  add("service.admission_waits",
      static_cast<double>(m1.admission_waits - m0.admission_waits), "count");
  add("exec.morsels_per_query",
      Ratio(static_cast<double>(m1.morsels_executed - m0.morsels_executed),
            static_cast<double>(m1.queries - m0.queries)),
      "count");
  add("exec.scan_attach_ratio", Ratio(attaches, leads + attaches), "ratio");
  add("unattributed_frac", ledger.UnattributedFrac(), "ratio");
  add("trace_overhead_frac", Ratio(traced_p50 - untraced_p50, untraced_p50),
      "ratio");
  add("failed_frac", failed_frac, "ratio");
  add("latency_p99_ms", read_p99, "ms");
  add("write_p50_ms", write_p50, "ms");
  add("write_p99_ms", write_p99, "ms");
  add("writer_lateness_ms", lateness_p99, "ms");

  std::printf("service counters, untraced phase: %.0f hits, %.0f misses, "
              "%.0f shared-scan leads, %.0f attaches; read p50 %.4f ms "
              "untraced, %.4f ms traced\n",
              hits, misses, leads, attaches, untraced_p50, traced_p50);
  // The ledger: where traced request time went, by layer.
  std::printf("ledger: %zu traced requests, %zu replayed misses, "
              "%.4f ms per request, unattributed %.2f%%\n",
              ledger.requests(), ledger.misses(),
              Ratio(ledger.request_ms(),
                    static_cast<double>(ledger.requests())),
              ledger.UnattributedFrac() * 100);
  for (const auto& [layer, ms] : ledger.layer_ms()) {
    if (Ledger::IsFrontHalf(layer)) {
      std::printf("  %-24s %10.4f ms per replayed miss\n", layer.c_str(),
                  ledger.MeanMs(layer));
    } else {
      std::printf("  %-24s %10.4f ms per request  %6.2f%% of request time\n",
                  layer.c_str(), ledger.MeanMs(layer),
                  Ratio(ms, ledger.request_ms()) * 100);
    }
  }

  const std::string trace_path = p.out_dir + "/trace-" + p.name + "-seed" +
                                 std::to_string(p.seed) + ".json";
  std::ofstream trace_out(trace_path);
  trace_out << sink.ToChromeJson();
  if (!trace_out) {
    return mpq::Status::Internal("cannot write " + trace_path);
  }
  std::printf("chrome trace of the last %zu traces: %s\n", sink.size(),
              trace_path.c_str());
  return out;
}

}  // namespace perfbench
