// Differential testing: ≥200 seeded random plans/policies, each executed by
// the full distributed-encrypted pipeline (candidates → minimum-cost
// authorized assignment → minimally extended plan → key distribution →
// SimNet execution) and compared bit-for-bit (order-insensitively) against
// the single-site plaintext oracle — with and without injected faults.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "exec/failover.h"
#include "net/simnet.h"
#include "obs/trace.h"
#include "testing/random_plan.h"
#include "testing/reference_exec.h"
#include "table_fingerprint.h"

namespace mpq {
namespace {

constexpr uint64_t kNumScenarios = 200;

/// Everything one seed's differential run needs.
struct DiffCase {
  RandomScenario sc;
  std::map<RelId, Table> data;
  PricingTable prices;
  Topology topo;
  std::vector<std::string> oracle_rows;
};

Result<DiffCase> MakeCase(uint64_t seed) {
  DiffCase c;
  // Slightly denser plaintext grants than the default distribution: with
  // 0.35/0.45 only ~28% of random policies authorize any provider for any
  // internal operation, leaving the fault matrix mostly vacuous; 0.50/0.45
  // lifts that to ~80% while keeping plenty of encrypted execution.
  RandomPlanOptions opts;
  opts.provider_plain_prob = 0.50;
  opts.provider_enc_prob = 0.45;
  MPQ_ASSIGN_OR_RETURN(c.sc, MakeRandomScenario(seed, opts));
  c.data = MakeRandomData(c.sc, seed ^ 0xfeed);
  // Computation at the user or an authority is priced two orders of
  // magnitude above the providers, so whenever the random policy authorizes
  // any provider the optimizer routes work there — which is the path the
  // fault injection must exercise.
  c.prices.SetDefault(PriceList{10.0, 0.0002, 0.001});
  for (const Subject& s : c.sc.subjects->subjects()) {
    if (s.kind == SubjectKind::kProvider) {
      c.prices.Set(s.id, PriceList{0.05, 0.0002, 0.001});
    }
  }
  c.topo = Topology::PaperDefaults(*c.sc.subjects);

  ReferenceExecutor oracle(c.sc.catalog.get());
  for (const auto& [rel, t] : c.data) oracle.LoadTable(rel, &t);
  MPQ_ASSIGN_OR_RETURN(Table reference, oracle.Run(c.sc.plan.get()));
  c.oracle_rows = CanonicalRows(reference);
  return c;
}

/// Runs the distributed pipeline of `c` against `net`.
Result<FailoverOutcome> RunDistributed(DiffCase& c, SimNet* net,
                                       NetPolicy net_policy = {}) {
  FailoverConfig cfg;
  cfg.net_policy = net_policy;
  FailoverExecutor exec(c.sc.catalog.get(), c.sc.subjects.get(),
                        c.sc.policy.get(), &c.prices, &c.topo, net, cfg);
  for (const auto& [rel, t] : c.data) exec.LoadTable(rel, &t);
  return exec.Execute(c.sc.plan.get(), c.sc.user);
}

/// The provider step of the optimizer-chosen extended plan a seeded pick
/// crashes; kInvalidSubject when the assignment touches no provider.
std::pair<int, SubjectId> PickVictim(const DiffCase& c,
                                     const FailoverOutcome& fault_free,
                                     uint64_t seed) {
  std::vector<std::pair<int, SubjectId>> provider_steps;
  for (const auto& [node_id, subject] :
       fault_free.assignment.extended.assignment) {
    if (c.sc.subjects->Get(subject).kind == SubjectKind::kProvider) {
      provider_steps.emplace_back(node_id, subject);
    }
  }
  if (provider_steps.empty()) return {-1, kInvalidSubject};
  // Deterministic pick; sort first (the assignment map's order is not
  // specified).
  std::sort(provider_steps.begin(), provider_steps.end());
  Rng rng(seed * 31 + 7);
  return provider_steps[rng.Uniform(provider_steps.size())];
}

TEST(DifferentialTest, ColumnarEngineMatchesRowOracleOnEveryScenario) {
  // Layout differential: the columnar engine (single-site, plaintext, at
  // 0/2/8 worker threads) against the row-major oracle, on every random
  // scenario — plus a wire round-trip of the result through the per-column
  // fragment serialization. Failures here isolate the storage/operator
  // rewrite with no crypto or network in the loop.
  ThreadPool two(2), eight(8);
  for (uint64_t seed = 1; seed <= kNumScenarios; ++seed) {
    auto c = MakeCase(seed);
    ASSERT_TRUE(c.ok()) << "seed " << seed << ": " << c.status().ToString();
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &two, &eight}) {
      ExecContext ctx;
      ctx.catalog = c->sc.catalog.get();
      for (const auto& [rel, t] : c->data) ctx.base_tables[rel] = &t;
      ctx.pool = pool;
      Result<Table> t = ExecutePlan(c->sc.plan.get(), &ctx);
      ASSERT_TRUE(t.ok()) << "seed " << seed << ": " << t.status().ToString();
      ASSERT_EQ(CanonicalRows(*t), c->oracle_rows)
          << "seed " << seed << ": columnar engine diverges from the "
          << "row-path oracle at "
          << (pool == nullptr ? 0 : pool->size()) << " threads";
      Result<SegmentReader> frame = SegmentReader::Open(*EncodeSegment(*t));
      ASSERT_TRUE(frame.ok()) << "seed " << seed;
      Result<Table> wired = frame->Decode();
      ASSERT_TRUE(wired.ok()) << "seed " << seed;
      ASSERT_EQ(CanonicalRows(*wired), c->oracle_rows)
          << "seed " << seed << ": column serialization round-trip diverges";
      if (pool == &eight) {
        // Tracing differential: the instrumented engine never reads the
        // trace, so a traced 8-thread run must be bit-identical on the
        // wire to the untraced one.
        QueryTrace trace(MakeTraceId(seed, seed ^ 0xace, 0), nullptr);
        ExecContext traced_ctx;
        traced_ctx.catalog = c->sc.catalog.get();
        for (const auto& [rel, tab] : c->data) {
          traced_ctx.base_tables[rel] = &tab;
        }
        traced_ctx.pool = pool;
        traced_ctx.trace = &trace;
        Result<Table> traced = ExecutePlan(c->sc.plan.get(), &traced_ctx);
        ASSERT_TRUE(traced.ok()) << "seed " << seed;
        ASSERT_EQ(Fingerprint(*traced), Fingerprint(*t))
            << "seed " << seed << ": traced run is not bit-identical";
        EXPECT_FALSE(trace.Spans().empty()) << "seed " << seed;
      }
    }
  }
}

TEST(DifferentialTest, DistributedEncryptedMatchesOracleWithAndWithoutFaults) {
  size_t fault_injected = 0;
  size_t no_provider = 0;
  for (uint64_t seed = 1; seed <= kNumScenarios; ++seed) {
    auto c = MakeCase(seed);
    ASSERT_TRUE(c.ok()) << "seed " << seed << ": " << c.status().ToString();

    // Fault-free: the encrypted distributed run equals the oracle.
    SimNet clean(c->sc.subjects.get());
    auto fault_free = RunDistributed(*c, &clean);
    ASSERT_TRUE(fault_free.ok())
        << "seed " << seed << ": " << fault_free.status().ToString();
    EXPECT_EQ(fault_free->failovers, 0u) << "seed " << seed;
    ASSERT_EQ(CanonicalRows(fault_free->result.result), c->oracle_rows)
        << "seed " << seed << ": fault-free distributed run diverges";

    // Faulted: crash a provider of the chosen assignment at its dispatch
    // step; recovery must still equal the oracle.
    auto [step, victim] = PickVictim(*c, *fault_free, seed);
    if (victim == kInvalidSubject) {
      no_provider++;
      continue;
    }
    fault_injected++;
    SimNet net(c->sc.subjects.get());
    FaultPlan faults;
    faults.seed = seed;
    faults.crash_at_step[victim] = step;
    net.SetFaultPlan(faults);
    auto recovered = RunDistributed(*c, &net);
    ASSERT_TRUE(recovered.ok())
        << "seed " << seed << " crash@" << step << ": "
        << recovered.status().ToString();
    EXPECT_GE(recovered->failovers, 1u) << "seed " << seed;
    ASSERT_EQ(CanonicalRows(recovered->result.result), c->oracle_rows)
        << "seed " << seed << ": recovered run diverges from the oracle";
  }
  // The matrix must actually exercise failover: most random policies
  // authorize (and the biased pricing selects) a provider somewhere.
  EXPECT_GT(fault_injected, (3 * kNumScenarios) / 5)
      << no_provider << " scenarios had no provider step";
}

TEST(DifferentialTest, LossyLinksWithRetriesStillMatchOracle) {
  // A 30%-drop network under a 5-attempt budget: most edges succeed after
  // retries; when an edge exhausts its budget the run fails over. Either
  // way the answer must equal the oracle whenever the query completes (a
  // non-excludable dead edge — e.g. authority→user in an all-user plan — is
  // a legitimate kUnavailable).
  NetPolicy policy;
  policy.max_attempts = 5;
  size_t completed = 0, unavailable = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    auto c = MakeCase(seed);
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    SimNet net(c->sc.subjects.get());
    FaultPlan faults;
    faults.seed = seed * 1313;
    faults.drop_prob = 0.3;
    net.SetFaultPlan(faults);
    auto r = RunDistributed(*c, &net, policy);
    if (r.ok()) {
      completed++;
      ASSERT_EQ(CanonicalRows(r->result.result), c->oracle_rows)
          << "seed " << seed << " (failovers=" << r->failovers << ")";
    } else {
      ASSERT_EQ(r.status().code(), StatusCode::kUnavailable)
          << "seed " << seed << ": " << r.status().ToString();
      unavailable++;
    }
  }
  // Retry budgets absorb a 0.3 drop rate almost always (p(exhaust) per edge
  // ≈ 0.24%); the suite is deterministic, so this is a fixed count.
  EXPECT_GT(completed, 55u) << unavailable << " runs unavailable";
}

}  // namespace
}  // namespace mpq
