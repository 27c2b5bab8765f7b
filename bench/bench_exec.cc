// Microbenchmark: end-to-end execution throughput — plaintext vs encrypted
// extended plans on the running example and TPC-H queries at small scale.
// Quantifies the runtime price of on-the-fly encryption (DET/OPE cheap,
// Paillier aggregation dominant).

#include <benchmark/benchmark.h>

#include "assign/assignment.h"
#include "exec/distributed.h"
#include "profile/propagate.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "tpch/scenarios.h"

namespace mpq {
namespace {

struct ExecFixture {
  TpchEnv env = MakeTpchEnv(1.0, 3);
  TpchData db = GenerateTpch(env, /*data_sf=*/0.002, /*seed=*/5);
};

ExecFixture& Fx() {
  static ExecFixture fx;
  return fx;
}

void BM_PlaintextTpch(benchmark::State& state) {
  ExecFixture& fx = Fx();
  int q = static_cast<int>(state.range(0));
  auto plan = BuildTpchQuery(q, fx.env);
  if (!plan.ok()) {
    state.SkipWithError("build failed");
    return;
  }
  KeyRing ring;
  CryptoPlan crypto;
  ExecContext ctx;
  ctx.catalog = &fx.env.catalog;
  for (const auto& [rel, t] : fx.db.tables) ctx.base_tables[rel] = &t;
  ctx.keyring = &ring;
  ctx.crypto = &crypto;
  size_t rows = 0;
  for (auto _ : state) {
    auto t = ExecutePlan(plan->get(), &ctx);
    if (!t.ok()) {
      state.SkipWithError(t.status().ToString().c_str());
      return;
    }
    rows = t->num_rows();
    benchmark::DoNotOptimize(t);
  }
  state.counters["out_rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_PlaintextTpch)->Arg(1)->Arg(3)->Arg(6)->Arg(12);

void BM_EncryptedDistributedTpch(benchmark::State& state) {
  ExecFixture& fx = Fx();
  int q = static_cast<int>(state.range(0));
  auto plan = BuildTpchQuery(q, fx.env);
  if (!plan.ok()) {
    state.SkipWithError("build failed");
    return;
  }
  (void)DerivePlaintextNeeds(plan->get(), fx.env.catalog, SchemeCaps{});
  (void)AnnotatePlan(plan->get(), fx.env.catalog);
  auto policy = MakeScenarioPolicy(fx.env, AuthScenario::kUAPenc);
  auto cp = ComputeCandidates(plan->get(), *policy);
  if (!cp.ok()) {
    state.SkipWithError("no candidates");
    return;
  }
  PricingTable prices = MakeScenarioPricing(fx.env);
  Topology topo = MakeScenarioTopology(fx.env);
  SchemeMap schemes = AnalyzeSchemes(plan->get(), fx.env.catalog, SchemeCaps{});
  CostModel cm(&fx.env.catalog, &prices, &topo, &schemes);
  AssignmentOptimizer opt(&*policy, &cm);
  auto r = opt.Optimize(plan->get(), *cp, fx.env.user);
  if (!r.ok()) {
    state.SkipWithError(r.status().ToString().c_str());
    return;
  }
  PlanKeys keys = DeriveQueryPlanKeys(r->extended);

  DistributedRuntime rt(&fx.env.catalog, &fx.env.subjects);
  BaseTables tables;
  for (const auto& [rel, t] : fx.db.tables) tables[rel] = &t;
  rt.DistributeKeys(keys, fx.env.user, 77);
  rt.SetCryptoPlan(MakeCryptoPlan(schemes, keys));

  uint64_t transfer = 0;
  for (auto _ : state) {
    auto res = rt.Run(r->extended, fx.env.user, tables);
    if (!res.ok()) {
      state.SkipWithError(res.status().ToString().c_str());
      return;
    }
    transfer = res->total_transfer_bytes;
    benchmark::DoNotOptimize(res);
  }
  state.counters["transfer_bytes"] = static_cast<double>(transfer);
  state.counters["enc_attrs"] =
      static_cast<double>(r->extended.encrypted_attrs.size());
}
BENCHMARK(BM_EncryptedDistributedTpch)->Arg(1)->Arg(3)->Arg(6)->Arg(12);

}  // namespace
}  // namespace mpq

BENCHMARK_MAIN();
