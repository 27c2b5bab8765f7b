// End-to-end integration tests on TPC-H: optimizer-chosen assignments,
// minimally extended plans, refined schemes, key distribution and distributed
// encrypted execution validated against plaintext execution.

#include <gtest/gtest.h>

#include "assign/assignment.h"
#include "exec/dispatch.h"
#include "exec/distributed.h"
#include "profile/propagate.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "tpch/scenarios.h"

namespace mpq {
namespace {

struct Pipeline {
  TpchEnv env = MakeTpchEnv(1.0, 3);
  TpchData db;
  PricingTable prices;
  Topology topo;

  Pipeline() {
    db = GenerateTpch(env, /*data_sf=*/0.0004, /*seed=*/11);
    prices = MakeScenarioPricing(env);
    topo = MakeScenarioTopology(env);
  }

  Result<size_t> PlaintextRows(const PlanPtr& plan) {
    KeyRing ring;
    CryptoPlan crypto;
    ExecContext ctx;
    ctx.catalog = &env.catalog;
    for (const auto& [rel, t] : db.tables) ctx.base_tables[rel] = &t;
    ctx.keyring = &ring;
    ctx.crypto = &crypto;
    MPQ_ASSIGN_OR_RETURN(Table t, ExecutePlan(plan.get(), &ctx));
    return t.num_rows();
  }

  /// Optimize under `scenario` and execute the extended plan distributed
  /// with refined schemes; returns (result rows, transfer bytes).
  Result<std::pair<size_t, uint64_t>> OptimizedRows(const PlanPtr& plan,
                                                    AuthScenario scenario) {
    MPQ_ASSIGN_OR_RETURN(Policy policy, MakeScenarioPolicy(env, scenario));
    MPQ_ASSIGN_OR_RETURN(CandidatePlan cp,
                         ComputeCandidates(plan.get(), policy));
    SchemeMap schemes = AnalyzeSchemes(plan.get(), env.catalog, SchemeCaps{});
    CostModel cm(&env.catalog, &prices, &topo, &schemes);
    AssignmentOptimizer opt(&policy, &cm);
    MPQ_ASSIGN_OR_RETURN(AssignmentResult r,
                         opt.Optimize(plan.get(), cp, env.user));
    MPQ_RETURN_NOT_OK(VerifyAuthorizedAssignment(r.extended, policy));

    PlanKeys keys = DeriveQueryPlanKeys(r.extended);
    DistributedRuntime rt(&env.catalog, &env.subjects);
    BaseTables tables;
    for (const auto& [rel, t] : db.tables) tables[rel] = &t;
    rt.DistributeKeys(keys, env.user, 2025);
    rt.SetCryptoPlan(MakeCryptoPlan(r.refined_schemes, keys));
    MPQ_ASSIGN_OR_RETURN(DistributedResult res,
                         rt.Run(r.extended, env.user, tables));
    return std::make_pair(res.result.num_rows(), res.total_transfer_bytes);
  }
};

class TpchEndToEnd : public ::testing::TestWithParam<int> {
 protected:
  static Pipeline& Pipe() {
    static Pipeline p;
    return p;
  }
};

TEST_P(TpchEndToEnd, UAPencDistributedMatchesPlaintext) {
  Pipeline& p = Pipe();
  auto plan = BuildTpchQuery(GetParam(), p.env);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(
      DerivePlaintextNeeds(plan->get(), p.env.catalog, SchemeCaps{}).ok());
  ASSERT_TRUE(AnnotatePlan(plan->get(), p.env.catalog).ok());
  auto reference = p.PlaintextRows(*plan);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  auto result = p.OptimizedRows(*plan, AuthScenario::kUAPenc);
  ASSERT_TRUE(result.ok()) << "Q" << GetParam() << ": "
                           << result.status().ToString();
  EXPECT_EQ(result->first, *reference) << "Q" << GetParam();
}

TEST_P(TpchEndToEnd, UAPmixDistributedMatchesPlaintext) {
  Pipeline& p = Pipe();
  auto plan = BuildTpchQuery(GetParam(), p.env);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(
      DerivePlaintextNeeds(plan->get(), p.env.catalog, SchemeCaps{}).ok());
  ASSERT_TRUE(AnnotatePlan(plan->get(), p.env.catalog).ok());
  auto reference = p.PlaintextRows(*plan);
  ASSERT_TRUE(reference.ok());
  auto result = p.OptimizedRows(*plan, AuthScenario::kUAPmix);
  ASSERT_TRUE(result.ok()) << "Q" << GetParam() << ": "
                           << result.status().ToString();
  EXPECT_EQ(result->first, *reference) << "Q" << GetParam();
}

// A representative cross-section: selection-heavy (6), join-chain (3, 10),
// attr-attr comparison (12), double aggregation (13), having (11, 18),
// min/max (2, 15), ne-predicate (16).
INSTANTIATE_TEST_SUITE_P(Queries, TpchEndToEnd,
                         ::testing::Values(2, 3, 6, 10, 11, 12, 13, 15, 16,
                                           18));

TEST(IntegrationTest, GreedyDecryptAppearsAtPlaintextAuthorizedSubject) {
  // Under UAPenc, aggregations over summed attributes land on a subject with
  // plaintext authorization, preceded by a decrypt of the transit-encrypted
  // attribute — the optimizer's decrypt-at-operator behavior.
  Pipeline p;
  auto plan = BuildTpchQuery(3, p.env);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(
      DerivePlaintextNeeds(plan->get(), p.env.catalog, SchemeCaps{}).ok());
  ASSERT_TRUE(AnnotatePlan(plan->get(), p.env.catalog).ok());
  auto policy = MakeScenarioPolicy(p.env, AuthScenario::kUAPenc);
  ASSERT_TRUE(policy.ok());
  auto cp = ComputeCandidates(plan->get(), *policy);
  ASSERT_TRUE(cp.ok());
  SchemeMap schemes = AnalyzeSchemes(plan->get(), p.env.catalog, SchemeCaps{});
  CostModel cm(&p.env.catalog, &p.prices, &p.topo, &schemes);
  AssignmentOptimizer opt(&*policy, &cm);
  auto r = opt.Optimize(plan->get(), *cp, p.env.user);
  ASSERT_TRUE(r.ok());

  // Every decrypt operation's assignee is plaintext-authorized for the
  // decrypted attributes (keys are only useful to authorized subjects).
  for (const PlanNode* n : PostOrder(r->extended.plan.get())) {
    if (n->kind != OpKind::kDecrypt) continue;
    SubjectId s = r->extended.assignment.at(n->id);
    EXPECT_TRUE(n->attrs.IsSubsetOf(policy->PlainView(s)))
        << "decrypt node " << n->id << " at non-authorized subject";
  }
}

TEST(IntegrationTest, RefinedSchemesNeverStrongerThanStatic) {
  // Refinement only weakens schemes (RND ≤ DET ≤ OPE ≤ HOM order is not a
  // strict lattice, but a transit-only attribute must end up RND).
  Pipeline p;
  auto plan = BuildTpchQuery(3, p.env);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(
      DerivePlaintextNeeds(plan->get(), p.env.catalog, SchemeCaps{}).ok());
  ASSERT_TRUE(AnnotatePlan(plan->get(), p.env.catalog).ok());
  auto policy = MakeScenarioPolicy(p.env, AuthScenario::kUAPenc);
  ASSERT_TRUE(policy.ok());
  auto cp = ComputeCandidates(plan->get(), *policy);
  ASSERT_TRUE(cp.ok());
  SchemeMap schemes = AnalyzeSchemes(plan->get(), p.env.catalog, SchemeCaps{});
  CostModel cm(&p.env.catalog, &p.prices, &p.topo, &schemes);
  AssignmentOptimizer opt(&*policy, &cm);
  auto r = opt.Optimize(plan->get(), *cp, p.env.user);
  ASSERT_TRUE(r.ok());
  // l_extendedprice is summed at a plaintext-authorized subject after
  // decryption, so when it transits encrypted it is RND, not Paillier.
  AttrId lep = p.env.catalog.attrs().Find("l_extendedprice");
  auto it = r->refined_schemes.find(lep);
  if (it != r->refined_schemes.end()) {
    EXPECT_NE(it->second, EncScheme::kPaillier);
  }
}

TEST(IntegrationTest, DispatchCoversEveryAssignee) {
  Pipeline p;
  auto plan = BuildTpchQuery(5, p.env);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(
      DerivePlaintextNeeds(plan->get(), p.env.catalog, SchemeCaps{}).ok());
  ASSERT_TRUE(AnnotatePlan(plan->get(), p.env.catalog).ok());
  auto policy = MakeScenarioPolicy(p.env, AuthScenario::kUAPenc);
  ASSERT_TRUE(policy.ok());
  auto cp = ComputeCandidates(plan->get(), *policy);
  ASSERT_TRUE(cp.ok());
  SchemeMap schemes = AnalyzeSchemes(plan->get(), p.env.catalog, SchemeCaps{});
  CostModel cm(&p.env.catalog, &p.prices, &p.topo, &schemes);
  AssignmentOptimizer opt(&*policy, &cm);
  auto r = opt.Optimize(plan->get(), *cp, p.env.user);
  ASSERT_TRUE(r.ok());
  PlanKeys keys = DeriveQueryPlanKeys(r->extended);
  auto dispatch = BuildDispatch(r->extended, keys, *policy, p.env.user);
  ASSERT_TRUE(dispatch.ok());

  std::set<SubjectId> assignees, recipients;
  for (const auto& [id, s] : r->extended.assignment) assignees.insert(s);
  for (const DispatchMessage& m : dispatch->messages) recipients.insert(m.to);
  EXPECT_EQ(assignees, recipients);
  // Every message verifies under the user's signature.
  for (const DispatchMessage& m : dispatch->messages) {
    std::string payload = m.sub_query;
    for (uint64_t k : m.key_ids) payload += "|" + std::to_string(k);
    EXPECT_TRUE(VerifySignature(p.env.user, payload, m.signature));
  }
}

}  // namespace
}  // namespace mpq
