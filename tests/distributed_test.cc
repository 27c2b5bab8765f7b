// Tests for the distributed runtime: end-to-end encrypted execution of the
// paper's extended plans, selective key distribution, transfer accounting.

#include <gtest/gtest.h>

#include <set>

#include "assign/assignment.h"
#include "exec/distributed.h"
#include "paper_example.h"
#include "profile/propagate.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "tpch/scenarios.h"

namespace mpq {
namespace {

using testing::MakePaperExample;
using testing::PaperExample;

/// Every subject's keyring holds exactly the keys of the Def 6.1 groups it
/// is a holder of — a missing key breaks execution, an extra one is a leak
/// — except the dispatching user, which holds every key.
void ExpectExactDef61Keyrings(const DistributedRuntime& rt,
                              const PlanKeys& keys, SubjectId user,
                              size_t num_subjects) {
  for (SubjectId s = 0; s < num_subjects; ++s) {
    std::set<uint64_t> want;
    for (const KeyGroup& g : keys.groups) {
      if (s == user || g.holders.Contains(s)) want.insert(g.key_id);
    }
    const KeyRing& ring = rt.keyring(s);
    // Key ids are unique per plan, so equal sizes plus containment is
    // set equality.
    EXPECT_EQ(ring.size(), want.size()) << "subject " << s;
    for (uint64_t id : want) {
      EXPECT_TRUE(ring.Has(id)) << "subject " << s << " lacks key " << id;
    }
  }
}

class DistributedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ex_ = MakePaperExample();
    plan_ = ex_->BuildQueryPlan();
    hosp_ = ex_->HospData();
    ins_ = ex_->InsData();
    tables_ = {{ex_->hosp, &hosp_}, {ex_->ins, &ins_}};
  }

  Assignment Fig7a() {
    return Assignment{{PaperExample::kProject, ex_->H},
                      {PaperExample::kSelectD, ex_->H},
                      {PaperExample::kJoin, ex_->X},
                      {PaperExample::kGroupBy, ex_->X},
                      {PaperExample::kHaving, ex_->Y}};
  }

  /// Builds the runtime for an extended plan with keys distributed per
  /// Def 6.1 and schemes analyzed from the plan.
  std::unique_ptr<DistributedRuntime> MakeRuntime(const ExtendedPlan& ext) {
    auto rt = std::make_unique<DistributedRuntime>(&ex_->catalog,
                                                   &ex_->subjects);
    PlanKeys keys = DeriveQueryPlanKeys(ext);
    rt->DistributeKeys(keys, ex_->U, /*seed=*/2024);
    SchemeMap schemes = AnalyzeSchemes(plan_.get(), ex_->catalog, SchemeCaps{});
    rt->SetCryptoPlan(MakeCryptoPlan(schemes, keys));
    return rt;
  }

  std::unique_ptr<PaperExample> ex_;
  PlanPtr plan_;
  Table hosp_, ins_;
  BaseTables tables_;
};

TEST_F(DistributedTest, Fig7aEndToEndMatchesPlaintext) {
  auto ext =
      BuildMinimallyExtendedPlan(plan_.get(), Fig7a(), *ex_->policy, ex_->U);
  ASSERT_TRUE(ext.ok()) << ext.status().ToString();
  auto rt = MakeRuntime(*ext);
  auto result = rt->Run(*ext, ex_->U, tables_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Same answer as the plaintext run: one group (tpa, avg 160).
  ASSERT_EQ(result->result.num_rows(), 1u);
  AttrId t_attr = ex_->catalog.attrs().Find("T");
  AttrId p_attr = ex_->catalog.attrs().Find("P");
  int tc = result->result.ColIndex(t_attr);
  int pc = result->result.ColIndex(p_attr);
  ASSERT_GE(tc, 0);
  ASSERT_GE(pc, 0);
  EXPECT_EQ(result->result.row(0)[static_cast<size_t>(tc)].plain(),
            Value(std::string("tpa")));
  EXPECT_NEAR(result->result.row(0)[static_cast<size_t>(pc)].plain().AsDouble(),
              160.0, 1e-3);
}

TEST_F(DistributedTest, Fig7bEndToEndMatchesPlaintext) {
  Assignment fig7b{{PaperExample::kProject, ex_->H},
                   {PaperExample::kSelectD, ex_->H},
                   {PaperExample::kJoin, ex_->Z},
                   {PaperExample::kGroupBy, ex_->Z},
                   {PaperExample::kHaving, ex_->Y}};
  auto ext =
      BuildMinimallyExtendedPlan(plan_.get(), fig7b, *ex_->policy, ex_->U);
  ASSERT_TRUE(ext.ok()) << ext.status().ToString();
  auto rt = MakeRuntime(*ext);
  auto result = rt->Run(*ext, ex_->U, tables_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->result.num_rows(), 1u);
}

TEST_F(DistributedTest, StatsAccountPerSubject) {
  auto ext =
      BuildMinimallyExtendedPlan(plan_.get(), Fig7a(), *ex_->policy, ex_->U);
  ASSERT_TRUE(ext.ok());
  auto rt = MakeRuntime(*ext);
  auto result = rt->Run(*ext, ex_->U, tables_);
  ASSERT_TRUE(result.ok());
  // H, I, X, Y all execute something.
  EXPECT_GT(result->stats.at(ex_->H).ops_executed, 0u);
  EXPECT_GT(result->stats.at(ex_->I).ops_executed, 0u);
  EXPECT_GT(result->stats.at(ex_->X).ops_executed, 0u);
  EXPECT_GT(result->stats.at(ex_->Y).ops_executed, 0u);
  // Data crossed subjects: H→X, I→X, X→Y, Y→U.
  EXPECT_GE(result->num_messages, 4u);
  EXPECT_GT(result->total_transfer_bytes, 0u);
  // X ships its aggregation output onward.
  EXPECT_GT(result->stats.at(ex_->X).bytes_out, 0u);
  EXPECT_GT(result->stats.at(ex_->U).bytes_in, 0u);
}

TEST_F(DistributedTest, MissingKeyBlocksExecution) {
  auto ext =
      BuildMinimallyExtendedPlan(plan_.get(), Fig7a(), *ex_->policy, ex_->U);
  ASSERT_TRUE(ext.ok());
  // Runtime WITHOUT key distribution: H cannot encrypt S.
  DistributedRuntime rt(&ex_->catalog, &ex_->subjects);
  PlanKeys keys = DeriveQueryPlanKeys(*ext);
  SchemeMap schemes = AnalyzeSchemes(plan_.get(), ex_->catalog, SchemeCaps{});
  rt.SetCryptoPlan(MakeCryptoPlan(schemes, keys));
  auto result = rt.Run(*ext, ex_->U, tables_);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(DistributedTest, KeyringsFollowDef61Holders) {
  auto ext =
      BuildMinimallyExtendedPlan(plan_.get(), Fig7a(), *ex_->policy, ex_->U);
  ASSERT_TRUE(ext.ok());
  auto rt = MakeRuntime(*ext);
  PlanKeys keys = DeriveQueryPlanKeys(*ext);
  ASSERT_FALSE(keys.groups.empty());
  ExpectExactDef61Keyrings(*rt, keys, ex_->U, ex_->subjects.size());
  // X holds no keys (it only computes over ciphertexts).
  EXPECT_EQ(rt->keyring(ex_->X).size(), 0u);
}

TEST(DistributedTpchTest, UAPencKeyringsFollowDef61Holders) {
  TpchEnv env = MakeTpchEnv(1.0, 3);
  TpchData db = GenerateTpch(env, /*data_sf=*/0.0002, /*seed=*/11);
  auto plan = BuildTpchQuery(3, env);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(
      DerivePlaintextNeeds(plan->get(), env.catalog, SchemeCaps{}).ok());
  ASSERT_TRUE(AnnotatePlan(plan->get(), env.catalog).ok());
  auto policy = MakeScenarioPolicy(env, AuthScenario::kUAPenc);
  ASSERT_TRUE(policy.ok());
  auto cp = ComputeCandidates(plan->get(), *policy);
  ASSERT_TRUE(cp.ok());
  SchemeMap schemes = AnalyzeSchemes(plan->get(), env.catalog, SchemeCaps{});
  PricingTable prices = MakeScenarioPricing(env);
  Topology topo = MakeScenarioTopology(env);
  CostModel cm(&env.catalog, &prices, &topo, &schemes);
  AssignmentOptimizer opt(&*policy, &cm);
  auto r = opt.Optimize(plan->get(), *cp, env.user);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  PlanKeys keys = DeriveQueryPlanKeys(r->extended);
  ASSERT_FALSE(keys.groups.empty());

  DistributedRuntime rt(&env.catalog, &env.subjects);
  BaseTables tables;
  for (const auto& [rel, t] : db.tables) tables[rel] = &t;
  rt.DistributeKeys(keys, env.user, /*seed=*/2025);
  rt.SetCryptoPlan(MakeCryptoPlan(r->refined_schemes, keys));
  ExpectExactDef61Keyrings(rt, keys, env.user, env.subjects.size());
  // The exact keyrings suffice: the plan runs to completion.
  auto result = rt.Run(r->extended, env.user, tables);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

TEST_F(DistributedTest, AllUserPlanHasSingleHop) {
  Assignment all_user{{PaperExample::kProject, ex_->H},
                      {PaperExample::kSelectD, ex_->U},
                      {PaperExample::kJoin, ex_->U},
                      {PaperExample::kGroupBy, ex_->U},
                      {PaperExample::kHaving, ex_->U}};
  auto ext = BuildMinimallyExtendedPlan(plan_.get(), all_user, *ex_->policy,
                                        ex_->U);
  ASSERT_TRUE(ext.ok()) << ext.status().ToString();
  auto rt = MakeRuntime(*ext);
  auto result = rt->Run(*ext, ex_->U, tables_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Transfers: H→U (after π/σ... σD at U: H→U once), I→U once.
  EXPECT_EQ(result->num_messages, 2u);
  ASSERT_EQ(result->result.num_rows(), 1u);
}

}  // namespace
}  // namespace mpq
