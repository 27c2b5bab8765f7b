// End-to-end integration test over the paper's running example: SQL →
// plan → profiles → candidates → optimizer → minimally extended plan →
// keys → dispatch → distributed encrypted execution, checked against the
// plaintext answer. This is Figs 1-8 as one pipeline.

#include <gtest/gtest.h>

#include "assign/assignment.h"
#include "exec/dispatch.h"
#include "exec/distributed.h"
#include "paper_example.h"
#include "sql/binder.h"

namespace mpq {
namespace {

using testing::MakePaperExample;
using testing::PaperExample;

TEST(PaperExampleTest, FullPipeline) {
  auto ex = MakePaperExample();

  // 1. Parse + bind the paper's SQL.
  auto plan_r = PlanFromSql(
      "select T, avg(P) from Hosp join Ins on S = C "
      "where D = 'stroke' group by T having avg(P) > 100",
      ex->catalog);
  ASSERT_TRUE(plan_r.ok()) << plan_r.status().ToString();
  PlanPtr plan = std::move(*plan_r);

  // 2. Operation requirements + profiles.
  ASSERT_TRUE(DerivePlaintextNeeds(plan.get(), ex->catalog, SchemeCaps{}).ok());
  ASSERT_TRUE(AnnotatePlan(plan.get(), ex->catalog).ok());

  // 3. Candidates.
  auto cp = ComputeCandidates(plan.get(), *ex->policy);
  ASSERT_TRUE(cp.ok()) << cp.status().ToString();

  // 4. Cost-based assignment.
  PricingTable prices = PricingTable::PaperDefaults(ex->subjects);
  Topology topo = Topology::PaperDefaults(ex->subjects);
  SchemeMap schemes = AnalyzeSchemes(plan.get(), ex->catalog, SchemeCaps{});
  CostModel cm(&ex->catalog, &prices, &topo, &schemes);
  AssignmentOptimizer opt(ex->policy.get(), &cm);
  auto assignment = opt.Optimize(plan.get(), *cp, ex->U);
  ASSERT_TRUE(assignment.ok()) << assignment.status().ToString();
  EXPECT_TRUE(
      VerifyAuthorizedAssignment(assignment->extended, *ex->policy).ok());

  // 5. Keys and dispatch.
  PlanKeys keys = DeriveQueryPlanKeys(assignment->extended);
  auto dispatch = BuildDispatch(assignment->extended, keys, *ex->policy, ex->U);
  ASSERT_TRUE(dispatch.ok()) << dispatch.status().ToString();
  EXPECT_FALSE(dispatch->messages.empty());

  // 6. Distributed encrypted execution.
  DistributedRuntime rt(&ex->catalog, &ex->subjects);
  const Table hosp = ex->HospData();
  const Table ins = ex->InsData();
  rt.DistributeKeys(keys, ex->U, 99);
  rt.SetCryptoPlan(MakeCryptoPlan(schemes, keys));
  auto result =
      rt.Run(assignment->extended, ex->U, {{ex->hosp, &hosp}, {ex->ins, &ins}});
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // 7. The answer matches the plaintext execution.
  ASSERT_EQ(result->result.num_rows(), 1u);
  int tc = result->result.ColIndex(ex->catalog.attrs().Find("T"));
  int pc = result->result.ColIndex(ex->catalog.attrs().Find("P"));
  EXPECT_EQ(result->result.row(0)[static_cast<size_t>(tc)].plain(),
            Value(std::string("tpa")));
  EXPECT_NEAR(
      result->result.row(0)[static_cast<size_t>(pc)].plain().AsDouble(), 160.0,
      1e-3);
}

TEST(PaperExampleTest, CheaperThanUserOnlyExecution) {
  auto ex = MakePaperExample();
  PlanPtr plan = ex->BuildQueryPlan();
  PricingTable prices = PricingTable::PaperDefaults(ex->subjects);
  Topology topo = Topology::PaperDefaults(ex->subjects);
  SchemeMap schemes = AnalyzeSchemes(plan.get(), ex->catalog, SchemeCaps{});
  CostModel cm(&ex->catalog, &prices, &topo, &schemes);

  auto cp = ComputeCandidates(plan.get(), *ex->policy);
  ASSERT_TRUE(cp.ok());
  AssignmentOptimizer opt(ex->policy.get(), &cm);
  auto best = opt.Optimize(plan.get(), *cp, ex->U);
  ASSERT_TRUE(best.ok());

  // Manual "user does everything" assignment for comparison.
  Assignment all_user{{PaperExample::kProject, ex->H},
                      {PaperExample::kSelectD, ex->U},
                      {PaperExample::kJoin, ex->U},
                      {PaperExample::kGroupBy, ex->U},
                      {PaperExample::kHaving, ex->U}};
  auto user_ext =
      BuildMinimallyExtendedPlan(plan.get(), all_user, *ex->policy, ex->U);
  ASSERT_TRUE(user_ext.ok());
  CostBreakdown user_cost = CostExtendedPlan(*user_ext, cm, ex->U);
  EXPECT_LT(best->exact_cost.total_usd(), user_cost.total_usd());
}

}  // namespace
}  // namespace mpq
