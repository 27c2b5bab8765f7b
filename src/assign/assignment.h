// Assignment of operations to candidates (Sec 6, step 2): a dynamic-
// programming optimizer minimizing economic cost over the candidate sets Λ,
// plus an exhaustive optimizer for cross-checking and exact costing of
// extended plans.

#ifndef MPQ_ASSIGN_ASSIGNMENT_H_
#define MPQ_ASSIGN_ASSIGNMENT_H_

#include <optional>

#include "assign/cost_model.h"
#include "candidates/candidates.h"
#include "extend/extend.h"

namespace mpq {

/// Output of the optimizer.
struct AssignmentResult {
  Assignment lambda;          ///< Chosen λ (internal nodes only).
  double dp_cost_usd = 0;     ///< DP objective value (approximate; see below).
  ExtendedPlan extended;      ///< Minimally extended plan for λ.
  /// Assignment-aware per-attribute schemes (RefineSchemesForPlan): what the
  /// execution layer should actually use, and what exact_cost was computed
  /// with.
  SchemeMap refined_schemes;
  CostBreakdown exact_cost;   ///< Exact cost of the extended plan.
};

/// Cost-based assignment over candidate sets.
///
/// The DP treats inter-node encryption edge-locally (encryption needed
/// between a child's assignee and its parent's assignee); the Def 5.4(ii)
/// ancestor term is then accounted exactly by re-costing the produced
/// minimally extended plan (BuildMinimallyExtendedPlan). OptimizeExhaustive
/// enumerates all of Λ's cross-product with exact extended-plan costing and
/// is used to validate the DP on small plans.
class AssignmentOptimizer {
 public:
  AssignmentOptimizer(const Policy* policy, const CostModel* cost_model)
      : policy_(policy), cost_model_(cost_model) {}

  /// Sec 7: economic cost is the objective, optionally subject to a maximum
  /// elapsed-time threshold. Unset = cost only.
  void SetElapsedThreshold(double max_elapsed_s) {
    max_elapsed_s_ = max_elapsed_s;
  }

  /// Minimizes estimated economic cost; the result is delivered to `user`.
  /// When an elapsed threshold is set and the cost-optimal plan violates it,
  /// falls back to exhaustive search over Λ for the cheapest plan within the
  /// threshold (kNotFound when none qualifies).
  Result<AssignmentResult> Optimize(const PlanNode* root,
                                    const CandidatePlan& cp,
                                    SubjectId user) const;

  /// Exhaustive search over λ ∈ Λ with exact costing (threshold-aware).
  /// Exponential; guarded by `max_combinations`.
  Result<AssignmentResult> OptimizeExhaustive(
      const PlanNode* root, const CandidatePlan& cp, SubjectId user,
      uint64_t max_combinations = 2'000'000) const;

 private:
  Result<AssignmentResult> FinishResult(const PlanNode* root,
                                        AssignmentResult result,
                                        SubjectId user) const;

  const Policy* policy_;
  const CostModel* cost_model_;
  double max_elapsed_s_ = 0;  // 0 = unconstrained
};

/// Exact cost of an extended plan: every node billed to its assignee, every
/// assignee-crossing edge billed as a transfer, the root shipped to `user`.
CostBreakdown CostExtendedPlan(const ExtendedPlan& ext,
                               const CostModel& cost_model, SubjectId user);

}  // namespace mpq

#endif  // MPQ_ASSIGN_ASSIGNMENT_H_
