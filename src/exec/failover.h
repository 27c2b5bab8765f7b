// Authorized failover: when a provider dies mid-query (a SimNet crash, a
// dead link, a blown fragment deadline), re-enter the candidates/assignment
// machinery with the dead subjects excluded, pick the minimum-cost
// *authorized* alternative assignment, re-derive and re-distribute keys, and
// re-execute. The recovered result is the same table the fault-free run
// produces — proved by tests/simnet_test.cc and tests/differential_test.cc.
//
// Recovery always replans under the *current* policy (candidates are
// recomputed and the chosen assignment re-verified per Def 4.2), so a grant
// revoked between the original plan and the failure can never leak into the
// recovery path — there is no stale-policy execution after failover.
//
// Each attempt runs with freshly derived keys (seed advanced per attempt):
// intermediates of the abandoned attempt are ciphertext under keys the new
// assignment never distributes, so a partially-computed fragment at a
// crashed provider is useless to it. The price is re-executing from the base
// relations; the bytes thrown away are accounted as retransfer_bytes.

#ifndef MPQ_EXEC_FAILOVER_H_
#define MPQ_EXEC_FAILOVER_H_

#include <vector>

#include "assign/assignment.h"
#include "exec/distributed.h"
#include "net/pricing.h"
#include "net/simnet.h"

namespace mpq {

/// Knobs of the failover loop.
struct FailoverConfig {
  SchemeCaps caps;               ///< Encrypted-execution capabilities.
  uint64_t key_seed = 2025;      ///< Base seed for per-attempt key material.
  size_t max_failovers = 2;      ///< Re-plan attempts after the first run.
  NetPolicy net_policy;          ///< Per-edge retry/deadline budget.
  ThreadPool* pool = nullptr;    ///< Borrowed; null = sequential.
  size_t batch_size = Table::kDefaultBatchSize;
  OpProfile* op_profile = nullptr;  ///< Borrowed; null = no op counters.
  /// Borrowed; when set, every re-plan attempt records a "failover" span
  /// (excluded subjects, retransfer bytes, recovery latency) and the
  /// recovery runs trace their fragments under it. Null = no tracing.
  QueryTrace* trace = nullptr;
  uint64_t trace_parent = 0;  ///< Parent span id for attempt spans.
};

/// Outcome of a (possibly recovered) execution.
struct FailoverOutcome {
  DistributedResult result;        ///< Of the successful attempt.
  AssignmentResult assignment;     ///< The assignment that produced it.
  size_t failovers = 0;            ///< Re-plans that were needed.
  std::vector<SubjectId> excluded; ///< Subjects the final plan routed around.
  /// Bytes delivered in abandoned attempts — transferred again by the
  /// recovery plan.
  uint64_t retransfer_bytes = 0;
  /// Wall seconds spent after the first failure (re-planning + re-runs).
  double failover_latency_s = 0;
};

/// Executes plans against a SimNet with authorized failover. The referenced
/// catalog/subjects/policy/pricing/topology/net must outlive the executor;
/// base tables are borrowed.
class FailoverExecutor {
 public:
  FailoverExecutor(const Catalog* catalog, const SubjectRegistry* subjects,
                   const Policy* policy, const PricingTable* prices,
                   const Topology* topology, SimNet* net,
                   FailoverConfig config = {})
      : catalog_(catalog),
        subjects_(subjects),
        policy_(policy),
        prices_(prices),
        topology_(topology),
        net_(net),
        config_(config) {}

  /// Borrows the data of a base relation (caller keeps it alive).
  void LoadTable(RelId rel, const Table* data) { tables_[rel] = data; }

  /// Optimize → extend → distribute keys → run, re-planning around dead
  /// subjects up to config.max_failovers times. `plan` must be bound and
  /// profile-annotated (DerivePlaintextNeeds + AnnotatePlan done).
  Result<FailoverOutcome> Execute(const PlanNode* plan, SubjectId user);

  /// Recovery entry for a first attempt that already failed elsewhere (the
  /// serving layer's cached-plan path): goes straight to re-planning with
  /// the net's down subjects excluded.
  Result<FailoverOutcome> Recover(const PlanNode* plan, SubjectId user);

 private:
  /// One planning+execution attempt with the net's current down set
  /// excluded. `attempt` salts the key seed; `parent_span` parents the
  /// recovery run's trace spans (0 = config trace_parent).
  Result<FailoverOutcome> Attempt(const PlanNode* plan, SubjectId user,
                                  size_t attempt, uint64_t parent_span);
  Result<FailoverOutcome> Loop(const PlanNode* plan, SubjectId user,
                               size_t first_attempt);

  const Catalog* catalog_;
  const SubjectRegistry* subjects_;
  const Policy* policy_;
  const PricingTable* prices_;
  const Topology* topology_;
  SimNet* net_;
  FailoverConfig config_;
  BaseTables tables_;
};

}  // namespace mpq

#endif  // MPQ_EXEC_FAILOVER_H_
