#include "exec/failover.h"

#include <chrono>
#include <optional>

#include "common/rng.h"
#include "common/str_util.h"
#include "obs/trace.h"

namespace mpq {

namespace {
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
}  // namespace

Result<FailoverOutcome> FailoverExecutor::Attempt(const PlanNode* plan,
                                                  SubjectId user,
                                                  size_t attempt,
                                                  uint64_t parent_span) {
  // The down set is read fresh every attempt: each failed run grows it.
  SubjectSet excluded;
  for (SubjectId s : net_->DownSubjects()) excluded.Insert(s);

  FailoverOutcome out;
  MPQ_ASSIGN_OR_RETURN(
      CandidatePlan cp,
      ComputeCandidates(plan, *policy_, /*require_nonempty=*/true,
                        excluded.empty() ? nullptr : &excluded));
  SchemeMap schemes = AnalyzeSchemes(plan, *catalog_, config_.caps);
  CostModel cost_model(catalog_, prices_, topology_, &schemes);
  AssignmentOptimizer optimizer(policy_, &cost_model);
  MPQ_ASSIGN_OR_RETURN(out.assignment, optimizer.Optimize(plan, cp, user));
  // Replanning happens under the *current* policy; verifying here makes the
  // no-stale-policy property explicit rather than implied.
  MPQ_RETURN_NOT_OK(
      VerifyAuthorizedAssignment(out.assignment.extended, *policy_));

  PlanKeys keys = DeriveQueryPlanKeys(out.assignment.extended);
  DistributedRuntime rt(catalog_, subjects_);
  // A fresh key seed per attempt: nothing the abandoned attempt shipped is
  // decryptable under the recovery plan's keys.
  rt.DistributeKeys(
      keys, user,
      SplitMix64(config_.key_seed ^ (attempt + 1) * 0x9e3779b97f4a7c15ull));
  rt.SetCryptoPlan(MakeCryptoPlan(out.assignment.refined_schemes, keys));
  rt.SetThreadPool(config_.pool);
  rt.SetBatchSize(config_.batch_size);
  rt.SetNetwork(net_);
  rt.SetNetPolicy(config_.net_policy);
  rt.SetOpProfile(config_.op_profile);

  MPQ_ASSIGN_OR_RETURN(
      out.result,
      rt.Run(out.assignment.extended, user, tables_, config_.trace,
             parent_span != 0 ? parent_span : config_.trace_parent));
  excluded.ForEach(
      [&](AttrId s) { out.excluded.push_back(static_cast<SubjectId>(s)); });
  return out;
}

Result<FailoverOutcome> FailoverExecutor::Loop(const PlanNode* plan,
                                               SubjectId user,
                                               size_t first_attempt) {
  Status last = Status::Unavailable("no attempt made");
  uint64_t retransfer = 0;
  // Set at the first observed failure; Recover enters with the failure
  // already observed by the caller.
  std::optional<Clock::time_point> first_failure;
  if (first_attempt > 0) first_failure = Clock::now();

  for (size_t attempt = first_attempt; attempt <= config_.max_failovers;
       ++attempt) {
    size_t down_before = net_->DownSubjects().size();
    uint64_t delivered_before = net_->GetStats().bytes_delivered;
    // Recovery attempts (attempt > 0) get their own "failover" span so the
    // re-plan's fragments and transfers nest under the recovery — the
    // fault-free first attempt traces directly under the caller's span.
    Span attempt_span;
    if (config_.trace != nullptr && attempt > 0) {
      attempt_span = config_.trace->StartSpan(
          StrFormat("failover:%zu", attempt), "failover", config_.trace_parent,
          /*node_id=*/-1, /*track=*/-1, /*salt=*/attempt);
    }
    Result<FailoverOutcome> r =
        Attempt(plan, user, attempt,
                attempt_span ? attempt_span.id() : config_.trace_parent);
    if (r.ok()) {
      r->failovers = attempt;
      r->retransfer_bytes = retransfer;
      if (first_failure.has_value()) {
        r->failover_latency_s = SecondsSince(*first_failure);
      }
      if (attempt_span) {
        attempt_span.AnnInt("retransfer_bytes",
                            static_cast<int64_t>(retransfer));
        attempt_span.AnnDouble("failover_latency_s", r->failover_latency_s);
        std::string excluded_names;
        for (SubjectId s : r->excluded) {
          if (!excluded_names.empty()) excluded_names += ",";
          excluded_names += subjects_->Name(s);
        }
        attempt_span.AnnStr("excluded", excluded_names);
      }
      return r;
    }
    last = r.status();
    if (attempt_span) attempt_span.AnnStr("error", last.ToString());
    // Only an unavailability can be cured by excluding more subjects; an
    // authorization or planning error is terminal.
    if (last.code() != StatusCode::kUnavailable) return last;
    // So is an unavailability that brought no new failure information (a
    // down data authority, say): the down set only grows, and an unchanged
    // set would replay the identical plan into the identical failure.
    if (net_->DownSubjects().size() == down_before) return last;
    if (!first_failure.has_value()) first_failure = Clock::now();
    // Bytes the abandoned attempt moved must move again under the recovery
    // plan. Deltas of the shared net counter: with other traffic in flight
    // on the same SimNet this is aggregate, not per-request, attribution
    // (the failed Run's own byte accounting does not survive its error).
    retransfer += net_->GetStats().bytes_delivered - delivered_before;
  }
  return last;
}

Result<FailoverOutcome> FailoverExecutor::Execute(const PlanNode* plan,
                                                  SubjectId user) {
  if (net_ == nullptr) {
    return Status::InvalidArgument(
        "FailoverExecutor requires a SimNet (failure detection lives there)");
  }
  return Loop(plan, user, /*first_attempt=*/0);
}

Result<FailoverOutcome> FailoverExecutor::Recover(const PlanNode* plan,
                                                  SubjectId user) {
  if (net_ == nullptr) {
    return Status::InvalidArgument(
        "FailoverExecutor requires a SimNet (failure detection lives there)");
  }
  return Loop(plan, user, /*first_attempt=*/1);
}

}  // namespace mpq
