// QueryService: the concurrent multi-tenant serving front half of the whole
// pipeline — SQL in, authorized minimum-cost distributed execution out.
//
// The expensive front half (parse → bind → authorize → candidate enumeration
// → assignment optimization → key derivation) runs once per distinct
// (statement, subject, catalog version, policy epoch) and is memoized in a
// mutex-striped LRU cache; repeated queries pay only distributed execution.
//
// Safety invariant: a cached plan never executes under a policy it was not
// authorized against. The cache key embeds the policy epoch and catalog
// version observed when the request started; any Grant/Revoke or schema
// change advances the epoch/version, so every request beginning after the
// mutation returns misses the stale entry and re-plans (stale entries become
// unreachable and age out of the LRU). tests/service_test.cc proves this.

#ifndef MPQ_SERVICE_QUERY_SERVICE_H_
#define MPQ_SERVICE_QUERY_SERVICE_H_

#include <array>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>

#include "assign/assignment.h"
#include "authz/policy.h"
#include "common/thread_pool.h"
#include "exec/distributed.h"
#include "net/pricing.h"
#include "net/simnet.h"
#include "net/topology.h"
#include "exec/table_store.h"
#include "exec/write_executor.h"
#include "obs/explain.h"
#include "obs/metrics_registry.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "service/metrics.h"
#include "service/sharded_cache.h"
#include "sql/ast.h"

namespace mpq {

struct FailoverOutcome;

/// Serving knobs.
struct ServiceConfig {
  size_t cache_shards = 8;               ///< Mutex stripes of the plan cache.
  size_t cache_capacity_per_shard = 32;  ///< LRU entries per stripe.
  /// Admission control: maximum concurrent Executes.
  size_t max_in_flight = 256;
  /// Load shedding for the async path: ExecuteAsync rejects (kUnavailable)
  /// when in-flight plus queued-but-unstarted queries reach this depth, so
  /// an overloaded service fails fast instead of growing an unbounded
  /// backlog. 0 means 2 * max_in_flight. Synchronous Execute still blocks
  /// on admission instead of shedding.
  size_t max_queue_depth = 0;
  size_t exec_threads = 0;  ///< Workers of the shared pool (0 = inline).
  size_t batch_size = 1024;  ///< Rows per executor batch.
  uint64_t key_seed = 2025;           ///< Base seed for per-plan key material.
  SchemeCaps caps;                    ///< Encrypted-execution capabilities.
  /// Simulated network (borrowed; may be null = ideal fabric). With a net
  /// attached, fragment transfers obey its links and fault plan, and a
  /// provider failure mid-query triggers the retry-on-failover path: the
  /// service re-plans around the down subjects (under the *current* policy),
  /// executes the minimum-cost authorized alternative, and retires the
  /// stale cache entry.
  SimNet* net = nullptr;
  NetPolicy net_policy;      ///< Per-edge retry/deadline budget.
  size_t max_failovers = 2;  ///< Re-plan attempts per Execute.
  /// Tracing (off by default — Executes then pay one predictable branch).
  /// When enabled, every `trace.sample_every`-th Execute records a full
  /// QueryTrace; EXPLAIN ANALYZE always traces regardless.
  TraceConfig trace;
  /// Borrowed sink finished traces are delivered to; null = sampled traces
  /// are dropped (EXPLAIN ANALYZE still works — it holds its own trace).
  TraceSink* trace_sink = nullptr;
  /// Borrowed span clock; null = wall time. Pass a SimNetClock to stamp
  /// spans in the net's virtual time base.
  const TraceClock* trace_clock = nullptr;
  /// Executes at least this slow (seconds) enter the slow-query log.
  double slow_query_s = 0.1;
  /// Versioned table storage (borrowed; may be null = static tables only).
  /// With a store attached, every Execute pins the store's current Snapshot
  /// up front and reads exclusively from it, cached plan or not: a write
  /// committing mid-query is invisible to in-flight requests, and the next
  /// request reads the new snapshot through the same cached plan (plans
  /// hold no table data). Store-managed relations shadow LoadTable
  /// registrations.
  TableStore* store = nullptr;
};

/// How a request's plan was obtained.
enum class CacheOutcome { kHit, kMiss };

/// Per-query serving statistics, returned with every response.
struct QueryStats {
  double total_s = 0;   ///< End-to-end Execute latency (incl. admission wait).
  double plan_s = 0;    ///< Cache lookup + (on miss) the whole front half.
  double exec_s = 0;    ///< Distributed execution.
  CacheOutcome cache = CacheOutcome::kMiss;
  uint64_t policy_epoch = 0;     ///< Epoch the plan is authorized against.
  uint64_t catalog_version = 0;  ///< Catalog version the plan is bound against.
  uint64_t snapshot_id = 0;      ///< Store snapshot the query read (0 = none).
  size_t result_rows = 0;
  uint64_t transfer_bytes = 0;   ///< Bytes crossing assignee boundaries.
  size_t num_messages = 0;
  double planned_cost_usd = 0;   ///< The optimizer's exact plan cost.
  size_t failovers = 0;          ///< Re-plans needed to produce the result.
  /// Bytes moved by abandoned attempts and transferred again on recovery.
  uint64_t retransfer_bytes = 0;
  double net_virtual_s = 0;      ///< Simulated network seconds of the run.
  /// Wall seconds from first failure to recovered result (0 without one).
  double failover_latency_s = 0;
};

/// A query result plus its serving stats.
struct QueryResponse {
  Table table;
  QueryStats stats;
  /// The run's trace when this Execute was sampled (null otherwise).
  std::shared_ptr<const QueryTrace> trace;
};

/// A prepared statement: canonicalized text plus the parsed AST, so repeated
/// Executes skip lexing/parsing entirely. Cheap to copy; valid for the
/// lifetime of the service that produced it.
struct StatementHandle {
  uint64_t id = 0;
  std::string normalized_sql;
  std::shared_ptr<const AstSelect> ast;
};

/// An authenticated serving session. The subject identity carried here flows
/// into authorization: plans are optimized and checked with this subject as
/// the query issuer and result recipient.
class Session {
 public:
  Session() = default;

  SubjectId subject() const { return subject_; }
  uint64_t id() const { return id_; }

 private:
  friend class QueryService;
  Session(SubjectId subject, uint64_t id) : subject_(subject), id_(id) {}

  SubjectId subject_ = kInvalidSubject;
  uint64_t id_ = 0;
};

/// A query admitted to the async path: a future over its QueryResponse,
/// completed when the query's last morsel finishes. Handles are obtained
/// from QueryService::ExecuteAsync and share ownership of the backing state
/// with the service's task, so they may be dropped or kept freely (they
/// must not outlive the service itself). All methods are thread-safe.
class AsyncQuery {
 public:
  AsyncQuery(const AsyncQuery&) = delete;
  AsyncQuery& operator=(const AsyncQuery&) = delete;

  /// True once the result (or a cancellation) is available.
  bool Done() const;

  /// Cancels the query iff execution has not started — no morsel of it has
  /// run and none will. Returns whether this call cancelled it; once
  /// running, cancellation fails and the query completes normally. After a
  /// successful Cancel, Wait returns kUnavailable.
  bool Cancel();

  /// Blocks until the result is available and returns it, executing queued
  /// pool work while waiting (safe to call from inside pool tasks).
  const Result<QueryResponse>& Wait();

 private:
  friend class QueryService;
  enum class State { kQueued, kRunning, kDone, kCancelled };

  explicit AsyncQuery(ThreadPool* pool) : pool_(pool) {}

  mutable std::mutex mu_;
  std::condition_variable cv_;
  State state_ = State::kQueued;  // guarded by mu_
  Result<QueryResponse> result_ =
      Status::Internal("async query still pending");  // guarded by mu_
  ThreadPool* pool_;
};

/// The serving subsystem. All methods are safe to call concurrently; the
/// referenced catalog/subjects/policy/pricing/topology must outlive the
/// service (the policy may be mutated concurrently — that is the point of
/// the epoch machinery).
class QueryService {
 public:
  QueryService(const Catalog* catalog, const SubjectRegistry* subjects,
               const Policy* policy, const PricingTable* prices,
               const Topology* topology, ServiceConfig config = {});
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Registers the data of a base relation (borrowed; the caller keeps it
  /// alive and unchanged while the service runs). Safe to call concurrently
  /// with Execute; every request that starts after the call reads `data`,
  /// including requests served by plans cached before it.
  void LoadTable(RelId rel, const Table* data);

  /// Opens a session for a registered subject.
  Result<Session> OpenSession(SubjectId subject);
  Result<Session> OpenSession(const std::string& subject_name);

  /// Validates and canonicalizes `sql` into a reusable handle. Does not
  /// touch authorization — that happens per Execute, per session.
  Result<StatementHandle> Prepare(const std::string& sql);

  /// Executes a prepared statement under `session`'s identity.
  Result<QueryResponse> Execute(const StatementHandle& stmt,
                                const Session& session);

  /// One-shot convenience: normalize + (cached) plan + execute.
  Result<QueryResponse> ExecuteSql(const std::string& sql,
                                   const Session& session);

  /// Submits a prepared statement for execution without parking the caller:
  /// the returned handle completes when the query's last morsel finishes.
  /// Sheds (kUnavailable, nothing enqueued) when in-flight plus queued
  /// queries have reached `max_queue_depth`. The async path produces a
  /// QueryResponse bit-identical to the synchronous one and counts in the
  /// same metrics.
  Result<std::shared_ptr<AsyncQuery>> ExecuteAsync(const StatementHandle& stmt,
                                                   const Session& session);

  /// One-shot async convenience: normalize + submit.
  Result<std::shared_ptr<AsyncQuery>> ExecuteSqlAsync(const std::string& sql,
                                                      const Session& session);

  /// Executes an INSERT / UPDATE / DELETE under `session`'s identity.
  /// Requires an attached TableStore; the statement commits atomically as
  /// one snapshot publication (in-flight reads keep their pinned snapshot)
  /// and the subject needs plaintext visibility over every attribute the
  /// statement writes or its filter reads.
  Result<WriteResult> ExecuteWrite(const std::string& sql,
                                   const Session& session);

  // MRV hotspot counters (exec/mrv.h), exposed as atomic counter updates
  // that never serialize on one record or on the store's writer lock.
  // Authorization mirrors the write rule: the session subject needs
  // plaintext visibility over the counter's value attribute.

  /// Detaches the cell (`value_col` of the row where `key_col` == `key`)
  /// of relation `rel_name` into an MRV counter with `num_records` records.
  Status CounterAttach(const std::string& rel_name,
                       const std::string& key_col, int64_t key,
                       const std::string& value_col, size_t num_records,
                       const Session& session);
  Status CounterAdd(const std::string& rel_name, const std::string& value_col,
                    int64_t key, int64_t delta, const Session& session);
  /// Fails (leaving the counter unchanged) when it holds less than `delta`.
  Status CounterSub(const std::string& rel_name, const std::string& value_col,
                    int64_t key, int64_t delta, const Session& session);
  Result<int64_t> CounterTotal(const std::string& rel_name,
                               const std::string& value_col, int64_t key,
                               const Session& session) const;

  /// Folds every counter into its table cell and publishes new snapshots —
  /// the point where counter updates become visible to queries.
  Status FlushCounters();

  /// EXPLAIN ANALYZE: executes `stmt` with tracing forced on (regardless of
  /// the sampling config) and renders the annotated plan with observed
  /// rows/time per operator and predicted-vs-observed bytes per
  /// assignee-crossing edge. The execution is a real one — it hits the plan
  /// cache, counts in the metrics, and can fail over.
  Result<ExplainAnalyzeReport> ExplainAnalyze(const StatementHandle& stmt,
                                              const Session& session);
  Result<ExplainAnalyzeReport> ExplainAnalyzeSql(const std::string& sql,
                                                 const Session& session);

  /// Point-in-time counters and latency percentiles, read from the registry
  /// row by row.
  ServiceMetrics Metrics() const;

  /// Metrics as a JSON object.
  std::string MetricsJson() const;

  /// Prometheus-style text exposition of the registry: latency summaries,
  /// serving counters, cache state, and per-operator counters.
  std::string MetricsText() const { return registry_.TextExposition(); }

  /// Slow queries observed so far, keyed by normalized-SQL digest.
  const SlowQueryLog& slow_queries() const { return slow_log_; }

  /// Entries currently cached (for tests).
  size_t CacheEntries() const { return cache_.GetStats().entries; }

  /// Drops every cached plan (metrics survive).
  void InvalidateCache() { cache_.Clear(); }

  const ServiceConfig& config() const { return config_; }
  ThreadPool* pool() { return pool_.get(); }

 private:
  /// The borrowed probe form of a plan-cache key: a string_view over the
  /// caller's normalized SQL. Every lookup goes through this type, so a
  /// cache hit never copies the statement text; the owned PlanCacheKey is
  /// constructed only when a plan is actually inserted.
  struct PlanCacheKeyRef {
    std::string_view normalized_sql;
    SubjectId subject = kInvalidSubject;
    uint64_t catalog_version = 0;
    uint64_t policy_epoch = 0;
    /// SimNet::liveness_epoch at request start (0 without a net): a plan
    /// built around a down provider stops being served once liveness
    /// changes, instead of outliving the outage.
    uint64_t net_epoch = 0;
  };
  struct PlanCacheKey {
    std::string normalized_sql;
    SubjectId subject = kInvalidSubject;
    uint64_t catalog_version = 0;
    uint64_t policy_epoch = 0;
    uint64_t net_epoch = 0;

    PlanCacheKey() = default;
    explicit PlanCacheKey(const PlanCacheKeyRef& ref)
        : normalized_sql(ref.normalized_sql),
          subject(ref.subject),
          catalog_version(ref.catalog_version),
          policy_epoch(ref.policy_epoch),
          net_epoch(ref.net_epoch) {}

    bool operator==(const PlanCacheKeyRef& o) const {
      return subject == o.subject && catalog_version == o.catalog_version &&
             policy_epoch == o.policy_epoch && net_epoch == o.net_epoch &&
             normalized_sql == o.normalized_sql;
    }
  };
  /// Hashes the owned and the borrowed key form identically.
  struct PlanCacheKeyHash {
    size_t operator()(const PlanCacheKeyRef& k) const;
    size_t operator()(const PlanCacheKey& k) const;
  };

  /// One memoized front-half result: the authorized minimum-cost extended
  /// plan and a runtime ready to execute it (keys distributed, crypto plan
  /// installed). It holds no table data — each request passes the tables
  /// of its own pinned snapshot to Run — so it depends only on its cache
  /// key. Immutable after construction except the runtime's atomic nonce
  /// sequence — concurrent Run is safe.
  struct PreparedPlan {
    PlanPtr bound_plan;  ///< Keeps original nodes alive for the extended tree.
    AssignmentResult assignment;
    PlanKeys keys;
    std::unique_ptr<DistributedRuntime> runtime;
    uint64_t policy_epoch = 0;
    uint64_t catalog_version = 0;
    /// Cost-model estimates over the extended plan (refined schemes), keyed
    /// by node id — what EXPLAIN ANALYZE compares observed bytes against.
    std::unordered_map<int, NodeEstimate> estimates;
  };

  /// Execution detail EXPLAIN ANALYZE needs beyond the response: the plan
  /// that ran, its trace, and — when the run was recovered — the failover
  /// outcome holding the alternative assignment.
  struct ExecDetail {
    std::shared_ptr<PreparedPlan> entry;
    std::shared_ptr<QueryTrace> trace;
    std::shared_ptr<FailoverOutcome> recovered;
  };

  /// RAII admission-control slot; blocks in the constructor until the
  /// in-flight count drops below the configured cap.
  class AdmissionSlot;

  /// `preadmitted`: the caller already claimed an admission slot via
  /// TryClaimSlot(); the execution adopts (and releases) it instead of
  /// blocking for one.
  Result<QueryResponse> ExecuteInternal(const std::string& normalized_sql,
                                        const AstSelect* ast,
                                        const Session& session,
                                        bool force_trace = false,
                                        ExecDetail* detail = nullptr,
                                        bool preadmitted = false);
  /// Runs (or requeues) one async query's pool task. Pool workers never
  /// block on admission — see the comment in the implementation.
  void RunAsyncTask(std::shared_ptr<AsyncQuery> query,
                    std::shared_ptr<const std::string> sql,
                    std::shared_ptr<const AstSelect> ast, const Session& sess);
  /// Claims an admission slot iff one is free (never blocks).
  bool TryClaimSlot();
  /// Releases a slot claimed by TryClaimSlot when ExecuteInternal never got
  /// to adopt it (e.g. the query was cancelled first).
  void ReleaseSlot();
  Result<ExplainAnalyzeReport> ExplainAnalyzeInternal(
      const std::string& normalized_sql, const AstSelect* ast,
      const Session& session);
  Result<std::shared_ptr<PreparedPlan>> BuildPreparedPlan(
      const std::string& normalized_sql, const AstSelect* ast,
      SubjectId subject, uint64_t policy_epoch, uint64_t catalog_version,
      QueryTrace* trace, uint64_t trace_parent);
  /// The tables a request reads: the LoadTable registrations, with the
  /// relations of the request's pinned `snapshot` (null = no store) taking
  /// their place. Pointers into the snapshot stay valid while it is pinned.
  BaseTables BindTables(const Snapshot* snapshot) const;
  /// Resolves a (relation, column) pair for the counter APIs and checks the
  /// session subject's plaintext visibility over the column's attribute.
  Result<std::pair<RelId, int>> ResolveCounterColumn(
      const std::string& rel_name, const std::string& value_col,
      const Session& session) const;

  const Catalog* catalog_;
  const SubjectRegistry* subjects_;
  const Policy* policy_;
  const PricingTable* prices_;
  const Topology* topology_;
  ServiceConfig config_;

  mutable std::mutex tables_mu_;
  BaseTables tables_;  // guarded by tables_mu_
  /// Every cached plan's runtime and every failover runtime runs on this
  /// pool, so all concurrent queries draw from its one morsel queue. Null
  /// when the service executes inline.
  std::unique_ptr<ThreadPool> pool_;
  ShardedLruCache<PlanCacheKey, PreparedPlan, PlanCacheKeyHash> cache_;

  // Admission control.
  mutable std::mutex admission_mu_;
  std::condition_variable admission_cv_;
  size_t in_flight_ = 0;          // guarded by admission_mu_
  /// Async queries accepted but not yet running (their pool task has not
  /// started). in_flight_ + async_queued_ is the shed-decision depth.
  size_t async_queued_ = 0;       // guarded by admission_mu_

  std::atomic<uint64_t> next_session_id_{1};
  std::atomic<uint64_t> next_statement_id_{1};
  /// Runtimes built so far (cached plans and failover recoveries); each
  /// build draws a fresh number for its nonce or key seed.
  std::atomic<uint64_t> runtime_builds_{0};
  /// Per-operator timing/row counters, shared by every runtime this service
  /// builds (cached plans included); the registry reads them at export.
  OpProfile op_profile_;

  /// The metrics store: one series per kServiceMetrics, kLatencyMetrics and
  /// (kOpStatFields, operator kind) row. The service resolves the
  /// instruments it updates once, in the constructor; the rest are read
  /// functions over the plan cache, the pool, the store and op_profile_.
  MetricsRegistry registry_;
  MetricCounter* queries_ = nullptr;
  MetricCounter* errors_ = nullptr;
  MetricCounter* rows_returned_ = nullptr;
  MetricCounter* transfer_bytes_ = nullptr;
  MetricCounter* messages_ = nullptr;
  MetricCounter* failovers_ = nullptr;
  MetricCounter* failover_retransfer_bytes_ = nullptr;
  MetricCounter* async_queries_ = nullptr;
  MetricCounter* sheds_ = nullptr;
  MetricCounter* cancelled_ = nullptr;
  MetricCounter* writes_ = nullptr;
  MetricCounter* write_errors_ = nullptr;
  MetricCounter* rows_written_ = nullptr;
  MetricCounter* counter_ops_ = nullptr;
  // Updated under admission_mu_.
  MetricCounter* admission_waits_ = nullptr;
  MetricGauge* in_flight_peak_ = nullptr;
  MetricGauge* queue_depth_peak_ = nullptr;
  /// By LatencyRow.
  std::array<LatencyHistogram*, std::size(kLatencyMetrics)> latency_{};
  Tracer tracer_;
  SlowQueryLog slow_log_;
};

}  // namespace mpq

#endif  // MPQ_SERVICE_QUERY_SERVICE_H_
