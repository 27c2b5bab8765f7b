#include "service/query_service.h"

#include <algorithm>
#include <chrono>
#include <functional>

#include "candidates/candidates.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "exec/failover.h"
#include "extend/keys.h"
#include "common/flat_hash.h"
#include "profile/propagate.h"
#include "sql/binder.h"
#include "sql/normalize.h"
#include "sql/parser.h"

namespace mpq {

namespace {
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The kServiceMetrics row of field F. For a field without a row the search
/// reads past the list's end, which does not compile.
template <uint64_t ServiceMetrics::*F>
const ServiceMetricDef& Row() {
  constexpr size_t row = [] {
    size_t i = 0;
    while (kServiceMetrics[i].field != F) ++i;
    return i;
  }();
  return kServiceMetrics[row];
}
}  // namespace

size_t QueryService::PlanCacheKeyHash::operator()(
    const PlanCacheKeyRef& k) const {
  uint64_t h = HashBytes(k.normalized_sql);
  h = SplitMix64(h ^ (static_cast<uint64_t>(k.subject) + 1) *
                         0x9e3779b97f4a7c15ull);
  h = SplitMix64(h ^ k.catalog_version * 0xbf58476d1ce4e5b9ull);
  h = SplitMix64(h ^ k.policy_epoch * 0x94d049bb133111ebull);
  h = SplitMix64(h ^ k.net_epoch * 0xd6e8feb86659fd93ull);
  return static_cast<size_t>(h);
}

size_t QueryService::PlanCacheKeyHash::operator()(const PlanCacheKey& k) const {
  return operator()(PlanCacheKeyRef{k.normalized_sql, k.subject,
                                    k.catalog_version, k.policy_epoch,
                                    k.net_epoch});
}

/// Blocks until the in-flight count drops below the cap, then holds a slot
/// for the lifetime of the enclosing Execute.
class QueryService::AdmissionSlot {
 public:
  /// `adopt` takes over a slot the caller already claimed via
  /// TryClaimSlot() — the constructor then only binds the release.
  explicit AdmissionSlot(QueryService* service, bool adopt = false)
      : service_(service) {
    if (adopt) return;
    std::unique_lock<std::mutex> lock(service_->admission_mu_);
    size_t cap = std::max<size_t>(1, service_->config_.max_in_flight);
    if (service_->in_flight_ >= cap) {
      service_->admission_waits_->Inc();
      service_->admission_cv_.wait(
          lock, [&] { return service_->in_flight_ < cap; });
    }
    service_->in_flight_++;
    service_->in_flight_peak_->SetMax(service_->in_flight_);
  }

  ~AdmissionSlot() {
    {
      std::lock_guard<std::mutex> lock(service_->admission_mu_);
      service_->in_flight_--;
    }
    service_->admission_cv_.notify_one();
  }

  AdmissionSlot(const AdmissionSlot&) = delete;
  AdmissionSlot& operator=(const AdmissionSlot&) = delete;

 private:
  QueryService* service_;
};

QueryService::QueryService(const Catalog* catalog,
                           const SubjectRegistry* subjects,
                           const Policy* policy, const PricingTable* prices,
                           const Topology* topology, ServiceConfig config)
    : catalog_(catalog),
      subjects_(subjects),
      policy_(policy),
      prices_(prices),
      topology_(topology),
      config_(config),
      cache_(config.cache_shards, config.cache_capacity_per_shard),
      tracer_(config.trace, config.trace_clock, config.trace_sink),
      slow_log_(config.slow_query_s) {
  if (config_.exec_threads > 0) {
    pool_ = std::make_unique<ThreadPool>(config_.exec_threads);
  }
  // Every metric row becomes one registry series: an instrument this
  // service updates, or a read function over state another subsystem owns.
  using M = ServiceMetrics;
  auto counter = [this](const ServiceMetricDef& d) {
    return registry_.GetCounter(d.Name(), d.help);
  };
  auto gauge = [this](const ServiceMetricDef& d) {
    return registry_.GetGauge(d.Name(), d.help);
  };
  auto read = [this](const ServiceMetricDef& d, std::function<uint64_t()> fn) {
    registry_.AddReadFn(d.Name(), d.help, d.type, "", std::move(fn));
  };
  queries_ = counter(Row<&M::queries>());
  errors_ = counter(Row<&M::errors>());
  rows_returned_ = counter(Row<&M::rows_returned>());
  transfer_bytes_ = counter(Row<&M::transfer_bytes>());
  messages_ = counter(Row<&M::messages>());
  failovers_ = counter(Row<&M::failovers>());
  failover_retransfer_bytes_ = counter(Row<&M::failover_retransfer_bytes>());
  async_queries_ = counter(Row<&M::async_queries>());
  sheds_ = counter(Row<&M::sheds>());
  cancelled_ = counter(Row<&M::cancelled>());
  writes_ = counter(Row<&M::writes>());
  write_errors_ = counter(Row<&M::write_errors>());
  rows_written_ = counter(Row<&M::rows_written>());
  counter_ops_ = counter(Row<&M::counter_ops>());
  admission_waits_ = counter(Row<&M::admission_waits>());
  in_flight_peak_ = gauge(Row<&M::in_flight_peak>());
  queue_depth_peak_ = gauge(Row<&M::queue_depth_peak>());
  read(Row<&M::cache_hits>(), [this] { return cache_.GetStats().hits; });
  read(Row<&M::cache_misses>(), [this] { return cache_.GetStats().misses; });
  read(Row<&M::cache_insertions>(),
       [this] { return cache_.GetStats().insertions; });
  read(Row<&M::cache_evictions>(),
       [this] { return cache_.GetStats().evictions; });
  read(Row<&M::cache_entries>(), [this] { return cache_.GetStats().entries; });
  read(Row<&M::morsels_executed>(), [this] {
    return pool_ != nullptr ? pool_->morsels_executed() : 0;
  });
  read(Row<&M::morsel_queue_depth>(), [this] {
    return pool_ != nullptr ? pool_->morsels_pending() : 0;
  });
  read(Row<&M::snapshot_epoch>(), [this] {
    return config_.store != nullptr ? config_.store->snapshot_epoch() : 0;
  });
  for (size_t i = 0; i < latency_.size(); ++i) {
    const LatencyMetricDef& d = kLatencyMetrics[i];
    latency_[i] = registry_.GetHistogram(d.name, d.help, d.labels);
  }
  for (size_t k = 0; k < kNumOpKinds; ++k) {
    const auto kind = static_cast<OpKind>(k);
    const std::string labels = StrFormat("op=\"%s\"", OpKindName(kind));
    for (size_t f = 0; f < kNumOpStats; ++f) {
      registry_.AddReadFn(
          kOpStatFields[f].Name(), kOpStatFields[f].help, MetricType::kCounter,
          labels, [this, kind, f] { return op_profile_.Value(kind, f); });
    }
  }
}

QueryService::~QueryService() = default;

void QueryService::LoadTable(RelId rel, const Table* data) {
  std::lock_guard<std::mutex> lock(tables_mu_);
  tables_[rel] = data;
}

BaseTables QueryService::BindTables(const Snapshot* snapshot) const {
  BaseTables tables;
  {
    std::lock_guard<std::mutex> lock(tables_mu_);
    tables = tables_;
  }
  if (snapshot == nullptr) return tables;
  for (const auto& [rel, table] : snapshot->tables) tables[rel] = table.get();
  // Cold (segment-backed) relations decode on first touch; the memoized
  // table lives as long as the pinned snapshot.
  for (const auto& [rel, seg] : snapshot->cold) {
    if (const Table* t = snapshot->Get(rel)) tables[rel] = t;
  }
  return tables;
}

Result<Session> QueryService::OpenSession(SubjectId subject) {
  if (subject == kInvalidSubject || subject >= subjects_->size()) {
    return Status::NotFound("cannot open session for unknown subject");
  }
  return Session(subject, next_session_id_.fetch_add(1));
}

Result<Session> QueryService::OpenSession(const std::string& subject_name) {
  SubjectId subject = subjects_->Find(subject_name);
  if (subject == kInvalidSubject) {
    return Status::NotFound("cannot open session for unknown subject: " +
                            subject_name);
  }
  return OpenSession(subject);
}

Result<StatementHandle> QueryService::Prepare(const std::string& sql) {
  MPQ_ASSIGN_OR_RETURN(std::string normalized, NormalizeSql(sql));
  MPQ_ASSIGN_OR_RETURN(AstSelect ast, ParseSelect(normalized));
  StatementHandle handle;
  handle.id = next_statement_id_.fetch_add(1);
  handle.normalized_sql = std::move(normalized);
  handle.ast = std::make_shared<const AstSelect>(std::move(ast));
  return handle;
}

Result<QueryResponse> QueryService::Execute(const StatementHandle& stmt,
                                            const Session& session) {
  if (stmt.normalized_sql.empty()) {
    return Status::InvalidArgument("execute of an empty statement handle");
  }
  return ExecuteInternal(stmt.normalized_sql, stmt.ast.get(), session);
}

Result<QueryResponse> QueryService::ExecuteSql(const std::string& sql,
                                               const Session& session) {
  MPQ_ASSIGN_OR_RETURN(std::string normalized, NormalizeSql(sql));
  // Parsing is deferred: a warm cache serves the query from the normalized
  // text alone.
  return ExecuteInternal(normalized, nullptr, session);
}

bool AsyncQuery::Done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_ == State::kDone || state_ == State::kCancelled;
}

bool AsyncQuery::Cancel() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ != State::kQueued) return false;
  state_ = State::kCancelled;
  result_ = Status::Unavailable("query cancelled before execution");
  cv_.notify_all();
  return true;
}

const Result<QueryResponse>& AsyncQuery::Wait() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (state_ == State::kDone || state_ == State::kCancelled) {
        return result_;
      }
    }
    // Help drain the pool instead of idling — a caller inside a pool task
    // may be the thread our query's morsels are queued behind.
    if (pool_ != nullptr && pool_->TryRunOneTask()) continue;
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::milliseconds(1), [&] {
      return state_ == State::kDone || state_ == State::kCancelled;
    });
    if (state_ == State::kDone || state_ == State::kCancelled) return result_;
  }
}

Result<std::shared_ptr<AsyncQuery>> QueryService::ExecuteAsync(
    const StatementHandle& stmt, const Session& session) {
  if (stmt.normalized_sql.empty()) {
    return Status::InvalidArgument("execute of an empty statement handle");
  }
  // Queue-depth-aware admission: shed at submission time when the backlog
  // (running + queued) has reached the cap, so overload turns into fast
  // kUnavailable rejections instead of unbounded queue growth.
  size_t cap = config_.max_queue_depth != 0
                   ? config_.max_queue_depth
                   : 2 * std::max<size_t>(1, config_.max_in_flight);
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    if (in_flight_ + async_queued_ >= cap) {
      sheds_->Inc();
      return Status::Unavailable("service overloaded: request shed");
    }
    ++async_queued_;
    queue_depth_peak_->SetMax(in_flight_ + async_queued_);
  }
  async_queries_->Inc();

  auto query = std::shared_ptr<AsyncQuery>(new AsyncQuery(pool_.get()));
  // The task owns copies of everything it touches: the handle may be
  // destroyed and the submitting thread gone by the time a worker runs it.
  auto sql = std::make_shared<const std::string>(stmt.normalized_sql);
  std::shared_ptr<const AstSelect> ast = stmt.ast;
  Session sess = session;
  auto task = [this, query, sql, ast, sess] {
    RunAsyncTask(query, sql, ast, sess);
  };
  // Run inline when there is no pool or the pool is shutting down — the
  // handle then completes before ExecuteAsync returns.
  if (pool_ == nullptr || pool_->size() == 0 || !pool_->Submit(task)) task();
  return query;
}

void QueryService::RunAsyncTask(std::shared_ptr<AsyncQuery> query,
                                std::shared_ptr<const std::string> sql,
                                std::shared_ptr<const AstSelect> ast,
                                const Session& sess) {
  // A pool worker must NEVER park inside AdmissionSlot: waiters in the
  // engine (fragment DAG drains, ExecutePlan subtree waits) help by inlining
  // queued pool tasks, so an async task can start nested under a query that
  // already holds a slot — let it block there and a handful of nested starts
  // park every thread under a suspended slot-holder (deadlock). Instead,
  // when the service is at max_in_flight, requeue behind the other queued
  // work and let this thread get back to finishing the queries that hold
  // the slots.
  bool admitted = TryClaimSlot();
  if (!admitted && pool_ != nullptr && pool_->size() > 0) {
    if (pool_->Submit([this, query, sql, ast, sess] {
          RunAsyncTask(query, sql, ast, sess);
        })) {
      std::this_thread::yield();  // give slot holders the core back
      return;
    }
    // Submit rejected (pool shutting down): fall through and run here,
    // blocking on admission like the synchronous path — this thread is
    // draining the queue inline, it holds no slot.
  }
  bool cancelled = false;
  {
    std::lock_guard<std::mutex> lock(query->mu_);
    if (query->state_ == AsyncQuery::State::kCancelled) {
      cancelled = true;
    } else {
      query->state_ = AsyncQuery::State::kRunning;
    }
  }
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    --async_queued_;
  }
  if (cancelled) {
    if (admitted) ReleaseSlot();
    cancelled_->Inc();
    return;
  }
  Result<QueryResponse> r =
      ExecuteInternal(*sql, ast.get(), sess, /*force_trace=*/false,
                      /*detail=*/nullptr, /*preadmitted=*/admitted);
  std::lock_guard<std::mutex> lock(query->mu_);
  query->result_ = std::move(r);
  query->state_ = AsyncQuery::State::kDone;
  query->cv_.notify_all();
}

bool QueryService::TryClaimSlot() {
  std::lock_guard<std::mutex> lock(admission_mu_);
  if (in_flight_ >= std::max<size_t>(1, config_.max_in_flight)) return false;
  in_flight_++;
  in_flight_peak_->SetMax(in_flight_);
  return true;
}

void QueryService::ReleaseSlot() {
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    in_flight_--;
  }
  admission_cv_.notify_one();
}

Result<std::shared_ptr<AsyncQuery>> QueryService::ExecuteSqlAsync(
    const std::string& sql, const Session& session) {
  MPQ_ASSIGN_OR_RETURN(StatementHandle stmt, Prepare(sql));
  return ExecuteAsync(stmt, session);
}

Result<WriteResult> QueryService::ExecuteWrite(const std::string& sql,
                                               const Session& session) {
  if (config_.store == nullptr) {
    return Status::InvalidArgument(
        "ExecuteWrite requires a TableStore attached to the service");
  }
  if (session.subject() == kInvalidSubject ||
      session.subject() >= subjects_->size()) {
    return Status::InvalidArgument("write without a valid session");
  }
  MPQ_ASSIGN_OR_RETURN(std::string normalized, NormalizeSql(sql));
  const uint64_t statement_digest = HashBytes(normalized);
  std::shared_ptr<QueryTrace> trace =
      tracer_.MaybeStart(session.id(), statement_digest);
  Span root = trace != nullptr
                  ? trace->StartSpan("write", "write", /*parent=*/0,
                                     /*node_id=*/-1,
                                     static_cast<int>(session.subject()))
                  : Span();
  writes_->Inc();
  auto fail = [&](const Status& st) -> Status {
    write_errors_->Inc();
    if (root) {
      root.AnnStr("error", st.ToString());
      root.End();
    }
    if (trace != nullptr) tracer_.Finish(trace);
    return st;
  };
  auto parsed = ParseStatement(normalized);
  if (!parsed.ok()) return fail(parsed.status());
  if (parsed->kind == StatementKind::kSelect) {
    return fail(Status::InvalidArgument(
        "ExecuteWrite got a SELECT statement; use Execute"));
  }
  auto bound = BindWrite(*parsed, *catalog_);
  if (!bound.ok()) return fail(bound.status());
  WriteExecutor writer(policy_, config_.store);
  auto result = writer.Execute(*bound, session.subject());
  if (!result.ok()) return fail(result.status());
  rows_written_->Inc(result->rows_affected);
  if (root) {
    root.AnnInt("rows_affected",
                static_cast<int64_t>(result->rows_affected));
    root.AnnInt("snapshot_id", static_cast<int64_t>(result->snapshot_id));
    root.End();
  }
  if (trace != nullptr) tracer_.Finish(trace);
  return result;
}

Result<std::pair<RelId, int>> QueryService::ResolveCounterColumn(
    const std::string& rel_name, const std::string& value_col,
    const Session& session) const {
  if (config_.store == nullptr) {
    return Status::InvalidArgument(
        "counter APIs require a TableStore attached to the service");
  }
  if (session.subject() == kInvalidSubject ||
      session.subject() >= subjects_->size()) {
    return Status::InvalidArgument("counter op without a valid session");
  }
  RelId rel = catalog_->FindRelation(rel_name);
  if (rel == kInvalidRel) {
    return Status::NotFound("unknown relation: " + rel_name);
  }
  const Schema& schema = catalog_->Get(rel).schema;
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    const Column& c = schema.columns()[i];
    if (c.name != value_col) continue;
    // Counter updates write the attribute's plaintext value: same
    // authorization surface as an UPDATE of that column.
    AttrSet needed;
    needed.Insert(c.attr);
    if (!needed.IsSubsetOf(policy_->PlainView(session.subject()))) {
      return Status::Unauthorized(StrFormat(
          "%s is not authorized to update counter column [%s]",
          subjects_->Name(session.subject()).c_str(),
          needed.ToString(catalog_->attrs()).c_str()));
    }
    return std::make_pair(rel, static_cast<int>(i));
  }
  return Status::NotFound(
      StrFormat("relation %s has no column %s", rel_name.c_str(),
                value_col.c_str()));
}

Status QueryService::CounterAttach(const std::string& rel_name,
                                   const std::string& key_col, int64_t key,
                                   const std::string& value_col,
                                   size_t num_records,
                                   const Session& session) {
  MPQ_ASSIGN_OR_RETURN(auto target,
                       ResolveCounterColumn(rel_name, value_col, session));
  const Schema& schema = catalog_->Get(target.first).schema;
  int key_idx = -1;
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    if (schema.columns()[i].name == key_col) {
      key_idx = static_cast<int>(i);
      break;
    }
  }
  if (key_idx < 0) {
    return Status::NotFound(
        StrFormat("relation %s has no column %s", rel_name.c_str(),
                  key_col.c_str()));
  }
  counter_ops_->Inc();
  return config_.store->MrvAttach(target.first, key_idx, key, target.second,
                                  num_records);
}

Status QueryService::CounterAdd(const std::string& rel_name,
                                const std::string& value_col, int64_t key,
                                int64_t delta, const Session& session) {
  MPQ_ASSIGN_OR_RETURN(auto target,
                       ResolveCounterColumn(rel_name, value_col, session));
  counter_ops_->Inc();
  return config_.store->MrvAdd(target.first, target.second, key, delta);
}

Status QueryService::CounterSub(const std::string& rel_name,
                                const std::string& value_col, int64_t key,
                                int64_t delta, const Session& session) {
  MPQ_ASSIGN_OR_RETURN(auto target,
                       ResolveCounterColumn(rel_name, value_col, session));
  counter_ops_->Inc();
  return config_.store->MrvSub(target.first, target.second, key, delta);
}

Result<int64_t> QueryService::CounterTotal(const std::string& rel_name,
                                           const std::string& value_col,
                                           int64_t key,
                                           const Session& session) const {
  MPQ_ASSIGN_OR_RETURN(auto target,
                       ResolveCounterColumn(rel_name, value_col, session));
  counter_ops_->Inc();
  return config_.store->MrvTotal(target.first, target.second, key);
}

Status QueryService::FlushCounters() {
  if (config_.store == nullptr) {
    return Status::InvalidArgument(
        "counter APIs require a TableStore attached to the service");
  }
  return config_.store->FlushCounters();
}

Result<std::shared_ptr<QueryService::PreparedPlan>>
QueryService::BuildPreparedPlan(const std::string& normalized_sql,
                                const AstSelect* ast, SubjectId subject,
                                uint64_t policy_epoch,
                                uint64_t catalog_version,
                                QueryTrace* trace, uint64_t trace_parent) {
  AstSelect parsed;
  if (ast == nullptr) {
    Span parse = trace != nullptr
                     ? trace->StartSpan("parse", "plan", trace_parent)
                     : Span();
    MPQ_ASSIGN_OR_RETURN(parsed, ParseSelect(normalized_sql));
    ast = &parsed;
  }

  auto entry = std::make_shared<PreparedPlan>();
  entry->policy_epoch = policy_epoch;
  entry->catalog_version = catalog_version;

  // Bind + profile annotation.
  Span bind = trace != nullptr ? trace->StartSpan("bind", "plan", trace_parent)
                               : Span();
  MPQ_ASSIGN_OR_RETURN(entry->bound_plan, BindSelect(*ast, *catalog_));
  MPQ_RETURN_NOT_OK(
      DerivePlaintextNeeds(entry->bound_plan.get(), *catalog_, config_.caps));
  MPQ_RETURN_NOT_OK(AnnotatePlan(entry->bound_plan.get(), *catalog_));
  bind.End();

  // The session subject receives the result: it needs at least encrypted
  // visibility over every result attribute (the extension layer encrypts
  // the recipient's encrypted-only attributes before delivery). Checking
  // here turns "no authorized delivery exists" into a crisp kUnauthorized
  // instead of a downstream optimizer failure.
  Span authorize = trace != nullptr
                       ? trace->StartSpan("authorize", "plan", trace_parent)
                       : Span();
  const RelationProfile& root_profile = entry->bound_plan->profile;
  AttrSet result_attrs;
  root_profile.vp.Union(root_profile.ve).ForEach([&](AttrId a) {
    // Derived outputs (count(*), aliases) belong to no relation and are not
    // grantable; their inputs are authorization-checked where computed.
    if (catalog_->RelationOf(a) != kInvalidRel) result_attrs.Insert(a);
  });
  AttrSet recipient_view =
      policy_->PlainView(subject).Union(policy_->EncView(subject));
  if (!result_attrs.IsSubsetOf(recipient_view)) {
    AttrSet missing = result_attrs.Difference(recipient_view);
    return Status::Unauthorized(StrFormat(
        "%s is not authorized to receive the query result: no visibility "
        "over [%s]",
        subjects_->Name(subject).c_str(),
        missing.ToString(catalog_->attrs()).c_str()));
  }
  authorize.End();

  // Candidates + minimum-cost authorized assignment, routing around any
  // subject the network currently reports down.
  SubjectSet excluded;
  if (config_.net != nullptr) {
    for (SubjectId s : config_.net->DownSubjects()) excluded.Insert(s);
  }
  Span candidates = trace != nullptr
                        ? trace->StartSpan("candidates", "plan", trace_parent)
                        : Span();
  MPQ_ASSIGN_OR_RETURN(
      CandidatePlan cp,
      ComputeCandidates(entry->bound_plan.get(), *policy_,
                        /*require_nonempty=*/true,
                        excluded.empty() ? nullptr : &excluded));
  candidates.End();
  Span assign = trace != nullptr
                    ? trace->StartSpan("assign", "plan", trace_parent)
                    : Span();
  SchemeMap schemes =
      AnalyzeSchemes(entry->bound_plan.get(), *catalog_, config_.caps);
  CostModel cost_model(catalog_, prices_, topology_, &schemes);
  AssignmentOptimizer optimizer(policy_, &cost_model);
  MPQ_ASSIGN_OR_RETURN(
      entry->assignment,
      optimizer.Optimize(entry->bound_plan.get(), cp, subject));
  // Defense in depth: never cache a plan that does not verify under the
  // policy state it will be keyed by.
  MPQ_RETURN_NOT_OK(
      VerifyAuthorizedAssignment(entry->assignment.extended, *policy_));
  // The estimates the optimizer priced transfers with, re-derived over the
  // extended plan under the refined schemes — what EXPLAIN ANALYZE holds
  // observed bytes against.
  CostModel refined_model(catalog_, prices_, topology_,
                          &entry->assignment.refined_schemes);
  entry->estimates =
      refined_model.EstimatePlan(entry->assignment.extended.plan.get());
  if (assign) {
    assign.AnnDouble("cost_usd", entry->assignment.exact_cost.total_usd());
    assign.End();
  }

  // Keys + a runtime ready for repeated concurrent execution.
  Span keys = trace != nullptr ? trace->StartSpan("keys", "plan", trace_parent)
                               : Span();
  entry->keys = DeriveQueryPlanKeys(entry->assignment.extended);
  // A rebuilt plan derives the same keys as the plan it replaces (the seed
  // below depends only on the statement, subject and policy epoch), so its
  // runtime starts the nonce sequence from a fresh build number instead.
  entry->runtime = std::make_unique<DistributedRuntime>(
      catalog_, subjects_,
      SplitMix64(runtime_builds_.fetch_add(1, std::memory_order_relaxed)));
  uint64_t seed = SplitMix64(config_.key_seed ^
                             std::hash<std::string>{}(normalized_sql));
  seed = SplitMix64(seed ^
                    (static_cast<uint64_t>(subject) + 1) * 0x100000001b3ull ^
                    policy_epoch);
  entry->runtime->DistributeKeys(entry->keys, subject, seed);
  entry->runtime->SetCryptoPlan(
      MakeCryptoPlan(entry->assignment.refined_schemes, entry->keys));
  entry->runtime->SetThreadPool(pool_.get());
  entry->runtime->SetBatchSize(config_.batch_size);
  entry->runtime->SetNetwork(config_.net);
  entry->runtime->SetNetPolicy(config_.net_policy);
  entry->runtime->SetOpProfile(&op_profile_);
  keys.End();
  return entry;
}

Result<QueryResponse> QueryService::ExecuteInternal(
    const std::string& normalized_sql, const AstSelect* ast,
    const Session& session, bool force_trace, ExecDetail* detail,
    bool preadmitted) {
  auto t0 = Clock::now();
  if (session.subject() == kInvalidSubject ||
      session.subject() >= subjects_->size()) {
    if (preadmitted) ReleaseSlot();
    errors_->Inc();
    return Status::InvalidArgument("execute without a valid session");
  }
  AdmissionSlot slot(this, /*adopt=*/preadmitted);
  queries_->Inc();

  // Tracing is observation-only: nothing below reads `trace`, so a traced
  // run is bit-identical to an untraced one. Off is the common case and
  // costs one predictable branch here plus null-checks on the span sites.
  const uint64_t statement_digest = HashBytes(normalized_sql);
  std::shared_ptr<QueryTrace> trace =
      force_trace ? tracer_.Start(session.id(), statement_digest)
                  : tracer_.MaybeStart(session.id(), statement_digest);
  Span root = trace != nullptr
                  ? trace->StartSpan("query", "exec", /*parent=*/0,
                                     /*node_id=*/-1,
                                     static_cast<int>(session.subject()))
                  : Span();
  const uint64_t root_span = root.id();

  // Pin the store snapshot once, up front: everything this request reads
  // comes from this one immutable version, whether the plan is cached or
  // not, and whether or not the run fails over.
  std::shared_ptr<const Snapshot> snapshot =
      config_.store != nullptr ? config_.store->Current() : nullptr;
  const BaseTables tables = BindTables(snapshot.get());

  // The epoch/version pair is read once, up front: every request that starts
  // after a policy or schema mutation returns is keyed past the stale
  // entries, which therefore can never serve it. The key is a borrowed view
  // of the caller's normalized SQL — a cache hit copies no statement text.
  PlanCacheKeyRef key;
  key.normalized_sql = normalized_sql;
  key.subject = session.subject();
  key.catalog_version = catalog_->version();
  key.policy_epoch = policy_->epoch();
  key.net_epoch = config_.net != nullptr ? config_.net->liveness_epoch() : 0;

  Span probe = trace != nullptr
                   ? trace->StartSpan("cache_probe", "cache", root_span)
                   : Span();
  std::shared_ptr<PreparedPlan> entry = cache_.Get(key);
  CacheOutcome outcome = entry ? CacheOutcome::kHit : CacheOutcome::kMiss;
  if (probe) {
    probe.AnnStr("outcome", outcome == CacheOutcome::kHit ? "hit" : "miss");
    probe.End();
  }
  if (entry == nullptr) {
    auto built =
        BuildPreparedPlan(normalized_sql, ast, session.subject(),
                          key.policy_epoch, key.catalog_version, trace.get(),
                          root_span);
    if (!built.ok()) {
      errors_->Inc();
      if (root) root.AnnStr("error", built.status().ToString());
      return built.status();
    }
    if (policy_->epoch() == key.policy_epoch &&
        catalog_->version() == key.catalog_version &&
        (config_.net == nullptr ||
         config_.net->liveness_epoch() == key.net_epoch)) {
      // Insertion may evict, and so destroy, the LRU tail's plan.
      Span insert = trace != nullptr
                        ? trace->StartSpan("cache_insert", "cache", root_span)
                        : Span();
      entry = cache_.PutIfAbsent(key, std::move(*built));
    } else {
      // The policy, schema, or network liveness moved while we were
      // planning; the plan is fine for this in-flight request (concurrent
      // with the mutation) but must not be memoized under a key it might
      // no longer be right for.
      entry = std::move(*built);
    }
  }
  double plan_s = SecondsSince(t0);

  auto t1 = Clock::now();
  uint64_t delivered_before =
      config_.net != nullptr ? config_.net->GetStats().bytes_delivered : 0;
  Result<DistributedResult> run =
      entry->runtime->Run(entry->assignment.extended, session.subject(),
                          tables, trace.get(), root_span);

  // Retry-on-failover: a provider died under the cached plan. Retire the
  // entry (the next request re-plans around the down subjects) and recover
  // this request through the minimum-cost authorized alternative assignment
  // — chosen and verified under the *current* policy, never the one the
  // stale plan was built against.
  size_t failovers = 0;
  uint64_t retransfer_bytes = 0;
  double failover_latency_s = 0;
  double planned_cost_usd = entry->assignment.exact_cost.total_usd();
  uint64_t plan_epoch = entry->policy_epoch;
  uint64_t plan_catalog_version = entry->catalog_version;
  if (!run.ok() && run.status().code() == StatusCode::kUnavailable &&
      config_.net != nullptr && config_.max_failovers > 0) {
    cache_.Erase(key);
    // Delta of the shared net counter: under concurrent traffic on the same
    // SimNet this is aggregate attribution, not exact per-request bytes
    // (the failed Run's own accounting does not survive its error).
    retransfer_bytes =
        config_.net->GetStats().bytes_delivered - delivered_before;
    FailoverConfig fc;
    fc.caps = config_.caps;
    // A fresh build number gives every recovery its own keys, so two
    // recoveries of one statement never share a (key, nonce) pair.
    fc.key_seed = SplitMix64(
        config_.key_seed ^ 0xfa170fe3ull ^
        std::hash<std::string>{}(normalized_sql) ^
        runtime_builds_.fetch_add(1, std::memory_order_relaxed) *
            0x9e3779b97f4a7c15ull);
    fc.max_failovers = config_.max_failovers;
    fc.net_policy = config_.net_policy;
    fc.pool = pool_.get();
    fc.batch_size = config_.batch_size;
    fc.op_profile = &op_profile_;
    fc.trace = trace.get();
    fc.trace_parent = root_span;
    FailoverExecutor failover(catalog_, subjects_, policy_, prices_,
                              topology_, config_.net, fc);
    // The recovery reads the same pinned snapshot the failed run did.
    for (const auto& [rel, table] : tables) failover.LoadTable(rel, table);
    Result<FailoverOutcome> recovered =
        failover.Recover(entry->bound_plan.get(), session.subject());
    if (recovered.ok()) {
      auto outcome_ptr =
          std::make_shared<FailoverOutcome>(std::move(*recovered));
      failovers = outcome_ptr->failovers;
      retransfer_bytes += outcome_ptr->retransfer_bytes;
      failover_latency_s = outcome_ptr->failover_latency_s;
      planned_cost_usd = outcome_ptr->assignment.exact_cost.total_usd();
      plan_epoch = policy_->epoch();
      plan_catalog_version = catalog_->version();
      failovers_->Inc(failovers);
      failover_retransfer_bytes_->Inc(retransfer_bytes);
      latency_[kFailoverLatency]->Record(failover_latency_s);
      // The result moves out; the outcome keeps the recovered assignment
      // alive for EXPLAIN ANALYZE's predicted-vs-observed rendering.
      run = std::move(outcome_ptr->result);
      if (detail != nullptr) detail->recovered = std::move(outcome_ptr);
    } else {
      run = recovered.status();
    }
  }

  if (!run.ok()) {
    errors_->Inc();
    if (root) root.AnnStr("error", run.status().ToString());
    return run.status();
  }
  double exec_s = SecondsSince(t1);
  double total_s = SecondsSince(t0);

  rows_returned_->Inc(run->result.num_rows());
  transfer_bytes_->Inc(run->total_transfer_bytes);
  messages_->Inc(run->num_messages);
  latency_[kTotalLatency]->Record(total_s);
  latency_[outcome == CacheOutcome::kHit ? kHitLatency : kMissLatency]->Record(
      total_s);
  slow_log_.Record(statement_digest, normalized_sql, total_s,
                   trace != nullptr ? trace->trace_id() : 0);

  if (root) {
    root.AnnInt("rows", static_cast<int64_t>(run->result.num_rows()));
    root.AnnStr("cache", outcome == CacheOutcome::kHit ? "hit" : "miss");
    root.End();
  }
  if (trace != nullptr) {
    if (detail != nullptr) {
      detail->entry = entry;
      detail->trace = trace;
    }
    tracer_.Finish(trace);
  }

  QueryResponse response;
  response.trace = trace;
  response.table = std::move(run->result);
  response.stats.total_s = total_s;
  response.stats.plan_s = plan_s;
  response.stats.exec_s = exec_s;
  response.stats.cache = outcome;
  response.stats.policy_epoch = plan_epoch;
  response.stats.catalog_version = plan_catalog_version;
  response.stats.snapshot_id = snapshot != nullptr ? snapshot->id : 0;
  response.stats.result_rows = response.table.num_rows();
  response.stats.transfer_bytes = run->total_transfer_bytes;
  response.stats.num_messages = run->num_messages;
  response.stats.planned_cost_usd = planned_cost_usd;
  response.stats.failovers = failovers;
  response.stats.retransfer_bytes = retransfer_bytes;
  response.stats.net_virtual_s = run->net.virtual_s;
  response.stats.failover_latency_s = failover_latency_s;
  return response;
}

Result<ExplainAnalyzeReport> QueryService::ExplainAnalyzeInternal(
    const std::string& normalized_sql, const AstSelect* ast,
    const Session& session) {
  ExecDetail detail;
  MPQ_ASSIGN_OR_RETURN(QueryResponse resp,
                       ExecuteInternal(normalized_sql, ast, session,
                                       /*force_trace=*/true, &detail));
  if (detail.trace == nullptr || detail.entry == nullptr) {
    return Status::Internal("explain analyze produced no trace");
  }
  // A recovered query reports against the plan that actually ran — the
  // failover's alternative assignment — with estimates re-derived under its
  // refined schemes, not the abandoned cached plan's.
  if (detail.recovered != nullptr) {
    CostModel model(catalog_, prices_, topology_,
                    &detail.recovered->assignment.refined_schemes);
    auto estimates =
        model.EstimatePlan(detail.recovered->assignment.extended.plan.get());
    return RenderExplainAnalyze(detail.recovered->assignment.extended,
                                *catalog_, *subjects_, session.subject(),
                                *detail.trace, estimates);
  }
  return RenderExplainAnalyze(detail.entry->assignment.extended, *catalog_,
                              *subjects_, session.subject(), *detail.trace,
                              detail.entry->estimates);
}

Result<ExplainAnalyzeReport> QueryService::ExplainAnalyze(
    const StatementHandle& stmt, const Session& session) {
  if (stmt.normalized_sql.empty()) {
    return Status::InvalidArgument(
        "explain analyze of an empty statement handle");
  }
  return ExplainAnalyzeInternal(stmt.normalized_sql, stmt.ast.get(), session);
}

Result<ExplainAnalyzeReport> QueryService::ExplainAnalyzeSql(
    const std::string& sql, const Session& session) {
  MPQ_ASSIGN_OR_RETURN(std::string normalized, NormalizeSql(sql));
  return ExplainAnalyzeInternal(normalized, nullptr, session);
}

ServiceMetrics QueryService::Metrics() const {
  ServiceMetrics m;
  for (const ServiceMetricDef& d : kServiceMetrics) {
    m.*d.field = static_cast<uint64_t>(registry_.Value(d.Name()));
  }
  uint64_t lookups = m.cache_hits + m.cache_misses;
  m.hit_rate = lookups == 0 ? 0
                            : static_cast<double>(m.cache_hits) /
                                  static_cast<double>(lookups);
  for (size_t i = 0; i < latency_.size(); ++i) {
    for (size_t q = 0; q < std::size(kLatencyRanks); ++q) {
      m.*kLatencyMetrics[i].ms[q] =
          latency_[i]->Quantile(kLatencyRanks[q]) * 1e3;
    }
  }
  m.ops = op_profile_.Snapshot();
  return m;
}

std::string QueryService::MetricsJson() const { return Metrics().ToJson(); }

}  // namespace mpq
