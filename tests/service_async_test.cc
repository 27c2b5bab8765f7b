// Async QueryService tests: the ExecuteAsync path must produce responses
// bit-identical to synchronous Execute (same rows, same metrics counters) at
// several thread counts, support cancellation before the first morsel runs,
// shed deterministically at the queue-depth cap, and count every morsel the
// operators run.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/pricing.h"
#include "net/topology.h"
#include "paper_example.h"
#include "service/metrics.h"
#include "service/query_service.h"

namespace mpq {
namespace {

using testing::MakePaperExample;
using testing::PaperExample;

void ExpectCellsIdentical(const Cell& a, const Cell& b, const char* where) {
  ASSERT_EQ(a.is_plain(), b.is_plain()) << where;
  if (a.is_plain()) {
    EXPECT_EQ(a.plain(), b.plain()) << where;
  } else {
    EXPECT_EQ(a.enc(), b.enc()) << where;
  }
}

void ExpectTablesIdentical(const Table& a, const Table& b, const char* where) {
  ASSERT_EQ(a.num_columns(), b.num_columns()) << where;
  ASSERT_EQ(a.num_rows(), b.num_rows()) << where;
  for (size_t i = 0; i < a.num_columns(); ++i) {
    EXPECT_EQ(a.columns()[i].attr, b.columns()[i].attr) << where;
    EXPECT_EQ(a.columns()[i].encrypted, b.columns()[i].encrypted) << where;
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      ExpectCellsIdentical(a.row(r)[c], b.row(r)[c], where);
    }
  }
}

constexpr const char* kPaperSql =
    "select T, avg(P) from Hosp join Ins on S = C "
    "where D = 'stroke' group by T having avg(P) > 100";

class ServiceAsyncTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ex_ = MakePaperExample();
    prices_ = PricingTable::PaperDefaults(ex_->subjects);
    topo_ = Topology::PaperDefaults(ex_->subjects);
    hosp_ = ex_->HospData();
    ins_ = ex_->InsData();
  }

  std::unique_ptr<QueryService> MakeService(ServiceConfig config = {}) {
    auto service = std::make_unique<QueryService>(
        &ex_->catalog, &ex_->subjects, ex_->policy.get(), &prices_, &topo_,
        config);
    service->LoadTable(ex_->hosp, &hosp_);
    service->LoadTable(ex_->ins, &ins_);
    return service;
  }

  std::unique_ptr<PaperExample> ex_;
  PricingTable prices_;
  Topology topo_;
  Table hosp_, ins_;
};

TEST_F(ServiceAsyncTest, AsyncMatchesSyncBitIdentical) {
  // The async path is the same execution under a future: at 1, 2, and 8
  // workers the response rows must be byte-identical to the synchronous
  // ones and the serving counters must advance exactly the same way.
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    ServiceConfig config;
    config.exec_threads = threads;
    auto service = MakeService(config);
    auto session = service->OpenSession(ex_->U);
    ASSERT_TRUE(session.ok());
    auto stmt = service->Prepare(kPaperSql);
    ASSERT_TRUE(stmt.ok());

    auto sync = service->Execute(*stmt, *session);
    ASSERT_TRUE(sync.ok()) << "threads " << threads;
    ServiceMetrics m0 = service->Metrics();

    auto query = service->ExecuteAsync(*stmt, *session);
    ASSERT_TRUE(query.ok()) << "threads " << threads;
    const Result<QueryResponse>& async = (*query)->Wait();
    ASSERT_TRUE(async.ok()) << "threads " << threads;
    EXPECT_TRUE((*query)->Done());

    ExpectTablesIdentical(async->table, sync->table, "async vs sync");
    EXPECT_EQ(async->stats.result_rows, sync->stats.result_rows);
    EXPECT_EQ(async->stats.cache, CacheOutcome::kHit);

    ServiceMetrics m1 = service->Metrics();
    EXPECT_EQ(m1.queries - m0.queries, 1u) << "threads " << threads;
    EXPECT_EQ(m1.async_queries - m0.async_queries, 1u);
    EXPECT_EQ(m1.rows_returned - m0.rows_returned, sync->stats.result_rows);
    EXPECT_EQ(m1.errors, m0.errors);
    EXPECT_EQ(m1.sheds, m0.sheds);
  }
}

TEST_F(ServiceAsyncTest, ManyAsyncQueriesAllIdentical) {
  ServiceConfig config;
  config.exec_threads = 2;
  auto service = MakeService(config);
  auto session = service->OpenSession(ex_->U);
  ASSERT_TRUE(session.ok());
  auto stmt = service->Prepare(kPaperSql);
  ASSERT_TRUE(stmt.ok());
  auto reference = service->Execute(*stmt, *session);
  ASSERT_TRUE(reference.ok());

  std::vector<std::shared_ptr<AsyncQuery>> queries;
  for (int i = 0; i < 16; ++i) {
    auto q = service->ExecuteAsync(*stmt, *session);
    ASSERT_TRUE(q.ok()) << "submission " << i;
    queries.push_back(*q);
  }
  for (auto& q : queries) {
    const Result<QueryResponse>& r = q->Wait();
    ASSERT_TRUE(r.ok());
    ExpectTablesIdentical(r->table, reference->table, "async burst");
  }
  EXPECT_EQ(service->Metrics().async_queries, 16u);
}

TEST_F(ServiceAsyncTest, CancelBeforeFirstMorsel) {
  ServiceConfig config;
  config.exec_threads = 1;
  auto service = MakeService(config);
  auto session = service->OpenSession(ex_->U);
  ASSERT_TRUE(session.ok());
  auto stmt = service->Prepare(kPaperSql);
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(service->Execute(*stmt, *session).ok());  // warm the cache
  ServiceMetrics m0 = service->Metrics();

  // Park the only worker so the submitted query cannot start.
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  ASSERT_TRUE(service->pool()->Submit([&] {
    entered.store(true);
    while (!release.load()) std::this_thread::yield();
  }));
  while (!entered.load()) std::this_thread::yield();

  auto query = service->ExecuteAsync(*stmt, *session);
  ASSERT_TRUE(query.ok());
  EXPECT_FALSE((*query)->Done());
  // Still queued behind the gate: cancellation must win, and no part of the
  // query may execute afterwards.
  EXPECT_TRUE((*query)->Cancel());
  EXPECT_FALSE((*query)->Cancel());  // already cancelled
  release.store(true);

  const Result<QueryResponse>& r = (*query)->Wait();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);

  // Drain the pool task so the cancelled counter settles.
  while (service->Metrics().cancelled == m0.cancelled) {
    std::this_thread::yield();
  }
  ServiceMetrics m1 = service->Metrics();
  EXPECT_EQ(m1.cancelled - m0.cancelled, 1u);
  EXPECT_EQ(m1.queries, m0.queries);  // never executed
  EXPECT_EQ(m1.errors, m0.errors);
}

TEST_F(ServiceAsyncTest, CancelAfterCompletionFails) {
  ServiceConfig config;
  config.exec_threads = 1;
  auto service = MakeService(config);
  auto session = service->OpenSession(ex_->U);
  ASSERT_TRUE(session.ok());
  auto query = service->ExecuteSqlAsync(kPaperSql, *session);
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE((*query)->Wait().ok());
  EXPECT_FALSE((*query)->Cancel());
  EXPECT_EQ(service->Metrics().cancelled, 0u);
}

TEST_F(ServiceAsyncTest, ShedsAtQueueDepthCap) {
  ServiceConfig config;
  config.exec_threads = 1;
  config.max_in_flight = 1;
  config.max_queue_depth = 2;
  auto service = MakeService(config);
  auto session = service->OpenSession(ex_->U);
  ASSERT_TRUE(session.ok());
  auto stmt = service->Prepare(kPaperSql);
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(service->Execute(*stmt, *session).ok());

  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  ASSERT_TRUE(service->pool()->Submit([&] {
    entered.store(true);
    while (!release.load()) std::this_thread::yield();
  }));
  while (!entered.load()) std::this_thread::yield();

  // With the worker parked, submissions queue until the depth cap and the
  // rest shed with kUnavailable, nothing enqueued.
  std::vector<std::shared_ptr<AsyncQuery>> accepted;
  size_t shed = 0;
  for (int i = 0; i < 5; ++i) {
    auto q = service->ExecuteAsync(*stmt, *session);
    if (q.ok()) {
      accepted.push_back(*q);
    } else {
      EXPECT_EQ(q.status().code(), StatusCode::kUnavailable);
      ++shed;
    }
  }
  EXPECT_EQ(accepted.size(), 2u);
  EXPECT_EQ(shed, 3u);
  release.store(true);
  for (auto& q : accepted) EXPECT_TRUE(q->Wait().ok());

  ServiceMetrics m = service->Metrics();
  EXPECT_EQ(m.sheds, 3u);
  EXPECT_EQ(m.async_queries, 2u);
  EXPECT_GE(m.queue_depth_peak, 2u);
}

TEST_F(ServiceAsyncTest, MorselsExecutedMatchesOperatorProfile) {
  // Every operator loop runs through the pool's morsel queue, so the
  // service's executed-morsel counter must equal the morsels the operator
  // profile recorded, select morsels included. batch_size = 1 gives every
  // operator loop one morsel per row.
  ServiceConfig config;
  config.exec_threads = 2;
  config.batch_size = 1;
  auto service = MakeService(config);
  auto session = service->OpenSession(ex_->U);
  ASSERT_TRUE(session.ok());
  auto stmt = service->Prepare(kPaperSql);
  ASSERT_TRUE(stmt.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service->Execute(*stmt, *session).ok()) << "run " << i;
  }

  ServiceMetrics m = service->Metrics();
  uint64_t recorded = 0;
  for (const OpCounterSnapshot& c : m.ops.ops) recorded += c.morsels;
  EXPECT_GT(m.ops.of(OpKind::kSelect).morsels, 0u);
  EXPECT_EQ(m.morsels_executed, recorded);
  EXPECT_EQ(m.morsel_queue_depth, 0u);
}

}  // namespace
}  // namespace mpq
