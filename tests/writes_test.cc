// Write-path tests: MVCC snapshot isolation of the TableStore, write
// statement execution and authorization through the service, cached plans
// across writes (a request always reads the snapshot it pinned, never a
// superseded one), fresh nonces for rebuilt plans, MRV counter semantics
// (invariant total >= 0, rollback, balance/adjust), and a concurrent-writer
// differential test against a serial oracle: the same set of statements
// applied by 1, 2, and 8 writer threads must converge to the bit-identical
// store state the serial application produces.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/str_util.h"
#include "exec/mrv.h"
#include "exec/table_store.h"
#include "exec/write_executor.h"
#include "net/pricing.h"
#include "net/topology.h"
#include "paper_example.h"
#include "service/query_service.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "testing/reference_exec.h"
#include "tpch/dbgen.h"
#include "tpch/scenarios.h"

namespace mpq {
namespace {

using testing::MakePaperExample;
using testing::PaperExample;

// ---- MRV counter unit tests ------------------------------------------------

TEST(MrvCounterTest, AddSubTotal) {
  MrvCounter c(100, 8, /*seed=*/7);
  EXPECT_EQ(c.Total(), 100);
  EXPECT_EQ(c.num_records(), 8u);
  c.Add(50);
  EXPECT_EQ(c.Total(), 150);
  ASSERT_TRUE(c.Sub(30).ok());
  EXPECT_EQ(c.Total(), 120);
  MrvStats s = c.Stats();
  EXPECT_EQ(s.adds, 1u);
  EXPECT_EQ(s.subs, 1u);
  EXPECT_EQ(s.sub_failures, 0u);
}

TEST(MrvCounterTest, SubInsufficientRollsBack) {
  MrvCounter c(100, 4, /*seed=*/3);
  // Gathers across every record, cannot cover, must restore all of it.
  Status st = c.Sub(101);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(c.Total(), 100);
  EXPECT_EQ(c.Stats().sub_failures, 1u);
  // Exactly the full amount still works.
  ASSERT_TRUE(c.Sub(100).ok());
  EXPECT_EQ(c.Total(), 0);
  EXPECT_EQ(c.Sub(1).code(), StatusCode::kInvalidArgument);
}

TEST(MrvCounterTest, BalanceRedistributes) {
  MrvCounter c(97, 4, /*seed=*/11);
  c.Balance();
  EXPECT_EQ(c.Total(), 97);
  // After balancing, any sub of one fair share completes in one record.
  ASSERT_TRUE(c.Sub(24).ok());
  EXPECT_EQ(c.Total(), 73);
}

TEST(MrvCounterTest, ResizeDrainsDeactivatedRecords) {
  MrvCounter c(64, 8, /*seed=*/5);
  c.Balance();
  c.Resize(2);
  EXPECT_EQ(c.num_records(), 2u);
  EXPECT_EQ(c.Total(), 64);  // nothing stranded in inactive records
  c.Resize(1);
  EXPECT_EQ(c.Total(), 64);
  ASSERT_TRUE(c.Sub(64).ok());
  EXPECT_EQ(c.Total(), 0);
}

TEST(MrvCounterTest, AdjustShrinksWhenSubsWalkManyRecords) {
  MrvCounter c(4, 4, /*seed=*/9);
  c.Balance();  // one unit per record
  ASSERT_TRUE(c.Sub(3).ok());  // walks >= 3 records, no contention
  EXPECT_TRUE(c.AdjustStep());
  EXPECT_EQ(c.num_records(), 2u);
  EXPECT_EQ(c.Stats().shrinks, 1u);
  EXPECT_EQ(c.Total(), 1);
}

TEST(MrvCounterTest, ConcurrentAddSubPreservesTotal) {
  // Per-thread: every Add precedes the matching Sub, so any interleaving
  // keeps the running total >= initial and no sub can fail.
  constexpr int kThreads = 8;
  constexpr int kOps = 200;
  MrvCounter c(1000, 16, /*seed=*/1);
  std::atomic<int> failures{0};
  std::atomic<bool> stop{false};
  std::thread maintenance([&] {
    while (!stop.load(std::memory_order_acquire)) {
      c.Balance();
      c.AdjustStep();
    }
  });
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c, &failures] {
      for (int i = 0; i < kOps; ++i) {
        c.Add(5);
        if (!c.Sub(3).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& w : workers) w.join();
  stop.store(true, std::memory_order_release);
  maintenance.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(c.Total(), 1000 + kThreads * kOps * (5 - 3));
  EXPECT_GE(c.num_records(), 1u);
  EXPECT_LE(c.num_records(), MrvCounter::kMaxRecords);
}

// ---- TableStore snapshot tests ---------------------------------------------

class WritesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ex_ = MakePaperExample();
    prices_ = PricingTable::PaperDefaults(ex_->subjects);
    topo_ = Topology::PaperDefaults(ex_->subjects);
  }

  /// A store seeded with the paper example's data.
  std::unique_ptr<TableStore> MakeStore() {
    auto store = std::make_unique<TableStore>();
    store->Put(ex_->hosp, ex_->HospData());
    store->Put(ex_->ins, ex_->InsData());
    return store;
  }

  std::unique_ptr<QueryService> MakeService(TableStore* store,
                                            ServiceConfig config = {}) {
    config.store = store;
    return std::make_unique<QueryService>(&ex_->catalog, &ex_->subjects,
                                          ex_->policy.get(), &prices_, &topo_,
                                          config);
  }

  std::unique_ptr<PaperExample> ex_;
  PricingTable prices_;
  Topology topo_;
};

TEST_F(WritesTest, SnapshotIsolation) {
  auto store = MakeStore();
  std::shared_ptr<const Snapshot> before = store->Current();
  const Table* hosp_before = before->Get(ex_->hosp);
  ASSERT_NE(hosp_before, nullptr);
  size_t rows_before = hosp_before->num_rows();

  Result<uint64_t> snap = store->Mutate(ex_->hosp, [](Table* t) {
    t->AddRow({Cell(Value(int64_t{200})), Cell(Value(int64_t{2000})),
               Cell(Value(std::string("flu"))),
               Cell(Value(std::string("rest")))});
    return Status::OK();
  });
  ASSERT_TRUE(snap.ok());
  EXPECT_GT(*snap, before->id);

  // The pinned snapshot still serves the pre-write state.
  EXPECT_EQ(hosp_before->num_rows(), rows_before);
  std::shared_ptr<const Snapshot> after = store->Current();
  EXPECT_EQ(after->id, *snap);
  EXPECT_EQ(after->Get(ex_->hosp)->num_rows(), rows_before + 1);
  // The untouched relation's payload is shared, not copied.
  EXPECT_EQ(before->Get(ex_->ins), after->Get(ex_->ins));
}

TEST_F(WritesTest, FailedMutatePublishesNothing) {
  auto store = MakeStore();
  uint64_t epoch = store->snapshot_epoch();
  Result<uint64_t> r = store->Mutate(ex_->hosp, [](Table* t) {
    t->AddRow({Cell(Value(int64_t{1})), Cell(Value(int64_t{2})),
               Cell(Value(std::string("x"))), Cell(Value(std::string("y")))});
    return Status::InvalidArgument("abort");
  });
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(store->snapshot_epoch(), epoch);
  EXPECT_EQ(store->Current()->Get(ex_->hosp)->num_rows(), 4u);
}

// ---- Write statements through the service ----------------------------------

TEST_F(WritesTest, InsertUpdateDeleteVisibleToQueries) {
  auto store = MakeStore();
  auto service = MakeService(store.get());
  Session h = *service->OpenSession(ex_->H);
  Session u = *service->OpenSession(ex_->U);

  auto count_bulk = [&] {
    auto resp =
        service->ExecuteSql("select S from Hosp where D = 'bulk'", u);
    EXPECT_TRUE(resp.ok()) << resp.status().ToString();
    return resp.ok() ? resp->table.num_rows() : size_t{0};
  };
  EXPECT_EQ(count_bulk(), 0u);

  Result<WriteResult> ins = service->ExecuteWrite(
      "insert into Hosp values (500, 9000, 'bulk', 't0'), "
      "(501, 9000, 'bulk', 't0'), (502, 9001, 'bulk', 't0')",
      h);
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  EXPECT_EQ(ins->rows_affected, 3u);
  EXPECT_EQ(count_bulk(), 3u);

  Result<WriteResult> upd = service->ExecuteWrite(
      "update Hosp set T = 'u1' where B = 9000", h);
  ASSERT_TRUE(upd.ok()) << upd.status().ToString();
  EXPECT_EQ(upd->rows_affected, 2u);

  Result<WriteResult> del =
      service->ExecuteWrite("delete from Hosp where S = 502", h);
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_EQ(del->rows_affected, 1u);
  EXPECT_EQ(count_bulk(), 2u);
  EXPECT_GT(del->snapshot_id, ins->snapshot_id);

  // Statement-level accounting surfaced in the metrics.
  ServiceMetrics m = service->Metrics();
  EXPECT_EQ(m.writes, 3u);
  EXPECT_EQ(m.write_errors, 0u);
  EXPECT_EQ(m.rows_written, 6u);
  EXPECT_EQ(m.snapshot_epoch, store->snapshot_epoch());
}

TEST_F(WritesTest, WriteAuthorizationUsesPlaintextView) {
  auto store = MakeStore();
  auto service = MakeService(store.get());
  Session u = *service->OpenSession(ex_->U);  // plain SDT on Hosp, no B
  Session i = *service->OpenSession(ex_->I);  // plain B only on Hosp
  Session h = *service->OpenSession(ex_->H);  // plain SBDT on Hosp

  // INSERT writes every column: U lacks plaintext B.
  Result<WriteResult> ins = service->ExecuteWrite(
      "insert into Hosp values (600, 1, 'flu', 'rest')", u);
  EXPECT_EQ(ins.status().code(), StatusCode::kUnauthorized);

  // UPDATE needs only the SET + WHERE attributes: U holds S, D, T plain.
  Result<WriteResult> upd = service->ExecuteWrite(
      "update Hosp set T = 'x' where S = 100", u);
  EXPECT_TRUE(upd.ok()) << upd.status().ToString();
  EXPECT_EQ(upd->rows_affected, 1u);

  // ...but not an UPDATE whose filter reads B.
  Result<WriteResult> upd2 = service->ExecuteWrite(
      "update Hosp set T = 'x' where B = 1970", u);
  EXPECT_EQ(upd2.status().code(), StatusCode::kUnauthorized);

  // DELETE writes the whole row: I sees only B in plaintext.
  Result<WriteResult> del =
      service->ExecuteWrite("delete from Hosp where B = 1970", i);
  EXPECT_EQ(del.status().code(), StatusCode::kUnauthorized);

  // The error counter moved, and the denied statements changed nothing.
  EXPECT_EQ(service->Metrics().write_errors, 3u);
  auto resp = service->ExecuteSql("select S from Hosp where D = 'flu'", h);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->table.num_rows(), 1u);
}

TEST_F(WritesTest, WarmPlanReadsEachRequestsSnapshot) {
  auto store = MakeStore();
  auto service = MakeService(store.get());
  Session h = *service->OpenSession(ex_->H);
  Session u = *service->OpenSession(ex_->U);
  const std::string sql = "select S from Hosp where D = 'stroke'";

  auto r1 = service->ExecuteSql(sql, u);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->stats.cache, CacheOutcome::kMiss);
  auto r2 = service->ExecuteSql(sql, u);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->stats.cache, CacheOutcome::kHit);
  EXPECT_EQ(r2->table.num_rows(), 3u);

  ASSERT_TRUE(service
                  ->ExecuteWrite(
                      "insert into Hosp values (700, 1, 'stroke', 'tpa')", h)
                  .ok());

  // The plan holds no table data: the cached plan serves the request, which
  // reads the snapshot it pinned and so sees the new row.
  auto r3 = service->ExecuteSql(sql, u);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->stats.cache, CacheOutcome::kHit);
  EXPECT_EQ(r3->table.num_rows(), 4u);
  EXPECT_GT(r3->stats.snapshot_id, r2->stats.snapshot_id);
}

TEST_F(WritesTest, ConcurrentReadersSeeTheSnapshotTheyReport) {
  constexpr int kCommits = 40;
  constexpr int kReaders = 2;
  auto store = MakeStore();
  auto service = MakeService(store.get());
  Session h = *service->OpenSession(ex_->H);
  Session u = *service->OpenSession(ex_->U);
  const std::string sql = "select S from Hosp where D = 'stroke'";

  // Snapshot id -> 'stroke' rows in it. Only the writer below commits, and
  // each commit adds one such row.
  std::map<uint64_t, size_t> expected = {{store->snapshot_epoch(), 3}};
  struct Seen {
    uint64_t snapshot_id;
    size_t rows;
    CacheOutcome cache;
  };
  std::vector<std::vector<Seen>> seen(kReaders);
  // The snapshot of the latest reader response (readers may overwrite a
  // newer id with an older one; the writer then just waits longer).
  std::atomic<uint64_t> newest_read{0};
  std::atomic<int> errors{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!stop.load(std::memory_order_acquire)) {
        auto resp = service->ExecuteSql(sql, u);
        if (!resp.ok()) {
          errors.fetch_add(1);
          continue;
        }
        seen[r].push_back({resp->stats.snapshot_id, resp->table.num_rows(),
                           resp->stats.cache});
        newest_read.store(resp->stats.snapshot_id);
      }
    });
  }

  // After each commit, wait until some reader has served its snapshot, so
  // the readers' responses cover every published snapshot.
  bool all_read = true;
  for (int i = 0; i < kCommits && all_read; ++i) {
    Result<WriteResult> w = service->ExecuteWrite(
        StrFormat("insert into Hosp values (%d, 1, 'stroke', 'tpa')", 800 + i),
        h);
    if (!w.ok()) {
      ADD_FAILURE() << w.status().ToString();
      break;
    }
    expected[w->snapshot_id] = 3 + static_cast<size_t>(i) + 1;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (newest_read.load() < w->snapshot_id) {
      if (std::chrono::steady_clock::now() > deadline) {
        all_read = false;
        break;
      }
      std::this_thread::yield();
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  ASSERT_TRUE(all_read) << "no reader served a committed snapshot in 30 s";

  EXPECT_EQ(errors.load(), 0);
  std::set<uint64_t> hit_snapshots;
  for (const std::vector<Seen>& reader : seen) {
    for (const Seen& s : reader) {
      auto it = expected.find(s.snapshot_id);
      ASSERT_NE(it, expected.end()) << "snapshot " << s.snapshot_id;
      EXPECT_EQ(s.rows, it->second) << "snapshot " << s.snapshot_id;
      if (s.cache == CacheOutcome::kHit) hit_snapshots.insert(s.snapshot_id);
    }
  }
  EXPECT_GE(hit_snapshots.size(), 10u);
}

TEST_F(WritesTest, RebuiltPlanDrawsFreshNonces) {
  auto store = MakeStore();
  auto service = MakeService(store.get());
  Session i = *service->OpenSession(ex_->I);
  const std::string sql = "select S, D from Hosp";

  // The (key id, nonce) pair of every randomized-encryption cell I receives.
  auto rnd_nonces = [&](CacheOutcome want) {
    std::set<std::pair<uint64_t, std::string>> out;
    auto resp = service->ExecuteSql(sql, i);
    EXPECT_TRUE(resp.ok()) << resp.status().ToString();
    if (!resp.ok()) return out;
    EXPECT_EQ(resp->stats.cache, want);
    for (size_t c = 0; c < resp->table.num_columns(); ++c) {
      for (size_t r = 0; r < resp->table.num_rows(); ++r) {
        Cell cell = resp->table.col(c).GetCell(r);
        if (cell.is_encrypted() && cell.enc().scheme == EncScheme::kRandom) {
          out.insert({cell.enc().key_id, cell.enc().blob.substr(0, 8)});
        }
      }
    }
    return out;
  };

  const auto first = rnd_nonces(CacheOutcome::kMiss);
  ASSERT_FALSE(first.empty()) << "I receives no randomized ciphertexts";
  // The rebuilt plan derives the same keys, so it must draw other nonces.
  service->InvalidateCache();
  const auto rebuilt = rnd_nonces(CacheOutcome::kMiss);
  ASSERT_EQ(rebuilt.size(), first.size());
  for (const auto& pair : rebuilt) {
    EXPECT_EQ(first.count(pair), 0u) << "key " << pair.first
                                     << " reuses a nonce after a rebuild";
  }
}

// ---- MRV counters through the service --------------------------------------

TEST_F(WritesTest, CounterAttachAddSubFlush) {
  auto store = MakeStore();
  auto service = MakeService(store.get());
  Session h = *service->OpenSession(ex_->H);
  Session u = *service->OpenSession(ex_->U);

  ASSERT_TRUE(service->CounterAttach("Hosp", "S", 100, "B", 8, h).ok());
  // Double attach is rejected.
  EXPECT_EQ(service->CounterAttach("Hosp", "S", 100, "B", 8, h).code(),
            StatusCode::kAlreadyExists);
  // U lacks plaintext B: counter updates are authorization-checked.
  EXPECT_EQ(service->CounterAdd("Hosp", "B", 100, 10, u).code(),
            StatusCode::kUnauthorized);

  ASSERT_TRUE(service->CounterAdd("Hosp", "B", 100, 30, h).ok());
  ASSERT_TRUE(service->CounterSub("Hosp", "B", 100, 10, h).ok());
  Result<int64_t> total = service->CounterTotal("Hosp", "B", 100, h);
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(*total, 1970 + 30 - 10);

  // An oversized sub fails atomically.
  EXPECT_EQ(service->CounterSub("Hosp", "B", 100, 1000000, h).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(*service->CounterTotal("Hosp", "B", 100, h), 1990);

  // UPDATE of an MRV-managed column is routed to the counter API.
  EXPECT_EQ(service
                ->ExecuteWrite("update Hosp set B = 0 where S = 100", h)
                .status()
                .code(),
            StatusCode::kUnsupported);

  // Flush folds the live total into the snapshot-visible cell.
  uint64_t epoch_before = store->snapshot_epoch();
  ASSERT_TRUE(service->FlushCounters().ok());
  EXPECT_GT(store->snapshot_epoch(), epoch_before);
  const Table* hosp = store->Current()->Get(ex_->hosp);
  int b_col = 1;
  bool found = false;
  for (size_t r = 0; r < hosp->num_rows(); ++r) {
    if (hosp->col(0).GetValue(r).AsInt() == 100) {
      EXPECT_EQ(hosp->col(b_col).GetValue(r).AsInt(), 1990);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// ---- Concurrent-writer differential test vs serial oracle ------------------

/// One logical writer program: two 3-row inserts (unique batch tag in B),
/// an update of the first batch, a delete of the second, plus counter
/// traffic. Writers own disjoint key ranges, so programs commute and any
/// interleaving of full statements converges to the serial result.
struct WriterProgram {
  std::vector<std::string> statements;
  int64_t counter_add = 0;
  int64_t counter_sub = 0;
};

WriterProgram MakeProgram(int w) {
  int64_t base = 1000 + 100 * static_cast<int64_t>(w);
  int64_t tag1 = 5000 + 10 * static_cast<int64_t>(w) + 1;
  int64_t tag2 = 5000 + 10 * static_cast<int64_t>(w) + 2;
  WriterProgram p;
  auto row = [&](int64_t s, int64_t tag) {
    return StrFormat("(%lld, %lld, 'bulk', 't0')", (long long)s,
                     (long long)tag);
  };
  p.statements.push_back("insert into Hosp values " + row(base, tag1) + ", " +
                         row(base + 1, tag1) + ", " + row(base + 2, tag1));
  p.statements.push_back("insert into Hosp values " + row(base + 10, tag2) +
                         ", " + row(base + 11, tag2) + ", " +
                         row(base + 12, tag2));
  p.statements.push_back(StrFormat(
      "update Hosp set T = 'u%d' where B = %lld", w, (long long)tag1));
  p.statements.push_back(
      StrFormat("delete from Hosp where B = %lld", (long long)tag2));
  p.counter_add = 1000;
  p.counter_sub = 400;
  return p;
}

/// Canonical store state: every row of every relation rendered and sorted,
/// so physically different but logically identical states compare equal
/// (concurrent inserts append in nondeterministic order).
std::string CanonicalState(const TableStore& store,
                           const std::vector<RelId>& rels) {
  std::string out;
  std::shared_ptr<const Snapshot> snap = store.Current();
  for (RelId rel : rels) {
    const Table* t = snap->Get(rel);
    std::vector<std::string> rows;
    rows.reserve(t->num_rows());
    for (size_t r = 0; r < t->num_rows(); ++r) {
      std::string line;
      for (size_t c = 0; c < t->num_columns(); ++c) {
        line += t->col(c).GetValue(r).ToString();
        line += "|";
      }
      rows.push_back(std::move(line));
    }
    std::sort(rows.begin(), rows.end());
    out += StrFormat("rel %d\n", static_cast<int>(rel));
    for (const std::string& r : rows) out += r + "\n";
  }
  return out;
}

TEST_F(WritesTest, ConcurrentWritersMatchSerialOracle) {
  constexpr int kPrograms = 8;
  std::vector<WriterProgram> programs;
  programs.reserve(kPrograms);
  for (int w = 0; w < kPrograms; ++w) programs.push_back(MakeProgram(w));

  // Serial oracle: one thread applies every program in order.
  std::string oracle;
  {
    auto store = MakeStore();
    auto service = MakeService(store.get());
    Session h = *service->OpenSession(ex_->H);
    ASSERT_TRUE(service->CounterAttach("Hosp", "S", 100, "B", 8, h).ok());
    for (const WriterProgram& p : programs) {
      for (const std::string& sql : p.statements) {
        auto r = service->ExecuteWrite(sql, h);
        ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
      }
      ASSERT_TRUE(service->CounterAdd("Hosp", "B", 100, p.counter_add, h).ok());
      ASSERT_TRUE(service->CounterSub("Hosp", "B", 100, p.counter_sub, h).ok());
    }
    ASSERT_TRUE(service->FlushCounters().ok());
    oracle = CanonicalState(*store, {ex_->hosp, ex_->ins});
    ASSERT_FALSE(oracle.empty());
  }

  for (int threads : {1, 2, 8}) {
    auto store = MakeStore();
    auto service = MakeService(store.get());
    Session h = *service->OpenSession(ex_->H);
    Session u = *service->OpenSession(ex_->U);
    ASSERT_TRUE(service->CounterAttach("Hosp", "S", 100, "B", 8, h).ok());

    // A concurrent reader checks statement atomicity on every snapshot it
    // pins: inserts land 3 rows at a time and deletes remove a whole batch,
    // so the 'bulk' row count is a multiple of 3 at every instant.
    std::atomic<bool> stop{false};
    std::atomic<int> atomicity_violations{0};
    std::thread reader([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto resp =
            service->ExecuteSql("select S from Hosp where D = 'bulk'", u);
        if (resp.ok() && resp->table.num_rows() % 3 != 0) {
          atomicity_violations.fetch_add(1);
        }
      }
    });

    std::vector<std::thread> workers;
    workers.reserve(threads);
    std::atomic<int> errors{0};
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        // Thread t runs programs t, t+threads, t+2*threads, ...
        for (int w = t; w < kPrograms; w += threads) {
          const WriterProgram& p = programs[w];
          for (const std::string& sql : p.statements) {
            if (!service->ExecuteWrite(sql, h).ok()) errors.fetch_add(1);
          }
          if (!service->CounterAdd("Hosp", "B", 100, p.counter_add, h).ok()) {
            errors.fetch_add(1);
          }
          if (!service->CounterSub("Hosp", "B", 100, p.counter_sub, h).ok()) {
            errors.fetch_add(1);
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    stop.store(true, std::memory_order_release);
    reader.join();

    ASSERT_EQ(errors.load(), 0) << "threads=" << threads;
    EXPECT_EQ(atomicity_violations.load(), 0) << "threads=" << threads;
    ASSERT_TRUE(service->FlushCounters().ok());
    EXPECT_EQ(CanonicalState(*store, {ex_->hosp, ex_->ins}), oracle)
        << "threads=" << threads;
  }
}

TEST_F(WritesTest, MaintenanceThreadSmoke) {
  auto store = MakeStore();
  ASSERT_TRUE(store->MrvAttach(ex_->hosp, /*key_col=*/0, 100,
                               /*value_col=*/1, 8)
                  .ok());
  store->StartMaintenance(/*period_ms=*/1);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(store->MrvAdd(ex_->hosp, 1, 100, 3).ok());
    ASSERT_TRUE(store->MrvSub(ex_->hosp, 1, 100, 2).ok());
  }
  store->StopMaintenance();
  Result<int64_t> total = store->MrvTotal(ex_->hosp, 1, 100);
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(*total, 1970 + 50);
  Result<MrvStats> stats = store->MrvStatsFor(ex_->hosp, 1, 100);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->adds, 50u);
  EXPECT_EQ(stats->subs, 50u);
  EXPECT_TRUE(store->MrvCoversColumn(ex_->hosp, 1));
  EXPECT_FALSE(store->MrvCoversColumn(ex_->hosp, 2));
  EXPECT_FALSE(store->MrvCoversColumn(ex_->ins, 1));
}

// ---- Flush vs concurrent counter traffic -----------------------------------

// Hammers FlushCounters from two threads against add-only counter traffic
// while a sampler watches the published cell. Add-only traffic makes the
// live total monotone, so a correctly serialized flush sequence publishes
// non-decreasing cell values; the historical race (totals snapshotted
// outside the writer critical section) let a slow flush overwrite a
// fresher fold with its staler total — the sampler would see the published
// value go backwards, un-publishing committed updates.
TEST_F(WritesTest, FlushVsConcurrentAddsNeverPublishesStaleTotals) {
  auto store = MakeStore();
  ASSERT_TRUE(store->MrvAttach(ex_->hosp, /*key_col=*/0, 100,
                               /*value_col=*/1, 8)
                  .ok());
  // Row of S == 100 in the B column (rows never move: no inserts here).
  // The snapshot must stay pinned while its table is read: a concurrent
  // flush publishing a new snapshot frees the old one otherwise.
  auto published_b = [&]() -> int64_t {
    std::shared_ptr<const Snapshot> pin = store->Current();
    const Table* hosp = pin->Get(ex_->hosp);
    for (size_t r = 0; r < hosp->num_rows(); ++r) {
      if (hosp->col(0).GetValue(r).AsInt() == 100) {
        return hosp->col(1).GetValue(r).AsInt();
      }
    }
    return -1;
  };

  constexpr int kAdders = 4;
  constexpr int kOps = 2000;
  std::atomic<int> add_errors{0};
  std::atomic<int> flush_errors{0};
  std::atomic<int> sampler_violations{0};
  std::atomic<bool> stop{false};

  std::vector<std::thread> flushers;
  for (int f = 0; f < 2; ++f) {
    flushers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        if (!store->FlushCounters().ok()) flush_errors.fetch_add(1);
      }
    });
  }
  std::thread sampler([&] {
    int64_t last = published_b();
    while (!stop.load(std::memory_order_acquire)) {
      int64_t now = published_b();
      if (now < last) sampler_violations.fetch_add(1);
      last = now;
    }
  });
  std::vector<std::thread> adders;
  for (int a = 0; a < kAdders; ++a) {
    adders.emplace_back([&] {
      for (int i = 0; i < kOps; ++i) {
        if (!store->MrvAdd(ex_->hosp, 1, 100, 3).ok()) {
          add_errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : adders) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : flushers) t.join();
  sampler.join();

  EXPECT_EQ(add_errors.load(), 0);
  EXPECT_EQ(flush_errors.load(), 0);
  EXPECT_EQ(sampler_violations.load(), 0);
  // Conservation: the live total is exactly seed + all adds, and a final
  // quiescent flush folds precisely that into the cell (no double-fold,
  // no lost updates).
  const int64_t expected = 1970 + int64_t{kAdders} * kOps * 3;
  ASSERT_TRUE(store->FlushCounters().ok());
  EXPECT_EQ(*store->MrvTotal(ex_->hosp, 1, 100), expected);
  EXPECT_EQ(published_b(), expected);
}

// ---- Cold (segment-backed) relations ----------------------------------------

TEST_F(WritesTest, ColdRelationsDecodeLazilyAndWarmOnWrite) {
  auto store = MakeStore();
  const Table* hot = store->Current()->Get(ex_->hosp);
  ASSERT_NE(hot, nullptr);
  const std::string before = hot->ToString(100);
  const size_t rows = hot->num_rows();

  uint64_t epoch = store->snapshot_epoch();
  Result<uint64_t> cold = store->MakeCold(ex_->hosp, /*rows_per_segment=*/2);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_GT(*cold, epoch);

  std::shared_ptr<const Snapshot> snap = store->Current();
  EXPECT_EQ(snap->tables.count(ex_->hosp), 0u);
  const SegmentedTable* seg = snap->GetCold(ex_->hosp);
  ASSERT_NE(seg, nullptr);
  EXPECT_EQ(seg->total_rows(), rows);
  EXPECT_GE(seg->num_segments(), 2u);
  EXPECT_GT(seg->encoded_bytes(), 0u);

  // Get() decodes lazily and serves the identical table; repeated calls
  // share the memoized decode.
  const Table* back = snap->Get(ex_->hosp);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->ToString(100), before);
  EXPECT_EQ(snap->Get(ex_->hosp), back);

  // Idempotent: re-demoting a cold relation keeps the snapshot as is.
  Result<uint64_t> again = store->MakeCold(ex_->hosp, 2);
  ASSERT_TRUE(again.ok());

  // The untouched relation stayed hot, and unknown relations error.
  EXPECT_NE(store->Current()->tables.count(ex_->ins), 0u);
  EXPECT_FALSE(store->MakeCold(static_cast<RelId>(999), 2).ok());

  // A write warms the relation: the mutation sees the decoded rows and the
  // new version is a plain table again.
  Result<uint64_t> warmed = store->Mutate(ex_->hosp, [](Table* t) {
    t->AddRow({Cell(Value(int64_t{300})), Cell(Value(int64_t{3000})),
               Cell(Value(std::string("flu"))),
               Cell(Value(std::string("rest")))});
    return Status::OK();
  });
  ASSERT_TRUE(warmed.ok()) << warmed.status().ToString();
  std::shared_ptr<const Snapshot> after = store->Current();
  EXPECT_EQ(after->cold.count(ex_->hosp), 0u);
  ASSERT_NE(after->Get(ex_->hosp), nullptr);
  EXPECT_EQ(after->Get(ex_->hosp)->num_rows(), rows + 1);
  // The pinned cold snapshot is unaffected by the warm-up publish.
  EXPECT_EQ(snap->Get(ex_->hosp)->num_rows(), rows);
}

TEST_F(WritesTest, QueriesReadColdRelationsTransparently) {
  auto store = MakeStore();
  auto service = MakeService(store.get());
  Session u = *service->OpenSession(ex_->U);
  const std::string sql = "select S from Hosp where D = 'flu'";

  auto warm_resp = service->ExecuteSql(sql, u);
  ASSERT_TRUE(warm_resp.ok()) << warm_resp.status().ToString();
  ASSERT_GT(warm_resp->table.num_rows(), 0u);
  const std::string warm = warm_resp->table.ToString(100);

  ASSERT_TRUE(store->MakeCold(ex_->hosp, /*rows_per_segment=*/1).ok());
  auto cold_resp = service->ExecuteSql(sql, u);
  ASSERT_TRUE(cold_resp.ok()) << cold_resp.status().ToString();
  EXPECT_EQ(cold_resp->table.ToString(100), warm);
}

TEST(TpchWritesTest, NullInOpeColumnKeepsRangeQueriesAnswerable) {
  // An insert that omits l_shipdate pads it with NULL. Under UAPenc the Q6
  // range predicate runs over OPE ciphertexts of l_shipdate: the NULL row
  // must encrypt (as a NULL row, not an error) and compare below every
  // ciphertext, as the plaintext oracle orders NULL below every value.
  TpchEnv env = MakeTpchEnv(/*costing_sf=*/1.0, /*num_providers=*/8);
  TpchData db = GenerateTpch(env, /*data_sf=*/2e-4, /*seed=*/29);
  Result<Policy> policy = MakeScenarioPolicy(env, AuthScenario::kUAPenc);
  ASSERT_TRUE(policy.ok());
  PricingTable prices = MakeScenarioPricing(env);
  Topology topo = MakeScenarioTopology(env);
  TableStore store;
  for (auto& [rel, t] : db.tables) store.Put(rel, std::move(t));
  ServiceConfig config;
  config.store = &store;
  QueryService service(&env.catalog, &env.subjects, &*policy, &prices, &topo,
                       config);
  Session user = *service.OpenSession(env.user);

  Result<WriteResult> ins = service.ExecuteWrite(
      "insert into lineitem (l_orderkey, l_partkey, l_suppkey, "
      "l_linenumber, l_quantity, l_extendedprice, l_discount, l_tax, "
      "l_returnflag, l_linestatus, l_commitdate, l_receiptdate, l_shipmode) "
      "values (999999, 1, 1, 1, 5.0, 123.5, 0.06, 0.0, 'N', 'O', 800, 900, "
      "'MAIL')",
      user);
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  ASSERT_EQ(ins->rows_affected, 1u);

  ReferenceExecutor oracle(&env.catalog);
  std::shared_ptr<const Snapshot> snap = store.Current();
  for (const auto& [rel, t] : snap->tables) oracle.LoadTable(rel, t.get());
  for (const std::string& sql :
       {std::string("select sum(l_extendedprice) from lineitem "
                    "where l_shipdate >= 730 and l_shipdate < 1095 "
                    "and l_discount >= 0.05 and l_discount <= 0.07 "
                    "and l_quantity < 24.0"),
        std::string("select l_orderkey from lineitem "
                    "where l_shipdate < 100 and l_discount >= 0.06")}) {
    Result<PlanPtr> plan = PlanFromSql(sql, env.catalog);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    Result<Table> want = oracle.Run(plan->get());
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    Result<QueryResponse> got = service.ExecuteSql(sql, user);
    ASSERT_TRUE(got.ok()) << sql << ": " << got.status().ToString();
    EXPECT_EQ(CanonicalRows(got->table), CanonicalRows(*want)) << sql;
  }
}

}  // namespace
}  // namespace mpq
