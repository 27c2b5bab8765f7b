// Concurrency determinism tests: ExecutePlan and DistributedRuntime must
// produce identical results — and identical transfer accounting — at 1, 2,
// and 8 threads on the paper's running example. Batch size is forced small
// so the 4-row example actually spans multiple batches.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "assign/assignment.h"
#include "common/thread_pool.h"
#include "exec/distributed.h"
#include "exec/executor.h"
#include "paper_example.h"

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

class ParallelExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ex_ = MakePaperExample();
    plan_ = ex_->BuildQueryPlan();
    hosp_ = ex_->HospData();
    ins_ = ex_->InsData();
    keyring_.Add(MakeKeyMaterial(1, 0));
  }

  /// Runs the plaintext paper query through ExecutePlan with `threads`
  /// workers (0 = no pool) and a tiny batch size.
  Table RunSingleEngine(size_t threads) {
    CryptoPlan crypto;
    ExecContext ctx;
    ctx.catalog = &ex_->catalog;
    ctx.base_tables[ex_->hosp] = &hosp_;
    ctx.base_tables[ex_->ins] = &ins_;
    ctx.keyring = &keyring_;
    ctx.dispatcher_keyring = &keyring_;
    ctx.crypto = &crypto;
    ctx.batch_size = 2;
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) {
      pool = std::make_unique<ThreadPool>(threads);
      ctx.pool = pool.get();
    }
    Result<Table> t = ExecutePlan(plan_.get(), &ctx);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    return t.ok() ? std::move(t).value() : Table();
  }

  /// Runs the Fig 7(a) encrypted extended plan end-to-end with `threads`
  /// workers (0 = no pool).
  DistributedResult RunDistributed(const ExtendedPlan& ext, size_t threads) {
    DistributedRuntime rt(&ex_->catalog, &ex_->subjects);
    PlanKeys keys = DeriveQueryPlanKeys(ext);
    rt.DistributeKeys(keys, ex_->U, /*seed=*/2024);
    SchemeMap schemes = AnalyzeSchemes(plan_.get(), ex_->catalog, SchemeCaps{});
    rt.SetCryptoPlan(MakeCryptoPlan(schemes, keys));
    rt.SetBatchSize(2);
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) {
      pool = std::make_unique<ThreadPool>(threads);
      rt.SetThreadPool(pool.get());
    }
    Result<DistributedResult> r =
        rt.Run(ext, ex_->U, {{ex_->hosp, &hosp_}, {ex_->ins, &ins_}});
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(r).value() : DistributedResult();
  }

  Result<ExtendedPlan> Fig7aExtended() {
    Assignment fig7a{{PaperExample::kProject, ex_->H},
                     {PaperExample::kSelectD, ex_->H},
                     {PaperExample::kJoin, ex_->X},
                     {PaperExample::kGroupBy, ex_->X},
                     {PaperExample::kHaving, ex_->Y}};
    return BuildMinimallyExtendedPlan(plan_.get(), fig7a, *ex_->policy,
                                      ex_->U);
  }

  std::unique_ptr<PaperExample> ex_;
  PlanPtr plan_;
  Table hosp_, ins_;
  KeyRing keyring_;
};

TEST_F(ParallelExecTest, ExecutePlanDeterministicAcrossThreadCounts) {
  Table reference = RunSingleEngine(0);
  ASSERT_EQ(reference.num_rows(), 1u);  // (tpa, avg 160)
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    Table t = RunSingleEngine(threads);
    ExpectTablesIdentical(reference, t, "single-engine");
  }
}

TEST_F(ParallelExecTest, ExecutePlanParallelMatchesExpectedAnswer) {
  Table t = RunSingleEngine(8);
  ASSERT_EQ(t.num_rows(), 1u);
  PlanBuilder b = ex_->builder();
  int t_col = t.ColIndex(b.A("T"));
  int p_col = t.ColIndex(b.A("P"));
  ASSERT_GE(t_col, 0);
  ASSERT_GE(p_col, 0);
  EXPECT_EQ(t.row(0)[static_cast<size_t>(t_col)].plain(),
            Value(std::string("tpa")));
  EXPECT_NEAR(t.row(0)[static_cast<size_t>(p_col)].plain().AsDouble(), 160.0,
              1e-9);
}

TEST_F(ParallelExecTest, DistributedDeterministicAcrossThreadCounts) {
  Result<ExtendedPlan> ext = Fig7aExtended();
  ASSERT_TRUE(ext.ok()) << ext.status().ToString();
  DistributedResult reference = RunDistributed(*ext, 0);
  ASSERT_EQ(reference.result.num_rows(), 1u);
  EXPECT_GT(reference.total_transfer_bytes, 0u);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    DistributedResult r = RunDistributed(*ext, threads);
    ExpectTablesIdentical(reference.result, r.result, "distributed");
    EXPECT_EQ(reference.total_transfer_bytes, r.total_transfer_bytes)
        << threads << " threads";
    EXPECT_EQ(reference.num_messages, r.num_messages) << threads
                                                      << " threads";
    // Per-subject accounting is exact under concurrency, not just the total.
    ASSERT_EQ(reference.stats.size(), r.stats.size());
    auto it = reference.stats.begin();
    auto jt = r.stats.begin();
    for (; it != reference.stats.end(); ++it, ++jt) {
      EXPECT_EQ(it->first, jt->first);
      EXPECT_EQ(it->second.ops_executed, jt->second.ops_executed);
      EXPECT_EQ(it->second.rows_produced, jt->second.rows_produced);
      EXPECT_EQ(it->second.bytes_in, jt->second.bytes_in);
      EXPECT_EQ(it->second.bytes_out, jt->second.bytes_out);
    }
  }
}

TEST_F(ParallelExecTest, DistributedParallelKeyEnforcementStillFails) {
  Result<ExtendedPlan> ext = Fig7aExtended();
  ASSERT_TRUE(ext.ok());
  // No key distribution: the first encrypting subject must fail, and the
  // error must surface through the async scheduler.
  DistributedRuntime rt(&ex_->catalog, &ex_->subjects);
  PlanKeys keys = DeriveQueryPlanKeys(*ext);
  SchemeMap schemes = AnalyzeSchemes(plan_.get(), ex_->catalog, SchemeCaps{});
  rt.SetCryptoPlan(MakeCryptoPlan(schemes, keys));
  ThreadPool pool(4);
  rt.SetThreadPool(&pool);
  rt.SetBatchSize(2);
  Result<DistributedResult> r =
      rt.Run(*ext, ex_->U, {{ex_->hosp, &hosp_}, {ex_->ins, &ins_}});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(ParallelExecTest, EncryptedOperatorsDeterministicUnderBatching) {
  // DET-encrypted select + join keys, evaluated at several thread counts,
  // with ciphertext-level comparison of the (still encrypted) outputs.
  PlanBuilder b = ex_->builder();
  CryptoPlan crypto;
  crypto.scheme_of[b.A("D")] = EncScheme::kDeterministic;
  PlanPtr p = Select(Encrypt(b.Rel("Hosp"), b.Set("D")),
                     {b.Pv("D", CmpOp::kEq, Value(std::string("stroke")))});
  PlanPtr plan = std::move(FinishPlan(std::move(p), ex_->catalog)).value();

  auto run = [&](size_t threads) {
    ExecContext ctx;
    ctx.catalog = &ex_->catalog;
    ctx.base_tables[ex_->hosp] = &hosp_;
    ctx.base_tables[ex_->ins] = &ins_;
    ctx.keyring = &keyring_;
    ctx.dispatcher_keyring = &keyring_;
    ctx.crypto = &crypto;
    ctx.batch_size = 1;
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) {
      pool = std::make_unique<ThreadPool>(threads);
      ctx.pool = pool.get();
    }
    Result<Table> t = ExecutePlan(plan.get(), &ctx);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    return t.ok() ? std::move(t).value() : Table();
  };

  Table reference = run(0);
  ASSERT_EQ(reference.num_rows(), 3u);
  for (size_t threads : {size_t{2}, size_t{8}}) {
    Table t = run(threads);
    ExpectTablesIdentical(reference, t, "encrypted-select");
  }
}

}  // namespace
}  // namespace mpq
