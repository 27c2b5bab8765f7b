// Tests for the tuple execution engine, plaintext and over ciphertexts.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "assign/schemes.h"
#include "exec/executor.h"
#include "paper_example.h"
#include "table_fingerprint.h"

namespace mpq {
namespace {

using testing::MakePaperExample;
using testing::PaperExample;

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ex_ = MakePaperExample();
    hosp_ = ex_->HospData();
    ins_ = ex_->InsData();
    keyring_.Add(MakeKeyMaterial(1, 0));  // default key id 0
    ctx_.catalog = &ex_->catalog;
    ctx_.base_tables[ex_->hosp] = &hosp_;
    ctx_.base_tables[ex_->ins] = &ins_;
    ctx_.keyring = &keyring_;
    ctx_.dispatcher_keyring = &keyring_;
    ctx_.crypto = &crypto_;
    KeyMaterial km = *keyring_.Get(0);
    ctx_.public_modulus = std::make_shared<HomKeyDirectory>(
        HomKeyDirectory{{0, km.paillier.n}});
  }

  PlanPtr Finish(PlanPtr p) {
    PlanPtr out = std::move(FinishPlan(std::move(p), ex_->catalog)).value();
    return out;
  }

  std::unique_ptr<PaperExample> ex_;
  Table hosp_, ins_;
  KeyRing keyring_;
  CryptoPlan crypto_;
  ExecContext ctx_;
};

TEST_F(ExecutorTest, BaseScan) {
  PlanPtr p = Finish(Base(ex_->hosp));
  Result<Table> t = ExecutePlan(p.get(), &ctx_);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 4u);
  EXPECT_EQ(t->num_columns(), 4u);
}

TEST_F(ExecutorTest, ProjectKeepsRequestedColumns) {
  PlanBuilder b = ex_->builder();
  PlanPtr p = Finish(Project(b.Rel("Hosp"), b.Set("S,T")));
  Result<Table> t = ExecutePlan(p.get(), &ctx_);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_columns(), 2u);
  EXPECT_EQ(t->num_rows(), 4u);
}

TEST_F(ExecutorTest, SelectFilters) {
  PlanBuilder b = ex_->builder();
  PlanPtr p = Finish(Select(
      b.Rel("Hosp"), {b.Pv("D", CmpOp::kEq, Value(std::string("stroke")))}));
  Result<Table> t = ExecutePlan(p.get(), &ctx_);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 3u);
}

TEST_F(ExecutorTest, SelectRangeOnInt) {
  PlanBuilder b = ex_->builder();
  PlanPtr p = Finish(
      Select(b.Rel("Hosp"), {b.Pv("B", CmpOp::kGt, Value(int64_t{1975}))}));
  Result<Table> t = ExecutePlan(p.get(), &ctx_);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 2u);  // 1985, 1990
}

TEST_F(ExecutorTest, HashJoinMatchesKeys) {
  PlanBuilder b = ex_->builder();
  PlanPtr p = Finish(
      Join(b.Rel("Hosp"), b.Rel("Ins"), {b.Pa("S", CmpOp::kEq, "C")}));
  Result<Table> t = ExecutePlan(p.get(), &ctx_);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 4u);
  EXPECT_EQ(t->num_columns(), 6u);
}

TEST_F(ExecutorTest, NonEquiJoinNestedLoop) {
  PlanBuilder b = ex_->builder();
  PlanPtr p = Finish(
      Join(b.Rel("Hosp"), b.Rel("Ins"), {b.Pa("S", CmpOp::kLt, "C")}));
  Result<Table> t = ExecutePlan(p.get(), &ctx_);
  ASSERT_TRUE(t.ok());
  // S values 100..103 vs C values 100..103: pairs with S<C = 3+2+1 = 6.
  EXPECT_EQ(t->num_rows(), 6u);
}

TEST_F(ExecutorTest, CartesianProducesAllPairs) {
  PlanBuilder b = ex_->builder();
  PlanPtr p = Finish(Cartesian(b.Rel("Hosp"), b.Rel("Ins")));
  Result<Table> t = ExecutePlan(p.get(), &ctx_);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 16u);
}

TEST_F(ExecutorTest, GroupByAggregates) {
  PlanBuilder b = ex_->builder();
  PlanPtr p = Finish(GroupBy(b.Rel("Hosp"), b.Set("D"),
                             {Aggregate::Make(AggFunc::kMin, b.A("B")),
                              Aggregate::CountStar(b.A("S"))}));
  Result<Table> t = ExecutePlan(p.get(), &ctx_);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 2u);  // stroke, flu
  // Find the stroke group: min(B)=1960, count=3.
  int d_col = t->ColIndex(b.A("D"));
  int b_col = t->ColIndex(b.A("B"));
  int s_col = t->ColIndex(b.A("S"));
  bool found = false;
  for (size_t r = 0; r < t->num_rows(); ++r) {
    if (t->row(r)[static_cast<size_t>(d_col)].plain() ==
        Value(std::string("stroke"))) {
      found = true;
      EXPECT_EQ(t->row(r)[static_cast<size_t>(b_col)].plain(),
                Value(int64_t{1960}));
      EXPECT_EQ(t->row(r)[static_cast<size_t>(s_col)].plain(),
                Value(int64_t{3}));
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ExecutorTest, GlobalAggregateNoGroups) {
  PlanBuilder b = ex_->builder();
  PlanPtr p = Finish(
      GroupBy(b.Rel("Ins"), {}, {Aggregate::Make(AggFunc::kSum, b.A("P"))}));
  Result<Table> t = ExecutePlan(p.get(), &ctx_);
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->num_rows(), 1u);
  EXPECT_NEAR(t->row(0)[0].plain().AsDouble(), 450.0, 1e-9);
}

TEST_F(ExecutorTest, PlaintextRunningExampleResult) {
  PlanPtr plan = ex_->BuildQueryPlan();
  Result<Table> t = ExecutePlan(plan.get(), &ctx_);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  // stroke patients: (tpa: 120, 200 → avg 160 > 100 keep), (surgery: 50 → drop)
  ASSERT_EQ(t->num_rows(), 1u);
  PlanBuilder b = ex_->builder();
  int t_col = t->ColIndex(b.A("T"));
  int p_col = t->ColIndex(b.A("P"));
  EXPECT_EQ(t->row(0)[static_cast<size_t>(t_col)].plain(),
            Value(std::string("tpa")));
  EXPECT_NEAR(t->row(0)[static_cast<size_t>(p_col)].plain().AsDouble(), 160.0,
              1e-9);
}

TEST_F(ExecutorTest, EncryptDecryptRoundTripInPlan) {
  PlanBuilder b = ex_->builder();
  crypto_.scheme_of[b.A("S")] = EncScheme::kDeterministic;
  PlanPtr p = Finish(Decrypt(Encrypt(b.Rel("Hosp"), b.Set("S")), b.Set("S")));
  Result<Table> t = ExecutePlan(p.get(), &ctx_);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->row(0)[0].plain(), Value(int64_t{100}));
  EXPECT_FALSE(t->columns()[0].encrypted);
}

TEST_F(ExecutorTest, SelectOnDetEncryptedColumn) {
  PlanBuilder b = ex_->builder();
  crypto_.scheme_of[b.A("D")] = EncScheme::kDeterministic;
  PlanPtr p = Finish(
      Select(Encrypt(b.Rel("Hosp"), b.Set("D")),
             {b.Pv("D", CmpOp::kEq, Value(std::string("stroke")))}));
  Result<Table> t = ExecutePlan(p.get(), &ctx_);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->num_rows(), 3u);
}

TEST_F(ExecutorTest, RangeOnOpeEncryptedColumn) {
  PlanBuilder b = ex_->builder();
  crypto_.scheme_of[b.A("B")] = EncScheme::kOpe;
  PlanPtr p = Finish(Select(Encrypt(b.Rel("Hosp"), b.Set("B")),
                            {b.Pv("B", CmpOp::kGt, Value(int64_t{1975}))}));
  Result<Table> t = ExecutePlan(p.get(), &ctx_);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->num_rows(), 2u);
}

TEST_F(ExecutorTest, RangeOnDetEncryptedColumnFails) {
  PlanBuilder b = ex_->builder();
  crypto_.scheme_of[b.A("B")] = EncScheme::kDeterministic;
  PlanPtr p = Finish(Select(Encrypt(b.Rel("Hosp"), b.Set("B")),
                            {b.Pv("B", CmpOp::kGt, Value(int64_t{1975}))}));
  Result<Table> t = ExecutePlan(p.get(), &ctx_);
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kUnsupported);
}

TEST_F(ExecutorTest, EncryptedEquiJoinViaDet) {
  PlanBuilder b = ex_->builder();
  crypto_.scheme_of[b.A("S")] = EncScheme::kDeterministic;
  crypto_.scheme_of[b.A("C")] = EncScheme::kDeterministic;
  PlanPtr p = Finish(Join(Encrypt(b.Rel("Hosp"), b.Set("S")),
                          Encrypt(b.Rel("Ins"), b.Set("C")),
                          {b.Pa("S", CmpOp::kEq, "C")}));
  Result<Table> t = ExecutePlan(p.get(), &ctx_);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->num_rows(), 4u);
}

TEST_F(ExecutorTest, HomomorphicAvgMatchesPlaintext) {
  PlanBuilder b = ex_->builder();
  crypto_.scheme_of[b.A("P")] = EncScheme::kPaillier;
  PlanPtr p = Finish(Decrypt(
      GroupBy(Encrypt(b.Rel("Ins"), b.Set("P")), {},
              {Aggregate::Make(AggFunc::kAvg, b.A("P"))}),
      b.Set("P")));
  Result<Table> t = ExecutePlan(p.get(), &ctx_);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->num_rows(), 1u);
  EXPECT_NEAR(t->row(0)[0].plain().AsDouble(), 112.5, 1e-3);  // 450/4
}

TEST_F(ExecutorTest, HomomorphicSumGroupedMatchesPlaintext) {
  PlanBuilder b = ex_->builder();
  crypto_.scheme_of[b.A("P")] = EncScheme::kPaillier;
  // Group Ins by C (plaintext) and sum encrypted P, then decrypt.
  PlanPtr p = Finish(Decrypt(
      GroupBy(Encrypt(b.Rel("Ins"), b.Set("P")), b.Set("C"),
              {Aggregate::Make(AggFunc::kSum, b.A("P"))}),
      b.Set("P")));
  Result<Table> t = ExecutePlan(p.get(), &ctx_);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->num_rows(), 4u);
}

TEST_F(ExecutorTest, HomomorphicSumAndAvgSkipNullRows) {
  // A NULL under Paillier encrypts to a NULL row: the encrypted SUM and AVG
  // equal the plaintext plan's, the all-NULL group included.
  PlanBuilder b = ex_->builder();
  ins_ = MakeBaseTable(ex_->catalog.Get(ex_->ins));
  auto I64 = [](int64_t v) { return Cell(Value(v)); };
  ins_.AddRow({I64(100), Cell(Value(120.0))});
  ins_.AddRow({I64(100), Cell(Value::Null())});
  ins_.AddRow({I64(101), Cell(Value::Null())});
  ins_.AddRow({I64(102), Cell(Value(200.0))});
  crypto_.scheme_of[b.A("P")] = EncScheme::kPaillier;
  for (AggFunc func : {AggFunc::kSum, AggFunc::kAvg}) {
    SCOPED_TRACE(AggFuncName(func));
    auto plan = [&](bool encrypted) {
      PlanPtr in = b.Rel("Ins");
      if (encrypted) in = Encrypt(std::move(in), b.Set("P"));
      PlanPtr gb = GroupBy(std::move(in), b.Set("C"),
                           {Aggregate::Make(func, b.A("P"))});
      return Finish(encrypted ? Decrypt(std::move(gb), b.Set("P"))
                              : std::move(gb));
    };
    PlanPtr enc = plan(true);
    PlanPtr plain = plan(false);
    Result<Table> got = ExecutePlan(enc.get(), &ctx_);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    Result<Table> want = ExecutePlan(plain.get(), &ctx_);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_EQ(got->num_rows(), 3u) << got->ToString();
    ASSERT_EQ(want->num_rows(), 3u) << want->ToString();
    for (size_t r = 0; r < 3; ++r) {
      const Cell g = got->row(r)[1];  // row() returns the cells by value
      const Value w = want->row(r)[1].plain();
      ASSERT_TRUE(g.is_plain()) << got->ToString();
      ASSERT_EQ(g.plain().is_null(), w.is_null()) << got->ToString();
      if (!w.is_null()) {
        EXPECT_NEAR(g.plain().AsDouble(), w.AsDouble(), 1e-3)
            << got->ToString();
      }
    }
    EXPECT_NEAR(got->row(0)[1].plain().AsDouble(), 120.0, 1e-3);
    EXPECT_NEAR(got->row(2)[1].plain().AsDouble(), 200.0, 1e-3);
  }
}

TEST_F(ExecutorTest, LazyHomFoldBitIdenticalToEagerCellPathAcrossThreads) {
  PlanBuilder b = ex_->builder();
  crypto_.scheme_of[b.A("P")] = EncScheme::kPaillier;
  // Encrypt P once, then aggregate the same ciphertexts through both fold
  // paths: the contiguous kEnc representation (lazy staged fold) and the
  // kCell fallback (eager per-row fold), in memory and spilled. Every
  // variant, at every thread count, must serialize to exactly the same
  // bytes.
  PlanPtr enc = Finish(Encrypt(b.Rel("Ins"), b.Set("P")));
  Result<Table> enc_t = ExecutePlan(enc.get(), &ctx_);
  ASSERT_TRUE(enc_t.ok()) << enc_t.status().ToString();
  Table lazy_t = *enc_t;
  int idx = lazy_t.ColIndex(b.A("P"));
  ASSERT_GE(idx, 0);
  ASSERT_EQ(lazy_t.col(static_cast<size_t>(idx)).rep(), ColumnRep::kEnc);
  Table eager_t = *enc_t;
  {
    ColumnData cells(ColumnRep::kCell);
    const ColumnData& src = eager_t.col(static_cast<size_t>(idx));
    cells.Reserve(src.size());
    for (size_t r = 0; r < src.size(); ++r) cells.Append(src.GetCell(r));
    ASSERT_EQ(cells.rep(), ColumnRep::kCell);
    eager_t.SetColumnData(static_cast<size_t>(idx), std::move(cells));
  }
  PlanPtr gb = Finish(GroupBy(b.Rel("Ins"), b.Set("C"),
                              {Aggregate::Make(AggFunc::kSum, b.A("P")),
                               Aggregate::Make(AggFunc::kAvg, b.A("P"))}));
  ctx_.batch_size = 2;  // several batches even over the 4-row table
  ThreadPool pool2(2), pool8(8);
  std::vector<std::string> wires;
  for (uint64_t budget : {uint64_t{0}, uint64_t{1}}) {
    for (const Table* base : {&lazy_t, &eager_t}) {
      for (ThreadPool* pool :
           {static_cast<ThreadPool*>(nullptr), &pool2, &pool8}) {
        ctx_.base_tables[ex_->ins] = base;
        ctx_.pool = pool;
        ctx_.memory_budget = budget;
        uint64_t spilled = ctx_.spill_partitions.load();
        Result<Table> t = ExecutePlan(gb.get(), &ctx_);
        ASSERT_TRUE(t.ok()) << t.status().ToString();
        ASSERT_EQ(t->num_rows(), 4u);
        EXPECT_EQ(ctx_.spill_partitions.load() > spilled, budget != 0);
        wires.push_back(Fingerprint(*t));
      }
    }
  }
  ASSERT_EQ(wires.size(), 12u);
  for (size_t i = 1; i < wires.size(); ++i) {
    EXPECT_EQ(wires[i], wires[0]) << "variant " << i;
  }
}

TEST_F(ExecutorTest, MinMaxOverOpe) {
  PlanBuilder b = ex_->builder();
  crypto_.scheme_of[b.A("B")] = EncScheme::kOpe;
  PlanPtr p = Finish(Decrypt(
      GroupBy(Encrypt(b.Rel("Hosp"), b.Set("B")), {},
              {Aggregate::Make(AggFunc::kMax, b.A("B"))}),
      b.Set("B")));
  Result<Table> t = ExecutePlan(p.get(), &ctx_);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->num_rows(), 1u);
  EXPECT_EQ(t->row(0)[0].plain(), Value(int64_t{1990}));
}

TEST_F(ExecutorTest, SumOverDetFails) {
  PlanBuilder b = ex_->builder();
  crypto_.scheme_of[b.A("P")] = EncScheme::kDeterministic;
  PlanPtr p = Finish(GroupBy(Encrypt(b.Rel("Ins"), b.Set("P")), {},
                             {Aggregate::Make(AggFunc::kSum, b.A("P"))}));
  Result<Table> t = ExecutePlan(p.get(), &ctx_);
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kUnsupported);
}

TEST_F(ExecutorTest, SpillErrorLeavesNoSpillFiles) {
  PlanBuilder b = ex_->builder();
  crypto_.scheme_of[b.A("P")] = EncScheme::kDeterministic;
  PlanPtr p = Finish(GroupBy(Encrypt(b.Rel("Ins"), b.Set("P")), b.Set("C"),
                             {Aggregate::Make(AggFunc::kSum, b.A("P"))}));
  std::string name = "mpq_spill_error_test_" + std::to_string(getpid());
  std::filesystem::path dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directory(dir));
  ctx_.memory_budget = 1;
  ctx_.spill_dir = dir.string();
  Result<Table> t = ExecutePlan(p.get(), &ctx_);
  // The first non-empty partition fails its sum; the partitions written
  // but never read must not stay behind.
  EXPECT_EQ(t.status().code(), StatusCode::kUnsupported);
  EXPECT_GT(ctx_.spill_partitions.load(), 0u);
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

TEST_F(ExecutorTest, EncryptWithoutKeyFails) {
  PlanBuilder b = ex_->builder();
  crypto_.key_of[b.A("S")] = 42;  // a key nobody holds
  PlanPtr p = Finish(Encrypt(b.Rel("Hosp"), b.Set("S")));
  Result<Table> t = ExecutePlan(p.get(), &ctx_);
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kNotFound);
}

TEST_F(ExecutorTest, UdfDefaultPlaintext) {
  PlanBuilder b = ex_->builder();
  PlanPtr p = Finish(Udf(b.Rel("Hosp"), "score", b.Set("S,B"), b.A("S")));
  Result<Table> t = ExecutePlan(p.get(), &ctx_);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->num_rows(), 4u);
  EXPECT_EQ(t->num_columns(), 3u);  // B consumed
}

TEST_F(ExecutorTest, RegisteredUdfIsUsed) {
  PlanBuilder b = ex_->builder();
  ctx_.udfs["double_it"] = [](const std::vector<Cell>& in) -> Result<Cell> {
    return Cell(Value(in[0].plain().AsInt() * 2));
  };
  PlanPtr p = Finish(Udf(b.Rel("Hosp"), "double_it", b.Set("S"), b.A("S")));
  Result<Table> t = ExecutePlan(p.get(), &ctx_);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->row(0)[t->ColIndex(b.A("S"))].plain(), Value(int64_t{200}));
}

TEST_F(ExecutorTest, MissingBaseTableFails) {
  Catalog& cat = ex_->catalog;
  ctx_.base_tables.erase(ex_->ins);
  PlanPtr p = Finish(Base(ex_->ins));
  (void)cat;
  Result<Table> t = ExecutePlan(p.get(), &ctx_);
  EXPECT_EQ(t.status().code(), StatusCode::kNotFound);
}

TEST_F(ExecutorTest, TableToStringTruncates) {
  std::string s = hosp_.ToString(2);
  EXPECT_NE(s.find("more rows"), std::string::npos);
  EXPECT_NE(s.find("S | B | D | T"), std::string::npos);
}

TEST_F(ExecutorTest, BatchIndexingInvariants) {
  // A zero-row table has zero batches; Batch never fabricates a range with
  // begin > end (the old silent clamp is now an asserted invariant, and the
  // release-mode degradation is an empty batch).
  Table empty(hosp_.columns());
  EXPECT_EQ(empty.num_rows(), 0u);
  EXPECT_EQ(empty.NumBatches(), 0u);
  EXPECT_EQ(empty.NumBatches(0), 0u);
  RowBatch b = empty.Batch(0);
  EXPECT_EQ(b.begin, 0u);
  EXPECT_EQ(b.end, 0u);
  EXPECT_TRUE(b.empty());

  // batch_size == 0 is normalized to 1 everywhere.
  EXPECT_EQ(hosp_.NumBatches(0), hosp_.num_rows());
  RowBatch last = hosp_.Batch(hosp_.num_rows() - 1, 0);
  EXPECT_EQ(last.size(), 1u);
  EXPECT_EQ(last.end, hosp_.num_rows());
}

TEST_F(ExecutorTest, ZeroRowTablesFlowThroughEveryOperator) {
  // Every operator over an empty operand produces a well-formed empty
  // result, at the default batch size and at batch_size == 0.
  Table empty_hosp(hosp_.columns());
  Table empty_ins(ins_.columns());
  ctx_.base_tables[ex_->hosp] = &empty_hosp;
  ctx_.base_tables[ex_->ins] = &empty_ins;
  PlanBuilder b = ex_->builder();
  for (size_t batch_size : {Table::kDefaultBatchSize, size_t{0}}) {
    ctx_.batch_size = batch_size;
    PlanPtr sel = Finish(Select(
        b.Rel("Hosp"), {b.Pv("D", CmpOp::kEq, Value(std::string("stroke")))}));
    Result<Table> t = ExecutePlan(sel.get(), &ctx_);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    EXPECT_EQ(t->num_rows(), 0u);
    EXPECT_EQ(t->num_columns(), 4u);

    PlanPtr join = Finish(Join(b.Rel("Hosp"), b.Rel("Ins"),
                               {b.Pa("S", CmpOp::kEq, "C")}));
    t = ExecutePlan(join.get(), &ctx_);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    EXPECT_EQ(t->num_rows(), 0u);
    EXPECT_EQ(t->num_columns(), 6u);

    PlanPtr gb = Finish(GroupBy(b.Rel("Hosp"), b.Set("D"),
                                {Aggregate::Make(AggFunc::kMin, b.A("B"))}));
    t = ExecutePlan(gb.get(), &ctx_);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    EXPECT_EQ(t->num_rows(), 0u);

    PlanPtr enc = Finish(Encrypt(b.Rel("Hosp"), b.Set("B")));
    t = ExecutePlan(enc.get(), &ctx_);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    EXPECT_EQ(t->num_rows(), 0u);
    EXPECT_TRUE(t->columns()[1].encrypted);
  }
}

TEST_F(ExecutorTest, BatchSizeZeroMatchesDefaultOnRealData) {
  // batch_size == 0 (normalized to 1-row batches) must produce the same
  // result as the default batch size on a non-trivial plan.
  PlanBuilder b = ex_->builder();
  auto run = [&](size_t batch_size) {
    ctx_.batch_size = batch_size;
    PlanPtr p = Finish(GroupBy(
        Join(b.Rel("Hosp"), b.Rel("Ins"), {b.Pa("S", CmpOp::kEq, "C")}),
        b.Set("D"), {Aggregate::Make(AggFunc::kSum, b.A("P"))}));
    Result<Table> t = ExecutePlan(p.get(), &ctx_);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    return t->ToString();
  };
  EXPECT_EQ(run(Table::kDefaultBatchSize), run(0));
}

}  // namespace
}  // namespace mpq
