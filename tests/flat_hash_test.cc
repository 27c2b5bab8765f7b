// Tests for the flat-hash engine core (common/flat_hash.h) and its
// join/group-by integration: collision storms, mid-stream resizes,
// tombstone-free backward-shift deletion, and bit-identical engine output
// through the typed and byte key paths at 1/2/8 threads against the
// row-major oracle.

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/plan_builder.h"
#include "common/flat_hash.h"
#include "common/thread_pool.h"
#include "exec/executor.h"
#include "testing/reference_exec.h"
#include "table_fingerprint.h"

namespace mpq {
namespace {

// ------------------------------------------------------------- the index ---

/// A tiny reference map over (key -> id) driving FlatHashIndex through the
/// caller-owned-arrays protocol the engine uses.
struct KeyedIndex {
  FlatHashIndex index;
  std::vector<uint64_t> keys;
  /// Hash with deliberately few distinct values when `mod` is small, to
  /// force probe chains.
  uint64_t mod;

  explicit KeyedIndex(uint64_t hash_mod = 0) : mod(hash_mod) {}

  uint64_t HashOf(uint64_t key) const {
    return mod == 0 ? HashMix64(key) : key % mod;
  }
  uint32_t Insert(uint64_t key) {
    return index.FindOrInsert(
        HashOf(key), [&](uint32_t id) { return keys[id] == key; },
        [&] {
          keys.push_back(key);
          return static_cast<uint32_t>(keys.size() - 1);
        });
  }
  uint32_t Find(uint64_t key) const {
    return index.Find(HashOf(key),
                      [&](uint32_t id) { return keys[id] == key; });
  }
  bool Erase(uint64_t key) {
    uint32_t id = Find(key);
    if (id == FlatHashIndex::kNotFound) return false;
    return index.Erase(HashOf(key),
                       [&](uint32_t cand) { return cand == id; });
  }
};

TEST(FlatHashIndexTest, InsertAssignsDenseIdsInInsertionOrder) {
  KeyedIndex m;
  EXPECT_EQ(m.Insert(100), 0u);
  EXPECT_EQ(m.Insert(200), 1u);
  EXPECT_EQ(m.Insert(100), 0u);  // existing key keeps its id
  EXPECT_EQ(m.Insert(300), 2u);
  EXPECT_EQ(m.index.size(), 3u);
  EXPECT_EQ(m.Find(200), 1u);
  EXPECT_EQ(m.Find(999), FlatHashIndex::kNotFound);
}

TEST(FlatHashIndexTest, ResizeMidStreamKeepsEveryEntry) {
  KeyedIndex m;
  constexpr uint64_t kN = 10000;  // forces ~10 doublings from 16 slots
  for (uint64_t k = 0; k < kN; ++k) {
    ASSERT_EQ(m.Insert(k * 7919 + 1), static_cast<uint32_t>(k));
    // Spot-check an early key across every growth step.
    ASSERT_EQ(m.Find(1), 0u) << "after " << k << " inserts";
  }
  EXPECT_EQ(m.index.size(), kN);
  for (uint64_t k = 0; k < kN; ++k) {
    ASSERT_EQ(m.Find(k * 7919 + 1), static_cast<uint32_t>(k));
  }
}

TEST(FlatHashIndexTest, CollisionStormProbesThroughOneChain) {
  // Every key hashes to the same value: the table degenerates to one long
  // linear-probe chain and must still resolve every key by equality.
  KeyedIndex m(/*hash_mod=*/1);
  constexpr uint64_t kN = 1000;
  for (uint64_t k = 0; k < kN; ++k) {
    ASSERT_EQ(m.Insert(k), static_cast<uint32_t>(k));
  }
  for (uint64_t k = 0; k < kN; ++k) {
    ASSERT_EQ(m.Find(k), static_cast<uint32_t>(k));
  }
  EXPECT_EQ(m.Find(kN + 1), FlatHashIndex::kNotFound);
}

TEST(FlatHashIndexTest, BackwardShiftEraseLeavesNoTombstones) {
  // A colliding cluster: erasing the chain head must shift the rest back
  // so later probes still find them (a tombstone scheme would also pass
  // this, so additionally check that erased slots are truly reusable by
  // re-inserting forever without growth).
  KeyedIndex m(/*hash_mod=*/4);
  for (uint64_t k = 0; k < 8; ++k) m.Insert(k);
  EXPECT_TRUE(m.Erase(0));   // head of the densest chain
  EXPECT_FALSE(m.Erase(0));  // already gone
  EXPECT_EQ(m.Find(0), FlatHashIndex::kNotFound);
  for (uint64_t k = 1; k < 8; ++k) {
    ASSERT_EQ(m.Find(k), static_cast<uint32_t>(k)) << "lost key " << k;
  }
  EXPECT_EQ(m.index.size(), 7u);

  // Erase/insert churn at a fixed population (a rolling window of 8 live
  // keys, all colliding): with tombstones the table would fill with dead
  // slots and be forced to grow or degrade; backward shifting keeps the
  // capacity constant and every live key reachable forever.
  KeyedIndex churn(/*hash_mod=*/4);
  std::vector<uint64_t> live;
  for (uint64_t k = 0; k < 8; ++k) {
    churn.Insert(k);
    live.push_back(k);
  }
  size_t churn_cap = churn.index.capacity();
  for (uint64_t round = 8; round < 10008; ++round) {
    ASSERT_TRUE(churn.Erase(live.front()));
    live.erase(live.begin());
    churn.Insert(round);
    live.push_back(round);
    ASSERT_EQ(churn.index.size(), 8u);
  }
  for (uint64_t k : live) {
    ASSERT_NE(churn.Find(k), FlatHashIndex::kNotFound);
  }
  EXPECT_EQ(churn.index.capacity(), churn_cap);
}

TEST(FlatHashIndexTest, EraseMiddleOfWrappedChainIsFound) {
  // Chain that wraps around the table end: all keys collide, erase from
  // the middle, every survivor must remain reachable.
  KeyedIndex m(/*hash_mod=*/1);
  for (uint64_t k = 0; k < 12; ++k) m.Insert(k);
  EXPECT_TRUE(m.Erase(5));
  EXPECT_TRUE(m.Erase(9));
  for (uint64_t k = 0; k < 12; ++k) {
    if (k == 5 || k == 9) {
      EXPECT_EQ(m.Find(k), FlatHashIndex::kNotFound);
    } else {
      ASSERT_EQ(m.Find(k), static_cast<uint32_t>(k));
    }
  }
  EXPECT_EQ(m.index.size(), 10u);
}

TEST(ByteArenaTest, SpansStayAddressableAcrossGrowth) {
  ByteArena arena;
  std::vector<std::pair<size_t, std::string>> entries;
  for (int i = 0; i < 1000; ++i) {
    std::string s = "key-" + std::to_string(i * 37);
    entries.emplace_back(arena.Append(s.data(), s.size()), s);
  }
  for (const auto& [off, s] : entries) {
    EXPECT_EQ(arena.View(off, s.size()), s);
  }
}

// ----------------------------------------------- engine-level determinism ---

/// A two-table scenario with every typed key flavour (int64, double,
/// string incl. duplicates and NULLs) plus a heterogeneous kCell column to
/// force the byte fallback.
class HashPathEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    left_rel_ = *catalog_.AddRelation(
        "L",
        {{"lk", DataType::kInt64},
         {"lname", DataType::kString},
         {"lx", DataType::kDouble}},
        /*owner=*/0, /*base_rows=*/64);
    right_rel_ = *catalog_.AddRelation(
        "R",
        {{"rk", DataType::kInt64},
         {"rname", DataType::kString},
         {"rv", DataType::kDouble}},
        /*owner=*/0, /*base_rows=*/256);
    left_ = MakeBaseTable(catalog_.Get(left_rel_));
    right_ = MakeBaseTable(catalog_.Get(right_rel_));
    for (int i = 0; i < 64; ++i) {
      std::vector<Cell> row;
      row.push_back(i % 7 == 3 ? Cell(Value::Null())
                               : Cell(Value(int64_t{i % 16})));
      row.push_back(Cell(Value("n" + std::to_string(i % 5))));
      row.push_back(Cell(Value(static_cast<double>(i % 4) * 0.5)));
      left_.AddRow(std::move(row));
    }
    for (int j = 0; j < 256; ++j) {
      std::vector<Cell> row;
      row.push_back(j % 11 == 5 ? Cell(Value::Null())
                                : Cell(Value(int64_t{j % 24})));
      row.push_back(Cell(Value("n" + std::to_string(j % 7))));
      row.push_back(Cell(Value(static_cast<double>(j % 9) * 0.25)));
      right_.AddRow(std::move(row));
    }
  }

  Result<Table> RunEngine(const PlanNode* plan, size_t threads) {
    ExecContext ctx;
    ctx.catalog = &catalog_;
    ctx.base_tables[left_rel_] = &left_;
    ctx.base_tables[right_rel_] = &right_;
    ctx.batch_size = 16;  // several batches even on these small tables
    ThreadPool pool(threads);
    ctx.pool = threads > 0 ? &pool : nullptr;
    return ExecutePlan(plan, &ctx);
  }

  /// Engine output must be bit-identical (serialized bytes, i.e. including
  /// row order) at 1, 2, and 8 threads, and canonically equal to the
  /// independent row-major oracle.
  void ExpectDeterministicAndOracleEqual(const PlanPtr& plan) {
    Result<Table> t1 = RunEngine(plan.get(), 0);
    ASSERT_TRUE(t1.ok()) << t1.status().ToString();
    std::string wire1 = Fingerprint(*t1);
    for (size_t threads : {2u, 8u}) {
      Result<Table> tn = RunEngine(plan.get(), threads);
      ASSERT_TRUE(tn.ok()) << tn.status().ToString();
      EXPECT_EQ(Fingerprint(*tn), wire1)
          << "row order changed at " << threads << " threads";
    }
    ReferenceExecutor oracle(&catalog_);
    oracle.LoadTable(left_rel_, &left_);
    oracle.LoadTable(right_rel_, &right_);
    Result<Table> ref = oracle.Run(plan.get());
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    EXPECT_EQ(CanonicalRows(*ref), CanonicalRows(*t1));
  }

  Catalog catalog_;
  RelId left_rel_ = kInvalidRel, right_rel_ = kInvalidRel;
  Table left_, right_;
};

TEST_F(HashPathEngineTest, TypedInt64JoinMatchesOracleAtAnyThreadCount) {
  PlanBuilder b(&catalog_);
  PlanPtr p = Join(b.Rel("L"), b.Rel("R"), {b.Pa("lk", CmpOp::kEq, "rk")});
  Result<PlanPtr> fp = FinishPlan(std::move(p), catalog_);
  ASSERT_TRUE(fp.ok()) << fp.status().ToString();
  ExpectDeterministicAndOracleEqual(*fp);
}

TEST_F(HashPathEngineTest, NegativeKeysJoinWithoutNullWord) {
  // Regression: with no NULLs and no dictionary columns the key words have
  // no null/miss word, and a negative int64 key sets bit 63 of the last
  // word — which must not be mistaken for a probe miss.
  Catalog cat;
  RelId lrel = *cat.AddRelation("NL", {{"k", DataType::kInt64}}, 0, 4);
  RelId rrel = *cat.AddRelation("NR", {{"j", DataType::kInt64}}, 0, 4);
  Table lt = MakeBaseTable(cat.Get(lrel));
  Table rt = MakeBaseTable(cat.Get(rrel));
  for (int64_t v : {-5, -1, 2, 7}) {
    lt.AddRow({Cell(Value(v))});
    rt.AddRow({Cell(Value(v))});
  }
  PlanBuilder b(&cat);
  PlanPtr p = Join(b.Rel("NL"), b.Rel("NR"), {b.Pa("k", CmpOp::kEq, "j")});
  Result<PlanPtr> fp = FinishPlan(std::move(p), cat);
  ASSERT_TRUE(fp.ok()) << fp.status().ToString();
  ExecContext ctx;
  ctx.catalog = &cat;
  ctx.base_tables[lrel] = &lt;
  ctx.base_tables[rrel] = &rt;
  Result<Table> out = ExecutePlan(fp->get(), &ctx);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->num_rows(), 4u);  // every key matches itself exactly once
}

TEST_F(HashPathEngineTest, DictStringJoinMatchesOracleAtAnyThreadCount) {
  PlanBuilder b(&catalog_);
  PlanPtr p =
      Join(b.Rel("L"), b.Rel("R"), {b.Pa("lname", CmpOp::kEq, "rname")});
  Result<PlanPtr> fp = FinishPlan(std::move(p), catalog_);
  ASSERT_TRUE(fp.ok()) << fp.status().ToString();
  ExpectDeterministicAndOracleEqual(*fp);
}

TEST_F(HashPathEngineTest, MultiColumnJoinWithNullKeysMatchesOracle) {
  // NULL join keys match NULL on the other side (the 'N' byte-key rule);
  // the typed path must reproduce that through its null-bit word.
  PlanBuilder b(&catalog_);
  PlanPtr p = Join(b.Rel("L"), b.Rel("R"),
                   {b.Pa("lk", CmpOp::kEq, "rk"),
                    b.Pa("lname", CmpOp::kEq, "rname")});
  Result<PlanPtr> fp = FinishPlan(std::move(p), catalog_);
  ASSERT_TRUE(fp.ok()) << fp.status().ToString();
  ExpectDeterministicAndOracleEqual(*fp);
}

TEST_F(HashPathEngineTest, SeparatorLadenStringKeysCannotAlias) {
  // Multi-column string keys whose content embeds the old 0x1f separator
  // byte and tag letters: the concatenated ("x\x1fSy", "z") and
  // ("x", "y\x1fSz") tuples used to alias under separator-joined byte
  // keys. The length-suffixed encoding (and the typed word tuples) treat
  // them as the distinct tuples they are — identically in join, group-by,
  // and the row oracle.
  Catalog cat;
  RelId lrel = *cat.AddRelation(
      "AL", {{"a1", DataType::kString}, {"a2", DataType::kString}}, 0, 2);
  RelId rrel = *cat.AddRelation(
      "AR", {{"b1", DataType::kString}, {"b2", DataType::kString}}, 0, 2);
  Table lt = MakeBaseTable(cat.Get(lrel));
  Table rt = MakeBaseTable(cat.Get(rrel));
  lt.AddRow({Cell(Value(std::string("x\x1fSy"))),
             Cell(Value(std::string("z")))});
  lt.AddRow({Cell(Value(std::string("p"))), Cell(Value(std::string("q")))});
  rt.AddRow({Cell(Value(std::string("x"))),
             Cell(Value(std::string("y\x1fSz")))});
  rt.AddRow({Cell(Value(std::string("p"))), Cell(Value(std::string("q")))});
  PlanBuilder b(&cat);
  PlanPtr p = Join(b.Rel("AL"), b.Rel("AR"),
                   {b.Pa("a1", CmpOp::kEq, "b1"),
                    b.Pa("a2", CmpOp::kEq, "b2")});
  Result<PlanPtr> fp = FinishPlan(std::move(p), cat);
  ASSERT_TRUE(fp.ok()) << fp.status().ToString();
  ExecContext ctx;
  ctx.catalog = &cat;
  ctx.base_tables[lrel] = &lt;
  ctx.base_tables[rrel] = &rt;
  Result<Table> out = ExecutePlan(fp->get(), &ctx);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->num_rows(), 1u);  // only ("p","q") matches

  ReferenceExecutor oracle(&cat);
  oracle.LoadTable(lrel, &lt);
  oracle.LoadTable(rrel, &rt);
  Result<Table> ref = oracle.Run(fp->get());
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  EXPECT_EQ(CanonicalRows(*ref), CanonicalRows(*out));

  // And the byte path (forced via a heterogeneous column) agrees.
  lt.col_mut(0).DemoteToCells();
  Result<Table> bytes = ExecutePlan(fp->get(), &ctx);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_EQ(CanonicalRows(*bytes), CanonicalRows(*out));
}

TEST_F(HashPathEngineTest, GroupByEveryKeyFlavourMatchesOracle) {
  for (const char* key_cols : {"lk", "lname", "lx", "lk,lname,lx"}) {
    PlanBuilder b(&catalog_);
    PlanPtr p = GroupBy(b.Rel("L"), b.Set(key_cols),
                        {Aggregate::Make(AggFunc::kSum, b.A("lx")),
                         Aggregate::Make(AggFunc::kMin, b.A("lname")),
                         Aggregate::Make(AggFunc::kCount, b.A("lk"))});
    Result<PlanPtr> fp = FinishPlan(std::move(p), catalog_);
    ASSERT_TRUE(fp.ok()) << fp.status().ToString();
    SCOPED_TRACE(key_cols);
    ExpectDeterministicAndOracleEqual(*fp);
  }
}

TEST_F(HashPathEngineTest, GlobalAggregateOverEmptyAndNonEmptyInput) {
  PlanBuilder b(&catalog_);
  PlanPtr p = GroupBy(b.Rel("L"), AttrSet(),
                      {Aggregate::Make(AggFunc::kSum, b.A("lx")),
                       Aggregate::Make(AggFunc::kMax, b.A("lk"))});
  Result<PlanPtr> fp = FinishPlan(std::move(p), catalog_);
  ASSERT_TRUE(fp.ok()) << fp.status().ToString();
  ExpectDeterministicAndOracleEqual(*fp);

  // Empty input: select everything away first.
  PlanBuilder b2(&catalog_);
  PlanPtr p2 = Select(b2.Rel("L"),
                      {b2.Pv("lx", CmpOp::kLt, Value(-1.0))});
  p2 = GroupBy(std::move(p2), AttrSet(),
               {Aggregate::Make(AggFunc::kSum, b2.A("lx"))});
  Result<PlanPtr> fp2 = FinishPlan(std::move(p2), catalog_);
  ASSERT_TRUE(fp2.ok()) << fp2.status().ToString();
  Result<Table> empty = RunEngine(fp2->get(), 0);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->num_rows(), 0u);
}

TEST_F(HashPathEngineTest, ByteFallbackViaHeterogeneousColumnMatchesTyped) {
  // Demote L.lk to the kCell rep (mixed content would do the same); the
  // group-by must take the byte path and still produce the same result the
  // typed path produced from the typed layout.
  PlanBuilder b(&catalog_);
  PlanPtr p = GroupBy(b.Rel("L"), b.Set("lk"),
                      {Aggregate::Make(AggFunc::kSum, b.A("lx"))});
  Result<PlanPtr> fp = FinishPlan(std::move(p), catalog_);
  ASSERT_TRUE(fp.ok()) << fp.status().ToString();
  Result<Table> typed = RunEngine(fp->get(), 0);
  ASSERT_TRUE(typed.ok());

  left_.col_mut(0).DemoteToCells();
  ASSERT_EQ(left_.col(0).rep(), ColumnRep::kCell);
  Result<Table> bytes = RunEngine(fp->get(), 0);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(CanonicalRows(*typed), CanonicalRows(*bytes));
  ExpectDeterministicAndOracleEqual(*fp);
}

}  // namespace
}  // namespace mpq
