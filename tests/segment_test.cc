// Tests for compressed column segments (storage/segment.h) and the
// out-of-core execution paths built on them: encode/decode round-trip
// property tests over random tables (compared cell by cell, not by
// re-encoding), corruption rejection, a mutation fuzz that re-stamps the
// checksum so every page and footer parser is reached, zone-map pruning
// correctness (a skipped segment provably holds no qualifying row), and
// spill-to-disk join/group-by differentials — bit-identical to the
// in-memory engine and the row-path oracle at 1/2/8 threads.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "crypto/keyring.h"
#include "exec/executor.h"
#include "paper_example.h"
#include "storage/segment.h"
#include "testing/random_plan.h"
#include "testing/reference_exec.h"
#include "table_fingerprint.h"

namespace mpq {
namespace {

using testing::MakePaperExample;
using testing::PaperExample;

Cell I(int64_t v) { return Cell(Value(v)); }
Cell D(double v) { return Cell(Value(v)); }
Cell S(std::string v) { return Cell(Value(std::move(v))); }

// ------------------------------------------------------- random tables ---

/// A random table drawing every column from a different encoding regime:
/// RLE-friendly and wide int64, doubles (with signed zeros and NaN),
/// dictionary-friendly and all-distinct strings, ciphertexts under every
/// scheme, and heterogeneous cell columns — each with a random null rate.
Table RandomTable(uint64_t seed) {
  Rng rng(seed * 2654435761u + 17);
  const size_t num_cols = 1 + rng.Uniform(5);
  const size_t rows = rng.Uniform(401);
  KeyMaterial km = MakeKeyMaterial(7, 3);

  std::vector<ExecColumn> cols(num_cols);
  std::vector<int> kind(num_cols);
  std::vector<double> null_p(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    kind[c] = static_cast<int>(rng.Uniform(8));
    null_p[c] = std::vector<double>{0.0, 0.1, 0.9}[rng.Uniform(3)];
    cols[c].attr = static_cast<AttrId>(c + 1);
    cols[c].name = "c" + std::to_string(c);
    switch (kind[c]) {
      case 0:  // constant-ish int64 (RLE)
      case 1:  // wide int64 (frame-of-reference)
        cols[c].type = DataType::kInt64;
        break;
      case 2:  // double
        cols[c].type = DataType::kDouble;
        break;
      case 3:  // repetitive string (dictionary)
      case 4:  // distinct string (plain)
        cols[c].type = DataType::kString;
        break;
      case 5:  // fixed-width ciphertexts (Paillier ones with sums' aux)
        cols[c].type = DataType::kInt64;
        cols[c].encrypted = true;
        cols[c].scheme = static_cast<EncScheme>(rng.Uniform(4));
        break;
      case 6:  // varying-width ciphertexts
        cols[c].type = DataType::kString;
        cols[c].encrypted = true;
        cols[c].scheme = rng.Chance(0.5) ? EncScheme::kRandom
                                         : EncScheme::kDeterministic;
        break;
      default:  // heterogeneous cells
        break;
    }
  }
  Table t(std::move(cols));
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Cell> row;
    row.reserve(num_cols);
    for (size_t c = 0; c < num_cols; ++c) {
      if (rng.Chance(null_p[c])) {
        row.push_back(Cell(Value::Null()));
        continue;
      }
      switch (kind[c]) {
        case 0:
          row.push_back(I(static_cast<int64_t>(rng.Uniform(3))));
          break;
        case 1:
          row.push_back(I(static_cast<int64_t>(rng.Uniform(1u << 20)) -
                          500000 + 1000000000ll));
          break;
        case 2: {
          uint64_t pick = rng.Uniform(20);
          double v = pick == 0   ? 0.0
                     : pick == 1 ? -0.0
                     : pick == 2 ? std::nan("")
                                 : rng.NextDouble() * 2000 - 1000;
          row.push_back(D(v));
          break;
        }
        case 3:
          row.push_back(S("mode-" + std::to_string(rng.Uniform(4))));
          break;
        case 4:
          row.push_back(S("u" + std::to_string(r) + "-" +
                          std::to_string(rng.Next() % 100000)));
          break;
        case 5: {
          const ExecColumn& m = t.columns()[c];
          EncValue ev = *EncryptValue(
              Value(static_cast<int64_t>(rng.Uniform(100))), m.scheme, 3, km,
              r + 1);
          if (m.scheme == EncScheme::kPaillier && rng.Chance(0.3)) {
            ev.aux = static_cast<int64_t>(1 + rng.Uniform(9));
          }
          row.push_back(Cell(std::move(ev)));
          break;
        }
        case 6: {
          const ExecColumn& m = t.columns()[c];
          row.push_back(Cell(*EncryptValue(
              Value(std::string(rng.Uniform(20), 'v')), m.scheme, 3, km,
              r + 1)));
          break;
        }
        default: {
          uint64_t pick = rng.Uniform(3);
          if (pick == 0) {
            row.push_back(I(static_cast<int64_t>(rng.Uniform(50))));
          } else if (pick == 1) {
            row.push_back(S("m" + std::to_string(rng.Uniform(6))));
          } else {
            row.push_back(D(rng.NextDouble()));
          }
          break;
        }
      }
    }
    t.AddRow(std::move(row));
  }
  return t;
}

/// Asserts `got` equals `want` directly — column metadata, reps, null
/// masks, ciphertext column keys, and every cell bit for bit (doubles by
/// their bytes, so NaN and -0.0 count) — without going through the codec
/// under test.
void ExpectSameTable(const Table& got, const Table& want,
                     const std::string& where) {
  ASSERT_EQ(got.num_rows(), want.num_rows()) << where;
  ASSERT_EQ(got.num_columns(), want.num_columns()) << where;
  for (size_t c = 0; c < want.num_columns(); ++c) {
    const ExecColumn& gm = got.columns()[c];
    const ExecColumn& wm = want.columns()[c];
    ASSERT_TRUE(gm.attr == wm.attr && gm.name == wm.name &&
                gm.type == wm.type && gm.encrypted == wm.encrypted &&
                gm.scheme == wm.scheme && gm.key_id == wm.key_id &&
                gm.hom_avg == wm.hom_avg)
        << where << " col " << c << ": metadata differs";
    const ColumnData& g = got.col(c);
    const ColumnData& w = want.col(c);
    ASSERT_EQ(g.rep(), w.rep()) << where << " col " << c;
    ASSERT_EQ(g.has_nulls(), w.has_nulls()) << where << " col " << c;
    for (size_t r = 0; r < want.num_rows(); ++r) {
      ASSERT_EQ(g.IsNull(r), w.IsNull(r)) << where << " col " << c << " row "
                                          << r;
      Cell gc = g.GetCell(r);
      Cell wc = w.GetCell(r);
      ASSERT_EQ(gc.is_encrypted(), wc.is_encrypted())
          << where << " col " << c << " row " << r;
      if (wc.is_encrypted()) {
        ASSERT_EQ(gc.enc(), wc.enc()) << where << " col " << c << " row " << r;
      } else {
        ASSERT_EQ(gc.plain().Serialize(), wc.plain().Serialize())
            << where << " col " << c << " row " << r;
      }
    }
  }
}

// ---------------------------------------------------------- round-trip ---

TEST(SegmentTest, RandomTablesRoundTripBitIdentically) {
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    Table t = RandomTable(seed);
    Result<std::string> enc = EncodeSegment(t);
    ASSERT_TRUE(enc.ok()) << "seed " << seed << ": " << enc.status().ToString();
    // Deterministic: same table, same bytes.
    ASSERT_EQ(*enc, *EncodeSegment(t)) << "seed " << seed;

    Result<SegmentReader> r = SegmentReader::Open(*enc);
    ASSERT_TRUE(r.ok()) << "seed " << seed << ": " << r.status().ToString();
    EXPECT_EQ(r->num_rows(), t.num_rows()) << "seed " << seed;
    EXPECT_EQ(r->num_columns(), t.num_columns()) << "seed " << seed;

    Result<Table> back = r->Decode();
    ASSERT_TRUE(back.ok()) << "seed " << seed << ": "
                           << back.status().ToString();
    // Bit-identical, checked directly: metadata, reps, null masks and
    // cells must match exactly — NaN and -0.0 included.
    ExpectSameTable(*back, t, "seed " + std::to_string(seed));
  }
}

TEST(SegmentTest, ZoneMapsMatchColumnContents) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Table t = RandomTable(seed);
    Result<SegmentReader> r = SegmentReader::Open(*EncodeSegment(t));
    ASSERT_TRUE(r.ok()) << "seed " << seed;
    for (size_t c = 0; c < t.num_columns(); ++c) {
      const SegmentZone& z = r->zone(c);
      EXPECT_EQ(z.num_rows, t.num_rows());
      // A row is null when the mask says so or (kCell rep) the cell holds
      // a plain NULL value.
      auto row_is_null = [&](size_t row) {
        if (t.col(c).IsNull(row)) return true;
        Cell cell = t.col(c).GetCell(row);
        return cell.is_plain() && cell.plain().is_null();
      };
      uint64_t nulls = 0;
      for (size_t row = 0; row < t.num_rows(); ++row) {
        if (row_is_null(row)) nulls++;
      }
      EXPECT_EQ(z.null_count, nulls) << "seed " << seed << " col " << c;
      if (!z.has_range) continue;
      // Ranges only appear on unencrypted typed columns and must bound
      // every non-null value.
      EXPECT_FALSE(t.columns()[c].encrypted);
      for (size_t row = 0; row < t.num_rows(); ++row) {
        if (row_is_null(row)) continue;
        Value v = t.col(c).GetValue(row);
        EXPECT_TRUE(EvalCmp(CmpOp::kGe, v, z.min))
            << "seed " << seed << " col " << c << " row " << row;
        EXPECT_TRUE(EvalCmp(CmpOp::kLe, v, z.max))
            << "seed " << seed << " col " << c << " row " << row;
      }
    }
  }
}

TEST(SegmentTest, EmptyAndZeroColumnTablesSurvive) {
  std::vector<ExecColumn> cols(2);
  cols[0].attr = 1;
  cols[0].name = "k";
  cols[0].type = DataType::kInt64;
  cols[1].attr = 2;
  cols[1].name = "s";
  cols[1].type = DataType::kString;
  Table empty(cols);
  Result<SegmentReader> r = SegmentReader::Open(*EncodeSegment(empty));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 0u);
  ExpectSameTable(*r->Decode(), empty, "empty");

  Table colless;
  colless.AddRow({});
  colless.AddRow({});
  Result<SegmentReader> r2 = SegmentReader::Open(*EncodeSegment(colless));
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->num_rows(), 2u);
  ExpectSameTable(*r2->Decode(), colless, "colless");
}

TEST(SegmentTest, SegmentedTableSlicesAndConcatenatesLosslessly) {
  Table t = RandomTable(42);
  for (size_t rows_per : {size_t{0}, size_t{1}, size_t{7}, size_t{1000}}) {
    Result<SegmentedTable> st = SegmentedTable::FromTable(t, rows_per);
    ASSERT_TRUE(st.ok()) << "rows_per " << rows_per;
    EXPECT_EQ(st->total_rows(), t.num_rows());
    EXPECT_GE(st->num_segments(), 1u);
    if (rows_per == 1 && t.num_rows() > 1) {
      EXPECT_EQ(st->num_segments(), t.num_rows());
    }
    Result<Table> back = st->Decode();
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ExpectSameTable(*back, t, "rows_per " + std::to_string(rows_per));
    Result<const Table*> memo = st->Materialize();
    ASSERT_TRUE(memo.ok());
    EXPECT_EQ(*memo, *st->Materialize());  // shared decode
    EXPECT_GT(st->encoded_bytes(), 0u);
  }
}

// ---------------------------------------------------------- corruption ---

TEST(SegmentTest, MutatedFramesAreRejectedNeverCrash) {
  const std::string wire = *EncodeSegment(RandomTable(7));
  ASSERT_TRUE(SegmentReader::Open(wire).ok());
  uint64_t rng = 0xdecafbadf00d1234ull;
  auto next = [&rng] { return rng = SplitMix64(rng); };
  for (int iter = 0; iter < 10000; ++iter) {
    std::string mut = wire;
    switch (next() % 4) {
      case 0:
        mut.resize(next() % (wire.size() + 1));
        break;
      case 1: {
        size_t flips = 1 + next() % 8;
        for (size_t f = 0; f < flips && !mut.empty(); ++f) {
          mut[next() % mut.size()] ^= static_cast<char>(1u << (next() % 8));
        }
        break;
      }
      case 2: {
        size_t smashes = 1 + next() % 9;
        for (size_t s = 0; s < smashes && !mut.empty(); ++s) {
          mut[next() % mut.size()] = static_cast<char>(next() % 256);
        }
        break;
      }
      default:
        mut.resize(next() % (wire.size() + 1));
        for (size_t e = next() % 32; e > 0; --e) {
          mut.push_back(static_cast<char>(next() % 256));
        }
        break;
    }
    Result<SegmentReader> r = SegmentReader::Open(mut);
    if (!r.ok()) continue;
    // The trailing checksum makes accidental acceptance essentially
    // impossible for anything but an untouched frame; whatever is
    // accepted must still decode cleanly.
    Result<Table> back = r->Decode();
    ASSERT_TRUE(back.ok()) << "accepted frame failed to decode";
  }
}

/// A frame holding every rep and page kind the decoder knows, each column
/// with NULLs: int64 raw (full-range values), RLE (long runs) and FOR
/// (small range); doubles; dictionary and plain strings; RND/DET/OPE and
/// Paillier ciphertext columns with fixed widths, RND/DET ones over strings
/// with varying widths, Paillier sums whose aux counters differ; and a
/// kCell column mixing plaintext and ciphertext.
Table EveryPageKindTable() {
  constexpr int64_t kRows = 96;
  KeyMaterial km = MakeKeyMaterial(11, 2);
  ColumnData raw(ColumnRep::kInt64), rle(ColumnRep::kInt64),
      fr(ColumnRep::kInt64), dbl(ColumnRep::kDouble),
      dict(ColumnRep::kString), plain(ColumnRep::kString),
      mix(ColumnRep::kCell);
  std::vector<ColumnData> encs;
  // (scheme, varying width): integers encrypt to fixed widths, strings
  // of different lengths to varying ones.
  const std::vector<std::pair<EncScheme, bool>> enc_kinds = {
      {EncScheme::kRandom, false},
      {EncScheme::kDeterministic, false},
      {EncScheme::kOpe, false},
      {EncScheme::kPaillier, false},
      {EncScheme::kRandom, true},
      {EncScheme::kDeterministic, true},
  };
  for (size_t k = 0; k < enc_kinds.size(); ++k) {
    encs.emplace_back(ColumnRep::kEnc);
  }
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int64_t r = 0; r < kRows; ++r) {
    x = SplitMix64(x);
    auto null_or = [&](int64_t period, Cell c) {
      return r % period == period - 1 ? Cell(Value::Null()) : std::move(c);
    };
    raw.Append(null_or(9, I(static_cast<int64_t>(x))));
    rle.Append(null_or(13, I(r / 40 * 1000000007)));  // few long runs
    fr.Append(null_or(7, I(1000 + static_cast<int64_t>(x % 50))));
    dbl.Append(null_or(5, D(static_cast<double>(r) * 0.125 - 3)));
    dict.Append(null_or(11, S("mode-" + std::to_string(r % 3))));
    plain.Append(null_or(6, S("uniq-" + std::to_string(x % 100000))));
    for (size_t k = 0; k < enc_kinds.size(); ++k) {
      auto [scheme, wide] = enc_kinds[k];
      if (r % (5 + static_cast<int64_t>(k)) == 2) {
        encs[k].AppendNull();
        continue;
      }
      Value v = wide ? Value(std::string(static_cast<size_t>(r % 17), 'w'))
                     : Value(r % 23);
      EncValue ev =
          *EncryptValue(v, scheme, 2, km, 1 + static_cast<uint64_t>(r));
      if (scheme == EncScheme::kPaillier && r % 4 == 0) ev.aux = 2 + r % 5;
      encs[k].Append(Cell(std::move(ev)));
    }
    if (r % 3 == 0) {
      mix.Append(I(r));
    } else if (r % 3 == 1) {
      mix.Append(Cell(*EncryptValue(Value(r), EncScheme::kDeterministic, 2,
                                    km, 0)));
    } else {
      mix.Append(Cell(Value::Null()));
    }
  }
  Table t;
  auto add = [&](const std::string& name, DataType type, ColumnData d,
                 EncScheme scheme = EncScheme::kRandom, bool enc = false) {
    ExecColumn col;
    col.attr = static_cast<AttrId>(t.num_columns() + 1);
    col.name = name;
    col.type = type;
    col.encrypted = enc;
    col.scheme = scheme;
    col.key_id = enc ? 2 : 0;
    t.AddColumn(std::move(col), std::move(d));
  };
  add("raw", DataType::kInt64, std::move(raw));
  add("rle", DataType::kInt64, std::move(rle));
  add("for", DataType::kInt64, std::move(fr));
  add("dbl", DataType::kDouble, std::move(dbl));
  add("dict", DataType::kString, std::move(dict));
  add("plain", DataType::kString, std::move(plain));
  for (size_t k = 0; k < enc_kinds.size(); ++k) {
    auto [scheme, wide] = enc_kinds[k];
    add("enc" + std::to_string(k), wide ? DataType::kString : DataType::kInt64,
        std::move(encs[k]), scheme, true);
  }
  add("mix", DataType::kInt64, std::move(mix));
  return t;
}

/// Checks that a decoded table is self-consistent: every column covers
/// every row, every cell materializes, and the table is a fixed point of
/// the codec (re-encoding and decoding it changes nothing).
void ExpectSelfConsistent(const Table& t) {
  for (size_t c = 0; c < t.num_columns(); ++c) {
    ASSERT_EQ(t.col(c).size(), t.num_rows()) << "col " << c;
    for (size_t r = 0; r < t.num_rows(); ++r) (void)t.col(c).GetCell(r);
  }
  (void)t.ByteSize();
  Result<std::string> again = EncodeSegment(t);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  Result<SegmentReader> reopened = SegmentReader::Open(*again);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  Result<Table> back = reopened->Decode();
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectSameTable(*back, t, "re-encoded mutant");
}

TEST(SegmentTest, EveryPageKindRoundTrips) {
  Table t = EveryPageKindTable();
  for (size_t c = 0; c < t.num_columns(); ++c) {
    ASSERT_TRUE(t.col(c).has_nulls() || t.col(c).rep() == ColumnRep::kCell)
        << "col " << c << " lacks NULLs";
  }
  Result<SegmentReader> r = SegmentReader::Open(*EncodeSegment(t));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  Result<Table> back = r->Decode();
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectSameTable(*back, t, "every page kind");
}

// Mutation fuzz past the checksum: each mutant (bit flips, byte smashes,
// truncation, garbage extension) gets its trailing checksum re-stamped, so it
// reaches the footer and page parsers instead of dying at the checksum.
// Every mutant must come back ok or as a Status — never a crash, sanitizer
// report or hang — and every decoded one must be a self-consistent table.
TEST(SegmentTest, RestampedMutantsReachEveryParserAndNeverCrash) {
  const std::string wire = *EncodeSegment(EveryPageKindTable());
  ASSERT_TRUE(SegmentReader::Open(wire).ok());
  constexpr int kMutants = 20000;
  uint64_t rng = 0x0ddba11cafef00d5ull;
  auto next = [&rng] { return rng = SplitMix64(rng); };
  int opened = 0, decoded = 0;
  for (int iter = 0; iter < kMutants; ++iter) {
    std::string mut = wire;
    // In-place edits dominate: a truncated frame loses its footer and
    // rarely gets past Open, so it exercises little behind the checksum.
    uint64_t kind = next() % 8;
    if (kind == 0 || kind == 1) {
      mut.resize(next() % (wire.size() + 1));
      for (size_t e = kind == 1 ? next() % 32 : 0; e > 0; --e) {
        mut.push_back(static_cast<char>(next() % 256));
      }
    } else if (kind < 5) {
      size_t flips = 1 + next() % 8;
      for (size_t f = 0; f < flips; ++f) {
        mut[next() % mut.size()] ^= static_cast<char>(1u << (next() % 8));
      }
    } else {
      size_t smashes = 1 + next() % 9;
      for (size_t k = 0; k < smashes; ++k) {
        mut[next() % mut.size()] = static_cast<char>(next() % 256);
      }
    }
    if (mut.size() >= 8) {
      uint64_t sum = SegmentChecksum(mut.data(), mut.size() - 8);
      std::memcpy(&mut[mut.size() - 8], &sum, 8);
    }
    Result<SegmentReader> r = SegmentReader::Open(mut);
    if (!r.ok()) continue;
    ++opened;
    Result<Table> back = r->Decode();
    if (!back.ok()) continue;
    ++decoded;
    ExpectSelfConsistent(*back);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "mutant " << iter << " decoded to an inconsistent table";
    }
  }
  // Most mutants must get past the checksum, and a good share must survive
  // the page parsers, or the fuzz is not reaching what it is for.
  EXPECT_GT(opened, kMutants / 2);
  EXPECT_GT(decoded, kMutants / 5);
  std::printf("%d of %d re-stamped mutants opened, %d decoded\n", opened,
              kMutants, decoded);
}

// ------------------------------------------------------- zone-map scans ---

class SegmentExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ex_ = MakePaperExample();
    hosp_ = BigHosp(4000);
    ins_ = BigIns(3000);
  }

  /// Hosp-shaped (S int, B int, D string, T string) with S ascending — so
  /// row-range segments partition the key space and range predicates on S
  /// can prune — B noisy with nulls, D dictionary-friendly.
  Table BigHosp(size_t rows) {
    Rng rng(99);
    Table t = MakeBaseTable(ex_->catalog.Get(ex_->hosp));
    for (size_t r = 0; r < rows; ++r) {
      Cell b = rng.Chance(0.05)
                   ? Cell(Value::Null())
                   : I(1900 + static_cast<int64_t>(rng.Uniform(120)));
      t.AddRow({I(static_cast<int64_t>(r)), b,
                S("d" + std::to_string(rng.Uniform(6))),
                S("t" + std::to_string(rng.Uniform(3)))});
    }
    return t;
  }

  /// Ins-shaped (C int, P double) with duplicate keys overlapping BigHosp's
  /// low key range.
  Table BigIns(size_t rows) {
    Rng rng(177);
    Table t = MakeBaseTable(ex_->catalog.Get(ex_->ins));
    for (size_t r = 0; r < rows; ++r) {
      t.AddRow({I(static_cast<int64_t>(rng.Uniform(700))),
                D(rng.NextDouble() * 100)});
    }
    return t;
  }

  PlanPtr Finish(PlanPtr p) {
    return std::move(FinishPlan(std::move(p), ex_->catalog)).value();
  }

  /// Executes `p` with both relations materialized in memory.
  Result<Table> RunInMemory(const PlanNode* p, ThreadPool* pool,
                            uint64_t budget = 0, ExecContext* out = nullptr) {
    ExecContext local;
    ExecContext* ctx = out != nullptr ? out : &local;
    ctx->catalog = &ex_->catalog;
    ctx->base_tables[ex_->hosp] = &hosp_;
    ctx->base_tables[ex_->ins] = &ins_;
    ctx->pool = pool;
    ctx->memory_budget = budget;
    return ExecutePlan(p, ctx);
  }

  std::unique_ptr<PaperExample> ex_;
  Table hosp_, ins_;
};

TEST_F(SegmentExecTest, ZoneMapScanSkipsSegmentsAndMatchesFullScan) {
  Result<SegmentedTable> st = SegmentedTable::FromTable(hosp_, 256);
  ASSERT_TRUE(st.ok());

  PlanBuilder b = ex_->builder();
  PlanPtr p = Finish(
      Select(b.Rel("Hosp"), {b.Pv("S", CmpOp::kLt, Value(int64_t{300}))}));

  Result<Table> full = RunInMemory(p.get(), nullptr);
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  ExecContext ctx;
  ctx.catalog = &ex_->catalog;
  ctx.base_tables[ex_->ins] = &ins_;
  ctx.segment_tables[ex_->hosp] = &*st;
  Result<Table> pruned = ExecutePlan(p.get(), &ctx);
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();

  EXPECT_EQ(CanonicalRows(*pruned), CanonicalRows(*full));
  // S ascending over 4000 rows at 256 rows/segment: only the first two
  // segments can hold S < 300.
  EXPECT_EQ(ctx.segments_scanned.load(), st->num_segments());
  EXPECT_GE(ctx.segments_skipped.load(), st->num_segments() - 2);

  // Every skipped segment provably holds no qualifying row.
  for (size_t s = 0; s < st->num_segments(); ++s) {
    const SegmentReader& seg = st->segment(s);
    size_t s_col = 0;  // S is column 0
    if (ZoneMayMatch(seg.zone(s_col), CmpOp::kLt, Value(int64_t{300}))) {
      continue;
    }
    Result<Table> dec = seg.Decode();
    ASSERT_TRUE(dec.ok());
    for (size_t r = 0; r < dec->num_rows(); ++r) {
      Value v = dec->col(s_col).IsNull(r) ? Value::Null()
                                          : dec->col(s_col).GetValue(r);
      EXPECT_FALSE(EvalCmp(CmpOp::kLt, v, Value(int64_t{300})))
          << "segment " << s << " row " << r
          << " was skipped but satisfies the predicate";
    }
  }
}

TEST_F(SegmentExecTest, FullyPrunedScanYieldsTheEmptyResultShape) {
  Result<SegmentedTable> st = SegmentedTable::FromTable(hosp_, 512);
  ASSERT_TRUE(st.ok());
  PlanBuilder b = ex_->builder();
  PlanPtr p = Finish(
      Select(b.Rel("Hosp"), {b.Pv("S", CmpOp::kGt, Value(int64_t{999999}))}));

  Result<Table> full = RunInMemory(p.get(), nullptr);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->num_rows(), 0u);

  ExecContext ctx;
  ctx.catalog = &ex_->catalog;
  ctx.segment_tables[ex_->hosp] = &*st;
  Result<Table> pruned = ExecutePlan(p.get(), &ctx);
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
  EXPECT_EQ(Fingerprint(*pruned), Fingerprint(*full));
  EXPECT_EQ(ctx.segments_skipped.load(), st->num_segments());
}

TEST_F(SegmentExecTest, NullMatchingPredicatesAreNeverPrunedWrongly) {
  // B has NULLs; under the engine's semantics NULL < any number, so kLt
  // predicates match NULL rows and zone pruning must keep such segments.
  Result<SegmentedTable> st = SegmentedTable::FromTable(hosp_, 128);
  ASSERT_TRUE(st.ok());
  PlanBuilder b = ex_->builder();
  PlanPtr p = Finish(
      Select(b.Rel("Hosp"), {b.Pv("B", CmpOp::kLt, Value(int64_t{1901}))}));
  Result<Table> full = RunInMemory(p.get(), nullptr);
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full->num_rows(), 0u);  // NULL rows qualify

  ExecContext ctx;
  ctx.catalog = &ex_->catalog;
  ctx.segment_tables[ex_->hosp] = &*st;
  Result<Table> pruned = ExecutePlan(p.get(), &ctx);
  ASSERT_TRUE(pruned.ok());
  EXPECT_EQ(CanonicalRows(*pruned), CanonicalRows(*full));
}

// ------------------------------------------------------------- spilling ---

TEST_F(SegmentExecTest, SpilledJoinIsBitIdenticalAtEveryThreadCount) {
  PlanBuilder b = ex_->builder();
  PlanPtr p = Finish(
      Join(b.Rel("Hosp"), b.Rel("Ins"), {b.Pa("S", CmpOp::kEq, "C")}));

  Result<Table> in_memory = RunInMemory(p.get(), nullptr);
  ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
  ASSERT_GT(in_memory->num_rows(), 0u);
  const std::string want = Fingerprint(*in_memory);

  // Row-path oracle agreement (order-insensitive).
  ReferenceExecutor oracle(&ex_->catalog);
  oracle.LoadTable(ex_->hosp, &hosp_);
  oracle.LoadTable(ex_->ins, &ins_);
  Result<Table> ref = oracle.Run(p.get());
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  ASSERT_EQ(CanonicalRows(*in_memory), CanonicalRows(*ref));

  ThreadPool two(2), eight(8);
  for (ThreadPool* pool :
       {static_cast<ThreadPool*>(nullptr), &two, &eight}) {
    // ~110 KB of inputs against a 4 KB budget: first-generation partitions
    // (~1/8 each) still exceed it, forcing a second recursive generation.
    ExecContext ctx;
    Result<Table> spilled = RunInMemory(p.get(), pool, 4096, &ctx);
    ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
    EXPECT_EQ(Fingerprint(*spilled), want)
        << "spilled join diverges at "
        << (pool == nullptr ? 1 : pool->size()) << " threads";
    EXPECT_GT(ctx.spill_partitions.load(), 0u);
    EXPECT_GT(ctx.spill_bytes.load(), 0u);
    EXPECT_GE(ctx.spill_generations.load(), 2u)
        << "budget did not force a recursive partition generation";
  }
}

TEST_F(SegmentExecTest, SpilledGroupByIsBitIdenticalAtEveryThreadCount) {
  PlanBuilder b = ex_->builder();
  std::vector<PlanPtr> plans;
  // Double-valued aggregates over many multi-batch groups: the spilled
  // path must reproduce the in-memory floating-point merge association
  // exactly, not approximately.
  plans.push_back(Finish(GroupBy(b.Rel("Ins"), b.Set("C"),
                                 {Aggregate::Make(AggFunc::kSum, b.A("P")),
                                  Aggregate::Make(AggFunc::kAvg, b.A("P")),
                                  Aggregate::CountStar(b.A("C"))})));
  // String keys (dictionary codes on the typed key path) and min/max/sum
  // over B, which holds NULLs: the null word and the first-occurrence
  // min/max tie-breaks must survive partitioning too.
  plans.push_back(Finish(GroupBy(b.Rel("Hosp"), b.Set("D,T"),
                                 {Aggregate::Make(AggFunc::kMin, b.A("B")),
                                  Aggregate::Make(AggFunc::kMax, b.A("B")),
                                  Aggregate::Make(AggFunc::kSum, b.A("B"))})));

  ThreadPool two(2), eight(8);
  for (size_t pi = 0; pi < plans.size(); ++pi) {
    const PlanNode* p = plans[pi].get();
    Result<Table> in_memory = RunInMemory(p, nullptr);
    ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
    ASSERT_GT(in_memory->num_rows(), 0u);
    const std::string want = Fingerprint(*in_memory);

    ReferenceExecutor oracle(&ex_->catalog);
    oracle.LoadTable(ex_->hosp, &hosp_);
    oracle.LoadTable(ex_->ins, &ins_);
    Result<Table> ref = oracle.Run(p);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    ASSERT_EQ(CanonicalRows(*in_memory), CanonicalRows(*ref));

    for (ThreadPool* pool :
         {static_cast<ThreadPool*>(nullptr), &two, &eight}) {
      ExecContext ctx;
      Result<Table> spilled = RunInMemory(p, pool, 1024, &ctx);
      ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
      EXPECT_EQ(Fingerprint(*spilled), want)
          << "spilled group-by " << pi << " diverges at "
          << (pool == nullptr ? 1 : pool->size()) << " threads";
      EXPECT_GT(ctx.spill_partitions.load(), 0u);
    }
  }
}

TEST(SegmentDifferentialTest, SpilledRandomPlansMatchOracleAndInMemory) {
  // Random-scenario sweep with a 1-byte budget: every join build and
  // group-by state that can spill does. Results must equal both the
  // in-memory engine (bit-identical serialization) and the row oracle at
  // 1/2/8 threads.
  ThreadPool two(2), eight(8);
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Result<RandomScenario> sc = MakeRandomScenario(seed);
    ASSERT_TRUE(sc.ok()) << "seed " << seed;
    std::map<RelId, Table> data = MakeRandomData(*sc, seed ^ 0xfeed);

    ReferenceExecutor oracle(sc->catalog.get());
    for (const auto& [rel, t] : data) oracle.LoadTable(rel, &t);
    Result<Table> ref = oracle.Run(sc->plan.get());
    ASSERT_TRUE(ref.ok()) << "seed " << seed;
    std::vector<std::string> oracle_rows = CanonicalRows(*ref);

    ExecContext base_ctx;
    base_ctx.catalog = sc->catalog.get();
    for (const auto& [rel, t] : data) base_ctx.base_tables[rel] = &t;
    Result<Table> in_memory = ExecutePlan(sc->plan.get(), &base_ctx);
    ASSERT_TRUE(in_memory.ok()) << "seed " << seed;
    const std::string want = Fingerprint(*in_memory);

    for (ThreadPool* pool :
         {static_cast<ThreadPool*>(nullptr), &two, &eight}) {
      ExecContext ctx;
      ctx.catalog = sc->catalog.get();
      for (const auto& [rel, t] : data) ctx.base_tables[rel] = &t;
      ctx.pool = pool;
      ctx.memory_budget = 1;
      Result<Table> spilled = ExecutePlan(sc->plan.get(), &ctx);
      ASSERT_TRUE(spilled.ok())
          << "seed " << seed << ": " << spilled.status().ToString();
      ASSERT_EQ(Fingerprint(*spilled), want)
          << "seed " << seed << ": spilled run not bit-identical at "
          << (pool == nullptr ? 1 : pool->size()) << " threads";
      ASSERT_EQ(CanonicalRows(*spilled), oracle_rows)
          << "seed " << seed << ": spilled run diverges from the oracle";
    }
  }
}

}  // namespace
}  // namespace mpq
