// Unit tests for the columnar storage layer: typed ColumnData vectors,
// null masks, heterogeneous demotion, selection-vector gathers, chunk
// splicing, ciphertext columns held as one blob arena under one key, and
// the column dictionary. The wire codec is tested in segment_test.cc.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "crypto/keyring.h"
#include "exec/table.h"

namespace mpq {
namespace {

Cell I(int64_t v) { return Cell(Value(v)); }
Cell D(double v) { return Cell(Value(v)); }
Cell S(std::string v) { return Cell(Value(std::move(v))); }

TEST(ColumnDataTest, TypedAppendStaysTyped) {
  ColumnData c(ColumnRep::kInt64);
  c.Append(I(1));
  c.Append(I(2));
  EXPECT_EQ(c.rep(), ColumnRep::kInt64);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c.i64()[0], 1);
  EXPECT_EQ(c.i64()[1], 2);
  EXPECT_FALSE(c.has_nulls());
  EXPECT_EQ(c.GetCell(1).plain().AsInt(), 2);
}

TEST(ColumnDataTest, NullsGoToTheMaskNotTheRep) {
  ColumnData c(ColumnRep::kInt64);
  c.Append(I(7));
  c.Append(Cell(Value::Null()));
  c.Append(I(9));
  EXPECT_EQ(c.rep(), ColumnRep::kInt64);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_FALSE(c.IsNull(0));
  EXPECT_TRUE(c.IsNull(1));
  EXPECT_FALSE(c.IsNull(2));
  EXPECT_TRUE(c.GetCell(1).plain().is_null());
  EXPECT_EQ(c.GetCell(2).plain().AsInt(), 9);
}

TEST(ColumnDataTest, MixedTypesDemoteToCells) {
  ColumnData c(ColumnRep::kInt64);
  c.Append(I(1));
  c.Append(D(2.5));  // an int column cannot hold a double bit-exactly
  EXPECT_EQ(c.rep(), ColumnRep::kCell);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c.GetCell(0).plain().AsInt(), 1);
  EXPECT_EQ(c.GetCell(1).plain().AsDouble(), 2.5);
}

TEST(ColumnDataTest, EncryptedCellsDemotePlainColumns) {
  ColumnData c(ColumnRep::kInt64);
  c.Append(I(1));
  KeyMaterial km = MakeKeyMaterial(3, 1);
  EncValue ev =
      *EncryptValue(Value(int64_t{5}), EncScheme::kDeterministic, 1, km, 1);
  c.Append(Cell(ev));
  EXPECT_EQ(c.rep(), ColumnRep::kCell);
  EXPECT_TRUE(c.GetCell(1).is_encrypted());
}

TEST(ColumnDataTest, SelectionGatherAcrossReps) {
  ColumnData src(ColumnRep::kString);
  src.Append(S("a"));
  src.Append(S("b"));
  src.Append(Cell(Value::Null()));
  src.Append(S("d"));
  SelectionVector sel = {3, 0, 2};
  ColumnData dst(ColumnRep::kString);
  dst.AppendSelected(src, sel.data(), sel.size());
  ASSERT_EQ(dst.size(), 3u);
  EXPECT_EQ(dst.str()[0], "d");
  EXPECT_EQ(dst.str()[1], "a");
  EXPECT_TRUE(dst.IsNull(2));

  // Gather into a mismatched rep falls back to cell appends but keeps the
  // same logical content.
  ColumnData cells(ColumnRep::kCell);
  cells.AppendSelected(src, sel.data(), sel.size());
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells.GetCell(0).plain().AsString(), "d");
  EXPECT_TRUE(cells.GetCell(2).plain().is_null());
}

TEST(ColumnDataTest, MoveAppendSplicesBuffers) {
  ColumnData a(ColumnRep::kInt64);
  a.Append(I(1));
  ColumnData b(ColumnRep::kInt64);
  b.Append(I(2));
  b.Append(Cell(Value::Null()));
  a.MoveAppend(std::move(b));
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a.i64()[1], 2);
  EXPECT_TRUE(a.IsNull(2));
  EXPECT_EQ(b.size(), 0u);

  // Mismatched reps splice via demotion without losing values.
  ColumnData c(ColumnRep::kDouble);
  c.Append(D(0.5));
  a.MoveAppend(std::move(c));
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(a.rep(), ColumnRep::kCell);
  EXPECT_EQ(a.GetCell(3).plain().AsDouble(), 0.5);
}

TEST(ColumnDataTest, ColumnFromCellsPicksRepFromContent) {
  EXPECT_EQ(ColumnFromCells({I(1), I(2)}).rep(), ColumnRep::kInt64);
  EXPECT_EQ(ColumnFromCells({Cell(Value::Null()), D(1.0)}).rep(),
            ColumnRep::kDouble);
  EXPECT_EQ(ColumnFromCells({S("x")}).rep(), ColumnRep::kString);
  EXPECT_EQ(ColumnFromCells({I(1), S("x")}).rep(), ColumnRep::kCell);
}

TEST(ColumnDataTest, ByteSizeMatchesPerCellAccounting) {
  ColumnData c(ColumnRep::kString);
  c.Append(S("abc"));
  c.Append(Cell(Value::Null()));
  // string len+4, null 1 — the historical per-Cell numbers.
  EXPECT_EQ(c.ByteSize(), 3u + 4u + 1u);
  ColumnData ints(ColumnRep::kInt64);
  ints.Append(I(1));
  ints.Append(I(2));
  EXPECT_EQ(ints.ByteSize(), 16u);
}

// ------------------------------------------------------- ciphertext arena ---

namespace enc_test {

/// A kEnc column of `n` encryptions of 0..n-1 under (scheme, key 2).
ColumnData Ciphertexts(EncScheme scheme, int64_t n, uint64_t nonce = 1) {
  KeyMaterial km = MakeKeyMaterial(5, 2);
  ColumnData c(ColumnRep::kEnc);
  for (int64_t v = 0; v < n; ++v) {
    c.Append(Cell(*EncryptValue(Value(v), scheme, 2, km, nonce + v)));
  }
  return c;
}

}  // namespace enc_test

TEST(CiphertextColumnTest, OneKeyPerColumnAndBlobsInOneArena) {
  ColumnData c = enc_test::Ciphertexts(EncScheme::kRandom, 5);
  ASSERT_EQ(c.rep(), ColumnRep::kEnc);
  EXPECT_EQ(c.enc_scheme(), EncScheme::kRandom);
  EXPECT_EQ(c.enc_key_id(), 2u);
  EXPECT_TRUE(c.enc_aux().empty());  // every aux is 1: no vector
  ASSERT_EQ(c.enc_ends().size(), 5u);
  EXPECT_EQ(c.enc_ends().back(), c.enc_arena().size());
  KeyMaterial km = MakeKeyMaterial(5, 2);
  for (int64_t v = 0; v < 5; ++v) {
    EncValue want =
        *EncryptValue(Value(v), EncScheme::kRandom, 2, km, 1 + v);
    EXPECT_EQ(c.GetCell(static_cast<size_t>(v)).enc(), want) << v;
    EXPECT_EQ(c.EncBlob(static_cast<size_t>(v)), want.blob) << v;
  }
}

TEST(CiphertextColumnTest, ForeignKeyOrPlaintextDemotesToCells) {
  ColumnData c = enc_test::Ciphertexts(EncScheme::kDeterministic, 3);
  KeyMaterial other = MakeKeyMaterial(6, 9);
  EncValue foreign =
      *EncryptValue(Value(int64_t{1}), EncScheme::kDeterministic, 9, other, 1);
  ColumnData copy = c;
  c.Append(Cell(foreign));
  ASSERT_EQ(c.rep(), ColumnRep::kCell);
  ASSERT_EQ(c.size(), 4u);
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(c.GetCell(r).enc(), copy.GetCell(r).enc()) << r;
  }
  EXPECT_EQ(c.GetCell(3).enc(), foreign);

  copy.Append(Cell(Value(int64_t{4})));
  EXPECT_EQ(copy.rep(), ColumnRep::kCell);
  EXPECT_EQ(copy.GetCell(3).plain().AsInt(), 4);

  // Splicing a column under another key demotes too, losslessly.
  ColumnData a = enc_test::Ciphertexts(EncScheme::kDeterministic, 2);
  ColumnData b(ColumnRep::kEnc);
  b.Append(Cell(foreign));
  a.MoveAppend(std::move(b));
  ASSERT_EQ(a.rep(), ColumnRep::kCell);
  EXPECT_EQ(a.GetCell(2).enc(), foreign);
}

TEST(CiphertextColumnTest, GathersSplicesAndNullsKeepBlobsAndAux) {
  ColumnData src = enc_test::Ciphertexts(EncScheme::kPaillier, 6);
  src.AppendNull();
  EncValue sum = src.EncAt(2).ToValue();
  sum.aux = 7;  // a homomorphic sum of seven values
  src.Append(Cell(sum));
  ASSERT_EQ(src.rep(), ColumnRep::kEnc);
  ASSERT_EQ(src.enc_aux().size(), src.size());
  EXPECT_EQ(src.EncAt(7).aux, 7);
  EXPECT_EQ(src.EncAt(1).aux, 1);
  EXPECT_TRUE(src.IsNull(6));
  EXPECT_TRUE(src.EncBlob(6).empty());

  SelectionVector sel = {7, 6, 0, 3};
  ColumnData gathered(ColumnRep::kEnc);
  gathered.AppendSelected(src, sel.data(), sel.size());
  ASSERT_EQ(gathered.rep(), ColumnRep::kEnc);
  ColumnData ranged(ColumnRep::kEnc);
  ranged.AppendRange(src, 5, 8);
  ColumnData spliced = enc_test::Ciphertexts(EncScheme::kPaillier, 2);
  ColumnData tail = src;
  spliced.MoveAppend(std::move(tail));
  ASSERT_EQ(spliced.rep(), ColumnRep::kEnc);
  for (size_t k = 0; k < sel.size(); ++k) {
    ASSERT_EQ(gathered.IsNull(k), src.IsNull(sel[k]));
    if (src.IsNull(sel[k])) continue;
    EXPECT_EQ(gathered.GetCell(k).enc(), src.GetCell(sel[k]).enc()) << k;
  }
  for (size_t k = 0; k < 3; ++k) {
    ASSERT_EQ(ranged.IsNull(k), src.IsNull(5 + k));
    if (src.IsNull(5 + k)) continue;
    EXPECT_EQ(ranged.GetCell(k).enc(), src.GetCell(5 + k).enc()) << k;
  }
  for (size_t r = 0; r < src.size(); ++r) {
    ASSERT_EQ(spliced.IsNull(2 + r), src.IsNull(r));
    if (src.IsNull(r)) continue;
    EXPECT_EQ(spliced.GetCell(2 + r).enc(), src.GetCell(r).enc()) << r;
  }
}

TEST(CiphertextColumnTest, ByteSizeKeepsBlobPlusEightAccounting) {
  ColumnData c = enc_test::Ciphertexts(EncScheme::kPaillier, 4);
  c.AppendNull();
  // Paillier blobs are 16 bytes: 4 * (16 + 8) + 1 for the NULL.
  EXPECT_EQ(c.ByteSize(), 4u * 24u + 1u);
  uint64_t per_cell = 0;
  for (size_t r = 0; r < c.size(); ++r) per_cell += c.GetCell(r).ByteSize();
  EXPECT_EQ(c.ByteSize(), per_cell);
}

TEST(CiphertextColumnTest, DictionaryKeysCiphertextsByBlob) {
  KeyMaterial km = MakeKeyMaterial(5, 2);
  ColumnData c(ColumnRep::kEnc);
  for (int64_t v : {4, 8, 4, 8, 1}) {
    c.Append(Cell(*EncryptValue(Value(v), EncScheme::kDeterministic, 2, km,
                                0)));
  }
  ColumnDict dict(&c);
  std::vector<uint32_t> codes(c.size());
  ASSERT_TRUE(dict.EncodeRange(0, c.size(), codes.data()).ok());
  EXPECT_EQ(codes, (std::vector<uint32_t>{0, 1, 0, 1, 2}));
  std::string key;
  ASSERT_TRUE(AppendKeyBytes(c, 1, &key).ok());
  EXPECT_EQ(key, std::string(c.EncBlob(1)));
}

// ------------------------------------------------------ dictionary coding ---

TEST(ColumnDictTest, EncodeAssignsFirstOccurrenceCodesAndProbeMisses) {
  ColumnData c(ColumnRep::kString);
  c.Append(S("b"));
  c.Append(S("a"));
  c.Append(Cell(Value::Null()));
  c.Append(S("b"));
  ColumnDict dict(&c);
  std::vector<uint32_t> codes(c.size());
  ASSERT_TRUE(dict.EncodeRange(0, c.size(), codes.data()).ok());
  EXPECT_EQ(codes[0], 0u);  // "b" interned first
  EXPECT_EQ(codes[1], 1u);  // then "a"
  EXPECT_EQ(codes[2], 0u);  // null rows get padding code 0
  EXPECT_EQ(codes[3], 0u);  // repeated "b" reuses its code
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(c.str()[dict.RepRow(1)], "a");

  ColumnData probe(ColumnRep::kString);
  probe.Append(S("a"));
  probe.Append(S("unseen"));
  std::vector<uint32_t> pcodes(probe.size());
  ASSERT_TRUE(dict.ProbeRange(probe, 0, probe.size(), pcodes.data()).ok());
  EXPECT_EQ(pcodes[0], 1u);
  EXPECT_EQ(pcodes[1], ColumnDict::kMiss);
}

TEST(ColumnDictTest, RndCiphertextsRejectedAsKeys) {
  KeyMaterial km = MakeKeyMaterial(3, 1);
  ColumnData c(ColumnRep::kEnc);
  c.Append(Cell(*EncryptValue(Value(int64_t{5}), EncScheme::kRandom, 1, km,
                              /*fresh_nonce=*/9)));
  ColumnDict dict(&c);
  std::vector<uint32_t> codes(1);
  Status s = dict.EncodeRange(0, 1, codes.data());
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnsupported);
}

}  // namespace
}  // namespace mpq