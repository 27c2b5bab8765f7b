// Tests for the column-level crypto codec: span encryption/decryption over
// the column representations the engine produces (typed vectors, null
// masks, the kCell fallback, pure ciphertext columns), the fold-only mode a
// provider holding just the public modulus gets, and the lazy fold
// primitive against the eager Add() chain.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "crypto/column_codec.h"
#include "crypto/keyring.h"
#include "exec/column.h"

namespace mpq {
namespace {

KeyMaterial TestKey() { return MakeKeyMaterial(/*seed=*/77, /*key_id=*/4); }

/// Paillier-encrypts `values` through the codec into a kEnc column.
ColumnData EncryptColumn(const ColumnCodec& codec,
                         const std::vector<int64_t>& values,
                         uint64_t nonce_base) {
  std::vector<Cell> cells;
  cells.reserve(values.size());
  for (int64_t v : values) cells.emplace_back(Value(v));
  ColumnData plain = ColumnFromCells(std::move(cells));
  ColumnData encs(ColumnRep::kEnc);
  EXPECT_TRUE(codec.EncryptSpan(plain, 0, plain.size(), EncScheme::kPaillier,
                                nonce_base, &encs)
                  .ok());
  return encs;
}

TEST(ColumnCodecTest, ZeroRowSpansAreNoOps) {
  KeyMaterial km = TestKey();
  ColumnCodec codec(km);
  ColumnData empty = ColumnFromCells({});
  ColumnData none(ColumnRep::kEnc);
  EXPECT_TRUE(
      codec.EncryptSpan(empty, 0, 0, EncScheme::kPaillier, 1, &none).ok());
  EXPECT_EQ(none.size(), 0u);
  EXPECT_TRUE(
      codec.DecryptSpan(empty, 0, 0, DataType::kInt64, false, nullptr).ok());
  Result<uint128> fold = codec.FoldRows(empty, nullptr, 0);
  ASSERT_TRUE(fold.ok());
  EXPECT_EQ(*fold, uint128{0});
}

TEST(ColumnCodecTest, NullMaskSkipsDecryptionAndFastEncryptPath) {
  KeyMaterial km = TestKey();
  ColumnCodec codec(km);
  // A column with a null forfeits the typed Paillier fast path; DET
  // serializes the null like the per-cell path always has.
  std::vector<Cell> cells;
  cells.emplace_back(Value(int64_t{10}));
  cells.emplace_back(Value::Null());
  cells.emplace_back(Value(int64_t{-3}));
  ColumnData plain = ColumnFromCells(std::move(cells));
  ColumnData enc_col(ColumnRep::kEnc);
  ASSERT_TRUE(codec.EncryptSpan(plain, 0, plain.size(),
                                EncScheme::kDeterministic, 5, &enc_col)
                  .ok());
  ASSERT_EQ(enc_col.rep(), ColumnRep::kEnc);
  for (size_t i = 0; i < enc_col.size(); ++i) {
    Cell c = plain.GetCell(i);
    Result<EncValue> single =
        EncryptValue(c.plain(), EncScheme::kDeterministic, 4, km, 5 + i);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(enc_col.EncAt(i).ToValue(), *single) << "cell " << i;
  }
  // DecryptSpan over the ciphertext column: the encrypted NULL decrypts
  // back to a plain NULL.
  std::vector<Cell> out(enc_col.size());
  ASSERT_TRUE(codec.DecryptSpan(enc_col, 0, enc_col.size(), DataType::kInt64,
                                false, out.data())
                  .ok());
  EXPECT_EQ(out[0].plain(), Value(int64_t{10}));
  EXPECT_TRUE(out[1].plain().is_null());
  EXPECT_EQ(out[2].plain(), Value(int64_t{-3}));
}

TEST(ColumnCodecTest, CellFallbackPassesPlainCellsThrough) {
  KeyMaterial km = TestKey();
  ColumnCodec codec(km);
  // A mixed column (ciphertexts with a stray plaintext cell) takes the
  // kCell representation; DecryptSpan decrypts the ciphertexts and passes
  // the plaintext through untouched.
  Result<EncValue> ev =
      EncryptValue(Value(int64_t{42}), EncScheme::kPaillier, 4, km, 9);
  ASSERT_TRUE(ev.ok());
  std::vector<Cell> cells;
  cells.emplace_back(*ev);
  cells.emplace_back(Value(int64_t{1234}));
  ColumnData mixed = ColumnFromCells(std::move(cells));
  ASSERT_EQ(mixed.rep(), ColumnRep::kCell);
  std::vector<Cell> out(mixed.size());
  ASSERT_TRUE(codec.DecryptSpan(mixed, 0, mixed.size(), DataType::kInt64,
                                false, out.data())
                  .ok());
  EXPECT_EQ(out[0].plain(), Value(int64_t{42}));
  EXPECT_EQ(out[1].plain(), Value(int64_t{1234}));
}

TEST(ColumnCodecTest, DecryptSpanDividesHomAverages) {
  KeyMaterial km = TestKey();
  ColumnCodec codec(km);
  Result<EncValue> ev =
      EncryptValue(Value(int64_t{90}), EncScheme::kPaillier, 4, km, 11);
  ASSERT_TRUE(ev.ok());
  EncValue sum = *ev;
  sum.aux = 4;  // four values folded into the ciphertext
  ColumnData col = ColumnFromCells({Cell(sum)});
  std::vector<Cell> out(1);
  ASSERT_TRUE(
      codec.DecryptSpan(col, 0, 1, DataType::kInt64, true, out.data()).ok());
  EXPECT_DOUBLE_EQ(out[0].plain().AsDouble(), 22.5);
}

TEST(ColumnCodecTest, FoldRowsMatchesEagerAddChainAndIsReusable) {
  KeyMaterial km = TestKey();
  ColumnCodec codec(km);
  ColumnData col = EncryptColumn(codec, {3, 1, 4, 1, 5, 9, 2, 6}, 100);
  PaillierSumCtx eager(km.paillier.n);
  // An arbitrary row subset, folded in the given order.
  const std::vector<uint32_t> rows = {6, 0, 3, 7, 2};
  uint128 chain = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    uint128 c = *PaillierCipherFromBytes(col.EncAt(rows[i]).blob);
    chain = i == 0 ? c : eager.Add(chain, c);
  }
  Result<uint128> fold = codec.FoldRows(col, rows.data(), rows.size());
  ASSERT_TRUE(fold.ok());
  EXPECT_EQ(*fold, chain);
  int64_t decoded = PaillierDecodeSigned(
      km.paillier, *PaillierDecrypt(km.paillier, *fold));
  EXPECT_EQ(decoded, 3 + 4 + 1 + 2 + 6);
  // The codec's fold state resets per call: a second, different fold on the
  // same codec is unaffected by the first.
  const std::vector<uint32_t> rows2 = {1, 4};
  uint128 c1 = *PaillierCipherFromBytes(col.EncAt(1).blob);
  uint128 c4 = *PaillierCipherFromBytes(col.EncAt(4).blob);
  Result<uint128> fold2 = codec.FoldRows(col, rows2.data(), rows2.size());
  ASSERT_TRUE(fold2.ok());
  EXPECT_EQ(*fold2, eager.Add(c1, c4));
}

TEST(ColumnCodecTest, FoldOnlyCodecAggregatesButRefusesKeyOperations) {
  KeyMaterial km = TestKey();
  ColumnCodec full(km);
  ColumnData col = EncryptColumn(full, {20, 30, -8}, 500);
  // The provider-side codec holds only (key id, public modulus) — the
  // paper's honest-but-curious provider: it can aggregate ciphertexts but
  // cannot encrypt or decrypt anything.
  ColumnCodec fold_only(/*key_id=*/4, km.paillier.n);
  EXPECT_FALSE(fold_only.has_material());
  EXPECT_EQ(fold_only.key_id(), uint64_t{4});
  const uint32_t rows[] = {0, 1, 2};
  Result<uint128> fold = fold_only.FoldRows(col, rows, 3);
  ASSERT_TRUE(fold.ok());
  Result<uint128> want = full.FoldRows(col, rows, 3);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(*fold, *want);
  EXPECT_EQ(PaillierDecodeSigned(km.paillier,
                                 *PaillierDecrypt(km.paillier, *fold)),
            42);

  ColumnData plain = ColumnFromCells({Cell(Value(int64_t{1}))});
  ColumnData encs(ColumnRep::kEnc);
  Status enc_st =
      fold_only.EncryptSpan(plain, 0, 1, EncScheme::kPaillier, 1, &encs);
  EXPECT_EQ(enc_st.code(), StatusCode::kNotFound);
  std::vector<Cell> out(col.size());
  Status dec_st =
      fold_only.DecryptSpan(col, 0, col.size(), DataType::kInt64, false,
                            out.data());
  EXPECT_EQ(dec_st.code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace mpq
