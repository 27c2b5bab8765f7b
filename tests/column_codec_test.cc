// Tests for the column-level crypto codec: span encryption/decryption over
// the column representations the engine produces (typed vectors, null
// masks, the kCell fallback, pure ciphertext columns), the equivalence of
// the batched kernels with the per-cell path (EncryptValue/DecryptValue) on
// every scheme, rep, null pattern, span shape and edge value, the fold-only
// mode a provider holding just the public modulus gets, and the lazy fold
// primitive against the eager Add() chain.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "crypto/cipher.h"
#include "crypto/column_codec.h"
#include "crypto/keyring.h"
#include "crypto/ope.h"
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

// ---- Batched kernels ≡ the per-cell path -----------------------------------

enum class Nulls { kNone, kSome, kAll };

/// Row `i` of a test column of `rep` (kCell mixes ints, doubles and
/// strings) cycling through edge values, NULL per `nulls`.
Value TestValue(ColumnRep rep, Nulls nulls, size_t i) {
  if (nulls == Nulls::kAll || (nulls == Nulls::kSome && i % 5 == 3)) {
    return Value::Null();
  }
  static const int64_t kInts[] = {std::numeric_limits<int64_t>::min(),
                                  std::numeric_limits<int64_t>::max(),
                                  0,
                                  -1,
                                  42,
                                  1234567};
  static const double kDoubles[] = {-0.0,
                                    std::nan(""),
                                    std::numeric_limits<double>::infinity(),
                                    -std::numeric_limits<double>::infinity(),
                                    0.5,
                                    -1234.0625};
  static const size_t kLens[] = {0, 1, 8, 9, 100, 3};
  auto str = [&] {
    return Value(std::string(kLens[i % 6], static_cast<char>('a' + i % 26)));
  };
  switch (rep) {
    case ColumnRep::kInt64:
      return Value(kInts[i % 6] + (i % 6 >= 2 ? static_cast<int64_t>(i) : 0));
    case ColumnRep::kDouble:
      return Value(i % 6 < 4 ? kDoubles[i % 6] : kDoubles[i % 6] + i);
    case ColumnRep::kString:
      return str();
    default:
      return i % 3 == 0 ? Value(static_cast<int64_t>(i))
                        : (i % 3 == 1 ? Value(i * 0.25) : str());
  }
}

ColumnData TestColumn(ColumnRep rep, Nulls nulls, size_t n) {
  std::vector<Cell> cells;
  for (size_t i = 0; i < n; ++i) cells.emplace_back(TestValue(rep, nulls, i));
  ColumnData col = ColumnFromCells(std::move(cells));
  if (rep == ColumnRep::kCell) col.DemoteToCells();  // all-NULL stays kCell
  return col;
}

/// Whether two columns hold the same bytes: rep, null mask and values
/// (doubles bitwise, cells by serialization).
bool SameColumn(const ColumnData& a, const ColumnData& b) {
  if (a.rep() != b.rep() || a.size() != b.size() ||
      a.null_mask() != b.null_mask()) {
    return false;
  }
  switch (a.rep()) {
    case ColumnRep::kInt64:
      return a.i64() == b.i64();
    case ColumnRep::kDouble:
      return a.f64().empty() ||
             std::memcmp(a.f64().data(), b.f64().data(),
                         a.f64().size() * sizeof(double)) == 0;
    case ColumnRep::kString:
      return a.str() == b.str();
    case ColumnRep::kEnc:
      return a.enc_arena() == b.enc_arena() && a.enc_ends() == b.enc_ends() &&
             a.enc_aux() == b.enc_aux();
    case ColumnRep::kCell:
      for (size_t i = 0; i < a.size(); ++i) {
        const Cell &x = a.cells()[i], &y = b.cells()[i];
        if (x.is_plain() != y.is_plain()) return false;
        if (x.is_plain() ? x.plain().Serialize() != y.plain().Serialize()
                         : !(x.enc() == y.enc())) {
          return false;
        }
      }
      return true;
  }
  return false;
}

DataType DecodeType(ColumnRep rep) {
  switch (rep) {
    case ColumnRep::kDouble:
      return DataType::kDouble;
    case ColumnRep::kString:
      return DataType::kString;
    default:
      return DataType::kInt64;
  }
}

/// The per-cell reference decryption of `enc` rows [begin, end), as
/// ColumnFromCells builds it.
Result<ColumnData> ReferenceDecrypt(const KeyMaterial& km,
                                    const ColumnData& enc, size_t begin,
                                    size_t end, DataType type) {
  std::vector<Cell> cells;
  for (size_t r = begin; r < end; ++r) {
    if (enc.IsNull(r)) {
      cells.emplace_back(Value::Null());
      continue;
    }
    MPQ_ASSIGN_OR_RETURN(Value v, DecryptValue(enc.EncAt(r), km, type));
    cells.emplace_back(std::move(v));
  }
  return ColumnFromCells(std::move(cells));
}

TEST(ColumnCodecKernelTest, KernelsEqualPerCellPathOnEveryShape) {
  KeyMaterial km = TestKey();
  ColumnCodec codec(km);
  const size_t kRows = 1040;
  const uint64_t kNonceBase = 0xabcdef;
  struct Span {
    size_t begin, len;
  };
  std::vector<Span> spans;
  for (size_t len : {0, 1, 7, 8, 9, 1023, 1025}) {
    for (size_t begin : {size_t{0}, size_t{5}, size_t{11}}) {
      spans.push_back({begin, len});
    }
  }
  size_t compared = 0;
  for (EncScheme scheme : {EncScheme::kRandom, EncScheme::kDeterministic,
                           EncScheme::kOpe, EncScheme::kPaillier}) {
    for (ColumnRep rep : {ColumnRep::kInt64, ColumnRep::kDouble,
                          ColumnRep::kString, ColumnRep::kCell}) {
      for (Nulls nulls : {Nulls::kNone, Nulls::kSome, Nulls::kAll}) {
        ColumnData src = TestColumn(rep, nulls, kRows);
        if (nulls != Nulls::kAll) {
          ASSERT_EQ(src.rep(), rep);
        }
        for (const Span& sp : spans) {
          SCOPED_TRACE(std::string(EncSchemeName(scheme)) + " " +
                       ColumnRepName(rep) + " nulls=" +
                       std::to_string(static_cast<int>(nulls)) + " begin=" +
                       std::to_string(sp.begin) + " len=" +
                       std::to_string(sp.len));
          const size_t end = sp.begin + sp.len;
          // Reference: per-row EncryptValue (a NULL under OPE or Paillier
          // is a NULL row), the first failing row's status.
          ColumnData want(ColumnRep::kEnc);
          Status want_st;
          for (size_t r = sp.begin; r < end && want_st.ok(); ++r) {
            Value v = src.GetValue(r);
            if ((scheme == EncScheme::kOpe || scheme == EncScheme::kPaillier) &&
                v.is_null()) {
              want.AppendNull();
              continue;
            }
            Result<EncValue> ev =
                EncryptValue(v, scheme, km.key_id, km, kNonceBase + r);
            if (ev.ok()) {
              want.AppendEnc(*ev);
            } else {
              want_st = ev.status();
            }
          }
          ColumnData got(ColumnRep::kEnc);
          Status got_st =
              codec.EncryptSpan(src, sp.begin, end, scheme, kNonceBase, &got);
          ASSERT_EQ(got_st.code(), want_st.code()) << got_st.ToString();
          if (!want_st.ok()) continue;
          ASSERT_TRUE(SameColumn(got, want));
          for (size_t k = 0; k < sp.len; ++k) {
            if (!want.IsNull(k)) {
              ASSERT_EQ(got.EncAt(k).ToValue(), want.EncAt(k).ToValue());
            }
          }
          // Decryption of the whole span and of an odd inner sub-span.
          const DataType type = DecodeType(rep);
          for (auto [b, e] : {std::pair<size_t, size_t>{0, sp.len},
                              {sp.len / 3, sp.len - sp.len / 4}}) {
            Result<ColumnData> ref = ReferenceDecrypt(km, got, b, e, type);
            Result<ColumnData> dec = codec.DecryptSpan(got, b, e, type, false);
            ASSERT_EQ(dec.status().code(), ref.status().code());
            if (!ref.ok()) continue;
            ASSERT_TRUE(SameColumn(*dec, *ref))
                << ColumnRepName(dec->rep()) << " vs "
                << ColumnRepName(ref->rep());
            ++compared;
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 400u);
}

TEST(ColumnCodecKernelTest, SpansSpliceToTheWholeColumnsCells) {
  // Decrypting a column span by span and splicing the parts equals
  // ColumnFromCells over the whole column's cells, whatever the spans hold:
  // an all-NULL span, then ints, then doubles (which demote the column).
  KeyMaterial km = TestKey();
  ColumnCodec codec(km);
  std::vector<Cell> cells;
  for (int i = 0; i < 8; ++i) cells.emplace_back(Value::Null());
  for (int i = 0; i < 8; ++i) cells.emplace_back(Value(int64_t{i}));
  for (int i = 0; i < 8; ++i) cells.emplace_back(Value(i * 0.5));
  ColumnData src = ColumnFromCells(cells);
  ColumnData enc(ColumnRep::kEnc);
  ASSERT_TRUE(
      codec.EncryptSpan(src, 0, src.size(), EncScheme::kRandom, 1, &enc).ok());
  for (size_t span : {size_t{4}, size_t{8}, size_t{12}, size_t{24}}) {
    for (size_t parts_end : {size_t{12}, size_t{24}}) {
      std::vector<ColumnData> parts;
      for (size_t b = 0; b < parts_end; b += span) {
        Result<ColumnData> part = codec.DecryptSpan(
            enc, b, std::min(parts_end, b + span), DataType::kInt64, false);
        ASSERT_TRUE(part.ok());
        parts.push_back(std::move(*part));
      }
      std::vector<Cell> want(cells.begin(),
                             cells.begin() + static_cast<long>(parts_end));
      EXPECT_TRUE(SameColumn(ConcatSpans(std::move(parts)),
                             ColumnFromCells(std::move(want))))
          << "span " << span << " rows " << parts_end;
    }
  }
}

TEST(ColumnCodecKernelTest, TamperedCiphertextsKeepTheirStatusCodes) {
  KeyMaterial km = TestKey();
  ColumnCodec codec(km);
  auto expect_same_code = [&](const ColumnData& col, DataType type) {
    Result<ColumnData> ref = ReferenceDecrypt(km, col, 0, col.size(), type);
    Result<ColumnData> got =
        codec.DecryptSpan(col, 0, col.size(), type, false);
    ASSERT_FALSE(ref.ok());
    EXPECT_EQ(got.status().code(), ref.status().code())
        << got.status().ToString() << " vs " << ref.status().ToString();
  };
  auto column_of = [&](EncScheme scheme, std::vector<std::string> blobs) {
    std::string arena;
    std::vector<uint32_t> ends;
    for (const std::string& b : blobs) {
      arena += b;
      ends.push_back(static_cast<uint32_t>(arena.size()));
    }
    return ColumnData::FromEnc(scheme, km.key_id, std::move(arena),
                               std::move(ends), {}, {});
  };
  std::vector<std::string> ope, rnd;
  for (int64_t v : {3, -7, 11, 0, 9, 2, 5, 8, 1}) {
    ope.push_back(*OpeEncryptValue(km.ope, Value(v)));
    rnd.push_back(RndEncrypt(km.sym, 100 + v, Value(v).Serialize()));
  }
  // A flipped OPE pad byte, and a wrong-size OPE blob.
  std::vector<std::string> bad = ope;
  bad[6][15] = static_cast<char>(bad[6][15] ^ 0x01);
  expect_same_code(column_of(EncScheme::kOpe, bad), DataType::kInt64);
  bad = ope;
  bad[2].pop_back();
  expect_same_code(column_of(EncScheme::kOpe, bad), DataType::kDouble);
  // OPE over a string type.
  expect_same_code(column_of(EncScheme::kOpe, ope), DataType::kString);
  // RND blobs truncated below the nonce, and inside the plaintext.
  bad = rnd;
  bad[8].resize(5);
  expect_same_code(column_of(EncScheme::kRandom, bad), DataType::kInt64);
  bad = rnd;
  bad[4].pop_back();
  expect_same_code(column_of(EncScheme::kRandom, bad), DataType::kInt64);
  // An empty plaintext, and an unknown plaintext tag.
  bad = rnd;
  bad[1] = RndEncrypt(km.sym, 1, "");
  expect_same_code(column_of(EncScheme::kRandom, bad), DataType::kInt64);
  bad = rnd;
  bad[7] = RndEncrypt(km.sym, 2, std::string("X12345678"));
  expect_same_code(column_of(EncScheme::kDeterministic, bad),
                   DataType::kInt64);
}

}  // namespace
}  // namespace mpq
