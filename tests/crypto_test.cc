// Tests for the crypto substrate: symmetric cipher, Paillier, OPE, key
// material and encrypted-cell operations.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "crypto/cipher.h"
#include "crypto/column_codec.h"
#include "crypto/enc_value.h"
#include "crypto/keyring.h"
#include "crypto/ope.h"
#include "crypto/paillier.h"
#include "exec/column.h"

namespace mpq {
namespace {

TEST(CipherTest, RoundTrip) {
  std::string pt = "hello world";
  std::string ct = SymEncrypt(42, 7, pt);
  EXPECT_NE(ct.substr(8), pt);
  Result<std::string> back = SymDecrypt(42, ct);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, pt);
}

TEST(CipherTest, DeterministicEqualityPreserving) {
  EXPECT_EQ(DetEncrypt(1, "abc"), DetEncrypt(1, "abc"));
  EXPECT_NE(DetEncrypt(1, "abc"), DetEncrypt(1, "abd"));
  EXPECT_NE(DetEncrypt(1, "abc"), DetEncrypt(2, "abc"));
}

TEST(CipherTest, RandomizedHidesEquality) {
  EXPECT_NE(RndEncrypt(1, 100, "abc"), RndEncrypt(1, 101, "abc"));
}

TEST(CipherTest, WrongKeyGarbles) {
  std::string ct = DetEncrypt(1, "abc");
  Result<std::string> wrong = SymDecrypt(2, ct);
  ASSERT_TRUE(wrong.ok());  // stream cipher always "decrypts"
  EXPECT_NE(*wrong, "abc");
}

TEST(CipherTest, ShortCiphertextRejected) {
  EXPECT_FALSE(SymDecrypt(1, "abc").ok());
}

class PaillierTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PaillierTest, EncryptDecryptRoundTrip) {
  PaillierKey key = PaillierKeyGen(GetParam());
  for (uint64_t m : {0ull, 1ull, 12345ull, 999999999ull}) {
    uint128 c = PaillierEncrypt(key, m, 0xabcdef + m);
    Result<uint64_t> back = PaillierDecrypt(key, c);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, m);
  }
}

TEST_P(PaillierTest, HomomorphicAddition) {
  PaillierKey key = PaillierKeyGen(GetParam());
  uint128 c1 = PaillierEncrypt(key, 1000, 17);
  uint128 c2 = PaillierEncrypt(key, 2345, 23);
  uint128 sum = PaillierAdd(key.n, c1, c2);
  EXPECT_EQ(*PaillierDecrypt(key, sum), 3345u);
}

TEST_P(PaillierTest, SignedEncoding) {
  PaillierKey key = PaillierKeyGen(GetParam());
  for (int64_t v : {-1000000, -1, 0, 1, 999999}) {
    uint64_t enc = PaillierEncodeSigned(key, v);
    EXPECT_EQ(PaillierDecodeSigned(key, enc), v);
  }
}

TEST_P(PaillierTest, HomomorphicSignedSum) {
  PaillierKey key = PaillierKeyGen(GetParam());
  uint128 c1 = PaillierEncrypt(key, PaillierEncodeSigned(key, -500), 3);
  uint128 c2 = PaillierEncrypt(key, PaillierEncodeSigned(key, 200), 5);
  uint128 sum = PaillierAdd(key.n, c1, c2);
  EXPECT_EQ(PaillierDecodeSigned(key, *PaillierDecrypt(key, sum)), -300);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PaillierTest,
                         ::testing::Values(1, 2, 7, 42, 1234567));

TEST(PaillierTest, RandomizedCiphertexts) {
  PaillierKey key = PaillierKeyGen(9);
  EXPECT_NE(PaillierEncrypt(key, 5, 100), PaillierEncrypt(key, 5, 101));
}

TEST(PaillierTest, CipherBytesRoundTrip) {
  PaillierKey key = PaillierKeyGen(3);
  uint128 c = PaillierEncrypt(key, 777, 11);
  std::string bytes = PaillierCipherToBytes(c);
  EXPECT_EQ(bytes.size(), 16u);
  EXPECT_EQ(*PaillierCipherFromBytes(bytes), c);
  EXPECT_FALSE(PaillierCipherFromBytes("short").ok());
}

TEST(OpeTest, OrderPreservation) {
  uint64_t key = 99;
  std::vector<int64_t> values = {-1000000, -5, -1, 0, 1, 2, 3, 1000,
                                 123456789};
  std::vector<std::string> cts;
  for (int64_t v : values) cts.push_back(OpeEncryptInt(key, v));
  for (size_t i = 0; i + 1 < cts.size(); ++i) {
    EXPECT_LT(cts[i], cts[i + 1]) << "order broken at " << i;
  }
}

TEST(OpeTest, RoundTripAndKeyCheck) {
  EXPECT_EQ(*OpeDecryptInt(5, OpeEncryptInt(5, -42)), -42);
  // Wrong key: the PRF pad will not match.
  EXPECT_FALSE(OpeDecryptInt(6, OpeEncryptInt(5, -42)).ok());
  EXPECT_FALSE(OpeDecryptInt(5, "bad").ok());
}

TEST(OpeTest, DoubleFixedPoint) {
  uint64_t key = 3;
  Result<std::string> ct = OpeEncryptValue(key, Value(12.3456));
  ASSERT_TRUE(ct.ok());
  Result<Value> back = OpeDecryptValue(key, *ct, DataType::kDouble);
  ASSERT_TRUE(back.ok());
  EXPECT_NEAR(back->AsDouble(), 12.3456, 1e-3);
  EXPECT_FALSE(OpeEncryptValue(key, Value(std::string("x"))).ok());
}

TEST(KeyringTest, DistributionEnforcement) {
  KeyRing ring;
  EXPECT_FALSE(ring.Get(1).ok());
  ring.Add(MakeKeyMaterial(77, 1));
  ASSERT_TRUE(ring.Get(1).ok());
  EXPECT_EQ(ring.Get(1)->key_id, 1u);
  EXPECT_EQ(ring.Get(2).status().code(), StatusCode::kNotFound);
}

TEST(KeyringTest, MaterialIsDeterministicPerSeed) {
  KeyMaterial a = MakeKeyMaterial(7, 3);
  KeyMaterial b = MakeKeyMaterial(7, 3);
  EXPECT_EQ(a.sym, b.sym);
  EXPECT_EQ(a.ope, b.ope);
  EXPECT_EQ(a.paillier.n, b.paillier.n);
  KeyMaterial c = MakeKeyMaterial(8, 3);
  EXPECT_NE(a.sym, c.sym);
}

class EncValueTest : public ::testing::Test {
 protected:
  KeyMaterial km_ = MakeKeyMaterial(11, 1);
};

TEST_F(EncValueTest, RoundTripAllSchemes) {
  Value v(int64_t{1234});
  for (EncScheme s : {EncScheme::kRandom, EncScheme::kDeterministic,
                      EncScheme::kOpe, EncScheme::kPaillier}) {
    Result<EncValue> ev = EncryptValue(v, s, 1, km_, 555);
    ASSERT_TRUE(ev.ok()) << EncSchemeName(s);
    Result<Value> back = DecryptValue(*ev, km_, DataType::kInt64);
    ASSERT_TRUE(back.ok()) << EncSchemeName(s);
    EXPECT_EQ(*back, v) << EncSchemeName(s);
  }
}

TEST_F(EncValueTest, PaillierDoubleRoundTrip) {
  Result<EncValue> ev =
      EncryptValue(Value(123.45), EncScheme::kPaillier, 1, km_, 9);
  ASSERT_TRUE(ev.ok());
  Result<Value> back = DecryptValue(*ev, km_, DataType::kDouble);
  ASSERT_TRUE(back.ok());
  EXPECT_NEAR(back->AsDouble(), 123.45, 1e-3);
}

TEST_F(EncValueTest, DetSupportsOnlyEquality) {
  Cell a(
      *EncryptValue(Value(int64_t{1}), EncScheme::kDeterministic, 1, km_, 1));
  Cell b(
      *EncryptValue(Value(int64_t{1}), EncScheme::kDeterministic, 1, km_, 2));
  Cell c(
      *EncryptValue(Value(int64_t{2}), EncScheme::kDeterministic, 1, km_, 3));
  EXPECT_TRUE(*CompareCells(CmpOp::kEq, a, b));
  EXPECT_TRUE(*CompareCells(CmpOp::kNe, a, c));
  EXPECT_FALSE(CompareCells(CmpOp::kLt, a, c).ok());
}

TEST_F(EncValueTest, OpeSupportsOrder) {
  Cell a(*EncryptValue(Value(int64_t{5}), EncScheme::kOpe, 1, km_, 1));
  Cell b(*EncryptValue(Value(int64_t{9}), EncScheme::kOpe, 1, km_, 2));
  EXPECT_TRUE(*CompareCells(CmpOp::kLt, a, b));
  EXPECT_TRUE(*CompareCells(CmpOp::kGe, b, a));
  EXPECT_TRUE(*CompareCells(CmpOp::kNe, a, b));
}

TEST_F(EncValueTest, RndAndHomNotComparable) {
  Cell a(*EncryptValue(Value(int64_t{1}), EncScheme::kRandom, 1, km_, 1));
  Cell b(*EncryptValue(Value(int64_t{1}), EncScheme::kRandom, 1, km_, 2));
  EXPECT_FALSE(CompareCells(CmpOp::kEq, a, b).ok());
  Cell c(*EncryptValue(Value(int64_t{1}), EncScheme::kPaillier, 1, km_, 3));
  Cell d(*EncryptValue(Value(int64_t{1}), EncScheme::kPaillier, 1, km_, 4));
  EXPECT_FALSE(CompareCells(CmpOp::kEq, c, d).ok());
}

TEST_F(EncValueTest, CrossKeyAndMixedComparisonsRejected) {
  KeyMaterial other = MakeKeyMaterial(11, 2);
  Cell a(
      *EncryptValue(Value(int64_t{1}), EncScheme::kDeterministic, 1, km_, 1));
  Cell b(
      *EncryptValue(Value(int64_t{1}), EncScheme::kDeterministic, 2, other, 1));
  EXPECT_FALSE(CompareCells(CmpOp::kEq, a, b).ok());
  Cell plain(Value(int64_t{1}));
  EXPECT_FALSE(CompareCells(CmpOp::kEq, a, plain).ok());
}

TEST_F(EncValueTest, GroupKeysForDetAndOpeOnly) {
  Cell det(
      *EncryptValue(Value(int64_t{1}), EncScheme::kDeterministic, 1, km_, 1));
  Cell ope(*EncryptValue(Value(int64_t{1}), EncScheme::kOpe, 1, km_, 1));
  Cell rnd(*EncryptValue(Value(int64_t{1}), EncScheme::kRandom, 1, km_, 1));
  EXPECT_TRUE(CellGroupKey(det).ok());
  EXPECT_TRUE(CellGroupKey(ope).ok());
  EXPECT_FALSE(CellGroupKey(rnd).ok());
  EXPECT_TRUE(CellGroupKey(Cell(Value(int64_t{1}))).ok());
}

TEST_F(EncValueTest, SchemeCostsOrdered) {
  EXPECT_LT(EncSchemeCpuMicros(EncScheme::kDeterministic),
            EncSchemeCpuMicros(EncScheme::kOpe));
  EXPECT_LT(EncSchemeCpuMicros(EncScheme::kOpe),
            EncSchemeCpuMicros(EncScheme::kPaillier));
  EXPECT_GT(EncSchemeCiphertextBytes(EncScheme::kDeterministic, 8), 8);
}

TEST_F(EncValueTest, ToStringTagsScheme) {
  EncValue ev = *EncryptValue(Value(int64_t{1}), EncScheme::kOpe, 3, km_, 1);
  std::string s = ev.ToString();
  EXPECT_NE(s.find("OPE"), std::string::npos);
  EXPECT_NE(s.find("k3"), std::string::npos);
}

// ------------------------------------------------------------------- KATs ---
//
// Known-answer tests: ciphertexts frozen from the current implementation.
// Any change to the cipher cores, encodings, or nonce handling that alters
// bytes on the wire (and would therefore break cross-version equality
// comparisons, OPE order, or stored data) fails here loudly.

namespace {

std::string Hex(const std::string& s) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : s) {
    out += kHex[c >> 4];
    out += kHex[c & 0xf];
  }
  return out;
}

}  // namespace

TEST(CryptoKat, OpeOrderPreservingFixedVectors) {
  // Key 0xfeedbeef; ciphertext bytes are both frozen and strictly
  // increasing with the plaintext — order preservation on exact vectors,
  // not just sampled pairs.
  const uint64_t key = 0xfeedbeefull;
  const std::pair<int64_t, const char*> kat[] = {
      {-1000000, "0000000000007ffffffffff0bdc0338e"},
      {-1, "0000000000007fffffffffffffff0c13"},
      {0, "0000000000008000000000000000fd8d"},
      {1, "00000000000080000000000000019ff3"},
      {42, "000000000000800000000000002a10bb"},
      {1000, "00000000000080000000000003e86785"},
      {123456789, "00000000000080000000075bcd1541ed"},
  };
  std::string prev;
  for (const auto& [v, want] : kat) {
    std::string ct = OpeEncryptInt(key, v);
    EXPECT_EQ(Hex(ct), want) << "OPE(" << v << ")";
    if (!prev.empty()) {
      EXPECT_LT(prev, ct) << "order broken at " << v;
    }
    prev = ct;
    EXPECT_EQ(*OpeDecryptInt(key, ct), v);
  }
}

TEST(CryptoKat, PaillierAdditiveHomomorphismFixedVectors) {
  // Seed 1234; messages 123 and -45 under nonces 17 and 23. The ciphertext
  // bytes, their homomorphic sum, and the decrypted signed total are all
  // frozen.
  PaillierKey key = PaillierKeyGen(1234);
  EXPECT_EQ(key.n, 2012814128907193631ull);
  uint128 c1 = PaillierEncrypt(key, PaillierEncodeSigned(key, 123), 17);
  uint128 c2 = PaillierEncrypt(key, PaillierEncodeSigned(key, -45), 23);
  EXPECT_EQ(Hex(PaillierCipherToBytes(c1)), "01fa1a095fbb1941e368bd9b65b6d501");
  EXPECT_EQ(Hex(PaillierCipherToBytes(c2)), "0d4c504ecf4bfaa7c0425659fc650600");
  uint128 sum = PaillierAdd(key.n, c1, c2);
  EXPECT_EQ(Hex(PaillierCipherToBytes(sum)),
            "98106646b7a1cb817f0c6b2dbe2a2e00");
  EXPECT_EQ(PaillierDecodeSigned(key, *PaillierDecrypt(key, sum)), 78);
  // The accumulation lifecycle lands on the same frozen ciphertext bytes.
  PaillierSumCtx ctx(key.n);
  ctx.Reset();
  ctx.Accumulate(c1);
  ctx.Accumulate(c2);
  EXPECT_EQ(ctx.accumulated(), 2u);
  EXPECT_EQ(Hex(PaillierCipherToBytes(ctx.Finalize())),
            "98106646b7a1cb817f0c6b2dbe2a2e00");
}

TEST(CryptoKat, PaillierKeyGenFixedVectors) {
  // Frozen key generation: the full key for fixed seeds, plus a digest of
  // the primes picked for seeds 0-999. Any change to which primes the
  // search accepts (candidate walk, trial divisors, witnesses) fails here.
  auto expect_key = [](uint64_t seed, uint64_t p, uint64_t q, uint64_t n,
                       uint64_t lambda, uint64_t mu) {
    PaillierKey key = PaillierKeyGen(seed);
    EXPECT_EQ(key.p, p) << "seed " << seed;
    EXPECT_EQ(key.q, q) << "seed " << seed;
    EXPECT_EQ(key.n, n) << "seed " << seed;
    EXPECT_EQ(key.lambda, lambda) << "seed " << seed;
    EXPECT_EQ(key.mu, mu) << "seed " << seed;
  };
  expect_key(0x0ull, 1639540219ull, 1074349517ull, 1761439242384724223ull,
             880719619835417244ull, 1402443488052279342ull);
  expect_key(0x1ull, 1703865463ull, 2066896241ull, 3521713120644424583ull,
             1760856558436831440ull, 3203274124271186357ull);
  expect_key(0x2ull, 1274814019ull, 1568559929ull, 1999622187130844651ull,
             999811092143735352ull, 998228782193866735ull);
  expect_key(0x7ull, 1950115367ull, 2058431059ull, 4014178040065983653ull,
             2007089018028718614ull, 1054166607078953698ull);
  expect_key(0x2aull, 1919348999ull, 1393532771ull, 2674675729092546229ull,
             191048266127118890ull, 1061363447426957034ull);
  expect_key(0x4d2ull, 1307600171ull, 1539319261ull, 2012814128907193631ull,
             201281412606027420ull, 1566462382162184091ull);
  expect_key(0xdeadbeefull, 1101072689ull, 1310522399ull,
             1442980421861660911ull, 721490209725032912ull,
             1126657879748447975ull);
  expect_key(0xffffffffffffffffull, 1542882053ull, 1920106987ull,
             2962498610082204311ull, 1481249303309607636ull,
             1422108895401515621ull);
  uint64_t digest = 0;
  for (uint64_t seed = 0; seed < 1000; ++seed) {
    PaillierKey key = PaillierKeyGen(seed);
    digest = SplitMix64(digest ^ key.p);
    digest = SplitMix64(digest ^ key.q);
  }
  EXPECT_EQ(digest, 0x888f38dce563c6b1ull);
}

TEST(CryptoKat, DeterministicAndOpeCellFixedVectors) {
  // KeyMaterial(seed=2024, key_id=7); DET and OPE cells over int 77.
  KeyMaterial km = MakeKeyMaterial(2024, 7);
  EncValue det =
      *EncryptValue(Value(int64_t{77}), EncScheme::kDeterministic, 7, km, 0);
  EXPECT_EQ(Hex(det.blob), "95c4b291a9eb15a235b37efbc8113f5089");
  EncValue ope = *EncryptValue(Value(int64_t{77}), EncScheme::kOpe, 7, km, 0);
  EXPECT_EQ(Hex(ope.blob), "000000000000800000000000004dde6b");
}

TEST(CryptoKat, RandomizedAndMultiBlockCellFixedVectors) {
  // KeyMaterial(seed=2024, key_id=7): RND cells (nonce prefix, then the
  // masked plaintext) and a 29-byte plaintext spanning four keystream
  // blocks, frozen so keystream changes cannot silently alter ciphertexts.
  KeyMaterial km = MakeKeyMaterial(2024, 7);
  const Value text(std::string("a longer plaintext, 29 bytes"));
  EXPECT_EQ(Hex(EncryptValue(Value(int64_t{77}), EncScheme::kRandom, 7, km,
                             12345)
                    ->blob),
            "3930000000000000ea565df2b58ff19fc5");
  EXPECT_EQ(Hex(EncryptValue(text, EncScheme::kRandom, 7, km, 12345)->blob),
            "3930000000000000f07a7d9edae196fab759350bbb226100749a6ef37abd51"
            "058210536f49");
  EXPECT_EQ(
      Hex(EncryptValue(text, EncScheme::kDeterministic, 7, km, 0)->blob),
      "8af00c5f058949f8bbc446add78313a04298e9df855e0b86108869808834ed365c99"
      "23599a");
  EXPECT_EQ(Hex(EncryptValue(Value(2.5), EncScheme::kRandom, 7, km, 99)->blob),
            "6300000000000000fcda94992e097b07f6");
}

TEST(CryptoKat, CodecSpansEqualSingleCellOnContiguousColumns) {
  // ColumnCodec::EncryptSpan over a contiguous column must produce exactly
  // the ciphertexts of per-cell EncryptValue drawing nonce_base + i — the
  // guarantee that lets the engine encrypt whole columns batch-parallel
  // without changing a single output bit.
  KeyMaterial km = MakeKeyMaterial(99, 3);
  ColumnCodec codec(km);
  const uint64_t nonce_base = 0x1000;
  const std::vector<int64_t> values = {5, -2, 0, 999, 5};
  for (EncScheme s : {EncScheme::kRandom, EncScheme::kDeterministic,
                      EncScheme::kOpe, EncScheme::kPaillier}) {
    std::vector<Cell> cells;
    cells.reserve(values.size());
    for (int64_t v : values) cells.emplace_back(Value(v));
    ColumnData column = ColumnFromCells(std::move(cells));
    ColumnData enc_column(ColumnRep::kEnc);
    ASSERT_TRUE(codec.EncryptSpan(column, 0, column.size(), s, nonce_base,
                                  &enc_column)
                    .ok())
        << EncSchemeName(s);
    ASSERT_EQ(enc_column.rep(), ColumnRep::kEnc);
    for (size_t i = 0; i < values.size(); ++i) {
      Result<EncValue> single =
          EncryptValue(Value(values[i]), s, 3, km, nonce_base + i);
      ASSERT_TRUE(single.ok());
      EXPECT_EQ(enc_column.EncAt(i).ToValue(), *single)
          << EncSchemeName(s) << " cell " << i;
    }
    // And DecryptSpan inverts the whole contiguous ciphertext column.
    std::vector<Cell> roundtrip(enc_column.size());
    ASSERT_TRUE(codec.DecryptSpan(enc_column, 0, enc_column.size(),
                                  DataType::kInt64, false, roundtrip.data())
                    .ok());
    for (size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(roundtrip[i].plain(), Value(values[i]))
          << EncSchemeName(s) << " cell " << i;
    }
  }
}

TEST(CryptoKat, ArenaEncryptionMatchesSingleCellOnEveryTypedRep) {
  // The RND/DET arena path serializes typed rows itself; it must agree
  // byte for byte with EncryptValue on doubles, strings and NULLs too, at
  // any span split.
  KeyMaterial km = MakeKeyMaterial(41, 6);
  ColumnCodec codec(km);
  std::vector<std::vector<Cell>> shapes(3);
  for (int i = 0; i < 9; ++i) {
    Cell null_cell(Value::Null());
    shapes[0].push_back(i % 4 == 2 ? null_cell : Cell(Value(int64_t{i * 7})));
    shapes[1].push_back(i % 4 == 1 ? null_cell : Cell(Value(i * 0.25 - 1)));
    shapes[2].push_back(i % 4 == 3 ? null_cell
                                   : Cell(Value(std::string(i, 'x'))));
  }
  for (std::vector<Cell>& shape : shapes) {
    ColumnData column = ColumnFromCells(shape);
    ASSERT_NE(column.rep(), ColumnRep::kCell);
    for (EncScheme s : {EncScheme::kRandom, EncScheme::kDeterministic}) {
      ColumnData enc_column(ColumnRep::kEnc);
      ASSERT_TRUE(codec.EncryptSpan(column, 0, 4, s, 100, &enc_column).ok());
      ASSERT_TRUE(
          codec.EncryptSpan(column, 4, column.size(), s, 100, &enc_column)
              .ok());
      ASSERT_EQ(enc_column.size(), column.size());
      for (size_t i = 0; i < column.size(); ++i) {
        Result<EncValue> single =
            EncryptValue(shape[i].plain(), s, 6, km, 100 + i);
        ASSERT_TRUE(single.ok());
        EXPECT_EQ(enc_column.EncAt(i).ToValue(), *single)
            << EncSchemeName(s) << " cell " << i;
      }
    }
  }
}

// The per-key precompute (CRT + Montgomery + fixed-exponent window
// schedules) and the public Montgomery add-context are pure accelerations:
// every output must equal the schoolbook PowMod/MulMod path bit-for-bit.

/// Independent schoolbook modular exponentiation (double-and-add MulMod),
/// the reference the precompute paths are checked against.
uint128 MulModRef(uint128 a, uint128 b, uint128 m) {
  a %= m;
  uint128 result = 0;
  while (b > 0) {
    if (b & 1) {
      result += a;
      if (result >= m) result -= m;
    }
    a <<= 1;
    if (a >= m) a -= m;
    b >>= 1;
  }
  return result;
}

uint128 PowModRef(uint128 base, uint128 exp, uint128 m) {
  uint128 result = 1 % m;
  base %= m;
  while (exp > 0) {
    if (exp & 1) result = MulModRef(result, base, m);
    base = MulModRef(base, base, m);
    exp >>= 1;
  }
  return result;
}
TEST(PaillierPrecompTest, EncryptDecryptBitIdenticalToSchoolbook) {
  for (uint64_t seed : {1ull, 7ull, 42ull, 20250729ull}) {
    PaillierKey key = PaillierKeyGen(seed);
    PaillierPrecomp pre(key);
    ASSERT_TRUE(pre.valid());
    for (uint64_t i = 0; i < 50; ++i) {
      uint64_t m = (i * 0x9e3779b97f4a7c15ull) % key.n;
      uint64_t rand = i * 1099511628211ull + 3;
      uint128 slow = PaillierEncrypt(key, m, rand);
      uint128 fast = pre.Encrypt(m, rand);
      ASSERT_EQ(PaillierCipherToBytes(fast), PaillierCipherToBytes(slow))
          << "seed " << seed << " i " << i;
      Result<uint64_t> slow_m = PaillierDecrypt(key, slow);
      Result<uint64_t> fast_m = pre.Decrypt(fast);
      ASSERT_TRUE(slow_m.ok());
      ASSERT_TRUE(fast_m.ok());
      ASSERT_EQ(*fast_m, *slow_m);
      ASSERT_EQ(*fast_m, m);
    }
    // The blinding exponentiation itself, over edge bases.
    for (uint64_t base :
         {uint64_t{0}, uint64_t{1}, uint64_t{2}, key.n - 1, key.n,
          key.n + 17}) {
      EXPECT_EQ(PaillierCipherToBytes(pre.PowN(base)),
                PaillierCipherToBytes(PowModRef(base, key.n, key.n2())))
          << "base " << base;
    }
  }
}

TEST(PaillierPrecompTest, MontgomeryAddBitIdenticalToMulModLadder) {
  for (uint64_t seed : {2ull, 11ull, 77ull}) {
    PaillierKey key = PaillierKeyGen(seed);
    PaillierSumCtx ctx(key.n);
    uint128 acc_slow = 0, acc_fast = 0;
    bool first = true;
    for (uint64_t i = 0; i < 64; ++i) {
      uint128 c = PaillierEncrypt(key, i * 31 % key.n, i + 1);
      if (first) {
        acc_slow = acc_fast = c;
        first = false;
        continue;
      }
      acc_slow = PaillierAdd(key.n, acc_slow, c);
      acc_fast = ctx.Add(acc_fast, c);
      ASSERT_EQ(PaillierCipherToBytes(acc_fast),
                PaillierCipherToBytes(acc_slow))
          << "seed " << seed << " step " << i;
    }
    Result<uint64_t> sum = PaillierDecrypt(key, acc_fast);
    ASSERT_TRUE(sum.ok());
    uint64_t expect = 0;
    for (uint64_t i = 0; i < 64; ++i) expect = (expect + i * 31) % key.n;
    EXPECT_EQ(*sum, expect);
  }
}

TEST(PaillierPrecompTest, AccumulationLifecycleBitIdenticalToAddChain) {
  // Every prefix length of the reusable lifecycle — the lazy group-by fold —
  // must land on exactly the ciphertext of the eager Add() chain, and the
  // batched entry point must match the streaming one, across Reset() reuse.
  for (uint64_t seed : {2ull, 11ull, 77ull}) {
    PaillierKey key = PaillierKeyGen(seed);
    PaillierSumCtx ctx(key.n);
    std::vector<uint128> cs;
    for (uint64_t i = 0; i < 64; ++i) {
      cs.push_back(PaillierEncrypt(key, i * 31 % key.n, i + 1));
    }
    uint128 chain = 0;
    ctx.Reset();
    for (size_t k = 0; k < cs.size(); ++k) {
      chain = k == 0 ? cs[k] : ctx.Add(chain, cs[k]);
      ctx.Accumulate(cs[k]);
      ASSERT_EQ(ctx.accumulated(), k + 1);
      ASSERT_EQ(PaillierCipherToBytes(ctx.Finalize()),
                PaillierCipherToBytes(chain))
          << "seed " << seed << " prefix " << k + 1;
    }
    // AccumulateMany in one shot, and split at an uneven boundary, on the
    // same context after Reset().
    ctx.Reset();
    ctx.AccumulateMany(cs.data(), cs.size());
    EXPECT_EQ(PaillierCipherToBytes(ctx.Finalize()),
              PaillierCipherToBytes(chain));
    ctx.Reset();
    ctx.AccumulateMany(cs.data(), 7);
    ctx.AccumulateMany(cs.data() + 7, cs.size() - 7);
    EXPECT_EQ(ctx.accumulated(), cs.size());
    EXPECT_EQ(PaillierCipherToBytes(ctx.Finalize()),
              PaillierCipherToBytes(chain));
    // Empty fold: Finalize is the additive identity placeholder (0).
    ctx.Reset();
    EXPECT_EQ(ctx.accumulated(), 0u);
    EXPECT_EQ(ctx.Finalize(), uint128{0});
  }
  // Degenerate (even) modulus: the lifecycle falls back to the schoolbook
  // chain, exactly like Add().
  PaillierSumCtx degenerate(/*n=*/6);
  uint128 a = 5, b = 11, c = 23;
  uint128 chain = PaillierAdd(6, PaillierAdd(6, a, b), c);
  degenerate.Reset();
  degenerate.Accumulate(a);
  degenerate.Accumulate(b);
  degenerate.Accumulate(c);
  EXPECT_EQ(degenerate.Finalize(), chain);
  EXPECT_EQ(degenerate.Add(degenerate.Add(a, b), c), chain);
}

TEST(PaillierPrecompTest, InvalidKeyFallsBackGracefully) {
  PaillierKey bogus;  // no factors
  PaillierPrecomp pre(bogus);
  EXPECT_FALSE(pre.valid());
  // KeyMaterial always carries a valid precompute for generated keys.
  KeyMaterial km = MakeKeyMaterial(5, 9);
  ASSERT_NE(km.hom_precomp, nullptr);
  EXPECT_TRUE(km.hom_precomp->valid());
}

/// One strong-probable-prime round of `n` (odd, > 2) to base `a` over the
/// schoolbook ladder.
bool StrongProbablePrimeRef(uint64_t n, uint64_t a) {
  uint64_t d = n - 1;
  int s = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++s;
  }
  uint128 x = PowModRef(a % n, d, n);
  if (x == 1 || x == n - 1) return true;
  for (int i = 0; i < s - 1; ++i) {
    x = MulModRef(x, x, n);
    if (x == n - 1) return true;
  }
  return false;
}

/// The primality test key generation ran before the native-width
/// arithmetic: trial division, then twelve Miller-Rabin witnesses, every
/// modular product through the schoolbook ladder.
bool IsPrimeRef(uint64_t n) {
  if (n < 2) return false;
  const uint64_t kSmall[] = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37};
  for (uint64_t d : kSmall) {
    if (n % d == 0) return n == d;
  }
  for (uint64_t a : kSmall) {
    if (!StrongProbablePrimeRef(n, a)) return false;
  }
  return true;
}

bool IsPrimeByTrialDivision(uint64_t n) {
  if (n < 2) return false;
  for (uint64_t d = 2; d * d <= n; ++d) {
    if (n % d == 0) return false;
  }
  return true;
}

TEST(PrimalityTest, MatchesSchoolbookNearKeyIntervalEnds) {
  // Key primes are searched upward from [2^30, 2^31), so candidates reach
  // just past 2^31; 2^32 is where 64-bit products of two residues stop
  // fitting below 2^64.
  const uint64_t kRadius = 1500;
  for (uint64_t end : {1ull << 30, 1ull << 31, 1ull << 32}) {
    for (uint64_t n = end - kRadius; n <= end + kRadius; ++n) {
      const bool want = IsPrimeByTrialDivision(n);
      ASSERT_EQ(IsPrimeRef(n), want) << n;
      ASSERT_EQ(IsPrimeU64(n), want) << n;
    }
  }
  for (uint64_t n = 0; n <= 2000; ++n) {
    ASSERT_EQ(IsPrimeU64(n), IsPrimeByTrialDivision(n)) << n;
  }
}

TEST(PrimalityTest, RejectsStrongPseudoprimes) {
  // Strong pseudoprimes to base 2: 2047 = 23 * 89 falls to trial division;
  // the others have no factor <= 37 and reach Miller-Rabin, 3215031751
  // passing bases 2, 3, 5 and 7, and 4294967297 = 2^32 + 1 = 641 * 6700417
  // is the top of the 32-bit range. Last, a composite that is a strong
  // pseudoprime to every prime base below 37.
  const uint64_t kBase2[] = {2047, 8321, 42799, 49141, 3215031751, 4294967297};
  for (uint64_t n : kBase2) {
    ASSERT_TRUE(StrongProbablePrimeRef(n, 2)) << n;
    EXPECT_FALSE(IsPrimeRef(n)) << n;
    EXPECT_FALSE(IsPrimeU64(n)) << n;
  }
  const uint64_t kBases2To31 = 3825123056546413051ull;
  for (uint64_t a : {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}) {
    ASSERT_TRUE(StrongProbablePrimeRef(kBases2To31, a)) << a;
  }
  EXPECT_FALSE(IsPrimeRef(kBases2To31));
  EXPECT_FALSE(IsPrimeU64(kBases2To31));
  // The largest prime below 2^64, where products need all 128 bits.
  EXPECT_TRUE(IsPrimeRef(18446744073709551557ull));
  EXPECT_TRUE(IsPrimeU64(18446744073709551557ull));
}

}  // namespace
}  // namespace mpq
