// Microbenchmark: per-value cost of the four encryption schemes (RND, DET,
// OPE, Paillier) plus homomorphic addition and ciphertext size inflation.
// Expected shape: Paillier orders of magnitude above the symmetric schemes —
// the ratio the economic cost model encodes.

#include <benchmark/benchmark.h>

#include "crypto/cipher.h"
#include "crypto/enc_value.h"
#include "crypto/keyring.h"
#include "crypto/ope.h"

namespace mpq {
namespace {

const KeyMaterial& Km() {
  static const KeyMaterial km = MakeKeyMaterial(42, 1);
  return km;
}

void BM_EncryptValue(benchmark::State& state) {
  EncScheme scheme = static_cast<EncScheme>(state.range(0));
  Value v(int64_t{123456});
  uint64_t nonce = 1;
  for (auto _ : state) {
    auto ev = EncryptValue(v, scheme, 1, Km(), nonce++);
    benchmark::DoNotOptimize(ev);
  }
  state.SetLabel(EncSchemeName(scheme));
}
BENCHMARK(BM_EncryptValue)->DenseRange(0, 3);

void BM_DecryptValue(benchmark::State& state) {
  EncScheme scheme = static_cast<EncScheme>(state.range(0));
  Value v(int64_t{123456});
  EncValue ev = *EncryptValue(v, scheme, 1, Km(), 7);
  for (auto _ : state) {
    auto back = DecryptValue(ev, Km(), DataType::kInt64);
    benchmark::DoNotOptimize(back);
  }
  state.SetLabel(EncSchemeName(scheme));
}
BENCHMARK(BM_DecryptValue)->DenseRange(0, 3);

void BM_PaillierAdd(benchmark::State& state) {
  PaillierKey key = Km().paillier;
  uint128 c1 = PaillierEncrypt(key, 1000, 3);
  uint128 c2 = PaillierEncrypt(key, 2000, 5);
  for (auto _ : state) {
    c1 = PaillierAdd(key.n, c1, c2);
    benchmark::DoNotOptimize(c1);
  }
}
BENCHMARK(BM_PaillierAdd);

// Key generation runs once per Def 6.1 key group on every plan-cache miss;
// a fresh seed per iteration walks a fresh pair of prime searches.
void BM_PaillierKeyGen(benchmark::State& state) {
  uint64_t seed = 1;
  for (auto _ : state) {
    PaillierKey key = PaillierKeyGen(seed++);
    benchmark::DoNotOptimize(key);
  }
}
BENCHMARK(BM_PaillierKeyGen);

// The whole per-key bundle DistributeKeys builds: symmetric and OPE
// sub-keys, the Paillier key and its PaillierPrecomp.
void BM_MakeKeyMaterial(benchmark::State& state) {
  uint64_t seed = 1;
  for (auto _ : state) {
    KeyMaterial km = MakeKeyMaterial(seed++, 1);
    benchmark::DoNotOptimize(km);
  }
}
BENCHMARK(BM_MakeKeyMaterial);

void BM_DetCompare(benchmark::State& state) {
  Cell a(
      *EncryptValue(Value(int64_t{1}), EncScheme::kDeterministic, 1, Km(), 1));
  Cell b(
      *EncryptValue(Value(int64_t{1}), EncScheme::kDeterministic, 1, Km(), 2));
  for (auto _ : state) {
    auto eq = CompareCells(CmpOp::kEq, a, b);
    benchmark::DoNotOptimize(eq);
  }
}
BENCHMARK(BM_DetCompare);

void BM_OpeCompare(benchmark::State& state) {
  Cell a(*EncryptValue(Value(int64_t{10}), EncScheme::kOpe, 1, Km(), 1));
  Cell b(*EncryptValue(Value(int64_t{20}), EncScheme::kOpe, 1, Km(), 2));
  for (auto _ : state) {
    auto lt = CompareCells(CmpOp::kLt, a, b);
    benchmark::DoNotOptimize(lt);
  }
}
BENCHMARK(BM_OpeCompare);

void BM_CiphertextBytes(benchmark::State& state) {
  // Size inflation per scheme for an 8-byte value (reported as label).
  EncScheme scheme = static_cast<EncScheme>(state.range(0));
  for (auto _ : state) {
    double bytes = EncSchemeCiphertextBytes(scheme, 8);
    benchmark::DoNotOptimize(bytes);
  }
  state.SetLabel(std::string(EncSchemeName(scheme)) + " 8B -> " +
                 std::to_string(EncSchemeCiphertextBytes(scheme, 8)) + "B");
}
BENCHMARK(BM_CiphertextBytes)->DenseRange(0, 3);

}  // namespace
}  // namespace mpq

BENCHMARK_MAIN();
