// Paillier additively homomorphic cryptosystem over a small (64-bit) modulus.
//
// A real Paillier implementation (keygen, Enc, Dec, homomorphic addition)
// sized so ciphertext arithmetic fits in unsigned __int128. Supports the
// paper's encrypted sum/avg aggregation. Small-modulus keys are NOT secure;
// they reproduce system behaviour, not cryptographic strength.

#ifndef MPQ_CRYPTO_PAILLIER_H_
#define MPQ_CRYPTO_PAILLIER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace mpq {

using uint128 = unsigned __int128;

/// A Paillier key pair. n = p·q with 31-bit primes p, q; g = n + 1.
struct PaillierKey {
  uint64_t n = 0;        ///< Public modulus.
  uint64_t p = 0;        ///< Secret prime.
  uint64_t q = 0;        ///< Secret prime.
  uint64_t lambda = 0;   ///< lcm(p-1, q-1).
  uint64_t mu = 0;       ///< lambda^{-1} mod n.

  uint128 n2() const { return static_cast<uint128>(n) * n; }
};

/// Deterministically generates a key pair from `seed` (distinct seeds yield
/// distinct keys; generation is reproducible for tests).
PaillierKey PaillierKeyGen(uint64_t seed);

/// Deterministic primality for any 64-bit n: trial division by the primes
/// up to 37, then Miller-Rabin over those twelve witnesses, with
/// native-width (64x64 -> 128-bit) modular products. PaillierKeyGen's prime
/// search; exposed for the primality edge-case tests.
bool IsPrimeU64(uint64_t n);

/// Encrypts message m ∈ [0, n). `rand` supplies the blinding randomness.
uint128 PaillierEncrypt(const PaillierKey& key, uint64_t m, uint64_t rand);

/// Decrypts a ciphertext.
Result<uint64_t> PaillierDecrypt(const PaillierKey& key, uint128 c);

/// Homomorphic addition: Dec(PaillierAdd(n, c1, c2)) = m1 + m2 mod n.
/// Requires only the public modulus — an untrusted provider can aggregate
/// ciphertexts without holding the private key.
uint128 PaillierAdd(uint64_t n, uint128 c1, uint128 c2);

/// Encodes a signed value into [0, n) (two's-complement style around n/2).
uint64_t PaillierEncodeSigned(const PaillierKey& key, int64_t v);

/// Inverse of PaillierEncodeSigned.
int64_t PaillierDecodeSigned(const PaillierKey& key, uint64_t m);

/// Serializes a ciphertext to 16 little-endian bytes (and back).
std::string PaillierCipherToBytes(uint128 c);
Result<uint128> PaillierCipherFromBytes(std::string_view bytes);

// ------------------------------------------------------------ fast paths ---
//
// The schoolbook PowMod above runs a 128-step double-and-add MulMod per
// squaring — hundreds of loop iterations per modular multiplication. The
// contexts below precompute, once per key, everything the hot paths reuse:
// Montgomery domains (reduction without division), the CRT split of n² into
// p²·q² (64-bit arithmetic instead of 128-bit), and the sliding-window
// multiplication schedules of the key's two fixed exponents (n for the
// blinding factor r^n of encryption, λ for decryption). All of it is pure
// precomputation of mathematically identical operations: every ciphertext
// and plaintext byte produced equals the schoolbook path bit-for-bit, which
// the frozen KATs in tests/crypto_test.cc pin.

/// A 64-bit Montgomery domain over an odd modulus < 2^63.
struct Mont64 {
  uint64_t m = 0;        ///< Modulus.
  uint64_t neg_inv = 0;  ///< -m^{-1} mod 2^64.
  uint64_t r2 = 0;       ///< R² mod m, R = 2^64.

  void Init(uint64_t modulus);
  /// Montgomery product a·b·R^{-1} mod m (operands in Montgomery form).
  uint64_t Mul(uint64_t a, uint64_t b) const {
    uint128 t = static_cast<uint128>(a) * b;
    uint64_t u = static_cast<uint64_t>(t) * neg_inv;
    uint128 s = t + static_cast<uint128>(u) * m;
    auto res = static_cast<uint64_t>(s >> 64);
    return res >= m ? res - m : res;
  }
  uint64_t ToMont(uint64_t x) const { return Mul(x % m, r2); }
  uint64_t FromMont(uint64_t x) const { return Mul(x, 1); }
};

/// The precomputed sliding-window multiplication schedule of one fixed
/// exponent: squarings interleaved with multiplications by odd powers
/// base^1, base^3, …, base^15 of the (per-call) base.
struct WindowSchedule {
  struct Op {
    uint8_t squares = 0;  ///< Squarings to apply before the multiply.
    int8_t mul = -1;      ///< Odd-power index ((digit-1)/2), or -1 for none.
  };
  std::vector<Op> ops;  ///< ops[0].mul seeds the accumulator (no squares).

  /// Builds the schedule of exponent `e` >= 1 (4-bit windows).
  static WindowSchedule For(uint64_t e);
};

/// Per-key precomputation for encryption/decryption: CRT-split
/// exponentiation over p² and q² in Montgomery form, driven by the window
/// schedules of the fixed exponents n and λ. Requires the private factors;
/// `valid()` is false for a key holding only the public modulus, and
/// callers then fall back to the schoolbook path.
class PaillierPrecomp {
 public:
  explicit PaillierPrecomp(const PaillierKey& key);

  bool valid() const { return valid_; }

  /// Enc(m) with blinding randomness `rand` — bit-identical to
  /// PaillierEncrypt(key, m, rand).
  uint128 Encrypt(uint64_t m, uint64_t rand) const;

  /// Dec(c) — bit-identical to PaillierDecrypt(key, c).
  Result<uint64_t> Decrypt(uint128 c) const;

  /// base^n mod n² (the encryption blinding exponentiation), exposed for
  /// equivalence tests.
  uint128 PowN(uint64_t base) const;

 private:
  /// base^e mod p²·q² via per-prime window exponentiation + CRT combine.
  uint128 CrtPow(uint128 base, const WindowSchedule& sched) const;

  bool valid_ = false;
  PaillierKey key_;
  uint128 n2_ = 0;
  Mont64 p2_, q2_;
  uint64_t q2_inv_p2_ = 0;  ///< (q²)^{-1} mod p².
  WindowSchedule n_sched_, lambda_sched_;
};

/// Montgomery context over the public n² for homomorphic addition — the
/// group-by hot path adds one ciphertext per row, and this replaces each
/// 128-step MulMod ladder with carry-propagated Montgomery reductions.
/// Needs only the public modulus, like PaillierAdd (whose outputs it
/// reproduces bit-for-bit).
///
/// Two usage shapes:
///  - Add(): stateless pairwise addition, const and thread-safe.
///  - The reusable accumulation lifecycle — Reset(), then Accumulate /
///    AccumulateMany over any number of ciphertexts, then Finalize(). Every
///    operand costs a single Montgomery reduction where an Add() chain pays
///    two reductions plus two 128-bit divisions; the accumulated R-exponent
///    deficit is repaid once at Finalize() in O(log k) multiplications.
///    Finalize() returns the canonical residue ∏cᵢ mod n², bit-identical to
///    the Add() chain over the same operands. One context serves any number
///    of folds (Reset() clears the accumulator, never the constants), but
///    the lifecycle is stateful: not safe for concurrent folds on one
///    context.
class PaillierSumCtx {
 public:
  explicit PaillierSumCtx(uint64_t n);

  uint64_t n() const { return n_; }

  /// Homomorphic addition: == PaillierAdd(n, c1, c2).
  uint128 Add(uint128 c1, uint128 c2) const;

  /// Clears the accumulator for a new fold (precomputed constants persist).
  void Reset() {
    acc_ = 0;
    count_ = 0;
  }
  /// Folds one ciphertext into the accumulator.
  void Accumulate(uint128 c);
  /// Batch multi-operand accumulation over a contiguous ciphertext span:
  /// one Montgomery reduction per operand, no per-operand domain exits.
  void AccumulateMany(const uint128* c, size_t n);
  /// The canonical homomorphic sum of everything accumulated since Reset()
  /// (0 when nothing was). Leaves the accumulator intact: more operands may
  /// be accumulated and finalized again.
  uint128 Finalize() const;
  /// Operands folded since the last Reset().
  size_t accumulated() const { return count_; }

 private:
  /// T·R^{-1} mod m for the 256-bit T in `t` (little-endian limbs).
  uint128 Redc(uint64_t t[4]) const;
  uint128 MontMul(uint128 a, uint128 b) const;

  uint64_t n_ = 0;
  uint128 m_ = 0;         ///< n².
  uint64_t neg_inv_ = 0;  ///< -m^{-1} mod 2^64.
  uint128 r2_ = 0;        ///< R² mod m, R = 2^128.
  bool mont_ = false;     ///< Montgomery constants usable (odd m_ > 2).
  uint128 acc_ = 0;       ///< Fold accumulator: ∏cᵢ·R^(2-count_) mod m.
  size_t count_ = 0;      ///< Operands since Reset().
};

}  // namespace mpq

#endif  // MPQ_CRYPTO_PAILLIER_H_
