#include "crypto/paillier.h"

#include <cstring>

#include "common/rng.h"

namespace mpq {

namespace {

/// (a * b) mod m for 128-bit operands via double-and-add.
uint128 MulMod(uint128 a, uint128 b, uint128 m) {
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

uint128 PowMod(uint128 base, uint128 exp, uint128 m) {
  uint128 result = 1 % m;
  base %= m;
  while (exp > 0) {
    if (exp & 1) result = MulMod(result, base, m);
    base = MulMod(base, base, m);
    exp >>= 1;
  }
  return result;
}

uint64_t Gcd(uint64_t a, uint64_t b) {
  while (b != 0) {
    uint64_t t = a % b;
    a = b;
    b = t;
  }
  return a;
}

/// (a * b) mod m with one native 64x64 -> 128-bit product and one division.
uint64_t MulMod64(uint64_t a, uint64_t b, uint64_t m) {
  return static_cast<uint64_t>(static_cast<uint128>(a) * b % m);
}

uint64_t PowMod64(uint64_t base, uint64_t exp, uint64_t m) {
  uint64_t result = 1 % m;
  base %= m;
  while (exp > 0) {
    if (exp & 1) result = MulMod64(result, base, m);
    base = MulMod64(base, base, m);
    exp >>= 1;
  }
  return result;
}

/// Modular inverse via extended Euclid; returns 0 when not invertible.
uint64_t InvMod(uint64_t a, uint64_t m) {
  int64_t t = 0, new_t = 1;
  int64_t r = static_cast<int64_t>(m), new_r = static_cast<int64_t>(a % m);
  while (new_r != 0) {
    int64_t q = r / new_r;
    int64_t tmp = t - q * new_t;
    t = new_t;
    new_t = tmp;
    tmp = r - q * new_r;
    r = new_r;
    new_r = tmp;
  }
  if (r > 1) return 0;
  if (t < 0) t += static_cast<int64_t>(m);
  return static_cast<uint64_t>(t);
}

uint64_t NextPrime(uint64_t start) {
  uint64_t n = start | 1;
  while (!IsPrimeU64(n)) n += 2;
  return n;
}

uint64_t Lcm(uint64_t a, uint64_t b) { return a / Gcd(a, b) * b; }

}  // namespace

bool IsPrimeU64(uint64_t n) {
  if (n < 2) return false;
  for (uint64_t d : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull,
                     23ull, 29ull, 31ull, 37ull}) {
    if (n % d == 0) return n == d;
  }
  // Deterministic Miller-Rabin for 64-bit with the standard witness set.
  uint64_t d = n - 1;
  int s = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++s;
  }
  for (uint64_t a : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull,
                     23ull, 29ull, 31ull, 37ull}) {
    uint64_t x = PowMod64(a % n, d, n);
    if (x == 1 || x == n - 1) continue;
    bool witness = true;
    for (int i = 0; i < s - 1; ++i) {
      x = MulMod64(x, x, n);
      if (x == n - 1) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

PaillierKey PaillierKeyGen(uint64_t seed) {
  Rng rng(seed);
  PaillierKey key;
  // 31-bit primes so n < 2^62 and n^2 < 2^124 fits uint128 comfortably.
  for (;;) {
    key.p = NextPrime((rng.Next() % (1ull << 30)) + (1ull << 30));
    key.q = NextPrime((rng.Next() % (1ull << 30)) + (1ull << 30));
    if (key.p == key.q) continue;
    key.n = key.p * key.q;
    key.lambda = Lcm(key.p - 1, key.q - 1);
    key.mu = InvMod(key.lambda % key.n, key.n);
    if (key.mu != 0) break;
  }
  return key;
}

uint128 PaillierEncrypt(const PaillierKey& key, uint64_t m, uint64_t rand) {
  uint128 n2 = key.n2();
  // r must be coprime with n.
  uint64_t r = rand % key.n;
  while (r == 0 || Gcd(r, key.n) != 1) r = (r + 1) % key.n;
  // g^m mod n^2 with g = n+1 simplifies to (1 + m·n) mod n^2.
  uint128 gm = (1 + MulMod(static_cast<uint128>(m), key.n, n2)) % n2;
  uint128 rn = PowMod(r, key.n, n2);
  return MulMod(gm, rn, n2);
}

Result<uint64_t> PaillierDecrypt(const PaillierKey& key, uint128 c) {
  uint128 n2 = key.n2();
  if (c == 0 || c >= n2) {
    return Status::InvalidArgument("ciphertext out of range");
  }
  uint128 x = PowMod(c, key.lambda, n2);
  // L(x) = (x - 1) / n.
  uint128 l = (x - 1) / key.n;
  uint64_t m = static_cast<uint64_t>(
      MulMod(l, static_cast<uint128>(key.mu), static_cast<uint128>(key.n)));
  return m;
}

uint128 PaillierAdd(uint64_t n, uint128 c1, uint128 c2) {
  uint128 n2 = static_cast<uint128>(n) * n;
  return MulMod(c1, c2, n2);
}

uint64_t PaillierEncodeSigned(const PaillierKey& key, int64_t v) {
  if (v >= 0) return static_cast<uint64_t>(v) % key.n;
  // |v| by unsigned negation, which also holds for INT64_MIN.
  return key.n - ((0 - static_cast<uint64_t>(v)) % key.n);
}

int64_t PaillierDecodeSigned(const PaillierKey& key, uint64_t m) {
  if (m > key.n / 2) return -static_cast<int64_t>(key.n - m);
  return static_cast<int64_t>(m);
}

// ------------------------------------------------------------ fast paths ---

void Mont64::Init(uint64_t modulus) {
  m = modulus;
  // Newton–Hensel inversion of the odd modulus mod 2^64: the seed m is
  // correct to 3 bits (m·m ≡ 1 mod 8), each step doubles the precision.
  uint64_t inv = m;
  for (int i = 0; i < 5; ++i) inv *= 2 - m * inv;
  neg_inv = ~inv + 1;
  uint64_t r = ~uint64_t{0} % m + 1;  // 2^64 mod m (m odd, so never 0)
  r2 = static_cast<uint64_t>(static_cast<uint128>(r) * r % m);
}

WindowSchedule WindowSchedule::For(uint64_t e) {
  WindowSchedule sched;
  int i = 63;
  while (((e >> i) & 1) == 0) --i;
  bool first = true;
  int pending = 0;
  while (i >= 0) {
    if (((e >> i) & 1) == 0) {
      ++pending;
      --i;
      continue;
    }
    // Longest window of <= 4 bits ending in a set bit.
    int j = i - 3 < 0 ? 0 : i - 3;
    while (((e >> j) & 1) == 0) ++j;
    int width = i - j + 1;
    auto digit = static_cast<uint64_t>((e >> j) & ((1ull << width) - 1));
    WindowSchedule::Op op;
    op.squares = first ? 0 : static_cast<uint8_t>(pending + width);
    op.mul = static_cast<int8_t>(digit >> 1);
    sched.ops.push_back(op);
    first = false;
    pending = 0;
    i = j - 1;
  }
  if (pending > 0) {
    WindowSchedule::Op op;
    op.squares = static_cast<uint8_t>(pending);
    sched.ops.push_back(op);
  }
  return sched;
}

namespace {

/// base^e mod mc.m, driving `sched` (the window schedule of e) over a
/// per-call table of the first eight odd powers of the base.
uint64_t WindowPow(const Mont64& mc, uint64_t base,
                   const WindowSchedule& sched) {
  uint64_t t[8];
  t[0] = mc.ToMont(base);
  uint64_t b2 = mc.Mul(t[0], t[0]);
  for (int k = 1; k < 8; ++k) t[k] = mc.Mul(t[k - 1], b2);
  uint64_t acc = t[sched.ops[0].mul];
  for (size_t k = 1; k < sched.ops.size(); ++k) {
    const WindowSchedule::Op& op = sched.ops[k];
    for (int s = 0; s < op.squares; ++s) acc = mc.Mul(acc, acc);
    if (op.mul >= 0) acc = mc.Mul(acc, t[op.mul]);
  }
  return mc.FromMont(acc);
}

}  // namespace

PaillierPrecomp::PaillierPrecomp(const PaillierKey& key) : key_(key) {
  // Mont64 needs p², q² < 2^63, i.e. factors <= floor(sqrt(2^63)).
  constexpr uint64_t kMaxFactor = 3037000499ull;
  if (key.p < 2 || key.q < 2 || key.p == key.q || key.n != key.p * key.q ||
      key.lambda == 0 || key.p > kMaxFactor || key.q > kMaxFactor) {
    return;  // no usable private factors: callers fall back to PowMod
  }
  n2_ = key.n2();
  p2_.Init(key.p * key.p);
  q2_.Init(key.q * key.q);
  q2_inv_p2_ = InvMod(q2_.m % p2_.m, p2_.m);
  if (q2_inv_p2_ == 0) return;
  n_sched_ = WindowSchedule::For(key.n);
  lambda_sched_ = WindowSchedule::For(key.lambda);
  valid_ = true;
}

uint128 PaillierPrecomp::CrtPow(uint128 base,
                                const WindowSchedule& sched) const {
  uint64_t xp = WindowPow(p2_, static_cast<uint64_t>(base % p2_.m), sched);
  uint64_t xq = WindowPow(q2_, static_cast<uint64_t>(base % q2_.m), sched);
  // Garner recombination: x = xq + q²·((xp - xq)·(q²)^{-1} mod p²).
  uint64_t d = xp + p2_.m - xq % p2_.m;
  if (d >= p2_.m) d -= p2_.m;
  uint64_t h = MulMod64(d, q2_inv_p2_, p2_.m);
  return static_cast<uint128>(q2_.m) * h + xq;
}

uint128 PaillierPrecomp::PowN(uint64_t base) const {
  return CrtPow(base, n_sched_);
}

uint128 PaillierPrecomp::Encrypt(uint64_t m, uint64_t rand) const {
  // Identical blinding derivation to PaillierEncrypt.
  uint64_t r = rand % key_.n;
  while (r == 0 || Gcd(r, key_.n) != 1) r = (r + 1) % key_.n;
  uint128 gm = (1 + static_cast<uint128>(m) * key_.n % n2_) % n2_;
  // gm·r^n mod n², with the exponentiation and the final multiplication
  // both folded through the CRT legs.
  uint64_t rp = WindowPow(p2_, r % p2_.m, n_sched_);
  uint64_t rq = WindowPow(q2_, r % q2_.m, n_sched_);
  uint64_t cp = MulMod64(static_cast<uint64_t>(gm % p2_.m), rp, p2_.m);
  uint64_t cq = MulMod64(static_cast<uint64_t>(gm % q2_.m), rq, q2_.m);
  uint64_t d = cp + p2_.m - cq % p2_.m;
  if (d >= p2_.m) d -= p2_.m;
  uint64_t h = MulMod64(d, q2_inv_p2_, p2_.m);
  return static_cast<uint128>(q2_.m) * h + cq;
}

Result<uint64_t> PaillierPrecomp::Decrypt(uint128 c) const {
  if (c == 0 || c >= n2_) {
    return Status::InvalidArgument("ciphertext out of range");
  }
  uint128 x = CrtPow(c, lambda_sched_);
  uint128 l = (x - 1) / key_.n;
  // MulMod (not a plain 128-bit product) so even degenerate non-coprime
  // ciphertexts, where l exceeds 64 bits, decode identically to PowMod.
  return static_cast<uint64_t>(
      MulMod(l, static_cast<uint128>(key_.mu), static_cast<uint128>(key_.n)));
}

PaillierSumCtx::PaillierSumCtx(uint64_t n) : n_(n) {
  m_ = static_cast<uint128>(n) * n;
  if ((static_cast<uint64_t>(m_) & 1) == 0 || m_ <= 2) return;
  uint64_t m0 = static_cast<uint64_t>(m_);
  uint64_t inv = m0;
  for (int i = 0; i < 5; ++i) inv *= 2 - m0 * inv;
  neg_inv_ = ~inv + 1;
  // R² mod m (R = 2^128) by 256 modular doublings; m < 2^124 keeps every
  // doubling inside uint128.
  uint128 x = 1 % m_;
  for (int i = 0; i < 256; ++i) {
    x <<= 1;
    if (x >= m_) x -= m_;
  }
  r2_ = x;
  mont_ = true;
}

void PaillierSumCtx::Accumulate(uint128 c) {
  if (!mont_) {  // degenerate modulus: schoolbook chain, like Add()
    acc_ = count_ == 0 ? c : PaillierAdd(n_, acc_, c);
    ++count_;
    return;
  }
  // Each *plain* operand costs exactly one reduction: MontMul multiplies by
  // the operand and divides by R, so after k operands the accumulator holds
  // ∏cᵢ·R^(2-k) — Finalize repays the R-exponent deficit in O(log k).
  // Operands need no pre-reduction: acc < m keeps every intermediate
  // product below m·R, which is all Redc requires, and the multiplication
  // reduces raw operands implicitly.
  acc_ = count_ == 0 ? MontMul(c, r2_) : MontMul(acc_, c);
  ++count_;
}

void PaillierSumCtx::AccumulateMany(const uint128* c, size_t n) {
  if (n == 0) return;
  if (!mont_) {
    for (size_t i = 0; i < n; ++i) Accumulate(c[i]);
    return;
  }
  size_t i = 0;
  uint128 acc = acc_;
  if (count_ == 0) acc = MontMul(c[i++], r2_);
  for (; i < n; ++i) acc = MontMul(acc, c[i]);
  acc_ = acc;
  count_ += n;
}

uint128 PaillierSumCtx::Finalize() const {
  if (!mont_ || count_ == 0) return acc_;
  // After k = count_ operands the accumulator holds P·R^(2-k) mod m, where
  // P is the canonical product: the first operand entered the Montgomery
  // domain (exponent 1) and each of the k-1 plain multiplications divided
  // by R. One final MontMul against R^(k-1) mod m — Montgomery-
  // exponentiated in O(log k), with r2_ as the Montgomery form of R —
  // yields P exactly, bit-identical to the eager Add chain.
  if (count_ == 1) return MontMul(acc_, 1);
  uint128 z = MontMul(r2_, 1);  // R mod m, the Montgomery form of 1
  uint128 base = r2_;           // Montgomery form of R
  size_t e = count_ - 2;        // z holds the Montgomery form of R^(e_done)
  while (e > 0) {
    if (e & 1) z = MontMul(z, base);
    base = MontMul(base, base);
    e >>= 1;
  }
  return MontMul(acc_, z);
}

uint128 PaillierSumCtx::Redc(uint64_t t[4]) const {
  uint64_t m0 = static_cast<uint64_t>(m_);
  uint64_t m1 = static_cast<uint64_t>(m_ >> 64);
  for (int i = 0; i < 2; ++i) {
    uint64_t u = t[0] * neg_inv_;
    uint128 c = static_cast<uint128>(u) * m0 + t[0];  // low limb becomes 0
    uint64_t carry = static_cast<uint64_t>(c >> 64);
    c = static_cast<uint128>(u) * m1 + t[1] + carry;
    t[0] = static_cast<uint64_t>(c);
    carry = static_cast<uint64_t>(c >> 64);
    c = static_cast<uint128>(t[2]) + carry;
    t[1] = static_cast<uint64_t>(c);
    t[2] = t[3] + static_cast<uint64_t>(c >> 64);
    t[3] = 0;
  }
  uint128 res = static_cast<uint128>(t[1]) << 64 | t[0];
  // t[2] is zero here: REDC of T < m·R yields a value < 2m < 2^125.
  if (res >= m_) res -= m_;
  return res;
}

uint128 PaillierSumCtx::MontMul(uint128 a, uint128 b) const {
  auto a0 = static_cast<uint64_t>(a), a1 = static_cast<uint64_t>(a >> 64);
  auto b0 = static_cast<uint64_t>(b), b1 = static_cast<uint64_t>(b >> 64);
  uint128 p00 = static_cast<uint128>(a0) * b0;
  uint128 p01 = static_cast<uint128>(a0) * b1;
  uint128 p10 = static_cast<uint128>(a1) * b0;
  uint128 p11 = static_cast<uint128>(a1) * b1;
  uint64_t t[4];
  t[0] = static_cast<uint64_t>(p00);
  uint128 mid = (p00 >> 64) + static_cast<uint64_t>(p01) +
                static_cast<uint64_t>(p10);
  t[1] = static_cast<uint64_t>(mid);
  uint128 mid2 = (mid >> 64) + (p01 >> 64) + (p10 >> 64) +
                 static_cast<uint64_t>(p11);
  t[2] = static_cast<uint64_t>(mid2);
  t[3] = static_cast<uint64_t>((mid2 >> 64) + (p11 >> 64));
  return Redc(t);
}

uint128 PaillierSumCtx::Add(uint128 c1, uint128 c2) const {
  if (!mont_) {
    return PaillierAdd(n_, c1, c2);  // degenerate modulus: schoolbook path
  }
  uint128 a = c1 % m_;
  uint128 b = c2 % m_;
  return MontMul(MontMul(a, b), r2_);
}

std::string PaillierCipherToBytes(uint128 c) {
  std::string out;
  out.resize(16);
  std::memcpy(out.data(), &c, 16);
  return out;
}

Result<uint128> PaillierCipherFromBytes(std::string_view bytes) {
  if (bytes.size() < 16) return Status::InvalidArgument("bad Paillier bytes");
  uint128 c;
  std::memcpy(&c, bytes.data(), 16);
  return c;
}

}  // namespace mpq
