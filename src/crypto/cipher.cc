#include "crypto/cipher.h"

#include <algorithm>
#include <cstring>

#include "common/rng.h"
#include "crypto/scheme.h"

namespace mpq {

const char* EncSchemeName(EncScheme s) {
  switch (s) {
    case EncScheme::kRandom:
      return "RND";
    case EncScheme::kDeterministic:
      return "DET";
    case EncScheme::kOpe:
      return "OPE";
    case EncScheme::kPaillier:
      return "HOM";
  }
  return "?";
}

double EncSchemeCpuMicros(EncScheme s) {
  switch (s) {
    case EncScheme::kRandom:
      return 0.1;
    case EncScheme::kDeterministic:
      return 0.1;
    case EncScheme::kOpe:
      return 3.0;
    case EncScheme::kPaillier:
      return 250.0;
  }
  return 0.1;
}

double EncSchemeCiphertextBytes(EncScheme s, double plain_bytes) {
  switch (s) {
    case EncScheme::kRandom:
    case EncScheme::kDeterministic:
      return plain_bytes + 8.0;  // nonce prefix
    case EncScheme::kOpe:
      return 16.0;
    case EncScheme::kPaillier:
      return 24.0;  // 16-byte ciphertext + 8-byte auxiliary counter
  }
  return plain_bytes;
}

namespace {

/// XORs `len` bytes of `in` with the keystream of (key, nonce) into `out`:
/// block k = the k-th SplitMix64 step from SplitMix64(key ^
/// SplitMix64(nonce)), its little-endian bytes masking bytes [8k, 8k + 8).
void XorKeystream(uint64_t key, uint64_t nonce, const char* in, size_t len,
                  char* out) {
  uint64_t state = SplitMix64(key ^ SplitMix64(nonce));
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    state = SplitMix64(state);
    uint64_t word;
    std::memcpy(&word, in + i, 8);
    word ^= state;
    std::memcpy(out + i, &word, 8);
  }
  state = SplitMix64(state);
  for (size_t k = 0; i < len; ++i, ++k) {
    out[i] = static_cast<char>(in[i] ^ static_cast<char>(state >> (8 * k)));
  }
}

}  // namespace

uint64_t DetNonce(uint64_t key, const char* plaintext, size_t len) {
  uint64_t h = SplitMix64(key ^ 0xdeadbeefcafef00dull);
  for (size_t i = 0; i < len; ++i) {
    h = SplitMix64(h ^ static_cast<unsigned char>(plaintext[i]));
  }
  return h;
}

// The block primitives always run kCryptoBlock lanes so the lane loops
// unroll into independent chains; lanes at or past `n` compute on zero
// state and touch no memory.

void DetNonceBlock(uint64_t key, const char* const* in, const size_t* len,
                   size_t n, uint64_t* nonces) {
  uint64_t h[kCryptoBlock];
  size_t l[kCryptoBlock];
  size_t max_len = 0;
  const uint64_t h0 = SplitMix64(key ^ 0xdeadbeefcafef00dull);
  for (size_t k = 0; k < kCryptoBlock; ++k) {
    h[k] = h0;
    l[k] = k < n ? len[k] : 0;
    max_len = std::max(max_len, l[k]);
  }
  for (size_t i = 0; i < max_len; ++i) {
    for (size_t k = 0; k < kCryptoBlock; ++k) {
      bool live = i < l[k];
      uint64_t next = SplitMix64(
          h[k] ^ (live ? static_cast<unsigned char>(in[k][i]) : 0u));
      h[k] = live ? next : h[k];
    }
  }
  for (size_t k = 0; k < n; ++k) nonces[k] = h[k];
}

void XorKeystreamBlock(uint64_t key, const uint64_t* nonces,
                       const char* const* in, const size_t* len, size_t n,
                       char* const* out) {
  // Lane k's state runs as XorKeystream's: SplitMix64(key ^
  // SplitMix64(nonce)), then one step per 8-byte word and one for the tail.
  uint64_t s[kCryptoBlock];
  size_t l[kCryptoBlock];
  size_t words = 0;
  for (size_t k = 0; k < kCryptoBlock; ++k) {
    s[k] = k < n ? nonces[k] : 0;
    l[k] = k < n ? len[k] : 0;
    words = std::max(words, (l[k] + 7) / 8);
  }
  for (size_t k = 0; k < kCryptoBlock; ++k) s[k] = SplitMix64(s[k]);
  for (size_t k = 0; k < kCryptoBlock; ++k) s[k] = SplitMix64(key ^ s[k]);
  for (size_t j = 0; j < words; ++j) {
    for (size_t k = 0; k < kCryptoBlock; ++k) s[k] = SplitMix64(s[k]);
    size_t at = 8 * j;
    for (size_t k = 0; k < n; ++k) {
      if (at + 8 <= l[k]) {
        uint64_t word;
        std::memcpy(&word, in[k] + at, 8);
        word ^= s[k];
        std::memcpy(out[k] + at, &word, 8);
      } else {
        for (size_t b = 0; at + b < l[k]; ++b) {
          out[k][at + b] = static_cast<char>(
              in[k][at + b] ^ static_cast<char>(s[k] >> (8 * b)));
        }
      }
    }
  }
}

void SymEncryptTo(uint64_t key, uint64_t nonce, const char* plaintext,
                  size_t len, char* out) {
  std::memcpy(out, &nonce, 8);
  XorKeystream(key, nonce, plaintext, len, out + 8);
}

std::string SymEncrypt(uint64_t key, uint64_t nonce,
                       const std::string& plaintext) {
  std::string out(8 + plaintext.size(), '\0');
  SymEncryptTo(key, nonce, plaintext.data(), plaintext.size(), out.data());
  return out;
}

std::string DetEncrypt(uint64_t key, const std::string& plaintext) {
  return SymEncrypt(key, DetNonce(key, plaintext.data(), plaintext.size()),
                    plaintext);
}

std::string RndEncrypt(uint64_t key, uint64_t fresh_nonce,
                       const std::string& plaintext) {
  return SymEncrypt(key, fresh_nonce, plaintext);
}

Result<std::string> SymDecrypt(uint64_t key, std::string_view ciphertext) {
  if (ciphertext.size() < 8) {
    return Status::InvalidArgument("ciphertext too short");
  }
  uint64_t nonce;
  std::memcpy(&nonce, ciphertext.data(), 8);
  std::string out(ciphertext.size() - 8, '\0');
  XorKeystream(key, nonce, ciphertext.data() + 8, out.size(), out.data());
  return out;
}

}  // namespace mpq
