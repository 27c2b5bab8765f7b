#include "crypto/cipher.h"

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
