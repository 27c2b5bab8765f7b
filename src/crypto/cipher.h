// Symmetric cipher used for the kRandom and kDeterministic schemes.
//
// A keystream cipher built on splitmix64: ciphertext = nonce || (plaintext ⊕
// keystream(key, nonce)). Deterministic mode derives the nonce as a PRF of
// the plaintext, so equal plaintexts under the same key yield equal
// ciphertexts (equality-preserving); randomized mode draws a fresh nonce.
//
// This is a functional simulation adequate for reproducing the paper's
// system behaviour (see DESIGN.md §2); it is NOT cryptographically strong.

#ifndef MPQ_CRYPTO_CIPHER_H_
#define MPQ_CRYPTO_CIPHER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace mpq {

/// Encrypts `plaintext` with `key`. `nonce` must be unique per call for
/// randomized encryption, or PRF-derived for deterministic encryption.
/// Layout: 8-byte little-endian nonce, then the XOR-masked plaintext.
std::string SymEncrypt(uint64_t key, uint64_t nonce,
                       const std::string& plaintext);

/// SymEncrypt into `out[0, 8 + len)`, allocation-free: for encoders that
/// write ciphertexts straight into a column arena.
void SymEncryptTo(uint64_t key, uint64_t nonce, const char* plaintext,
                  size_t len, char* out);

/// The deterministic scheme's nonce, PRF(key, plaintext).
uint64_t DetNonce(uint64_t key, const char* plaintext, size_t len);

/// Deterministic encryption: nonce = PRF(key, plaintext).
std::string DetEncrypt(uint64_t key, const std::string& plaintext);

/// Randomized encryption with caller-provided nonce source.
std::string RndEncrypt(uint64_t key, uint64_t fresh_nonce,
                       const std::string& plaintext);

/// Inverts SymEncrypt/DetEncrypt/RndEncrypt.
Result<std::string> SymDecrypt(uint64_t key, std::string_view ciphertext);

}  // namespace mpq

#endif  // MPQ_CRYPTO_CIPHER_H_
