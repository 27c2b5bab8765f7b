// Symmetric cipher used for the kRandom and kDeterministic schemes.
//
// A keystream cipher built on splitmix64: ciphertext = nonce || (plaintext ⊕
// keystream(key, nonce)). Deterministic mode derives the nonce as a PRF of
// the plaintext, so equal plaintexts under the same key yield equal
// ciphertexts (equality-preserving); randomized mode draws a fresh nonce.
//
// This is a functional simulation adequate for reproducing the paper's
// system behaviour (which subject can read, compare or aggregate which
// attribute); it is NOT cryptographically strong.

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

/// Rows per call of the block primitives below. Their SplitMix64 chains
/// are independent across rows, so running the rows of a block interleaved
/// lets the CPU overlap the chains' multiplies instead of waiting on one.
inline constexpr size_t kCryptoBlock = 8;

/// DetNonce of `n` <= kCryptoBlock rows: `nonces[k]` = DetNonce(key,
/// `in[k]`, `len[k]`).
void DetNonceBlock(uint64_t key, const char* const* in, const size_t* len,
                   size_t n, uint64_t* nonces);

/// The keystream XOR of SymEncryptTo/SymDecrypt over `n` <= kCryptoBlock
/// rows: `out[k][0, len[k])` = `in[k]` masked by the keystream of (key,
/// `nonces[k]`). `in[k]` may equal `out[k]` (in place).
void XorKeystreamBlock(uint64_t key, const uint64_t* nonces,
                       const char* const* in, const size_t* len, size_t n,
                       char* const* out);

/// Deterministic encryption: nonce = PRF(key, plaintext).
std::string DetEncrypt(uint64_t key, const std::string& plaintext);

/// Randomized encryption with caller-provided nonce source.
std::string RndEncrypt(uint64_t key, uint64_t fresh_nonce,
                       const std::string& plaintext);

/// Inverts SymEncrypt/DetEncrypt/RndEncrypt.
Result<std::string> SymDecrypt(uint64_t key, std::string_view ciphertext);

}  // namespace mpq

#endif  // MPQ_CRYPTO_CIPHER_H_
