// Order-preserving encryption for numeric values.
//
// Encodes x as the 128-bit value (offset(x) << 16) | PRF16(key, x): the high
// bits carry the order, the low bits a keyed pseudo-random pad, so ciphertext
// comparison (as big-endian bytes) matches plaintext order while equal
// plaintexts under the same key still encrypt deterministically (OPE supports
// both order and equality comparisons). Doubles are mapped through a
// fixed-point scaling. Strings are not supported (range predicates over
// strings fall back to plaintext execution; see DerivePlaintextNeeds).

#ifndef MPQ_CRYPTO_OPE_H_
#define MPQ_CRYPTO_OPE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/value.h"

namespace mpq {

/// Fixed-point scale for doubles under OPE and Paillier.
inline constexpr int64_t kFixedPointScale = 10000;

/// The fixed-point integer OPE and Paillier encrypt a double as.
int64_t ToFixedPoint(double v);

/// Size of an OPE ciphertext.
inline constexpr size_t kOpeCipherBytes = 16;

/// Encrypts an int64. Ciphertext is a 16-byte big-endian string whose
/// lexicographic order equals the plaintext numeric order.
std::string OpeEncryptInt(uint64_t key, int64_t x);

/// OpeEncryptInt into `out[0, 16)`, allocation-free: for encoders that
/// write ciphertexts straight into a column arena.
void OpeEncryptIntTo(uint64_t key, int64_t x, char* out);

/// Inverts OpeEncryptInt.
Result<int64_t> OpeDecryptInt(uint64_t key, std::string_view ct);

/// Encrypts a numeric Value (int64 or double via fixed-point).
Result<std::string> OpeEncryptValue(uint64_t key, const Value& v);

/// Decrypts to a Value of the given type.
Result<Value> OpeDecryptValue(uint64_t key, std::string_view ct,
                              DataType type);

}  // namespace mpq

#endif  // MPQ_CRYPTO_OPE_H_
