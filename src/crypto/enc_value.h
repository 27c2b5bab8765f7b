// Encrypted cells and the plaintext-or-encrypted Cell type flowing through
// the execution engine.

#ifndef MPQ_CRYPTO_ENC_VALUE_H_
#define MPQ_CRYPTO_ENC_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "algebra/expr.h"
#include "common/status.h"
#include "common/value.h"
#include "crypto/keyring.h"
#include "crypto/scheme.h"

namespace mpq {

/// An encrypted cell value.
struct EncValue {
  EncScheme scheme = EncScheme::kRandom;
  uint64_t key_id = 0;
  std::string blob;
  /// Auxiliary plaintext counter: number of values homomorphically summed
  /// into a Paillier ciphertext (1 for a freshly encrypted value). Carried in
  /// the clear so avg can divide after decryption; counts are not protected
  /// by the authorization model (they are count(*)-level information).
  int64_t aux = 1;

  size_t ByteSize() const { return blob.size() + 8; }
  std::string ToString() const;

  bool operator==(const EncValue& o) const {
    return scheme == o.scheme && key_id == o.key_id && blob == o.blob &&
           aux == o.aux;
  }
};

/// One ciphertext read in place: `blob` borrows its bytes (a column's
/// arena, or an EncValue) and stays valid only while they do.
struct EncView {
  EncScheme scheme = EncScheme::kRandom;
  uint64_t key_id = 0;
  std::string_view blob;
  int64_t aux = 1;

  EncView() = default;
  EncView(EncScheme s, uint64_t k, std::string_view b, int64_t a)
      : scheme(s), key_id(k), blob(b), aux(a) {}
  EncView(const EncValue& ev)  // NOLINT: a view of an owning ciphertext
      : scheme(ev.scheme), key_id(ev.key_id), blob(ev.blob), aux(ev.aux) {}

  /// An owning copy, for the Cell boundary.
  EncValue ToValue() const {
    return EncValue{scheme, key_id, std::string(blob), aux};
  }
};

/// A cell: plaintext Value or EncValue.
class Cell {
 public:
  Cell() : v_(Value()) {}
  Cell(Value v) : v_(std::move(v)) {}          // NOLINT
  Cell(EncValue v) : v_(std::move(v)) {}       // NOLINT

  bool is_plain() const { return std::holds_alternative<Value>(v_); }
  bool is_encrypted() const { return !is_plain(); }

  const Value& plain() const { return std::get<Value>(v_); }
  const EncValue& enc() const { return std::get<EncValue>(v_); }
  /// Mutable views, for callers that move a cell's payload out.
  Value& plain_mut() { return std::get<Value>(v_); }
  EncValue& enc_mut() { return std::get<EncValue>(v_); }

  size_t ByteSize() const {
    return is_plain() ? plain().ByteSize() : enc().ByteSize();
  }
  std::string ToString() const {
    return is_plain() ? plain().ToString() : enc().ToString();
  }

 private:
  std::variant<Value, EncValue> v_;
};

/// Encrypts `v` under `scheme` with key `key_id` from `keys`. `fresh_nonce`
/// feeds randomized encryption (and Paillier blinding).
Result<EncValue> EncryptValue(const Value& v, EncScheme scheme, uint64_t key_id,
                              const KeyMaterial& keys, uint64_t fresh_nonce);

/// Decrypts a ciphertext; `type` guides numeric decoding. For Paillier cells
/// this returns the (decoded) homomorphic sum; callers divide by `aux` when
/// the cell represents an average.
Result<Value> DecryptValue(const EncView& ev, const KeyMaterial& keys,
                           DataType type);

/// Evaluates `a op b` over two cells. Plaintext pairs compare as Values;
/// DET ciphertexts support =/<>, OPE ciphertexts all comparisons (same key
/// required). Everything else is kUnsupported.
Result<bool> CompareCells(CmpOp op, const Cell& a, const Cell& b);

/// CompareCells over two ciphertexts, read in place.
Result<bool> CompareCiphertexts(CmpOp op, const EncView& a, const EncView& b);

/// Grouping/join key bytes for a cell (canonical for plaintext, blob for
/// deterministic and OPE ciphertexts; kUnsupported for RND/HOM, which are not
/// comparable).
Result<std::string> CellGroupKey(const Cell& c);

}  // namespace mpq

#endif  // MPQ_CRYPTO_ENC_VALUE_H_
