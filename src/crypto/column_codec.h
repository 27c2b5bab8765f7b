// Column-level crypto codec: one resolved (key material, Montgomery
// context) bundle that encrypts, decrypts, or homomorphically folds whole
// ColumnData spans. This replaced the ad-hoc per-cell-array entry points
// (EncryptCellBatch/DecryptCellBatch, since deleted) and the call-site
// PaillierSumCtx plumbing: key material and the per-key hom_precomp are
// resolved once when the codec is built, and every span operation touches
// each ciphertext exactly once, contiguously.
//
// A codec comes in two strengths. Built from full KeyMaterial it supports
// every operation. Built from only a public Paillier modulus it supports
// homomorphic folding but refuses to encrypt or decrypt — which is exactly
// the paper's untrusted-provider property: aggregation over ciphertexts
// needs no private key, so the engine can hand a fold-only codec to a
// provider that was never distributed the key.

#ifndef MPQ_CRYPTO_COLUMN_CODEC_H_
#define MPQ_CRYPTO_COLUMN_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "crypto/enc_value.h"
#include "crypto/keyring.h"
#include "exec/column.h"

namespace mpq {

class ColumnCodec {
 public:
  /// Full-strength codec: encrypt, decrypt, and fold under `km`.
  explicit ColumnCodec(const KeyMaterial& km);

  /// Fold-only codec from public knowledge: homomorphic addition over
  /// ciphertexts of `key_id` whose Paillier modulus is `public_modulus`.
  /// EncryptSpan/DecryptSpan fail with kNotFound.
  ColumnCodec(uint64_t key_id, uint64_t public_modulus);

  uint64_t key_id() const { return key_id_; }
  /// True when the codec holds full key material (can encrypt/decrypt).
  bool has_material() const { return has_material_; }

  /// Encrypts plaintext rows [begin, end) of `src` under `scheme`,
  /// appending the `end - begin` ciphertexts to `out`, a kEnc column. Row r
  /// draws nonce `nonce_base + r` (absolute row index), so spans may be
  /// encrypted in any batch partition — including concurrently into
  /// separate columns, the method is const and thread-safe — without
  /// changing a single output bit. Typed int64/double/string rows under
  /// RND, DET and OPE (and non-NULL numeric rows under Paillier) run
  /// batched kernels that size the arena once per span and write the
  /// ciphertexts straight into it; the bytes equal EncryptValue's. A NULL
  /// row under OPE becomes a NULL row (empty blob, null mask): it orders
  /// below every ciphertext, as NULL orders below every value.
  Status EncryptSpan(const ColumnData& src, size_t begin, size_t end,
                     EncScheme scheme, uint64_t nonce_base,
                     ColumnData* out) const;

  /// Decrypts rows [begin, end) of `src` into a column built as
  /// ColumnFromCells would build it from the decrypted cells: NULL rows
  /// become NULLs, plaintext rows pass through untouched, ciphertext rows
  /// decrypt with `type` guiding numeric decoding. When `hom_avg` is set
  /// the ciphertexts hold Paillier sums whose `aux` counter is the divisor,
  /// and the plaintext written is the divided double. A kEnc span decrypts
  /// straight into typed vectors; a kCell span, or one whose plaintexts
  /// have different types, goes through cells. ConcatSpans joins the spans
  /// of a column. Const and thread-safe.
  Result<ColumnData> DecryptSpan(const ColumnData& src, size_t begin,
                                 size_t end, DataType type,
                                 bool hom_avg) const;

  /// DecryptSpan's rows as cells, into `out[0..end - begin)`.
  Status DecryptSpan(const ColumnData& src, size_t begin, size_t end,
                     DataType type, bool hom_avg, Cell* out) const;

  /// Eager pairwise homomorphic addition: == PaillierAdd on the public n.
  /// Const and thread-safe.
  uint128 HomAdd(uint128 c1, uint128 c2) const { return sum_.Add(c1, c2); }

  /// Lazy fold: the homomorphic sum of the `n` Paillier ciphertexts of
  /// `col` at row indices `rows[0..n)`, as the canonical product residue —
  /// bit-identical to a HomAdd chain over the same rows. The ciphertexts
  /// are staged contiguously and folded with one batch Montgomery
  /// accumulation (one reduction per operand). Callers validate scheme and
  /// key id; this folds whatever blobs the rows hold. NOT thread-safe: the
  /// fold reuses one accumulation context across calls.
  Result<uint128> FoldRows(const ColumnData& col, const uint32_t* rows,
                           size_t n);

 private:
  /// The per-cell path: kCell spans, and spans whose plaintexts disagree.
  Status DecryptCells(const ColumnData& src, size_t begin, size_t end,
                      DataType type, bool hom_avg, Cell* out) const;

  bool has_material_ = false;
  uint64_t key_id_ = 0;
  KeyMaterial km_;
  PaillierSumCtx sum_;
  std::vector<uint128> scratch_;  ///< FoldRows operand staging.
};

}  // namespace mpq

#endif  // MPQ_CRYPTO_COLUMN_CODEC_H_
