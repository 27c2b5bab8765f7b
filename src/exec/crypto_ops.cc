#include "common/str_util.h"
#include "crypto/column_codec.h"
#include "exec/exec_internal.h"

namespace mpq {
namespace exec_internal {

Result<Table> ExecEncrypt(const PlanNode* n, Table in, ExecContext* ctx) {
  if (ctx->keyring == nullptr) {
    return Status::NotFound("engine holds no keyring");
  }
  std::vector<AttrId> attrs = n->attrs.ToVector();
  for (AttrId a : attrs) {
    int idx = in.ColIndex(a);
    if (idx < 0) return ColNotFound(n, a, *ctx->catalog);
    ExecColumn& col = in.columns()[static_cast<size_t>(idx)];
    if (col.encrypted) {
      return Status::InvalidArgument(StrFormat(
          "node %d: attribute %s is already encrypted", n->id,
          col.name.c_str()));
    }
    EncScheme scheme = ctx->crypto != nullptr ? ctx->crypto->SchemeOf(a)
                                              : EncScheme::kDeterministic;
    uint64_t key_id = ctx->crypto != nullptr ? ctx->crypto->KeyOf(a) : 0;
    const KeyMaterial* km = ctx->keyring->Find(key_id);
    if (km == nullptr) {
      return Status::NotFound(
          StrFormat("key %llu was not distributed to this subject",
                    static_cast<unsigned long long>(key_id)));
    }
    ColumnCodec codec(*km);
    // One PRF-derived nonce range per (node, column): row r uses
    // nonce_base + r, so ciphertexts do not depend on batch scheduling,
    // thread count, or sibling-subtree execution order. The whole column is
    // encrypted with one key lookup, batch-parallel over its contiguous
    // plaintext vector (EncryptSpan is const and thread-safe): each morsel
    // fills its own ciphertext column, spliced in morsel order.
    uint64_t nonce_base = ctx->ColumnNonceBase(n->id, a);
    const ColumnData& src = in.col(static_cast<size_t>(idx));
    size_t grain = Grain(ctx);
    std::vector<ColumnData> parts((in.num_rows() + grain - 1) / grain,
                                  ColumnData(ColumnRep::kEnc));
    MPQ_RETURN_NOT_OK(OpParallelFor(
        ctx, OpKind::kEncrypt, in.num_rows(),
        [&](size_t begin, size_t end) -> Status {
          return codec.EncryptSpan(src, begin, end, scheme, nonce_base,
                                   &parts[begin / grain]);
        }));
    ColumnData encs(ColumnRep::kEnc);
    for (ColumnData& part : parts) encs.MoveAppend(std::move(part));
    in.SetColumnData(static_cast<size_t>(idx), std::move(encs));
    col.encrypted = true;
    col.scheme = scheme;
    col.key_id = key_id;
  }
  return in;
}

Result<Table> ExecDecrypt(const PlanNode* n, Table in, ExecContext* ctx) {
  if (ctx->keyring == nullptr) {
    return Status::NotFound("engine holds no keyring");
  }
  std::vector<AttrId> attrs = n->attrs.ToVector();
  for (AttrId a : attrs) {
    int idx = in.ColIndex(a);
    if (idx < 0) return ColNotFound(n, a, *ctx->catalog);
    ExecColumn& col = in.columns()[static_cast<size_t>(idx)];
    if (!col.encrypted) {
      return Status::InvalidArgument(StrFormat(
          "node %d: attribute %s is not encrypted", n->id, col.name.c_str()));
    }
    const KeyMaterial* km = ctx->keyring->Find(col.key_id);
    if (km == nullptr) {
      return Status::NotFound(
          StrFormat("key %llu was not distributed to this subject",
                    static_cast<unsigned long long>(col.key_id)));
    }
    ColumnCodec codec(*km);
    bool avg = col.hom_avg;
    const ColumnData& src = in.col(static_cast<size_t>(idx));
    std::vector<Cell> cells(in.num_rows());
    // DecryptSpan handles the whole span: ciphertexts decrypt (including the
    // homomorphic-average division), plain NULLs and stray plaintext cells
    // inside a ciphertext column pass through untouched.
    MPQ_RETURN_NOT_OK(OpParallelFor(
        ctx, OpKind::kDecrypt, in.num_rows(),
        [&](size_t begin, size_t end) -> Status {
          return codec.DecryptSpan(src, begin, end, col.type, avg,
                                   cells.data() + begin);
        }));
    in.SetColumnData(static_cast<size_t>(idx),
                     ColumnFromCells(std::move(cells)));
    col.encrypted = false;
    if (avg) {
      col.type = DataType::kDouble;
      col.hom_avg = false;
    }
  }
  return in;
}

}  // namespace exec_internal
}  // namespace mpq
