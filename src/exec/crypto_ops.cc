#include "common/str_util.h"
#include "crypto/column_codec.h"
#include "exec/exec_internal.h"

namespace mpq {
namespace exec_internal {

namespace {

Result<const KeyMaterial*> FindKey(const ExecContext* ctx, uint64_t key_id) {
  const KeyMaterial* km = ctx->keyring->Find(key_id);
  if (km == nullptr) {
    return Status::NotFound(
        StrFormat("key %llu was not distributed to this subject",
                  static_cast<unsigned long long>(key_id)));
  }
  return km;
}

/// Runs `span(j, begin, end)` for every attribute j < `attrs` over each
/// morsel of `rows` rows in one OpParallelFor, so every morsel handles the
/// span of every attribute. Fails with the error the attribute-at-a-time
/// loop would meet first: the lowest attribute's, then its lowest morsel's.
Status ForEachAttrSpan(ExecContext* ctx, OpKind kind, size_t rows,
                       size_t attrs,
                       const std::function<Status(size_t, size_t, size_t)>&
                           span) {
  size_t grain = Grain(ctx);
  size_t morsels = (rows + grain - 1) / grain;
  std::vector<Status> errors(attrs * morsels);
  MPQ_RETURN_NOT_OK(OpParallelFor(
      ctx, kind, rows, [&](size_t begin, size_t end) -> Status {
        for (size_t j = 0; j < attrs; ++j) {
          errors[j * morsels + begin / grain] = span(j, begin, end);
        }
        return Status::OK();
      }));
  for (const Status& st : errors) MPQ_RETURN_NOT_OK(st);
  return Status::OK();
}

}  // namespace

Result<Table> ExecEncrypt(const PlanNode* n, Table in, ExecContext* ctx) {
  if (ctx->keyring == nullptr) {
    return Status::NotFound("engine holds no keyring");
  }
  // Resolve every attribute's column, scheme, key and codec first.
  struct Job {
    size_t idx;
    EncScheme scheme;
    uint64_t key_id;
    uint64_t nonce_base;
    ColumnCodec codec;
  };
  std::vector<Job> jobs;
  for (AttrId a : n->attrs.ToVector()) {
    int idx = in.ColIndex(a);
    if (idx < 0) return ColNotFound(n, a, *ctx->catalog);
    const ExecColumn& col = in.columns()[static_cast<size_t>(idx)];
    if (col.encrypted) {
      return Status::InvalidArgument(StrFormat(
          "node %d: attribute %s is already encrypted", n->id,
          col.name.c_str()));
    }
    EncScheme scheme = ctx->crypto != nullptr ? ctx->crypto->SchemeOf(a)
                                              : EncScheme::kDeterministic;
    uint64_t key_id = ctx->crypto != nullptr ? ctx->crypto->KeyOf(a) : 0;
    MPQ_ASSIGN_OR_RETURN(const KeyMaterial* km, FindKey(ctx, key_id));
    // One PRF-derived nonce range per (node, column): row r uses
    // nonce_base + r, so ciphertexts do not depend on batch scheduling,
    // thread count, or sibling-subtree execution order.
    jobs.push_back(Job{static_cast<size_t>(idx), scheme, key_id,
                       ctx->ColumnNonceBase(n->id, a), ColumnCodec(*km)});
  }
  // Each morsel encrypts its span of every column into its own ciphertext
  // part (EncryptSpan is const and thread-safe); parts splice in morsel
  // order.
  size_t grain = Grain(ctx);
  std::vector<std::vector<ColumnData>> parts(
      jobs.size(), std::vector<ColumnData>((in.num_rows() + grain - 1) / grain,
                                           ColumnData(ColumnRep::kEnc)));
  MPQ_RETURN_NOT_OK(ForEachAttrSpan(
      ctx, OpKind::kEncrypt, in.num_rows(), jobs.size(),
      [&](size_t j, size_t begin, size_t end) {
        const Job& job = jobs[j];
        return job.codec.EncryptSpan(in.col(job.idx), begin, end, job.scheme,
                                     job.nonce_base, &parts[j][begin / grain]);
      }));
  for (size_t j = 0; j < jobs.size(); ++j) {
    ColumnData encs(ColumnRep::kEnc);
    encs.MoveAppendAll(std::move(parts[j]));
    in.SetColumnData(jobs[j].idx, std::move(encs));
    ExecColumn& col = in.columns()[jobs[j].idx];
    col.encrypted = true;
    col.scheme = jobs[j].scheme;
    col.key_id = jobs[j].key_id;
  }
  return in;
}

Result<Table> ExecDecrypt(const PlanNode* n, Table in, ExecContext* ctx) {
  if (ctx->keyring == nullptr) {
    return Status::NotFound("engine holds no keyring");
  }
  struct Job {
    size_t idx;
    ColumnCodec codec;
  };
  std::vector<Job> jobs;
  for (AttrId a : n->attrs.ToVector()) {
    int idx = in.ColIndex(a);
    if (idx < 0) return ColNotFound(n, a, *ctx->catalog);
    const ExecColumn& col = in.columns()[static_cast<size_t>(idx)];
    if (!col.encrypted) {
      return Status::InvalidArgument(StrFormat(
          "node %d: attribute %s is not encrypted", n->id, col.name.c_str()));
    }
    MPQ_ASSIGN_OR_RETURN(const KeyMaterial* km, FindKey(ctx, col.key_id));
    jobs.push_back(Job{static_cast<size_t>(idx), ColumnCodec(*km)});
  }
  // DecryptSpan turns each morsel's span into a typed part: ciphertexts
  // decrypt (including the homomorphic-average division), NULLs and stray
  // plaintext cells inside a ciphertext column pass through. ConcatSpans
  // joins the parts in morsel order.
  size_t grain = Grain(ctx);
  std::vector<std::vector<ColumnData>> parts(
      jobs.size(),
      std::vector<ColumnData>((in.num_rows() + grain - 1) / grain));
  MPQ_RETURN_NOT_OK(ForEachAttrSpan(
      ctx, OpKind::kDecrypt, in.num_rows(), jobs.size(),
      [&](size_t j, size_t begin, size_t end) -> Status {
        const ExecColumn& col = in.columns()[jobs[j].idx];
        MPQ_ASSIGN_OR_RETURN(
            parts[j][begin / grain],
            jobs[j].codec.DecryptSpan(in.col(jobs[j].idx), begin, end,
                                      col.type, col.hom_avg));
        return Status::OK();
      }));
  for (size_t j = 0; j < jobs.size(); ++j) {
    in.SetColumnData(jobs[j].idx, ConcatSpans(std::move(parts[j])));
    ExecColumn& col = in.columns()[jobs[j].idx];
    col.encrypted = false;
    if (col.hom_avg) {
      col.type = DataType::kDouble;
      col.hom_avg = false;
    }
  }
  return in;
}

}  // namespace exec_internal
}  // namespace mpq
