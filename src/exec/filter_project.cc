#include "exec/exec_internal.h"

#include "crypto/enc_value.h"

namespace mpq {
namespace exec_internal {

namespace {

/// Encrypts a predicate constant to match an encrypted column, using the
/// dispatcher's keys (conditions arrive pre-encrypted in real dispatch).
Result<Cell> ConstForColumn(const ExecColumn& col, const Value& v,
                            ExecContext* ctx) {
  if (!col.encrypted) return Cell(v);
  if (ctx->dispatcher_keyring == nullptr) {
    return Status::NotFound("no dispatcher keyring to encrypt constants");
  }
  MPQ_ASSIGN_OR_RETURN(KeyMaterial km,
                       ctx->dispatcher_keyring->Get(col.key_id));
  MPQ_ASSIGN_OR_RETURN(
      EncValue ev,
      EncryptValue(v, col.scheme, col.key_id, km, ctx->NextNonce()));
  return Cell(std::move(ev));
}

/// Refines `sel` (ascending row indices into `t`) down to the rows
/// satisfying `bp`, column-at-a-time. Typed plain and DET/OPE ciphertext
/// columns take branch-light vector paths; anything unusual falls back to
/// materialized CompareCells with identical semantics.
Status FilterSelection(const BoundPredicate& bp, const Table& t,
                       SelectionVector* sel) {
  const ColumnData& lhs = t.col(static_cast<size_t>(bp.lhs_col));
  size_t kept = 0;
  SelectionVector& s = *sel;

  // Attr-attr predicates.
  if (bp.rhs_col >= 0) {
    const ColumnData& rhs = t.col(static_cast<size_t>(bp.rhs_col));
    if (PlainTypedRep(lhs.rep()) && PlainTypedRep(rhs.rep())) {
      for (uint32_t r : s) {
        if (ApplyCmp(bp.op, CmpPlainRows(lhs, r, rhs, r))) s[kept++] = r;
      }
      s.resize(kept);
      return Status::OK();
    }
    if (lhs.rep() == ColumnRep::kEnc && rhs.rep() == ColumnRep::kEnc) {
      for (uint32_t r : s) {
        MPQ_ASSIGN_OR_RETURN(bool keep,
                             CompareEncRows(bp.op, lhs, r, rhs, r));
        if (keep) s[kept++] = r;
      }
      s.resize(kept);
      return Status::OK();
    }
    for (uint32_t r : s) {
      MPQ_ASSIGN_OR_RETURN(
          bool keep, CompareCells(bp.op, lhs.GetCell(r), rhs.GetCell(r)));
      if (keep) s[kept++] = r;
    }
    s.resize(kept);
    return Status::OK();
  }

  // Attr-constant predicates.
  if (bp.rhs_const.is_plain() && PlainTypedRep(lhs.rep())) {
    const Value& v = bp.rhs_const.plain();
    int cclass = v.is_null() ? 0 : (v.is_string() ? 2 : 1);
    double num = cclass == 1 ? v.AsDouble() : 0;
    const std::string* str = cclass == 2 ? &v.AsString() : nullptr;
    int lclass = RepClass(lhs.rep());
    for (uint32_t r : s) {
      int cmp;
      if (lhs.IsNull(r)) {
        cmp = cclass == 0 ? 0 : -1;
      } else if (cclass == 0) {
        cmp = 1;
      } else if (lclass != cclass) {
        cmp = lclass < cclass ? -1 : 1;
      } else if (lclass == 2) {
        int c = lhs.str()[r].compare(*str);
        cmp = c < 0 ? -1 : (c > 0 ? 1 : 0);
      } else {
        double x = lhs.rep() == ColumnRep::kInt64
                       ? static_cast<double>(lhs.i64()[r])
                       : lhs.f64()[r];
        cmp = x < num ? -1 : (x > num ? 1 : 0);
      }
      if (ApplyCmp(bp.op, cmp)) s[kept++] = r;
    }
    s.resize(kept);
    return Status::OK();
  }
  if (bp.rhs_const.is_encrypted() && lhs.rep() == ColumnRep::kEnc) {
    EncView ev = bp.rhs_const.enc();
    for (uint32_t r : s) {
      EncView a = lhs.IsNull(r) ? NullBlob(ev) : lhs.EncAt(r);
      MPQ_ASSIGN_OR_RETURN(bool keep, CompareCiphertexts(bp.op, a, ev));
      if (keep) s[kept++] = r;
    }
    s.resize(kept);
    return Status::OK();
  }
  for (uint32_t r : s) {
    MPQ_ASSIGN_OR_RETURN(bool keep,
                         CompareCells(bp.op, lhs.GetCell(r), bp.rhs_const));
    if (keep) s[kept++] = r;
  }
  s.resize(kept);
  return Status::OK();
}

}  // namespace

Result<BoundPredicate> BindPredicate(const Predicate& p, const Table& t,
                                     const PlanNode* n, ExecContext* ctx) {
  BoundPredicate bp;
  bp.op = p.op;
  bp.lhs_col = t.ColIndex(p.lhs);
  if (bp.lhs_col < 0) return ColNotFound(n, p.lhs, *ctx->catalog);
  if (p.rhs_is_attr) {
    bp.rhs_col = t.ColIndex(p.rhs_attr);
    if (bp.rhs_col < 0) return ColNotFound(n, p.rhs_attr, *ctx->catalog);
  } else {
    MPQ_ASSIGN_OR_RETURN(
        bp.rhs_const,
        ConstForColumn(t.columns()[static_cast<size_t>(bp.lhs_col)],
                       p.rhs_value, ctx));
  }
  return bp;
}

Status FilterAll(const std::vector<BoundPredicate>& preds, const Table& t,
                 SelectionVector* sel) {
  for (const BoundPredicate& bp : preds) {
    if (sel->empty()) return Status::OK();
    MPQ_RETURN_NOT_OK(FilterSelection(bp, t, sel));
  }
  return Status::OK();
}

Result<Table> ExecProject(const PlanNode* n, Table in, ExecContext* ctx) {
  std::vector<int> keep;
  for (size_t i = 0; i < in.num_columns(); ++i) {
    if (n->attrs.Contains(in.columns()[i].attr)) {
      keep.push_back(static_cast<int>(i));
    }
  }
  if (keep.size() != n->attrs.size()) {
    AttrSet missing = n->attrs;
    for (int i : keep) missing.Erase(in.columns()[static_cast<size_t>(i)].attr);
    return ColNotFound(n, missing.ToVector().front(), *ctx->catalog);
  }
  // Pure column movement: no per-row work at all — shared payloads, so a
  // projection over a base scan copies zero cells.
  Table out;
  for (int i : keep) {
    size_t c = static_cast<size_t>(i);
    out.AddColumn(std::move(in.columns()[c]), in.ShareCol(c));
  }
  return out;
}

Result<Table> ExecSelect(const PlanNode* n, Table in, ExecContext* ctx) {
  std::vector<BoundPredicate> preds;
  for (const Predicate& p : n->predicates) {
    MPQ_ASSIGN_OR_RETURN(BoundPredicate bp, BindPredicate(p, in, n, ctx));
    preds.push_back(std::move(bp));
  }
  // Phase 1 (parallel): per-batch selection vectors.
  std::vector<SelectionVector> sels(in.NumBatches(Grain(ctx)));
  MPQ_RETURN_NOT_OK(OpParallelFor(
      ctx, OpKind::kSelect, in.num_rows(),
      [&](size_t begin, size_t end) -> Status {
        SelectionVector& sel = sels[begin / Grain(ctx)];
        sel.resize(end - begin);
        for (size_t r = begin; r < end; ++r) {
          sel[r - begin] = static_cast<uint32_t>(r);
        }
        return FilterAll(preds, in, &sel);
      }));
  size_t total = 0;
  for (const SelectionVector& sel : sels) total += sel.size();
  if (total == in.num_rows()) return in;  // nothing filtered: reuse columns

  // Phase 2: gather the survivors column-at-a-time, in batch order.
  std::vector<ColumnData> data;
  data.reserve(in.num_columns());
  for (size_t c = 0; c < in.num_columns(); ++c) {
    ColumnData col(in.col(c).rep());
    col.Reserve(total);
    for (const SelectionVector& sel : sels) {
      col.AppendSelected(in.col(c), sel.data(), sel.size());
    }
    data.push_back(std::move(col));
  }
  return TableFromColumns(in.columns(), std::move(data));
}

}  // namespace exec_internal
}  // namespace mpq
