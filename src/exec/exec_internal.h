// Internal interface of the executor, shared by its operator files:
//
//   executor.cc        dispatch, base scans and udfs, plus the operator
//                      loop and chunk helpers declared below
//   filter_project.cc  select and project
//   join.cc            hash and nested-loop joins, cartesian products,
//                      the spilled join
//   group_by.cc        the hash group-by, in memory and spilled
//   crypto_ops.cc      the encrypt and decrypt operators
//   partition.cc       the spill partition driver and the key-kind helpers
//                      of the typed key codec
//
// The join/group-by key encoding (TypedKeyCodec, RowKeyBytes) and the other
// per-row helpers are inline here, so the split adds no call per row. Not
// part of the engine's API; include exec/executor.h instead.

#ifndef MPQ_EXEC_EXEC_INTERNAL_H_
#define MPQ_EXEC_EXEC_INTERNAL_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "crypto/enc_value.h"
#include "exec/column.h"
#include "exec/executor.h"
#include "exec/table.h"

namespace mpq {
namespace exec_internal {

/// Batch size with the zero value normalized, matching Table::Batch and the
/// ParallelFor grain so `begin / Grain(ctx)` is always a valid batch index.
inline size_t Grain(const ExecContext* ctx) {
  return ctx->batch_size == 0 ? 1 : ctx->batch_size;
}

Status OpParallelFor(ExecContext* ctx, OpKind kind, size_t n,
                     const std::function<Status(size_t, size_t)>& fn);

Status ColNotFound(const PlanNode* n, AttrId a, const Catalog& catalog);

/// One predicate bound to column indices of an operand table. Constants for
/// encrypted columns are bound once per operator, then shared read-only by
/// all batches.
struct BoundPredicate {
  CmpOp op;
  int lhs_col;
  int rhs_col = -1;     // >= 0 for attr-attr predicates
  Cell rhs_const;       // used when rhs_col < 0
};

Result<BoundPredicate> BindPredicate(const Predicate& p, const Table& t,
                                     const PlanNode* n, ExecContext* ctx);

inline bool ApplyCmp(CmpOp op, int c) {
  switch (op) {
    case CmpOp::kEq:
      return c == 0;
    case CmpOp::kNe:
      return c != 0;
    case CmpOp::kLt:
      return c < 0;
    case CmpOp::kLe:
      return c <= 0;
    case CmpOp::kGt:
      return c > 0;
    case CmpOp::kGe:
      return c >= 0;
  }
  return false;
}

inline bool PlainTypedRep(ColumnRep r) {
  return r == ColumnRep::kInt64 || r == ColumnRep::kDouble ||
         r == ColumnRep::kString;
}

/// Value::Compare's type tag: NULL 0, numeric 1, string 2.
inline int RepClass(ColumnRep r) { return r == ColumnRep::kString ? 2 : 1; }

/// Three-way comparison of plain typed rows `(a, i)` vs `(b, j)`,
/// bit-compatible with Value::Compare (NULL first, numerics compared as
/// double, number-vs-string by type tag).
inline int CmpPlainRows(const ColumnData& a, size_t i, const ColumnData& b,
                        size_t j) {
  bool an = a.IsNull(i), bn = b.IsNull(j);
  if (an || bn) return an == bn ? 0 : (an ? -1 : 1);
  int ca = RepClass(a.rep()), cb = RepClass(b.rep());
  if (ca != cb) return ca < cb ? -1 : 1;
  if (ca == 2) {
    int c = a.str()[i].compare(b.str()[j]);
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  double x = a.rep() == ColumnRep::kInt64 ? static_cast<double>(a.i64()[i])
                                          : a.f64()[i];
  double y = b.rep() == ColumnRep::kInt64 ? static_cast<double>(b.i64()[j])
                                          : b.f64()[j];
  if (x < y) return -1;
  if (x > y) return 1;
  return 0;
}

/// A NULL row of a ciphertext column, compared against `other`: an empty
/// blob under its scheme and key, which orders below every OPE ciphertext
/// and equals only another NULL — the order the plaintext path gives NULL.
inline EncView NullBlob(const EncView& other) {
  return EncView{other.scheme, other.key_id, std::string_view(), 1};
}

/// Compares rows `i` of kEnc `a` and `j` of kEnc `b` as CompareCiphertexts,
/// a NULL row as NullBlob.
inline Result<bool> CompareEncRows(CmpOp op, const ColumnData& a, size_t i,
                                   const ColumnData& b, size_t j) {
  bool an = a.IsNull(i), bn = b.IsNull(j);
  if (an && bn) return ApplyCmp(op, 0);
  EncView x = an ? NullBlob(b.EncAt(j)) : a.EncAt(i);
  EncView y = bn ? NullBlob(x) : b.EncAt(j);
  return CompareCiphertexts(op, x, y);
}

Status FilterAll(const std::vector<BoundPredicate>& preds, const Table& t,
                 SelectionVector* sel);

/// A batch's output columns, merged into the final table in batch order.
using Chunk = std::vector<ColumnData>;

Table TableFromColumns(std::vector<ExecColumn> cols,
                       std::vector<ColumnData> data);

Table MergeChunks(std::vector<ExecColumn> cols, std::vector<Chunk> chunks);

// ---------------------------------------------------- join/group-by keys ---

/// How one key column folds into the fixed-width code words of the typed
/// hash path.
enum class KeyKind : uint8_t { kI64, kF64, kStr, kEnc, kBytes };

KeyKind KindOf(const ColumnData& c);

/// Probe rows holding a dictionary value the build side never interned are
/// flagged here in the null word; the bit is never set on a build key, so
/// equality always fails without consulting any dictionary twice.
constexpr uint64_t kProbeMissBit = 1ull << 63;

/// Encodes the key columns of a table over a row range as fixed-width code
/// words: one word per column — raw int64/double bits, or a ColumnDict code
/// for string and DET/OPE ciphertext columns — plus a trailing null/miss
/// word when any key column can hold NULLs (or a probe can miss a
/// dictionary). Word-tuple equality reproduces per-column AppendKeyBytes
/// equality (the caller pairs only same-rep columns for joins): NULL
/// matches NULL, doubles compare bitwise, strings/blobs by content via the
/// dictionary. No key byte is ever materialized.
class TypedKeyCodec {
 public:
  /// The typed path covers every rep except the heterogeneous kCell
  /// fallback (and caps key arity so null bits fit one word).
  static bool Eligible(const Table& t, const std::vector<int>& cols) {
    if (cols.size() >= 62) return false;
    for (int c : cols) {
      if (t.col(static_cast<size_t>(c)).rep() == ColumnRep::kCell) {
        return false;
      }
    }
    return true;
  }

  /// `with_null_word` must be set when any key column (of the build or a
  /// probe table) can hold NULLs, or when dictionary probes can miss; an
  /// empty key always keeps the word so rows have nonzero width.
  void Init(const Table& t, const std::vector<int>& cols,
            bool with_null_word) {
    null_word_ = with_null_word || cols.empty();
    cols_.clear();
    kinds_.clear();
    dicts_.clear();
    for (int c : cols) {
      const ColumnData& col = t.col(static_cast<size_t>(c));
      cols_.push_back(&col);
      KeyKind kind = KindOf(col);
      kinds_.push_back(kind);
      dicts_.push_back(kind == KeyKind::kStr || kind == KeyKind::kEnc
                           ? std::make_unique<ColumnDict>(&col)
                           : nullptr);
    }
  }

  /// Words per row: one per key column, plus the null/miss word if present.
  size_t width() const { return cols_.size() + (null_word_ ? 1 : 0); }

  /// Encodes rows [begin, end) of the Init table into `words` (row-major,
  /// width() words per row), interning new dictionary codes — the build
  /// side, which must run sequentially for deterministic codes.
  Status EncodeBuild(size_t begin, size_t end, std::vector<uint64_t>* words,
                     std::vector<uint32_t>* scratch) {
    return Encode(cols_, /*probe=*/false, begin, end, words, scratch);
  }

  /// Probe-mode encoding of another table's columns (pairwise same KeyKind
  /// as the build columns) against the build dictionaries. Read-only: safe
  /// from concurrent probe batches.
  Status EncodeProbe(const Table& t, const std::vector<int>& probe_cols,
                     size_t begin, size_t end, std::vector<uint64_t>* words,
                     std::vector<uint32_t>* scratch) const {
    std::vector<const ColumnData*> cols;
    cols.reserve(probe_cols.size());
    for (int c : probe_cols) cols.push_back(&t.col(static_cast<size_t>(c)));
    return Encode(cols, /*probe=*/true, begin, end, words, scratch);
  }

 private:
  Status Encode(const std::vector<const ColumnData*>& cols, bool probe,
                size_t begin, size_t end, std::vector<uint64_t>* words,
                std::vector<uint32_t>* scratch) const {
    size_t n = end - begin;
    size_t w = width();
    words->assign(n * w, 0);
    uint64_t* out = words->data();
    for (size_t k = 0; k < cols.size(); ++k) {
      const ColumnData& col = *cols[k];
      switch (kinds_[k]) {
        case KeyKind::kI64: {
          const int64_t* v = col.i64().data();
          for (size_t i = 0; i < n; ++i) {
            out[i * w + k] = static_cast<uint64_t>(v[begin + i]);
          }
          break;
        }
        case KeyKind::kF64: {
          const double* v = col.f64().data();
          for (size_t i = 0; i < n; ++i) {
            uint64_t bits;
            std::memcpy(&bits, &v[begin + i], 8);
            out[i * w + k] = bits;
          }
          break;
        }
        case KeyKind::kStr:
        case KeyKind::kEnc: {
          scratch->resize(n);
          uint32_t* codes = scratch->data();
          if (probe) {
            MPQ_RETURN_NOT_OK(dicts_[k]->ProbeRange(col, begin, end, codes));
          } else {
            MPQ_RETURN_NOT_OK(dicts_[k]->EncodeRange(begin, end, codes));
          }
          for (size_t i = 0; i < n; ++i) {
            if (codes[i] == ColumnDict::kMiss) {
              out[i * w + w - 1] |= kProbeMissBit;  // null_word_ is set
            } else {
              out[i * w + k] = codes[i];
            }
          }
          break;
        }
        case KeyKind::kBytes:
          return Status::Internal("typed key codec over a kCell column");
      }
      if (col.has_nulls()) {
        // Init's with_null_word precondition guarantees the word exists.
        for (size_t i = 0; i < n; ++i) {
          if (col.IsNull(begin + i)) {
            out[i * w + k] = 0;
            out[i * w + w - 1] |= 1ull << k;
          }
        }
      }
    }
    return Status::OK();
  }

  bool null_word_ = true;
  std::vector<const ColumnData*> cols_;
  std::vector<KeyKind> kinds_;
  std::vector<std::unique_ptr<ColumnDict>> dicts_;
};

bool KeyColsNeedNullWord(const Table& t, const std::vector<int>& cols);

/// Byte-key fallback for heterogeneous kCell columns (and cross-rep join
/// pairs): AppendKeyBytes per column, each component closed by its length
/// — an unambiguous (back-to-front parseable) encoding, so concatenated
/// keys can never alias across column boundaries and byte-key equality is
/// exactly per-column byte equality, the same relation the typed code
/// words implement. Stored in a ByteArena behind a FlatHashIndex instead
/// of per-key std::unordered_map nodes.
inline Status RowKeyBytes(const Table& t, const std::vector<int>& cols,
                          size_t r, std::string* key) {
  key->clear();
  for (int c : cols) {
    size_t start = key->size();
    MPQ_RETURN_NOT_OK(AppendKeyBytes(t.col(static_cast<size_t>(c)), r, key));
    auto len = static_cast<uint32_t>(key->size() - start);
    key->append(reinterpret_cast<const char*>(&len), sizeof(len));
  }
  return Status::OK();
}

// ------------------------------------------------- out-of-core execution ---

void NoteSpillGeneration(ExecContext* ctx, uint64_t gen);

void AppendRowIdColumn(Table* t);

/// One input of a partitioned operator: a table and its key columns.
struct SpillInput {
  Table table;
  std::vector<int> key_cols;
};

Status ForEachSpillPartition(
    std::vector<SpillInput> inputs, uint64_t salt, ExecContext* ctx,
    const std::function<Status(size_t, std::vector<Table>&)>& fn);

std::vector<uint32_t> RowIdOrder(size_t n, const int64_t* major,
                                 const int64_t* minor);

// -------------------------------------------------------------- operators ---

Result<Table> ExecProject(const PlanNode* n, Table in, ExecContext* ctx);
Result<Table> ExecSelect(const PlanNode* n, Table in, ExecContext* ctx);
Result<Table> ExecCartesian(const PlanNode* n, Table l, Table r,
                            ExecContext* ctx);
Result<Table> ExecJoin(const PlanNode* n, Table l, Table r, ExecContext* ctx);
Result<Table> ExecGroupBy(const PlanNode* n, Table in, ExecContext* ctx);
Result<Table> ExecEncrypt(const PlanNode* n, Table in, ExecContext* ctx);
Result<Table> ExecDecrypt(const PlanNode* n, Table in, ExecContext* ctx);

}  // namespace exec_internal
}  // namespace mpq

#endif  // MPQ_EXEC_EXEC_INTERNAL_H_
