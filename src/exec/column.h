// Typed columnar storage: one ColumnData holds every cell of one column of
// an executing relation as a contiguous typed vector (int64/double/string)
// or, for ciphertexts, one byte arena plus offsets, with an optional null
// mask and a row-of-Cells fallback for the rare heterogeneous column.
// Operators iterate column-at-a-time and move whole columns between tables;
// selection vectors (row-index arrays) replace intermediate row
// materialization.

#ifndef MPQ_EXEC_COLUMN_H_
#define MPQ_EXEC_COLUMN_H_

#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/flat_hash.h"
#include "common/status.h"
#include "common/value.h"
#include "crypto/enc_value.h"

namespace mpq {

/// Row indices selected out of a table (always ascending within one batch).
using SelectionVector = std::vector<uint32_t>;

/// Physical representation of a column's cells.
enum class ColumnRep : uint8_t {
  kInt64,   ///< contiguous int64_t
  kDouble,  ///< contiguous double
  kString,  ///< contiguous std::string
  kEnc,     ///< ciphertexts under one (scheme, key): a blob arena + offsets
  kCell,    ///< heterogeneous fallback: materialized Cells
};

const char* ColumnRepName(ColumnRep r);

/// The typed rep a plaintext column of `type` starts in.
ColumnRep RepForType(DataType type);

/// One column of a Table. The rep is a starting point, not a contract:
/// appending a cell the current rep cannot hold demotes the column to the
/// kCell fallback, so any historical row-major content remains expressible.
/// NULL cells of typed reps live in the null mask (one byte per row,
/// allocated lazily); the typed vector holds a default value in masked
/// slots. The kCell rep represents NULLs as null cells and never carries a
/// mask.
///
/// A kEnc column carries no per-cell metadata: one (scheme, key id) for the
/// whole column, fixed by its first ciphertext; the blobs back to back in
/// one byte arena with a uint32 end offset per row (a NULL row's blob is
/// empty; a column's blobs total under 4 GiB); and an `aux` counter per
/// row only once some row's differs from 1 (homomorphic sums). A
/// ciphertext under another scheme or key demotes the column to kCell,
/// like any other mixed content.
class ColumnData {
 public:
  ColumnData() = default;
  explicit ColumnData(ColumnRep rep) : rep_(rep) {}

  ColumnRep rep() const { return rep_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool has_nulls() const { return !nulls_.empty(); }
  bool IsNull(size_t i) const { return !nulls_.empty() && nulls_[i] != 0; }
  /// The null mask: empty, or one entry per row (nonzero = NULL).
  const std::vector<uint8_t>& null_mask() const { return nulls_; }

  /// Typed storage. Valid only for the matching rep.
  const std::vector<int64_t>& i64() const { return i64_; }
  const std::vector<double>& f64() const { return f64_; }
  const std::vector<std::string>& str() const { return str_; }
  const std::vector<Cell>& cells() const { return cells_; }
  std::vector<Cell>& cells() { return cells_; }

  /// kEnc storage: the column's scheme and key (meaningful once a
  /// ciphertext was appended), the blob arena, per-row end offsets into it,
  /// and the aux counters (empty when every row's is 1).
  EncScheme enc_scheme() const { return enc_scheme_; }
  uint64_t enc_key_id() const { return enc_key_; }
  const std::string& enc_arena() const { return arena_; }
  const std::vector<uint32_t>& enc_ends() const { return ends_; }
  const std::vector<int64_t>& enc_aux() const { return aux_; }

  /// Blob of kEnc row `i` (empty for a NULL row).
  std::string_view EncBlob(size_t i) const {
    uint32_t b = i == 0 ? 0 : ends_[i - 1];
    return std::string_view(arena_.data() + b, ends_[i] - b);
  }
  void Reserve(size_t n);
  void Clear();

  /// Appends one cell, demoting the rep if it cannot hold it.
  void Append(Cell c);
  void AppendValue(Value v);
  void AppendNull();

  /// Materializes row `i` as a Cell.
  Cell GetCell(size_t i) const;

  /// The ciphertext at row `i`, read in place: from the arena for rep
  /// kEnc, from the cell variant's payload on the kCell fallback.
  /// Precondition: row `i` holds a ciphertext.
  EncView EncAt(size_t i) const {
    if (rep_ != ColumnRep::kEnc) return cells_[i].enc();
    return EncView{enc_scheme_, enc_key_, EncBlob(i),
                   aux_.empty() ? 1 : aux_[i]};
  }

  /// Appends one ciphertext, demoting the column when it cannot hold it.
  void AppendEnc(const EncView& ev);

  /// Appends `n` ciphertext rows under (scheme, key) with aux 1, row k's
  /// blob taking `lens[k]` bytes, and returns where row 0's blob goes (the
  /// others follow back to back): one sizing of the arena and offsets for
  /// encoders that write a span of ciphertexts straight into it. `nulls`,
  /// when set, flags (1 = NULL) rows that go to the null mask; their
  /// `lens` must be 0. Precondition: rep kEnc and the column unkeyed or
  /// keyed to (scheme, key).
  char* AppendEncBlobs(EncScheme scheme, uint64_t key_id,
                       const uint32_t* lens, const uint8_t* nulls, size_t n);

  /// Plaintext view of row `i`; rep must not be kEnc (kCell rows must hold
  /// plain cells).
  Value GetValue(size_t i) const;

  /// Appends row `i` of `src` (any rep combination).
  void AppendFrom(const ColumnData& src, size_t i);

  /// Appends rows [begin, end) of `src`.
  void AppendRange(const ColumnData& src, size_t begin, size_t end);

  /// Gather: appends src rows sel[0..n) in order.
  void AppendSelected(const ColumnData& src, const uint32_t* sel, size_t n);

  /// Appends row `i` of `src` `times` times (cartesian left side).
  void AppendRepeated(const ColumnData& src, size_t i, size_t times);

  /// Splices `src` onto this column, stealing its buffers when possible
  /// (whole-vector move when this column is empty and reps match; otherwise
  /// element moves). `src` is left empty.
  void MoveAppend(ColumnData&& src);

  /// MoveAppend of every column of `spans` in order, sizing this column's
  /// storage once for all of them.
  void MoveAppendAll(std::vector<ColumnData> spans);

  /// Converts typed storage to the kCell fallback (no-op when already
  /// there).
  void DemoteToCells();

  /// Bulk constructor for decoders: an int64, double or string column
  /// adopting `v` whole. `nulls` is empty or one entry per row (1 = NULL).
  template <typename T>
  static ColumnData FromVector(std::vector<T> v, std::vector<uint8_t> nulls) {
    ColumnData out;
    out.size_ = v.size();
    out.nulls_ = std::move(nulls);
    if constexpr (std::is_same_v<T, int64_t>) {
      out.rep_ = ColumnRep::kInt64;
      out.i64_ = std::move(v);
    } else if constexpr (std::is_same_v<T, double>) {
      out.rep_ = ColumnRep::kDouble;
      out.f64_ = std::move(v);
    } else {
      out.rep_ = ColumnRep::kString;
      out.str_ = std::move(v);
    }
    return out;
  }
  /// A kEnc column over `arena` with per-row end offsets `ends` (ascending,
  /// the last equal to the arena size; NULL rows empty) and `aux` empty or
  /// one entry per row. A column with no non-NULL row stays unkeyed.
  static ColumnData FromEnc(EncScheme scheme, uint64_t key_id,
                            std::string arena, std::vector<uint32_t> ends,
                            std::vector<int64_t> aux,
                            std::vector<uint8_t> nulls);

  /// Payload bytes, matching the historical per-Cell accounting: null 1,
  /// int64/double 8, string len+4, ciphertext blob+8.
  uint64_t ByteSize() const;

 private:
  /// Extends the null mask to size_ entries (all zero) if absent.
  void EnsureNulls();
  /// Appends `n` not-null entries to the mask if it exists.
  void GrowNulls(size_t n);
  /// Appends the null flags of rows [begin, begin + n) of `src`.
  void AppendNullRange(const ColumnData& src, size_t begin, size_t n);
  /// Whether this kEnc column can take ciphertexts of `src`'s (scheme,
  /// key) — and adopts them when this column is still unkeyed. An unkeyed
  /// `src` (no ciphertext yet) is always compatible.
  bool AdoptKeyOf(const ColumnData& src);
  /// Appends `n` blobs copied from rows [begin, begin + n) of kEnc `src`
  /// (same key) with their aux counters; nulls are the caller's.
  void AppendEncRange(const ColumnData& src, size_t begin, size_t n);
  /// Extends aux_ to size_ entries of 1 if absent.
  void EnsureAux();

  ColumnRep rep_ = ColumnRep::kCell;
  size_t size_ = 0;
  std::vector<int64_t> i64_;
  std::vector<double> f64_;
  std::vector<std::string> str_;
  std::vector<Cell> cells_;
  EncScheme enc_scheme_ = EncScheme::kRandom;
  uint64_t enc_key_ = 0;
  bool enc_keyed_ = false;  ///< (scheme, key) fixed by a ciphertext
  std::string arena_;
  std::vector<uint32_t> ends_;  ///< kEnc: size_ end offsets into arena_
  std::vector<int64_t> aux_;    ///< kEnc: empty, or size_ counters
  std::vector<uint8_t> nulls_;  ///< empty, or size_ entries (1 = NULL)
};

/// Appends the grouping/join key bytes of row `r` to `out` — the same
/// equality semantics as CellGroupKey: plaintext by canonical serialization,
/// DET/OPE ciphertexts by blob, RND/HOM unsupported.
Status AppendKeyBytes(const ColumnData& col, size_t r, std::string* out);

/// Dictionary encoder over a string or DET/OPE ciphertext column: interns
/// each distinct value (string content, ciphertext blob) into a dense
/// first-occurrence code, so join/group-by keys over variable-width columns
/// become fixed-width words with zero byte copies — values are referenced by
/// the row of their first occurrence. Codes are comparable only within one
/// dictionary; a probe column encoded against a build dictionary maps unseen
/// values to kMiss. RND/HOM ciphertext rows fail with the same kUnsupported
/// status as AppendKeyBytes, preserving key-semantics errors exactly.
class ColumnDict {
 public:
  /// Probe-miss marker (never a valid code: codes are dense row ranks).
  static constexpr uint32_t kMiss = 0xffffffffu;

  /// `col` must outlive the dictionary and stay unmodified.
  explicit ColumnDict(const ColumnData* col) : col_(col) {}

  /// Codes of rows [begin, end) in first-occurrence intern order; null rows
  /// get code 0 (callers track nulls separately, null never reaches the
  /// dictionary). `codes` receives end - begin entries.
  Status EncodeRange(size_t begin, size_t end, uint32_t* codes);

  /// Probe-only encoding of another column's rows against this dictionary:
  /// values absent from it get kMiss, null rows get 0. `probe` must have the
  /// same rep as the dictionary's column. Read-only, safe to call
  /// concurrently once building is done.
  Status ProbeRange(const ColumnData& probe, size_t begin, size_t end,
                    uint32_t* codes) const;

  /// Number of distinct interned values.
  size_t size() const { return rep_rows_.size(); }

  /// Row (in the dictionary's own column) holding code `code`'s value.
  uint32_t RepRow(uint32_t code) const { return rep_rows_[code]; }

 private:
  const ColumnData* col_;
  FlatHashIndex index_;
  std::vector<uint32_t> rep_rows_;  ///< code -> first-occurrence row
};

/// Builds a column from materialized cells, choosing the typed rep from the
/// first non-null cell (heterogeneous content demotes to kCell).
ColumnData ColumnFromCells(std::vector<Cell> cells);

/// Splices columns that ColumnFromCells-style builders made of consecutive
/// spans into the column ColumnFromCells would build over all their cells:
/// the rep is that of the first span holding a non-NULL row (an all-NULL
/// span's own kCell rep does not count), demoted when a later span's
/// content does not fit it.
ColumnData ConcatSpans(std::vector<ColumnData> spans);

}  // namespace mpq

#endif  // MPQ_EXEC_COLUMN_H_
