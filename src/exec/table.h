// In-memory tables with per-column encryption state, the data representation
// of the execution engine. Storage is columnar: each column's cells live in
// one contiguous typed ColumnData vector, so operators iterate
// column-at-a-time and whole columns move between tables without touching
// individual cells. The row-oriented helpers (AddRow / row) are a
// convenience layer for loaders and tests, not the execution path.

#ifndef MPQ_EXEC_TABLE_H_
#define MPQ_EXEC_TABLE_H_

#include <cassert>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "crypto/enc_value.h"
#include "exec/column.h"

namespace mpq {

/// A column of an executing relation. `encrypted` columns carry ciphertext
/// cells under (`scheme`, `key_id`); `type` is always the plaintext type.
struct ExecColumn {
  AttrId attr = kInvalidAttr;
  std::string name;
  DataType type = DataType::kInt64;
  bool encrypted = false;
  EncScheme scheme = EncScheme::kRandom;
  uint64_t key_id = 0;
  /// True when the column holds a homomorphic average: a Paillier sum whose
  /// `aux` counter is the divisor to apply after decryption.
  bool hom_avg = false;
};

/// The physical rep a freshly created `col` column starts in.
ColumnRep RepForColumn(const ExecColumn& col);

/// A half-open range of row indices [begin, end) of one table — the unit of
/// work batch-oriented operators hand to the thread pool. Batch boundaries
/// depend only on row count and batch size (never on thread count), so
/// per-batch results merged in batch order are deterministic.
struct RowBatch {
  size_t begin = 0;
  size_t end = 0;

  size_t size() const { return end - begin; }
  bool empty() const { return begin == end; }
};

/// Columnar table. Column payloads are shared_ptr-held with copy-on-write
/// mutation: copying a Table (the base-scan operator, plan-cache serving)
/// copies column *pointers*, never cell data — a whole-table copy of a
/// million-row relation is a dozen refcount increments. Mutation goes
/// through col_mut()/SetColumnData(), which clone a column only when it is
/// actually shared, so thread-confined intermediate tables pay nothing.
class Table {
 public:
  /// Default number of rows per RowBatch; chosen so a batch of typical rows
  /// stays cache-resident while amortizing per-batch dispatch.
  static constexpr size_t kDefaultBatchSize = 1024;

  Table() = default;
  explicit Table(std::vector<ExecColumn> columns);

  const std::vector<ExecColumn>& columns() const { return columns_; }
  std::vector<ExecColumn>& columns() { return columns_; }
  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const { return num_rows_; }

  /// Index of the column for `attr`, or -1.
  int ColIndex(AttrId attr) const;

  /// Column data, by column index (read-only).
  const ColumnData& col(size_t i) const { return *data_[i]; }

  /// Mutable column data: clones the column first when its buffers are
  /// shared with another table (copy-on-write).
  ColumnData& col_mut(size_t i) {
    if (data_[i].use_count() > 1) {
      data_[i] = std::make_shared<ColumnData>(*data_[i]);
    }
    return *data_[i];
  }

  /// The column's shared payload, for zero-copy moves between tables
  /// (project, udf passthrough). Safe to hand to a mutable table: mutation
  /// always goes through the copy-on-write accessors.
  std::shared_ptr<ColumnData> ShareCol(size_t i) const { return data_[i]; }

  /// Replaces column `i`'s data (e.g. with its encrypted form). The new
  /// data must cover every row. Other tables sharing the old payload are
  /// unaffected.
  void SetColumnData(size_t i, ColumnData d) {
    assert(d.size() == num_rows_);
    data_[i] = std::make_shared<ColumnData>(std::move(d));
  }

  /// Appends a column (metadata + data) to the table. Every column must
  /// cover the same number of rows; the first one fixes the row count of an
  /// empty table.
  void AddColumn(ExecColumn col, ColumnData d);

  /// AddColumn sharing an existing payload (no copy; copy-on-write applies
  /// to later mutation through either owner).
  void AddColumn(ExecColumn col, std::shared_ptr<ColumnData> d);

  /// Appends one row given cell-per-column; `row.size()` must equal
  /// `num_columns()`. Loader/test convenience — engine operators append
  /// column-at-a-time.
  void AddRow(std::vector<Cell> row);

  /// Materializes row `i` as cells (copy). Test/diagnostic convenience.
  std::vector<Cell> row(size_t i) const;

  /// Materializes the cell at (`r`, `c`).
  Cell at(size_t r, size_t c) const { return data_[c]->GetCell(r); }

  /// Appends row `r` of `src` (same column layout) column-wise.
  void AppendRowFrom(const Table& src, size_t r);

  void ReserveRows(size_t n);

  /// Number of RowBatches of `batch_size` rows covering this table.
  size_t NumBatches(size_t batch_size = kDefaultBatchSize) const {
    if (batch_size == 0) batch_size = 1;
    return (num_rows_ + batch_size - 1) / batch_size;
  }

  /// The `i`-th batch (the last one may be short). `i` must index a batch
  /// of this table (asserted): a begin past the row count is a caller bug,
  /// not a clampable input, though release builds still degrade to an empty
  /// batch rather than an out-of-range one.
  RowBatch Batch(size_t i, size_t batch_size = kDefaultBatchSize) const {
    if (batch_size == 0) batch_size = 1;
    size_t begin = i * batch_size;
    size_t end = begin + batch_size;
    if (end > num_rows_) end = num_rows_;
    assert((begin <= num_rows_ || num_rows_ == 0) &&
           "Batch(i): batch index out of range");
    if (begin > end) begin = end;
    return RowBatch{begin, end};
  }

  /// Total payload bytes (used for transfer accounting).
  uint64_t ByteSize() const;

  /// Pretty-prints up to `max_rows` rows.
  std::string ToString(size_t max_rows = 20) const;

 private:
  // The segment codec (storage/segment.h) reconstructs degenerate
  // zero-column frames by setting the row count directly, since no column
  // carries it.
  friend class SegmentReader;
  friend class SegmentedTable;

  std::vector<ExecColumn> columns_;
  std::vector<std::shared_ptr<ColumnData>> data_;
  size_t num_rows_ = 0;
};

}  // namespace mpq

#endif  // MPQ_EXEC_TABLE_H_
