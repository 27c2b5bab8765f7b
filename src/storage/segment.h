// Immutable compressed column segments, the engine's one columnar serde.
// One segment holds a row range of one table; every column gets a page
// written and read in bulk — RLE or frame-of-reference bit-packing for
// int64, raw doubles, dictionary + bit-packed codes for repetitive strings,
// and for ciphertext columns the blob arena with the column's scheme and
// key stated once (plus per-row lengths only when widths differ and aux
// counters only when some differ from 1) — plus a footer entry carrying
// its metadata, page extent, null count, and a min/max zone map over the
// non-null plaintext values. The footer is readable without touching any
// page, so scans consult zone maps first and skip whole segments that
// provably contain no qualifying row; a trailing checksum rejects torn or
// bit-flipped frames before any decode, and every page parser bounds-checks
// what it reads, so even a frame with a valid checksum decodes to a table
// or a Status, never a crash.
//
// Segments serve three roles: the wire encoding of every assignee-crossing
// transfer (bytes-on-wire are encoded sizes), the spill format of the
// byte-budgeted out-of-core join/group-by paths, and the at-rest form of
// cold TableStore relations (decoded lazily on first read).

#ifndef MPQ_STORAGE_SEGMENT_H_
#define MPQ_STORAGE_SEGMENT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "algebra/expr.h"
#include "common/status.h"
#include "common/value.h"
#include "exec/table.h"

namespace mpq {

/// Per-column statistics of one segment, read from the footer without
/// decoding the page. `min`/`max` cover only the non-null rows and are
/// populated only for plaintext typed columns (never for ciphertexts, the
/// kCell fallback, or a double column containing NaN); `has_range` says
/// whether they are meaningful.
struct SegmentZone {
  bool has_range = false;
  Value min;
  Value max;
  uint64_t null_count = 0;
  /// Rows of the segment (duplicated from the header for convenience).
  uint64_t num_rows = 0;
};

/// Encodes `t` as one compressed segment. Deterministic: the same table
/// always produces the same bytes, so segment frames (and their byte
/// counts) are identical at any thread count.
Result<std::string> EncodeSegment(const Table& t);

/// The checksum a frame's last 8 bytes hold, over the `n` bytes before
/// them. Exposed so fuzzers can re-stamp edited frames and reach the page
/// and footer parsers behind the checksum.
uint64_t SegmentChecksum(const char* data, size_t n);

/// Conservative zone-map test: false only when NO row of the segment can
/// satisfy `op` against the constant `v` under the engine's comparison
/// semantics (EvalCmp: NULLs sort first, numerics compare as double,
/// number-vs-string by type tag). NULL rows are accounted for — they DO
/// match predicates where EvalCmp(op, NULL, v) holds.
bool ZoneMayMatch(const SegmentZone& z, CmpOp op, const Value& v);

/// Parses and validates a segment frame (magic, version, checksum, bounds,
/// enum ranges), exposing footer metadata cheaply; Decode() materializes
/// the table, bit-identical to the encoder's input.
class SegmentReader {
 public:
  /// Validates the frame and parses the footer. Any malformed input —
  /// truncation, bit flips, out-of-range offsets or enums — returns a
  /// Status; no page is touched yet.
  static Result<SegmentReader> Open(std::string bytes);

  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }
  const std::vector<ExecColumn>& columns() const { return columns_; }
  const SegmentZone& zone(size_t c) const { return zones_[c]; }
  /// Physical rep column `c` decodes into (what the encoder saw).
  ColumnRep rep(size_t c) const {
    return static_cast<ColumnRep>(entries_[c].rep);
  }
  /// Encoded frame size in bytes (the bytes-on-wire of this segment).
  size_t encoded_size() const { return bytes_.size(); }

  /// Decodes every column page into a table. The result round-trips: for a
  /// table built through the normal append paths, Decode(EncodeSegment(t))
  /// has t's metadata, reps, null masks and cells bit for bit.
  Result<Table> Decode() const;

 private:
  struct ColumnEntry {
    ExecColumn meta;
    uint8_t rep = 0;
    bool has_nulls = false;
    uint64_t page_offset = 0;
    uint64_t page_len = 0;
  };

  std::string bytes_;
  uint64_t num_rows_ = 0;
  std::vector<ExecColumn> columns_;
  std::vector<ColumnEntry> entries_;
  std::vector<SegmentZone> zones_;
};

/// A table published as a sequence of compressed segments (row-range
/// slices in order). Readers decode lazily: zone-map scans decode only the
/// segments that may hold qualifying rows; Materialize() decodes the whole
/// table once and caches it.
class SegmentedTable {
 public:
  /// Slices `t` into ceil(rows / rows_per_segment) segments (at least one,
  /// so the schema survives an empty table). `rows_per_segment` of zero
  /// means one segment.
  static Result<SegmentedTable> FromTable(const Table& t,
                                          size_t rows_per_segment);

  size_t num_segments() const { return segments_.size(); }
  const SegmentReader& segment(size_t i) const { return segments_[i]; }
  const std::vector<ExecColumn>& columns() const { return columns_; }
  size_t total_rows() const { return total_rows_; }

  /// Sum of encoded segment frame sizes.
  uint64_t encoded_bytes() const;

  /// Decodes and concatenates every segment (fresh table per call).
  Result<Table> Decode() const;

  /// Decode(), memoized: the first caller pays the decode, later callers
  /// share the cached table. Thread-safe.
  Result<const Table*> Materialize() const;

 private:
  struct Memo {
    std::mutex mu;
    std::unique_ptr<Table> table;
  };

  std::vector<ExecColumn> columns_;
  std::vector<SegmentReader> segments_;
  size_t total_rows_ = 0;
  std::shared_ptr<Memo> memo_ = std::make_shared<Memo>();
};

}  // namespace mpq

#endif  // MPQ_STORAGE_SEGMENT_H_
