#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>

#include "common/flat_hash.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "exec/exec_internal.h"
#include "storage/segment.h"

namespace mpq {
namespace exec_internal {

KeyKind KindOf(const ColumnData& c) {
  switch (c.rep()) {
    case ColumnRep::kInt64:
      return KeyKind::kI64;
    case ColumnRep::kDouble:
      return KeyKind::kF64;
    case ColumnRep::kString:
      return KeyKind::kStr;
    case ColumnRep::kEnc:
      return KeyKind::kEnc;
    case ColumnRep::kCell:
      return KeyKind::kBytes;
  }
  return KeyKind::kBytes;
}

/// Whether the typed codec over `cols` of `t` needs the null/miss word.
bool KeyColsNeedNullWord(const Table& t, const std::vector<int>& cols) {
  for (int c : cols) {
    const ColumnData& col = t.col(static_cast<size_t>(c));
    if (col.has_nulls() || col.rep() == ColumnRep::kString ||
        col.rep() == ColumnRep::kEnc) {
      return true;
    }
  }
  return false;
}

// ------------------------------------------------- out-of-core execution ---

namespace {

/// Partition fan-out of one spill generation. Eight keeps partition counts
/// (and open files) small while shrinking a generation's working set 8x.
constexpr size_t kSpillFanout = 8;

/// A fresh spill file path under ctx->spill_dir (or the system temp dir).
std::string NextSpillPath(ExecContext* ctx) {
  static std::atomic<uint64_t> counter{0};
  std::filesystem::path dir = ctx->spill_dir.empty()
                                  ? std::filesystem::temp_directory_path()
                                  : std::filesystem::path(ctx->spill_dir);
  return (dir / StrFormat("mpq_spill_%d_%llu.seg", static_cast<int>(getpid()),
                          static_cast<unsigned long long>(counter.fetch_add(
                              1, std::memory_order_relaxed))))
      .string();
}

Status WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::Internal(StrFormat("cannot open spill file %s",
                                      path.c_str()));
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) {
    return Status::Internal(StrFormat("short write to spill file %s",
                                      path.c_str()));
  }
  return Status::OK();
}

/// Reads a spill file back and deletes it (each partition is read once).
Result<Table> ReadSpillSegment(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return Status::Internal(StrFormat("cannot open spill file %s",
                                      path.c_str()));
  }
  // One sized read of the whole file.
  std::streamoff size = in.tellg();
  std::string bytes(size > 0 ? static_cast<size_t>(size) : 0, '\0');
  in.seekg(0);
  if (size < 0 ||
      !in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()))) {
    return Status::Internal(StrFormat("short read of spill file %s",
                                      path.c_str()));
  }
  in.close();
  std::error_code ec;
  std::filesystem::remove(path, ec);  // best effort
  MPQ_ASSIGN_OR_RETURN(SegmentReader sr, SegmentReader::Open(std::move(bytes)));
  return sr.Decode();
}

/// The spill files one partition driver wrote; every one still on disk is
/// removed when the driver exits, on error as on success.
struct SpillFiles {
  std::vector<std::string> paths;
  ~SpillFiles() {
    for (const std::string& path : paths) {
      std::error_code ec;
      std::filesystem::remove(path, ec);  // already read: a no-op
    }
  }
};

/// Splits `t` into kSpillFanout partitions by salted key-byte hash (equal
/// keys co-partition; the salt decorrelates recursive generations), writing
/// each as one compressed segment file whose path is appended to `files`
/// before it is written. Sequential and deterministic.
Status SpillPartitionTable(const Table& t, const std::vector<int>& key_cols,
                           uint64_t salt, ExecContext* ctx, SpillFiles* files) {
  std::vector<SelectionVector> sels(kSpillFanout);
  std::string key;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    MPQ_RETURN_NOT_OK(RowKeyBytes(t, key_cols, r, &key));
    uint64_t h = SplitMix64(HashBytes(key.data(), key.size()) ^ salt);
    sels[h % kSpillFanout].push_back(static_cast<uint32_t>(r));
  }
  for (size_t p = 0; p < kSpillFanout; ++p) {
    Table part;
    for (size_t c = 0; c < t.num_columns(); ++c) {
      ColumnData d(t.col(c).rep());
      d.Reserve(sels[p].size());
      d.AppendSelected(t.col(c), sels[p].data(), sels[p].size());
      part.AddColumn(t.columns()[c], std::move(d));
    }
    MPQ_ASSIGN_OR_RETURN(std::string bytes, EncodeSegment(part));
    files->paths.push_back(NextSpillPath(ctx));
    MPQ_RETURN_NOT_OK(WriteFileBytes(files->paths.back(), bytes));
    ctx->spill_partitions.fetch_add(1, std::memory_order_relaxed);
    ctx->spill_bytes.fetch_add(bytes.size(), std::memory_order_relaxed);
  }
  return Status::OK();
}

}  // namespace

/// Raises the generation high-water mark (diagnostic counter only).
void NoteSpillGeneration(ExecContext* ctx, uint64_t gen) {
  uint64_t cur = ctx->spill_generations.load(std::memory_order_relaxed);
  while (cur < gen && !ctx->spill_generations.compare_exchange_weak(
                          cur, gen, std::memory_order_relaxed)) {
  }
}

/// Appends a plain int64 global-row column to `t` (rows 0..n-1). Spilled
/// partitions carry it so results can be restored to the in-memory output
/// order (and group-by can reconstruct global batch boundaries); it never
/// collides with a real attribute.
void AppendRowIdColumn(Table* t) {
  ExecColumn col;
  col.attr = kInvalidAttr;
  col.name = "__spill_row";
  col.type = DataType::kInt64;
  ColumnData d(ColumnRep::kInt64);
  d.Reserve(t->num_rows());
  for (size_t i = 0; i < t->num_rows(); ++i) {
    d.AppendValue(Value(static_cast<int64_t>(i)));
  }
  t->AddColumn(std::move(col), std::move(d));
}

/// The partition driver shared by spilled joins and group-bys. Each input
/// is hash-partitioned on its key columns into kSpillFanout segment files
/// (equal keys co-partition across inputs under one salt) and then freed.
/// Partition p of every input is read back once and handed to `fn(p,
/// parts)`, in partition order. Every file the driver wrote is removed on
/// any exit.
Status ForEachSpillPartition(
    std::vector<SpillInput> inputs, uint64_t salt, ExecContext* ctx,
    const std::function<Status(size_t, std::vector<Table>&)>& fn) {
  SpillFiles files;
  for (SpillInput& in : inputs) {
    MPQ_RETURN_NOT_OK(
        SpillPartitionTable(in.table, in.key_cols, salt, ctx, &files));
    in.table = Table();
  }
  for (size_t p = 0; p < kSpillFanout; ++p) {
    std::vector<Table> parts(inputs.size());
    for (size_t i = 0; i < inputs.size(); ++i) {
      MPQ_ASSIGN_OR_RETURN(parts[i],
                           ReadSpillSegment(files.paths[i * kSpillFanout + p]));
    }
    MPQ_RETURN_NOT_OK(fn(p, parts));
  }
  return Status::OK();
}

/// The permutation that sorts rows ascending by row id — `major`, then
/// `minor` when not null; ids are distinct, so the order is total. Spilled
/// operators restore their in-memory output order with it.
std::vector<uint32_t> RowIdOrder(size_t n, const int64_t* major,
                                 const int64_t* minor) {
  std::vector<uint32_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = static_cast<uint32_t>(i);
  std::sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    if (major[a] != major[b]) return major[a] < major[b];
    return minor != nullptr && minor[a] < minor[b];
  });
  return perm;
}

}  // namespace exec_internal
}  // namespace mpq
