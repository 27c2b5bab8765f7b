#include <algorithm>
#include <cstring>

#include "common/flat_hash.h"
#include "common/rng.h"
#include "exec/exec_internal.h"

namespace mpq {
namespace exec_internal {

namespace {

/// An empty chunk whose column reps mirror the actual source columns (not
/// just the metadata), so gathers stay on the typed fast path even for
/// demoted columns.
Chunk ChunkLike(const Table& t) {
  Chunk ch;
  ch.reserve(t.num_columns());
  for (size_t c = 0; c < t.num_columns(); ++c) {
    ch.emplace_back(t.col(c).rep());
  }
  return ch;
}

Chunk ChunkLike(const Table& l, const Table& r) {
  Chunk ch;
  ch.reserve(l.num_columns() + r.num_columns());
  for (size_t c = 0; c < l.num_columns(); ++c) {
    ch.emplace_back(l.col(c).rep());
  }
  for (size_t c = 0; c < r.num_columns(); ++c) {
    ch.emplace_back(r.col(c).rep());
  }
  return ch;
}

std::vector<ExecColumn> ConcatColumns(const Table& l, const Table& r) {
  std::vector<ExecColumn> cols = l.columns();
  cols.insert(cols.end(), r.columns().begin(), r.columns().end());
  return cols;
}

/// Gathers the (left, right) row pairs `(li[k], ri[k])` into a chunk over
/// the concatenated layout.
Chunk GatherPairs(const Table& l, const Table& r, const SelectionVector& li,
                  const SelectionVector& ri) {
  Chunk ch = ChunkLike(l, r);
  for (size_t c = 0; c < l.num_columns(); ++c) {
    ch[c].Reserve(li.size());
    ch[c].AppendSelected(l.col(c), li.data(), li.size());
  }
  for (size_t c = 0; c < r.num_columns(); ++c) {
    ch[l.num_columns() + c].Reserve(ri.size());
    ch[l.num_columns() + c].AppendSelected(r.col(c), ri.data(), ri.size());
  }
  return ch;
}

/// Filters a chunk over `out_cols` by `preds`, rebuilding it only when rows
/// were dropped.
Result<Chunk> FilterChunk(Chunk ch, const std::vector<ExecColumn>& out_cols,
                          const std::vector<BoundPredicate>& preds) {
  if (preds.empty() || ch.empty()) return ch;
  Table probe = TableFromColumns(out_cols, std::move(ch));
  SelectionVector sel(probe.num_rows());
  for (size_t i = 0; i < sel.size(); ++i) sel[i] = static_cast<uint32_t>(i);
  MPQ_RETURN_NOT_OK(FilterAll(preds, probe, &sel));
  Chunk out = ChunkLike(probe);
  for (size_t c = 0; c < probe.num_columns(); ++c) {
    if (sel.size() == probe.num_rows()) {
      out[c] = std::move(probe.col_mut(c));
    } else {
      out[c].Reserve(sel.size());
      out[c].AppendSelected(probe.col(c), sel.data(), sel.size());
    }
  }
  return out;
}

/// A join's predicates split into hashable equi-pairs — left column
/// `lcols[k]` equals right column `rcols[k]` — and the residual rest.
struct EquiSplit {
  std::vector<int> lcols;
  std::vector<int> rcols;
  std::vector<Predicate> residual;
};

EquiSplit SplitEquiPredicates(const PlanNode* n, const Table& l,
                              const Table& r) {
  EquiSplit s;
  for (const Predicate& p : n->predicates) {
    if (p.rhs_is_attr && p.op == CmpOp::kEq) {
      int ll = l.ColIndex(p.lhs), rr = r.ColIndex(p.rhs_attr);
      if (ll < 0 || rr < 0) {
        ll = l.ColIndex(p.rhs_attr);
        rr = r.ColIndex(p.lhs);
      }
      if (ll >= 0 && rr >= 0) {
        s.lcols.push_back(ll);
        s.rcols.push_back(rr);
        continue;
      }
    }
    s.residual.push_back(p);
  }
  return s;
}

Result<Table> ExecJoinInMemory(const PlanNode* n, Table l, Table r,
                               const EquiSplit& split, ExecContext* ctx) {
  const std::vector<int>& lcols = split.lcols;
  const std::vector<int>& rcols = split.rcols;
  std::vector<ExecColumn> out_cols = ConcatColumns(l, r);
  // Residual predicates bind against the concatenated layout; a zero-row
  // probe table of that layout carries the binding metadata.
  Table layout = TableFromColumns(out_cols, ChunkLike(l, r));
  std::vector<BoundPredicate> bound;
  for (const Predicate& p : lcols.empty() ? n->predicates : split.residual) {
    MPQ_ASSIGN_OR_RETURN(BoundPredicate bp, BindPredicate(p, layout, n, ctx));
    bound.push_back(std::move(bp));
  }

  if (!lcols.empty()) {
    // Hash join on the flat-hash engine: a sequential build over the
    // (usually smaller) left side assigns every row a dense key id — via
    // fixed-width typed code words when every key-column pair shares a
    // typed rep, byte keys in a ByteArena otherwise — then row lists per
    // key id are laid out CSR-style and a batch-parallel probe over the
    // right side emits (left, right) pairs in the historical order
    // (ascending left row within ascending right row).
    bool typed =
        TypedKeyCodec::Eligible(l, lcols) && TypedKeyCodec::Eligible(r, rcols);
    if (typed) {
      for (size_t k = 0; k < lcols.size(); ++k) {
        if (KindOf(l.col(static_cast<size_t>(lcols[k]))) !=
            KindOf(r.col(static_cast<size_t>(rcols[k])))) {
          // Cross-rep pairs (say int64 vs double) only ever match on NULLs
          // under byte-key semantics; the byte path preserves that.
          typed = false;
          break;
        }
      }
    }

    // Build state: typed keys live as width() words per key id in
    // `key_words`; byte keys live in the arena addressed by (offset, size)
    // spans.
    FlatHashIndex index(l.num_rows());
    std::vector<uint64_t> key_words;
    ByteArena arena;
    std::vector<std::pair<uint64_t, uint32_t>> spans;
    std::vector<uint32_t> gids(l.num_rows());
    TypedKeyCodec codec;
    size_t width = 0;
    if (typed) {
      codec.Init(l, lcols, KeyColsNeedNullWord(l, lcols) ||
                               KeyColsNeedNullWord(r, rcols));
      width = codec.width();
      std::vector<uint64_t> words;
      std::vector<uint32_t> scratch;
      for (size_t begin = 0; begin < l.num_rows(); begin += Grain(ctx)) {
        size_t end = std::min(begin + Grain(ctx), l.num_rows());
        MPQ_RETURN_NOT_OK(codec.EncodeBuild(begin, end, &words, &scratch));
        for (size_t i = begin; i < end; ++i) {
          const uint64_t* row = words.data() + (i - begin) * width;
          gids[i] = index.FindOrInsert(
              HashWords(row, width),
              [&](uint32_t id) {
                return std::memcmp(key_words.data() + id * width, row,
                                   width * 8) == 0;
              },
              [&] {
                auto id = static_cast<uint32_t>(key_words.size() / width);
                key_words.insert(key_words.end(), row, row + width);
                return id;
              });
        }
      }
    } else {
      std::string key;
      for (size_t i = 0; i < l.num_rows(); ++i) {
        MPQ_RETURN_NOT_OK(RowKeyBytes(l, lcols, i, &key));
        gids[i] = index.FindOrInsert(
            HashBytes(key.data(), key.size()),
            [&](uint32_t id) {
              return arena.View(spans[id].first, spans[id].second) == key;
            },
            [&] {
              spans.emplace_back(arena.Append(key.data(), key.size()),
                                 static_cast<uint32_t>(key.size()));
              return static_cast<uint32_t>(spans.size() - 1);
            });
      }
    }
    // CSR row lists: the rows of each key id, ascending (build order).
    size_t num_keys = index.size();
    std::vector<uint32_t> offsets(num_keys + 1, 0);
    for (uint32_t g : gids) offsets[g + 1]++;
    for (size_t g = 1; g <= num_keys; ++g) offsets[g] += offsets[g - 1];
    std::vector<uint32_t> rows(l.num_rows());
    {
      std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
      for (size_t i = 0; i < l.num_rows(); ++i) {
        rows[cursor[gids[i]]++] = static_cast<uint32_t>(i);
      }
    }

    std::vector<Chunk> chunks(r.NumBatches(Grain(ctx)));
    MPQ_RETURN_NOT_OK(OpParallelFor(
        ctx, OpKind::kJoin, r.num_rows(),
        [&](size_t begin, size_t end) -> Status {
          SelectionVector li, ri;
          auto emit = [&](uint32_t g, size_t j) {
            for (uint32_t k = offsets[g]; k < offsets[g + 1]; ++k) {
              li.push_back(rows[k]);
              ri.push_back(static_cast<uint32_t>(j));
            }
          };
          if (typed) {
            std::vector<uint64_t> words;
            std::vector<uint32_t> scratch;
            MPQ_RETURN_NOT_OK(
                codec.EncodeProbe(r, rcols, begin, end, &words, &scratch));
            // Without the null/miss word the last word holds raw key bits
            // (which may legitimately have bit 63 set, e.g. negative
            // int64); a dictionary miss forces the word to exist.
            bool miss_word = width > rcols.size();
            for (size_t j = begin; j < end; ++j) {
              const uint64_t* row = words.data() + (j - begin) * width;
              if (miss_word && (row[width - 1] & kProbeMissBit)) continue;
              uint32_t g =
                  index.Find(HashWords(row, width), [&](uint32_t id) {
                    return std::memcmp(key_words.data() + id * width, row,
                                       width * 8) == 0;
                  });
              if (g != FlatHashIndex::kNotFound) emit(g, j);
            }
          } else {
            std::string key;
            for (size_t j = begin; j < end; ++j) {
              MPQ_RETURN_NOT_OK(RowKeyBytes(r, rcols, j, &key));
              uint32_t g = index.Find(
                  HashBytes(key.data(), key.size()), [&](uint32_t id) {
                    return arena.View(spans[id].first, spans[id].second) ==
                           key;
                  });
              if (g != FlatHashIndex::kNotFound) emit(g, j);
            }
          }
          MPQ_ASSIGN_OR_RETURN(
              chunks[begin / Grain(ctx)],
              FilterChunk(GatherPairs(l, r, li, ri), out_cols, bound));
          return Status::OK();
        }));
    return MergeChunks(std::move(out_cols), std::move(chunks));
  }

  // Nested-loop fallback (non-equi joins), parallel over left-side batches.
  // Pairs are evaluated cell-at-a-time and only the matches are gathered,
  // so the cross product is never materialized.
  auto pair_cell = [&](int col, size_t i, size_t j) {
    size_t c = static_cast<size_t>(col);
    return c < l.num_columns() ? l.col(c).GetCell(i)
                               : r.col(c - l.num_columns()).GetCell(j);
  };
  std::vector<Chunk> chunks(l.NumBatches(Grain(ctx)));
  MPQ_RETURN_NOT_OK(OpParallelFor(
      ctx, OpKind::kJoin, l.num_rows(),
      [&](size_t begin, size_t end) -> Status {
        SelectionVector li, ri;
        for (size_t i = begin; i < end; ++i) {
          for (size_t j = 0; j < r.num_rows(); ++j) {
            bool keep = true;
            for (const BoundPredicate& bp : bound) {
              Cell lhs = pair_cell(bp.lhs_col, i, j);
              Cell rhs = bp.rhs_col >= 0 ? pair_cell(bp.rhs_col, i, j)
                                         : bp.rhs_const;
              MPQ_ASSIGN_OR_RETURN(keep, CompareCells(bp.op, lhs, rhs));
              if (!keep) break;
            }
            if (keep) {
              li.push_back(static_cast<uint32_t>(i));
              ri.push_back(static_cast<uint32_t>(j));
            }
          }
        }
        chunks[begin / Grain(ctx)] = GatherPairs(l, r, li, ri);
        return Status::OK();
      }));
  return MergeChunks(std::move(out_cols), std::move(chunks));
}

/// Recursion bound: after this many generations a partition runs in memory
/// regardless of the budget (a single over-represented key never shrinks).
constexpr int kMaxSpillDepth = 4;

/// One spill generation of the partitioned hash join: both (row-id
/// augmented) sides are partitioned on the join key, then each partition
/// pair is joined — recursively when it still exceeds the budget — and the
/// outputs are concatenated. Row order within the concatenation is
/// arbitrary; the wrapper restores the in-memory order from the row-id
/// columns.
Result<Table> ExecJoinPartitioned(const PlanNode* n, Table l, Table r,
                                  const EquiSplit& split, ExecContext* ctx,
                                  int depth, uint64_t salt) {
  NoteSpillGeneration(ctx, static_cast<uint64_t>(depth) + 1);
  std::vector<ExecColumn> out_cols = ConcatColumns(l, r);
  Chunk empty_like = ChunkLike(l, r);
  std::vector<SpillInput> inputs(2);
  inputs[0] = {std::move(l), split.lcols};
  inputs[1] = {std::move(r), split.rcols};
  std::vector<Chunk> chunks;
  MPQ_RETURN_NOT_OK(ForEachSpillPartition(
      std::move(inputs), salt, ctx,
      [&](size_t p, std::vector<Table>& parts) -> Status {
        Table& lp = parts[0];
        Table& rp = parts[1];
        if (lp.num_rows() == 0 || rp.num_rows() == 0) return Status::OK();
        Result<Table> joined =
            depth + 1 < kMaxSpillDepth &&
                    lp.ByteSize() + rp.ByteSize() > ctx->memory_budget
                ? ExecJoinPartitioned(n, std::move(lp), std::move(rp), split,
                                      ctx, depth + 1, SplitMix64(salt + p + 1))
                : ExecJoinInMemory(n, std::move(lp), std::move(rp), split, ctx);
        MPQ_RETURN_NOT_OK(joined.status());
        if (joined->num_rows() == 0) return Status::OK();
        Chunk ch;
        ch.reserve(joined->num_columns());
        for (size_t c = 0; c < joined->num_columns(); ++c) {
          ch.push_back(std::move(joined->col_mut(c)));
        }
        chunks.push_back(std::move(ch));
        return Status::OK();
      }));
  if (chunks.empty()) {
    return TableFromColumns(std::move(out_cols), std::move(empty_like));
  }
  return MergeChunks(std::move(out_cols), std::move(chunks));
}

}  // namespace

Result<Table> ExecCartesian(const PlanNode*, Table l, Table r,
                            ExecContext* ctx) {
  std::vector<ExecColumn> out_cols = ConcatColumns(l, r);
  std::vector<Chunk> chunks(l.NumBatches(Grain(ctx)));
  MPQ_RETURN_NOT_OK(OpParallelFor(
      ctx, OpKind::kCartesian, l.num_rows(),
      [&](size_t begin, size_t end) -> Status {
        Chunk& ch = chunks[begin / Grain(ctx)];
        ch = ChunkLike(l, r);
        size_t rows = (end - begin) * r.num_rows();
        for (ColumnData& col : ch) col.Reserve(rows);
        for (size_t c = 0; c < l.num_columns(); ++c) {
          for (size_t i = begin; i < end; ++i) {
            ch[c].AppendRepeated(l.col(c), i, r.num_rows());
          }
        }
        for (size_t c = 0; c < r.num_columns(); ++c) {
          for (size_t i = begin; i < end; ++i) {
            ch[l.num_columns() + c].AppendRange(r.col(c), 0, r.num_rows());
          }
        }
        return Status::OK();
      }));
  return MergeChunks(std::move(out_cols), std::move(chunks));
}

Result<Table> ExecJoin(const PlanNode* n, Table l, Table r, ExecContext* ctx) {
  EquiSplit split = SplitEquiPredicates(n, l, r);
  // The spill path partitions on the equi-join key; without one (pure
  // theta join) the nested-loop path cannot partition and runs in memory.
  bool spill = ctx->memory_budget != 0 && !split.lcols.empty() &&
               l.num_rows() > 0 && r.num_rows() > 0 &&
               l.ByteSize() + r.ByteSize() > ctx->memory_budget;
  if (!spill) {
    return ExecJoinInMemory(n, std::move(l), std::move(r), split, ctx);
  }

  size_t ln = l.num_columns(), rn = r.num_columns();
  std::vector<ExecColumn> final_cols = ConcatColumns(l, r);
  AppendRowIdColumn(&l);
  AppendRowIdColumn(&r);
  MPQ_ASSIGN_OR_RETURN(
      Table joined,
      ExecJoinPartitioned(n, std::move(l), std::move(r), split, ctx,
                          /*depth=*/0, /*salt=*/0x9e3779b97f4a7c15ull));
  // Restore the in-memory emit order — ascending (right row, left row);
  // every match pair is emitted by exactly one partition pair, so the
  // sorted outputs are bit-identical to the unspilled join.
  std::vector<uint32_t> perm =
      RowIdOrder(joined.num_rows(), joined.col(ln + 1 + rn).i64().data(),
                 joined.col(ln).i64().data());
  Table out;
  for (size_t c = 0; c < final_cols.size(); ++c) {
    size_t src = c < ln ? c : c + 1;  // skip the left row-id column
    ColumnData d(joined.col(src).rep());
    d.Reserve(perm.size());
    d.AppendSelected(joined.col(src), perm.data(), perm.size());
    out.AddColumn(std::move(final_cols[c]), std::move(d));
  }
  return out;
}

}  // namespace exec_internal
}  // namespace mpq
