#include <cmath>
#include <cstring>
#include <iterator>
#include <unordered_map>

#include "common/flat_hash.h"
#include "common/str_util.h"
#include "crypto/column_codec.h"
#include "crypto/paillier.h"
#include "exec/exec_internal.h"

namespace mpq {
namespace exec_internal {

namespace {

/// OpParallelFor over explicit morsels: `fn(m)` runs once per morsel m,
/// the rows [bounds[m], bounds[m + 1]) (grain 1 makes each ParallelFor
/// morsel one index).
Status OpParallelForMorsels(ExecContext* ctx, OpKind kind,
                            const std::vector<size_t>& bounds,
                            const std::function<Status(size_t)>& fn) {
  size_t m = bounds.size() - 1;
  if (ctx->op_profile != nullptr) ctx->op_profile->RecordMorsels(kind, m);
  ctx->op_morsels.fetch_add(m, std::memory_order_relaxed);
  return ParallelFor(ctx->pool, m, 1, [&](size_t i, size_t) { return fn(i); });
}

/// Aggregation state for one (group, aggregate) pair. Min/max and the
/// Paillier template are tracked as row indices into the operand table
/// (materialized only when the output is built). Trivially copyable, so
/// group states pack into one contiguous arena per batch (stride = number
/// of aggregates) instead of a vector-of-vectors.
struct AggState {
  // Plaintext accumulators.
  double sum = 0;
  bool sum_is_double = false;
  int64_t count = 0;
  size_t best_row = 0;  // current min/max row in the operand table
  bool has_min_max = false;
  // Homomorphic accumulator. On the lazy path (contiguous-ciphertext
  // columns) `hom_cipher` stays zero through phases 1 and 2 — row indices
  // are staged per group instead — and is written exactly once at finalize;
  // the eager kCell fallback folds into it per row as before.
  bool hom = false;
  uint128 hom_cipher = 0;
  /// Fold codec of the ciphertexts' public modulus (owned by the operator
  /// frame; set with `hom`).
  const ColumnCodec* hom_codec = nullptr;
  int64_t hom_count = 0;
  size_t hom_template_row = 0;
};

/// Fold-only codecs per key id, built once per group-by operator from the
/// public moduli so neither the per-row eager fold nor the per-group lazy
/// fold ever re-derives Montgomery reduction constants.
using HomCodecMap = std::unordered_map<uint64_t, ColumnCodec>;

/// Three-way min/max comparison of operand rows `i` vs `j` of `col`,
/// matching CompareCells semantics (strictly-better keeps first occurrence).
Result<bool> RowBetter(const ColumnData& col, CmpOp op, size_t i, size_t j) {
  if (PlainTypedRep(col.rep())) {
    return ApplyCmp(op, CmpPlainRows(col, i, col, j));
  }
  if (col.rep() == ColumnRep::kEnc) return CompareEncRows(op, col, i, col, j);
  return CompareCells(op, col.GetCell(i), col.GetCell(j));
}

/// Folds operand row `r` of `col` into `s` for `agg`, column-at-a-time.
Status AccumulateRow(const PlanNode* n, const Aggregate& agg,
                     const ColumnData& col, size_t r,
                     const HomCodecMap& hom_codecs, AggState* s) {
  switch (agg.func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      s->count++;
      return Status::OK();
    case AggFunc::kSum:
    case AggFunc::kAvg: {
      if (col.IsNull(r)) return Status::OK();
      switch (col.rep()) {
        case ColumnRep::kInt64:
          s->sum += static_cast<double>(col.i64()[r]);
          s->count++;
          return Status::OK();
        case ColumnRep::kDouble:
          s->sum += col.f64()[r];
          s->sum_is_double = true;
          s->count++;
          return Status::OK();
        case ColumnRep::kString:
          return Status::Unsupported(StrFormat(
              "node %d: %s over a string column", n->id,
              AggFuncName(agg.func)));
        case ColumnRep::kCell: {
          const Cell& cell = col.cells()[r];
          if (cell.is_plain()) {
            const Value& v = cell.plain();
            if (v.is_null()) return Status::OK();
            if (v.is_string()) {
              return Status::Unsupported(StrFormat(
                  "node %d: %s over a string column", n->id,
                  AggFuncName(agg.func)));
            }
            s->sum += v.AsDouble();
            if (v.is_double()) s->sum_is_double = true;
            s->count++;
            return Status::OK();
          }
          break;  // ciphertext cell: fall through to the Paillier path
        }
        case ColumnRep::kEnc:
          break;
      }
      EncView ev = col.EncAt(r);
      if (ev.scheme != EncScheme::kPaillier) {
        return Status::Unsupported(StrFormat(
            "node %d: %s over %s ciphertext requires the HOM scheme", n->id,
            AggFuncName(agg.func), EncSchemeName(ev.scheme)));
      }
      auto pm = hom_codecs.find(ev.key_id);
      if (pm == hom_codecs.end()) {
        return Status::NotFound(StrFormat(
            "node %d: no public modulus for key %llu", n->id,
            static_cast<unsigned long long>(ev.key_id)));
      }
      MPQ_ASSIGN_OR_RETURN(uint128 c, PaillierCipherFromBytes(ev.blob));
      if (!s->hom) {
        s->hom = true;
        s->hom_cipher = c;
        s->hom_codec = &pm->second;
        s->hom_template_row = r;
      } else {
        s->hom_cipher = s->hom_codec->HomAdd(s->hom_cipher, c);
      }
      s->hom_count += ev.aux;
      return Status::OK();
    }
    case AggFunc::kMin:
    case AggFunc::kMax: {
      bool better;
      if (!s->has_min_max) {
        better = true;
      } else {
        CmpOp op = agg.func == AggFunc::kMin ? CmpOp::kLt : CmpOp::kGt;
        MPQ_ASSIGN_OR_RETURN(better, RowBetter(col, op, r, s->best_row));
      }
      if (better) {
        s->best_row = r;
        s->has_min_max = true;
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable aggregate function");
}

/// Folds a later batch's state `src` into `dst`. Merging in batch order keeps
/// first-occurrence semantics (hom template, min/max tie-breaks) identical to
/// a sequential row scan over the same batch partition.
Status MergeAggState(const Aggregate& agg, const ColumnData* col,
                     bool lazy_hom, const AggState& src, AggState* dst) {
  switch (agg.func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      dst->count += src.count;
      return Status::OK();
    case AggFunc::kSum:
    case AggFunc::kAvg:
      dst->sum += src.sum;
      dst->sum_is_double = dst->sum_is_double || src.sum_is_double;
      dst->count += src.count;
      if (src.hom) {
        if (!dst->hom) {
          dst->hom = true;
          dst->hom_cipher = src.hom_cipher;
          dst->hom_codec = src.hom_codec;
          dst->hom_template_row = src.hom_template_row;
        } else if (!lazy_hom) {
          // Lazy aggregates carry no per-batch partial cipher to combine:
          // their rows are staged and folded once at finalize.
          dst->hom_cipher =
              dst->hom_codec->HomAdd(dst->hom_cipher, src.hom_cipher);
        }
        dst->hom_count += src.hom_count;
      }
      return Status::OK();
    case AggFunc::kMin:
    case AggFunc::kMax: {
      if (!src.has_min_max) return Status::OK();
      bool better;
      if (!dst->has_min_max) {
        better = true;
      } else {
        CmpOp op = agg.func == AggFunc::kMin ? CmpOp::kLt : CmpOp::kGt;
        MPQ_ASSIGN_OR_RETURN(
            better, RowBetter(*col, op, src.best_row, dst->best_row));
      }
      if (better) {
        dst->best_row = src.best_row;
        dst->has_min_max = true;
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable aggregate function");
}

/// Hash-aggregated groups of one morsel, in first-occurrence order. Group
/// keys are remembered as the operand row index of their first occurrence
/// plus, on the typed path, the group's code words (directly mergeable
/// across morsels when no morsel-local dictionary is involved); states are
/// one contiguous arena, `num_aggs` entries per group.
struct BatchGroups {
  std::vector<size_t> first_row;
  std::vector<uint64_t> key_words;  ///< typed path: width words per group
  std::vector<AggState> states;
  /// Lazy homomorphic staging, one slot per lazy (kEnc-summed) aggregate:
  /// the morsel's ciphertext row indices and their morsel-local group ids,
  /// appended in row order. Nothing is folded until finalize.
  std::vector<std::vector<uint32_t>> hom_rows;
  std::vector<std::vector<uint32_t>> hom_gids;
};

/// Group-by output schema bound against the operand: group key column
/// indices, aggregate source columns (-1 for count(*)), and the output
/// column metadata. A spilled group-by binds once against the whole input
/// and reuses the schema for every partition (same column layout).
struct GroupBySchema {
  std::vector<int> group_cols;
  std::vector<int> agg_cols;
  std::vector<ExecColumn> out_cols;
};

Result<GroupBySchema> BindGroupBy(const PlanNode* n, const Table& in,
                                  ExecContext* ctx) {
  GroupBySchema s;
  std::vector<AttrId> group_attrs = n->group_by.ToVector();
  for (AttrId a : group_attrs) {
    int idx = in.ColIndex(a);
    if (idx < 0) return ColNotFound(n, a, *ctx->catalog);
    s.group_cols.push_back(idx);
    s.out_cols.push_back(in.columns()[static_cast<size_t>(idx)]);
  }

  for (const Aggregate& agg : n->aggregates) {
    ExecColumn col;
    if (agg.func == AggFunc::kCountStar) {
      s.agg_cols.push_back(-1);
      col.attr = agg.out_attr;
      col.name = ctx->catalog->attrs().Name(agg.out_attr);
      col.type = DataType::kInt64;
      s.out_cols.push_back(col);
      continue;
    }
    int idx = in.ColIndex(agg.attr);
    if (idx < 0) return ColNotFound(n, agg.attr, *ctx->catalog);
    s.agg_cols.push_back(idx);
    const ExecColumn& src = in.columns()[static_cast<size_t>(idx)];
    col = src;
    col.attr = agg.out_attr;
    col.name = ctx->catalog->attrs().Name(agg.out_attr);
    switch (agg.func) {
      case AggFunc::kCount:
        col.type = DataType::kInt64;
        col.encrypted = false;
        break;
      case AggFunc::kAvg:
        if (src.encrypted) {
          col.hom_avg = true;  // Paillier sum + aux count
        } else {
          col.type = DataType::kDouble;
        }
        break;
      default:
        break;  // sum/min/max keep the source representation
    }
    s.out_cols.push_back(col);
  }
  return s;
}

/// Resolves the fold codecs for homomorphic sums (one per public modulus)
/// and assigns a lazy staging slot to each contiguous-ciphertext (kEnc)
/// summed aggregate (-1 elsewhere). Plaintext group-bys never pay the
/// setup.
HomCodecMap HomCodecsFor(const PlanNode* n, const Table& in,
                         const std::vector<int>& agg_cols, ExecContext* ctx,
                         std::vector<int>* lazy_slot, size_t* num_lazy) {
  size_t num_aggs = n->aggregates.size();
  HomCodecMap hom_codecs;
  lazy_slot->assign(num_aggs, -1);
  *num_lazy = 0;
  for (size_t ai = 0; ai < num_aggs; ++ai) {
    const Aggregate& agg = n->aggregates[ai];
    if (agg.func != AggFunc::kSum && agg.func != AggFunc::kAvg) continue;
    if (agg_cols[ai] < 0) continue;
    ColumnRep rep = in.col(static_cast<size_t>(agg_cols[ai])).rep();
    if (rep != ColumnRep::kEnc && rep != ColumnRep::kCell) continue;
    if (hom_codecs.empty() && ctx->public_modulus != nullptr) {
      for (const auto& [key_id, modulus] : *ctx->public_modulus) {
        hom_codecs.emplace(key_id, ColumnCodec(key_id, modulus));
      }
    }
    if (rep == ColumnRep::kEnc) {
      (*lazy_slot)[ai] = static_cast<int>((*num_lazy)++);
    }
  }
  return hom_codecs;
}

/// Materializes one finished aggregate state as its output cell. `col` is
/// the aggregate's source column (holding `best_row`/`hom_template_row`),
/// null for count(*).
Result<Cell> AggOutputCell(const Aggregate& agg, const AggState& s,
                           const ColumnData* col) {
  switch (agg.func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return Cell(Value(s.count));
    case AggFunc::kSum:
    case AggFunc::kAvg: {
      if (s.hom) {
        EncValue ev = col->EncAt(s.hom_template_row).ToValue();
        ev.blob = PaillierCipherToBytes(s.hom_cipher);
        ev.aux = s.hom_count;
        return Cell(std::move(ev));
      }
      if (agg.func == AggFunc::kAvg) {
        return Cell(Value(
            s.count > 0 ? s.sum / static_cast<double>(s.count) : 0.0));
      }
      if (s.sum_is_double) return Cell(Value(s.sum));
      return Cell(Value(static_cast<int64_t>(std::llround(s.sum))));
    }
    case AggFunc::kMin:
    case AggFunc::kMax:
      if (s.has_min_max) return col->GetCell(s.best_row);
      return Cell(Value::Null());
  }
  return Status::Internal("unreachable aggregate function");
}

/// One hash group-by's groups, in first-occurrence order: each group's
/// first operand row, its key columns, and its finished aggregate cells
/// (one vector per aggregate).
struct Groups {
  std::vector<size_t> first_row;
  std::vector<ColumnData> keys;
  std::vector<std::vector<Cell>> aggs;
};

/// The hash group-by, the one implementation behind in-memory and spilled
/// execution. Phase 1 aggregates every morsel — operand rows [bounds[m],
/// bounds[m + 1]) — into private groups in parallel; phase 2 merges them in
/// morsel order. The boundaries alone fix each sum's floating-point
/// association, so equal boundaries give bit-identical results at any
/// thread count.
Result<Groups> HashGroupBy(const PlanNode* n, const Table& in,
                           const GroupBySchema& schema,
                           const std::vector<size_t>& bounds, ExecContext* ctx) {
  const std::vector<int>& group_cols = schema.group_cols;
  const std::vector<int>& agg_cols = schema.agg_cols;

  // Fold codecs for homomorphic sums, resolved up front so neither the
  // parallel phase nor finalize re-derives Montgomery constants.
  // Contiguous-ciphertext (kEnc) aggregates fold *lazily*: phase 1 only
  // stages row indices per group, and finalize multiplies each group's
  // ciphertexts in one batch accumulation, touching every ciphertext
  // exactly once. The kCell fallback keeps the eager per-row fold.
  size_t num_aggs = n->aggregates.size();
  std::vector<int> lazy_slot;
  size_t num_lazy = 0;
  HomCodecMap hom_codecs =
      HomCodecsFor(n, in, agg_cols, ctx, &lazy_slot, &num_lazy);

  // Typed vs byte keys is a whole-operator decision (a single table, so
  // reps cannot mismatch; only the kCell fallback forces byte keys). When
  // no key column needs a dictionary, code words are raw value bits —
  // comparable across morsels, so the merge phase can skip byte keys too.
  bool typed = TypedKeyCodec::Eligible(in, group_cols);
  bool dict_keys = false;
  bool null_word = group_cols.empty();
  for (int gc : group_cols) {
    const ColumnData& col = in.col(static_cast<size_t>(gc));
    dict_keys = dict_keys || col.rep() == ColumnRep::kString ||
                col.rep() == ColumnRep::kEnc;
    null_word = null_word || col.has_nulls();
  }

  // Phase 1: each morsel hash-aggregates its rows into private groups.
  // Group ids come from a morsel-local flat-hash table over fixed-width key
  // codes (typed path) or arena-backed byte keys; each aggregate then folds
  // its own column into the contiguous state arena.
  std::vector<BatchGroups> batches(bounds.size() - 1);
  MPQ_RETURN_NOT_OK(OpParallelForMorsels(
      ctx, OpKind::kGroupBy, bounds, [&](size_t m) -> Status {
        size_t begin = bounds[m], end = bounds[m + 1];
        BatchGroups& bg = batches[m];
        bg.hom_rows.resize(num_lazy);
        bg.hom_gids.resize(num_lazy);
        std::vector<uint32_t> gid(end - begin);
        // Sized for the all-distinct worst case up front: a high-cardinality
        // morsel never pays a mid-stream rehash.
        FlatHashIndex index(end - begin);
        if (typed) {
          TypedKeyCodec codec;
          codec.Init(in, group_cols, null_word);
          size_t w = codec.width();
          std::vector<uint64_t> words;
          std::vector<uint32_t> scratch;
          MPQ_RETURN_NOT_OK(codec.EncodeBuild(begin, end, &words, &scratch));
          for (size_t r = begin; r < end; ++r) {
            const uint64_t* row = words.data() + (r - begin) * w;
            gid[r - begin] = index.FindOrInsert(
                HashWords(row, w),
                [&](uint32_t id) {
                  return std::memcmp(bg.key_words.data() + id * w, row,
                                     w * 8) == 0;
                },
                [&] {
                  auto id = static_cast<uint32_t>(bg.first_row.size());
                  bg.key_words.insert(bg.key_words.end(), row, row + w);
                  bg.first_row.push_back(r);
                  bg.states.resize(bg.states.size() + num_aggs);
                  return id;
                });
          }
        } else {
          ByteArena arena;
          std::vector<std::pair<uint64_t, uint32_t>> spans;
          std::string key;
          for (size_t r = begin; r < end; ++r) {
            MPQ_RETURN_NOT_OK(RowKeyBytes(in, group_cols, r, &key));
            gid[r - begin] = index.FindOrInsert(
                HashBytes(key.data(), key.size()),
                [&](uint32_t id) {
                  return arena.View(spans[id].first, spans[id].second) == key;
                },
                [&] {
                  auto id = static_cast<uint32_t>(bg.first_row.size());
                  spans.emplace_back(arena.Append(key.data(), key.size()),
                                     static_cast<uint32_t>(key.size()));
                  bg.first_row.push_back(r);
                  bg.states.resize(bg.states.size() + num_aggs);
                  return id;
                });
          }
        }
        for (size_t ai = 0; ai < num_aggs; ++ai) {
          const Aggregate& agg = n->aggregates[ai];
          AggState* st = bg.states.data();
          // count/count(*) fold every row unconditionally (engine
          // semantics, mirrored by the row oracle).
          if (agg.func == AggFunc::kCountStar ||
              agg.func == AggFunc::kCount) {
            for (size_t r = begin; r < end; ++r) {
              st[gid[r - begin] * num_aggs + ai].count++;
            }
            continue;
          }
          const ColumnData& col = in.col(static_cast<size_t>(agg_cols[ai]));
          // Tight typed loops for the hot aggregate/column shapes; each
          // replicates AccumulateRow's per-row effect exactly (same
          // floating-point op order per state), so results stay
          // bit-identical to the generic path.
          bool sumlike =
              agg.func == AggFunc::kSum || agg.func == AggFunc::kAvg;
          // Lazy homomorphic fold: stage (row, group) pairs; the Montgomery
          // work happens once per group at finalize. The column has one
          // scheme and key, checked at its first non-NULL row of the batch
          // so error surfacing matches the eager path.
          if (sumlike && lazy_slot[ai] >= 0) {
            const std::vector<int64_t>& aux = col.enc_aux();
            auto slot = static_cast<size_t>(lazy_slot[ai]);
            std::vector<uint32_t>& hrows = bg.hom_rows[slot];
            std::vector<uint32_t>& hgids = bg.hom_gids[slot];
            const ColumnCodec* codec = nullptr;
            for (size_t r = begin; r < end; ++r) {
              if (col.IsNull(r)) continue;
              if (codec == nullptr) {
                if (col.enc_scheme() != EncScheme::kPaillier) {
                  return Status::Unsupported(StrFormat(
                      "node %d: %s over %s ciphertext requires the HOM "
                      "scheme",
                      n->id, AggFuncName(agg.func),
                      EncSchemeName(col.enc_scheme())));
                }
                auto pm = hom_codecs.find(col.enc_key_id());
                if (pm == hom_codecs.end()) {
                  return Status::NotFound(StrFormat(
                      "node %d: no public modulus for key %llu", n->id,
                      static_cast<unsigned long long>(col.enc_key_id())));
                }
                codec = &pm->second;
              }
              AggState& s = st[gid[r - begin] * num_aggs + ai];
              if (!s.hom) {
                s.hom = true;
                s.hom_codec = codec;
                s.hom_template_row = r;
              }
              s.hom_count += aux.empty() ? 1 : aux[r];
              hrows.push_back(static_cast<uint32_t>(r));
              hgids.push_back(gid[r - begin]);
            }
            continue;
          }
          if (sumlike && col.rep() == ColumnRep::kInt64 &&
              !col.has_nulls()) {
            const int64_t* v = col.i64().data();
            for (size_t r = begin; r < end; ++r) {
              AggState& s = st[gid[r - begin] * num_aggs + ai];
              s.sum += static_cast<double>(v[r]);
              s.count++;
            }
            continue;
          }
          if (sumlike && col.rep() == ColumnRep::kDouble &&
              !col.has_nulls()) {
            const double* v = col.f64().data();
            for (size_t r = begin; r < end; ++r) {
              AggState& s = st[gid[r - begin] * num_aggs + ai];
              s.sum += v[r];
              s.sum_is_double = true;
              s.count++;
            }
            continue;
          }
          bool minmax =
              agg.func == AggFunc::kMin || agg.func == AggFunc::kMax;
          if (minmax && col.rep() == ColumnRep::kInt64 && !col.has_nulls()) {
            // CmpPlainRows compares int64 as double; mirror that exactly so
            // ties (beyond 2^53) keep the first occurrence either way.
            const int64_t* v = col.i64().data();
            bool want_less = agg.func == AggFunc::kMin;
            for (size_t r = begin; r < end; ++r) {
              AggState& s = st[gid[r - begin] * num_aggs + ai];
              auto x = static_cast<double>(v[r]);
              auto best = static_cast<double>(v[s.best_row]);
              if (!s.has_min_max || (want_less ? x < best : x > best)) {
                s.best_row = r;
                s.has_min_max = true;
              }
            }
            continue;
          }
          if (minmax && col.rep() == ColumnRep::kDouble && !col.has_nulls()) {
            // NaN never compares better (CmpPlainRows returns 0 for it).
            const double* v = col.f64().data();
            bool want_less = agg.func == AggFunc::kMin;
            for (size_t r = begin; r < end; ++r) {
              AggState& s = st[gid[r - begin] * num_aggs + ai];
              double x = v[r], best = v[s.best_row];
              if (!s.has_min_max || (want_less ? x < best : x > best)) {
                s.best_row = r;
                s.has_min_max = true;
              }
            }
            continue;
          }
          for (size_t r = begin; r < end; ++r) {
            MPQ_RETURN_NOT_OK(
                AccumulateRow(n, agg, col, r, hom_codecs,
                              &st[gid[r - begin] * num_aggs + ai]));
          }
        }
        return Status::OK();
      }));

  // Phase 2: merge morsel groups in morsel order — group order is first
  // occurrence over the whole input, like a sequential scan. On the typed
  // path without dictionary columns, code words are raw value bits and thus
  // comparable across morsels, so unification works on the words directly;
  // otherwise each group's canonical byte key is re-derived from its first
  // row (cheap: per group, not per row). Either equivalence is byte-key
  // equality exactly as before.
  FlatHashIndex gindex;
  ByteArena gkeys;
  std::vector<std::pair<uint64_t, uint32_t>> gspans;
  std::vector<uint64_t> gkey_words;
  std::vector<size_t> group_first_row;
  std::vector<AggState> states;
  bool words_merge = typed && !dict_keys;
  size_t kw = group_cols.size() + (null_word ? 1 : 0);
  // Global lazy staging, one slot per lazy aggregate: morsel stages are
  // concatenated in morsel order with group ids remapped to global ids, so
  // each group's row list is in ascending row order — identical at any
  // thread count.
  std::vector<std::vector<uint32_t>> hom_rows(num_lazy);
  std::vector<std::vector<uint32_t>> hom_gids(num_lazy);
  {
    std::string key;
    std::vector<uint32_t> remap;
    for (BatchGroups& bg : batches) {
      remap.resize(bg.first_row.size());
      for (size_t g = 0; g < bg.first_row.size(); ++g) {
        uint64_t hash;
        const uint64_t* row = nullptr;
        if (words_merge) {
          row = bg.key_words.data() + g * kw;
          hash = HashWords(row, kw);
        } else {
          MPQ_RETURN_NOT_OK(
              RowKeyBytes(in, group_cols, bg.first_row[g], &key));
          hash = HashBytes(key.data(), key.size());
        }
        bool inserted = false;
        uint32_t idx = gindex.FindOrInsert(
            hash,
            [&](uint32_t id) {
              if (words_merge) {
                return std::memcmp(gkey_words.data() + id * kw, row,
                                   kw * 8) == 0;
              }
              return gkeys.View(gspans[id].first, gspans[id].second) == key;
            },
            [&] {
              auto id = static_cast<uint32_t>(group_first_row.size());
              if (words_merge) {
                gkey_words.insert(gkey_words.end(), row, row + kw);
              } else {
                gspans.emplace_back(gkeys.Append(key.data(), key.size()),
                                    static_cast<uint32_t>(key.size()));
              }
              group_first_row.push_back(bg.first_row[g]);
              auto src = bg.states.begin() + static_cast<long>(g * num_aggs);
              states.insert(states.end(), src,
                            src + static_cast<long>(num_aggs));
              inserted = true;
              return id;
            });
        remap[g] = idx;
        if (inserted) continue;
        for (size_t ai = 0; ai < num_aggs; ++ai) {
          const ColumnData* col = nullptr;
          if (agg_cols[ai] >= 0) {
            col = &in.col(static_cast<size_t>(agg_cols[ai]));
          }
          MPQ_RETURN_NOT_OK(MergeAggState(n->aggregates[ai], col,
                                          lazy_slot[ai] >= 0,
                                          bg.states[g * num_aggs + ai],
                                          &states[idx * num_aggs + ai]));
        }
      }
      for (size_t h = 0; h < num_lazy; ++h) {
        hom_rows[h].insert(hom_rows[h].end(), bg.hom_rows[h].begin(),
                           bg.hom_rows[h].end());
        hom_gids[h].reserve(hom_gids[h].size() + bg.hom_gids[h].size());
        for (uint32_t bgid : bg.hom_gids[h]) {
          hom_gids[h].push_back(remap[bgid]);
        }
      }
    }
  }

  // Finalize lazy homomorphic sums: order each aggregate's staged rows by
  // group (counting sort — morsel-ordered stages in, per-group ascending row
  // runs out), then fold every group's ciphertexts in one pass. One
  // reusable accumulation context per key serves all groups; each
  // ciphertext is parsed and reduced exactly once.
  size_t num_groups = group_first_row.size();
  for (size_t ai = 0; ai < num_aggs; ++ai) {
    if (lazy_slot[ai] < 0) continue;
    auto h = static_cast<size_t>(lazy_slot[ai]);
    const std::vector<uint32_t>& rows = hom_rows[h];
    const std::vector<uint32_t>& gids = hom_gids[h];
    const ColumnData& col = in.col(static_cast<size_t>(agg_cols[ai]));
    std::vector<uint32_t> offs(num_groups + 1, 0);
    for (uint32_t g : gids) offs[g + 1]++;
    for (size_t g = 0; g < num_groups; ++g) offs[g + 1] += offs[g];
    std::vector<uint32_t> ordered(rows.size());
    std::vector<uint32_t> cur(offs.begin(), offs.end() - 1);
    for (size_t i = 0; i < rows.size(); ++i) {
      ordered[cur[gids[i]]++] = rows[i];
    }
    ColumnCodec* codec = nullptr;
    uint64_t codec_key = 0;
    for (size_t g = 0; g < num_groups; ++g) {
      size_t b = offs[g], e = offs[g + 1];
      if (b == e) continue;  // no ciphertext rows: plaintext/NULL-only group
      // Fold under the group's first ciphertext key — the same binding the
      // eager path uses; phase 1 already validated every key id.
      uint64_t kid = col.EncAt(ordered[b]).key_id;
      if (codec == nullptr || kid != codec_key) {
        codec = &hom_codecs.find(kid)->second;
        codec_key = kid;
      }
      AggState& s = states[g * num_aggs + ai];
      MPQ_ASSIGN_OR_RETURN(
          s.hom_cipher, codec->FoldRows(col, ordered.data() + b, e - b));
    }
  }

  // Observable operator detail: bytes of the merged state/key arenas and
  // the number of ciphertexts the lazy homomorphic folds touched. Counters
  // only — results are unaffected.
  if (ctx->op_profile != nullptr) {
    uint64_t staged = 0;
    for (const std::vector<uint32_t>& rows : hom_rows) staged += rows.size();
    uint64_t arena = states.size() * sizeof(AggState) + gkeys.size() +
                     gkey_words.size() * sizeof(uint64_t);
    ctx->op_profile->RecordDetail(OpKind::kGroupBy, arena, staged);
  }

  // Group keys gather from the operand; aggregates materialize from their
  // states.
  Groups out;
  out.first_row = std::move(group_first_row);
  for (int gc : group_cols) {
    const ColumnData& src = in.col(static_cast<size_t>(gc));
    ColumnData col(src.rep());
    col.Reserve(num_groups);
    for (size_t row : out.first_row) col.AppendFrom(src, row);
    out.keys.push_back(std::move(col));
  }
  out.aggs.resize(num_aggs);
  for (size_t ai = 0; ai < num_aggs; ++ai) {
    const Aggregate& agg = n->aggregates[ai];
    const ColumnData* src =
        agg_cols[ai] >= 0 ? &in.col(static_cast<size_t>(agg_cols[ai]))
                          : nullptr;
    out.aggs[ai].reserve(num_groups);
    for (size_t g = 0; g < num_groups; ++g) {
      MPQ_ASSIGN_OR_RETURN(
          Cell cell, AggOutputCell(agg, states[g * num_aggs + ai], src));
      out.aggs[ai].push_back(std::move(cell));
    }
  }
  return out;
}

/// The operator's output table: the key columns, then one column per
/// aggregate built from its cells. Degenerate global aggregation over an
/// empty input emits no rows (the engine's semantics; SQL would emit one
/// NULL row).
Table GroupsTable(std::vector<ExecColumn> out_cols, Groups groups) {
  std::vector<ColumnData> data = std::move(groups.keys);
  for (std::vector<Cell>& cells : groups.aggs) {
    data.push_back(ColumnFromCells(std::move(cells)));
  }
  return TableFromColumns(std::move(out_cols), std::move(data));
}

/// Out-of-core group-by, in one spill generation: the input is
/// hash-partitioned on the group key (each group lands wholly in one
/// partition) and every partition runs the hash group-by alone. A
/// partition's morsels are its runs of rows from one global batch
/// (recovered from the spilled row-id column), so each group's partials
/// associate exactly as in memory; groups then take the in-memory order,
/// ascending global first row. Results are bit-identical to the unspilled
/// operator at any thread count.
Result<Table> ExecGroupBySpill(const PlanNode* n, Table in,
                               GroupBySchema schema, ExecContext* ctx) {
  NoteSpillGeneration(ctx, 1);
  Groups all;  // every partition's groups, concatenated
  for (int gc : schema.group_cols) {
    all.keys.emplace_back(in.col(static_cast<size_t>(gc)).rep());
  }
  all.aggs.resize(n->aggregates.size());
  std::vector<int64_t> global_first;  // per group in `all`
  size_t row_col = in.num_columns();
  AppendRowIdColumn(&in);

  // 1-2. Partition the input and run the operator over each partition.
  size_t grain = Grain(ctx);
  std::vector<SpillInput> inputs(1);
  inputs[0] = {std::move(in), schema.group_cols};
  MPQ_RETURN_NOT_OK(ForEachSpillPartition(
      std::move(inputs), 0xc2b2ae3d27d4eb4full, ctx,
      [&](size_t, std::vector<Table>& tables) -> Status {
        const Table& part = tables[0];
        if (part.num_rows() == 0) return Status::OK();
        const int64_t* grow = part.col(row_col).i64().data();
        std::vector<size_t> bounds{0};
        for (size_t r = 1; r < part.num_rows(); ++r) {
          if (static_cast<uint64_t>(grow[r]) / grain !=
              static_cast<uint64_t>(grow[r - 1]) / grain) {
            bounds.push_back(r);
          }
        }
        bounds.push_back(part.num_rows());
        MPQ_ASSIGN_OR_RETURN(Groups groups,
                             HashGroupBy(n, part, schema, bounds, ctx));
        for (size_t row : groups.first_row) global_first.push_back(grow[row]);
        for (size_t k = 0; k < all.keys.size(); ++k) {
          all.keys[k].AppendRange(groups.keys[k], 0, groups.keys[k].size());
        }
        for (size_t ai = 0; ai < all.aggs.size(); ++ai) {
          std::move(groups.aggs[ai].begin(), groups.aggs[ai].end(),
                    std::back_inserter(all.aggs[ai]));
        }
        return Status::OK();
      }));

  // 3-4. Sort groups by global first row and gather the output.
  std::vector<uint32_t> order =
      RowIdOrder(global_first.size(), global_first.data(), nullptr);
  Groups out;
  for (const ColumnData& keys : all.keys) {
    out.keys.emplace_back(keys.rep());
    out.keys.back().AppendSelected(keys, order.data(), order.size());
  }
  for (std::vector<Cell>& cells : all.aggs) {
    out.aggs.emplace_back();
    for (uint32_t i : order) out.aggs.back().push_back(std::move(cells[i]));
  }
  return GroupsTable(std::move(schema.out_cols), std::move(out));
}

}  // namespace

Result<Table> ExecGroupBy(const PlanNode* n, Table in, ExecContext* ctx) {
  MPQ_ASSIGN_OR_RETURN(GroupBySchema schema, BindGroupBy(n, in, ctx));
  if (ctx->memory_budget != 0 && in.num_rows() > 0 &&
      !schema.group_cols.empty() && in.ByteSize() > ctx->memory_budget) {
    return ExecGroupBySpill(n, std::move(in), std::move(schema), ctx);
  }
  // In memory, the morsels are the fixed `Grain(ctx)`-row batches.
  std::vector<size_t> bounds;
  for (size_t b = 0; b < in.num_rows(); b += Grain(ctx)) bounds.push_back(b);
  bounds.push_back(in.num_rows());
  MPQ_ASSIGN_OR_RETURN(Groups groups, HashGroupBy(n, in, schema, bounds, ctx));
  return GroupsTable(std::move(schema.out_cols), std::move(groups));
}

}  // namespace exec_internal
}  // namespace mpq
