#include "exec/executor.h"

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <utility>

#include "common/rng.h"
#include "common/str_util.h"
#include "exec/exec_internal.h"
#include "obs/trace.h"
#include "storage/segment.h"

namespace mpq {

namespace exec_internal {

/// The per-batch loop of operator `kind`: ParallelFor over the context's
/// pool, so every concurrent query draws from the pool's one morsel queue.
/// Also accounts the loop's morsel count for the operator profile and for
/// per-operator span attribution.
Status OpParallelFor(ExecContext* ctx, OpKind kind, size_t n,
                     const std::function<Status(size_t, size_t)>& fn) {
  size_t grain = Grain(ctx);
  if (n > 0) {
    uint64_t m = (n + grain - 1) / grain;
    if (ctx->op_profile != nullptr) ctx->op_profile->RecordMorsels(kind, m);
    ctx->op_morsels.fetch_add(m, std::memory_order_relaxed);
  }
  return ParallelFor(ctx->pool, n, grain, fn);
}

Status ColNotFound(const PlanNode* n, AttrId a, const Catalog& catalog) {
  return Status::Internal(StrFormat(
      "node %d (%s): attribute %s not found in operand table", n->id,
      OpKindName(n->kind), catalog.attrs().Name(a).c_str()));
}

Table TableFromColumns(std::vector<ExecColumn> cols,
                       std::vector<ColumnData> data) {
  Table t;
  for (size_t i = 0; i < cols.size(); ++i) {
    t.AddColumn(std::move(cols[i]), std::move(data[i]));
  }
  return t;
}

/// Splices per-batch chunks into a table, stealing chunk buffers (batch
/// order, so results are identical at any thread count).
Table MergeChunks(std::vector<ExecColumn> cols, std::vector<Chunk> chunks) {
  std::vector<ColumnData> data(cols.size());
  bool first = true;
  for (Chunk& ch : chunks) {
    if (ch.empty()) continue;  // batch produced nothing (e.g. no matches)
    if (first) {
      data = std::move(ch);
      first = false;
      continue;
    }
    for (size_t c = 0; c < data.size(); ++c) {
      data[c].MoveAppend(std::move(ch[c]));
    }
  }
  return TableFromColumns(std::move(cols), std::move(data));
}

namespace {

Result<Table> ExecUdf(const PlanNode* n, Table in, ExecContext* ctx) {
  std::vector<AttrId> inputs = n->udf_inputs.ToVector();
  std::vector<int> in_cols;
  for (AttrId a : inputs) {
    int idx = in.ColIndex(a);
    if (idx < 0) return ColNotFound(n, a, *ctx->catalog);
    in_cols.push_back(idx);
  }
  int out_src = in.ColIndex(n->udf_output);
  if (out_src < 0) return ColNotFound(n, n->udf_output, *ctx->catalog);

  // Resolve the implementation; fall back to the built-in combiner.
  UdfImpl impl;
  auto it = ctx->udfs.find(n->udf_name);
  impl = it != ctx->udfs.end() ? it->second : UdfImpl(DefaultUdf);

  // Output layout: child columns minus (inputs \ {output}), with the output
  // column's cells replaced by the udf result. Registered implementations
  // are not required to be thread-safe, so udf rows run sequentially.
  std::vector<Cell> results;
  results.reserve(in.num_rows());
  {
    // Concurrent sibling subtrees may both reach a udf node; serialize the
    // invocation loop so one shared UdfImpl is never entered from two
    // threads.
    std::lock_guard<std::mutex> udf_lock(*ctx->udf_mu);
    std::vector<Cell> args(in_cols.size());
    for (size_t r = 0; r < in.num_rows(); ++r) {
      for (size_t k = 0; k < in_cols.size(); ++k) {
        args[k] = in.col(static_cast<size_t>(in_cols[k])).GetCell(r);
      }
      MPQ_ASSIGN_OR_RETURN(Cell result, impl(args));
      results.push_back(std::move(result));
    }
  }

  Table out;
  for (size_t i = 0; i < in.num_columns(); ++i) {
    AttrId a = in.columns()[i].attr;
    if (n->udf_inputs.Contains(a) && a != n->udf_output) continue;
    if (static_cast<int>(i) == out_src) {
      ExecColumn col = in.columns()[i];
      ColumnData data = ColumnFromCells(std::move(results));
      // The output column's representation may have changed (e.g. plaintext
      // result over plaintext inputs): reflect the first row's form.
      if (data.size() > 0) {
        Cell first = data.GetCell(0);
        col.encrypted = first.is_encrypted();
        if (first.is_encrypted()) {
          col.scheme = first.enc().scheme;
          col.key_id = first.enc().key_id;
        } else if (!first.plain().is_string() && !first.plain().is_null()) {
          col.type = first.plain().is_double() ? DataType::kDouble
                                               : DataType::kInt64;
        }
      }
      out.AddColumn(std::move(col), std::move(data));
    } else {
      out.AddColumn(std::move(in.columns()[i]), in.ShareCol(i));
    }
  }
  return out;
}

}  // namespace

}  // namespace exec_internal

Result<Cell> DefaultUdf(const std::vector<Cell>& cells) {
  // Default udf: over plaintext, a weighted numeric combination; over
  // ciphertexts, an opaque deterministic digest (simulating an
  // encrypted-domain analytic whose output is itself encrypted).
  bool all_plain = true;
  for (const Cell& c : cells) all_plain = all_plain && c.is_plain();
  if (all_plain) {
    double acc = 0;
    double w = 1.0;
    for (const Cell& c : cells) {
      if (!c.plain().is_null() && !c.plain().is_string()) {
        acc += w * c.plain().AsDouble();
      } else if (c.plain().is_string()) {
        acc += w * static_cast<double>(c.plain().AsString().size());
      }
      w *= 0.5;
    }
    return Cell(Value(acc));
  }
  EncValue out;
  uint64_t h = 0x6a09e667f3bcc909ull;
  for (const Cell& c : cells) {
    const std::string& bytes =
        c.is_plain() ? c.plain().Serialize() : c.enc().blob;
    for (unsigned char b : bytes) h = SplitMix64(h ^ b);
    if (c.is_encrypted()) {
      out.scheme = c.enc().scheme;
      out.key_id = c.enc().key_id;
    }
  }
  out.scheme = EncScheme::kDeterministic;
  out.blob.assign(reinterpret_cast<const char*>(&h), 8);
  return Cell(std::move(out));
}

Table MakeBaseTable(const RelationDef& rel) {
  std::vector<ExecColumn> cols;
  for (const Column& c : rel.schema.columns()) {
    ExecColumn ec;
    ec.attr = c.attr;
    ec.name = c.name;
    ec.type = c.type;
    cols.push_back(ec);
  }
  return Table(std::move(cols));
}

namespace exec_internal {
namespace {

Result<Table> DispatchNode(const PlanNode* n, std::vector<Table> inputs,
                           ExecContext* ctx) {
  if (inputs.size() != n->num_children()) {
    return Status::InvalidArgument(StrFormat(
        "node %d (%s): expected %zu operand tables, got %zu", n->id,
        OpKindName(n->kind), n->num_children(), inputs.size()));
  }
  switch (n->kind) {
    case OpKind::kBase: {
      auto it = ctx->base_tables.find(n->rel);
      if (it != ctx->base_tables.end()) return *it->second;  // copy
      // Cold relations are published as compressed segments; the first scan
      // decodes (and caches) the whole table.
      auto st = ctx->segment_tables.find(n->rel);
      if (st != ctx->segment_tables.end()) {
        MPQ_ASSIGN_OR_RETURN(const Table* t, st->second->Materialize());
        return *t;  // copy
      }
      return Status::NotFound(StrFormat(
          "no data loaded for relation %s",
          ctx->catalog->Get(n->rel).name.c_str()));
    }
    case OpKind::kProject:
      return ExecProject(n, std::move(inputs[0]), ctx);
    case OpKind::kSelect:
      return ExecSelect(n, std::move(inputs[0]), ctx);
    case OpKind::kCartesian:
      return ExecCartesian(n, std::move(inputs[0]), std::move(inputs[1]), ctx);
    case OpKind::kJoin:
      return ExecJoin(n, std::move(inputs[0]), std::move(inputs[1]), ctx);
    case OpKind::kGroupBy:
      return ExecGroupBy(n, std::move(inputs[0]), ctx);
    case OpKind::kUdf:
      return ExecUdf(n, std::move(inputs[0]), ctx);
    case OpKind::kEncrypt:
      return ExecEncrypt(n, std::move(inputs[0]), ctx);
    case OpKind::kDecrypt:
      return ExecDecrypt(n, std::move(inputs[0]), ctx);
  }
  return Status::Internal("unreachable operator kind");
}

/// Segment-pruned scan for a select directly over a segment-backed base
/// relation: every constant predicate on an unencrypted column is tested
/// against each segment's zone map, and segments that provably contain no
/// qualifying row are never decoded. The surviving concatenation feeds the
/// ordinary select operator, so binding errors and filter semantics are
/// unchanged — pruning only removes rows the filter would drop anyway.
Result<Table> ZoneMapScan(const SegmentedTable& st, const PlanNode* sel,
                          ExecContext* ctx) {
  struct Prunable {
    CmpOp op;
    size_t col;
    const Value* v;
  };
  std::vector<Prunable> preds;
  for (const Predicate& p : sel->predicates) {
    if (!ctx->zone_map_skipping) break;
    if (p.rhs_is_attr) continue;
    for (size_t c = 0; c < st.columns().size(); ++c) {
      if (st.columns()[c].attr == p.lhs && !st.columns()[c].encrypted) {
        preds.push_back({p.op, c, &p.rhs_value});
        break;
      }
    }
  }
  std::vector<Chunk> chunks;
  for (size_t s = 0; s < st.num_segments(); ++s) {
    const SegmentReader& seg = st.segment(s);
    ctx->segments_scanned.fetch_add(1, std::memory_order_relaxed);
    bool may = true;
    for (const Prunable& pr : preds) {
      if (!ZoneMayMatch(seg.zone(pr.col), pr.op, *pr.v)) {
        may = false;
        break;
      }
    }
    if (!may) {
      ctx->segments_skipped.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    MPQ_ASSIGN_OR_RETURN(Table part, seg.Decode());
    Chunk ch;
    ch.reserve(part.num_columns());
    for (size_t c = 0; c < part.num_columns(); ++c) {
      ch.push_back(std::move(part.col_mut(c)));
    }
    chunks.push_back(std::move(ch));
  }
  if (chunks.empty()) {
    // Everything pruned: an empty table in the segments' physical reps, the
    // same shape a fully filtered decode would produce.
    Table out;
    for (size_t c = 0; c < st.columns().size(); ++c) {
      out.AddColumn(st.columns()[c], ColumnData(st.segment(0).rep(c)));
    }
    return out;
  }
  return MergeChunks(st.columns(), std::move(chunks));
}

}  // namespace
}  // namespace exec_internal

namespace {

/// The schemes an encrypt/decrypt node's attributes use, as
/// "l_quantity:OPE,l_extendedprice:RND" (attribute-id order).
std::string SchemesAnnotation(const PlanNode* n, const ExecContext& ctx) {
  std::string out;
  for (AttrId a : n->attrs.ToVector()) {
    if (!out.empty()) out += ',';
    out += ctx.catalog->attrs().Name(a);
    out += ':';
    out += EncSchemeName(ctx.crypto->SchemeOf(a));
  }
  return out;
}

}  // namespace

Result<Table> ExecuteNodeOnInputs(const PlanNode* n, std::vector<Table> inputs,
                                  ExecContext* ctx) {
  if (ctx->op_profile == nullptr && ctx->trace == nullptr) {
    return exec_internal::DispatchNode(n, std::move(inputs), ctx);
  }
  uint64_t rows_in = 0;
  for (const Table& t : inputs) rows_in += t.num_rows();
  Span span;
  if (ctx->trace != nullptr) {
    span = ctx->trace->StartSpan(OpKindName(n->kind), "op", ctx->trace_parent,
                                 n->id, ctx->trace_track);
  }
  uint64_t morsels0 = ctx->op_morsels.load(std::memory_order_relaxed);
  auto t0 = std::chrono::steady_clock::now();
  Result<Table> result =
      exec_internal::DispatchNode(n, std::move(inputs), ctx);
  auto ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  uint64_t rows_out = result.ok() ? result->num_rows() : 0;
  uint64_t morsels =
      ctx->op_morsels.load(std::memory_order_relaxed) - morsels0;
  if (ctx->op_profile != nullptr) {
    ctx->op_profile->Record(n->kind, ns, rows_in, rows_out);
  }
  if (span) {
    span.AnnInt("rows_in", static_cast<int64_t>(rows_in));
    span.AnnInt("rows_out", static_cast<int64_t>(rows_out));
    if (rows_in > 0) {
      span.AnnDouble("selectivity", static_cast<double>(rows_out) /
                                        static_cast<double>(rows_in));
    }
    span.AnnInt("wall_ns", static_cast<int64_t>(ns));
    if (morsels > 0) span.AnnInt("morsels", static_cast<int64_t>(morsels));
    if ((n->kind == OpKind::kEncrypt || n->kind == OpKind::kDecrypt) &&
        ctx->crypto != nullptr) {
      span.AnnStr("schemes", SchemesAnnotation(n, *ctx));
    }
    if (!result.ok()) span.AnnStr("error", result.status().ToString());
  }
  return result;
}

Result<Table> ExecutePlan(const PlanNode* root, ExecContext* ctx) {
  // A select directly over a segment-backed base relation scans via zone
  // maps: whole segments are skipped before any decode.
  if (root->kind == OpKind::kSelect && root->num_children() == 1 &&
      root->child(0)->kind == OpKind::kBase) {
    const PlanNode* base = root->child(0);
    if (ctx->base_tables.find(base->rel) == ctx->base_tables.end()) {
      auto st = ctx->segment_tables.find(base->rel);
      if (st != ctx->segment_tables.end()) {
        MPQ_ASSIGN_OR_RETURN(Table in, exec_internal::ZoneMapScan(
                                           *st->second, root, ctx));
        std::vector<Table> one;
        one.push_back(std::move(in));
        return ExecuteNodeOnInputs(root, std::move(one), ctx);
      }
    }
  }
  size_t nc = root->num_children();
  std::vector<Table> inputs;
  inputs.reserve(nc);

  if (ctx->pool != nullptr && ctx->pool->size() > 0 && nc > 1) {
    // Independent subtrees run concurrently: children 1..n-1 go to the pool,
    // child 0 runs on this thread, which then helps drain the pool while
    // waiting (deadlock-free under recursive submission).
    std::vector<std::optional<Result<Table>>> results(nc);
    std::mutex mu;
    std::condition_variable cv;
    size_t remaining = nc - 1;
    for (size_t i = 1; i < nc; ++i) {
      auto task = [&, i] {
        Result<Table> r = ExecutePlan(root->child(i), ctx);
        std::lock_guard<std::mutex> lock(mu);
        results[i] = std::move(r);
        if (--remaining == 0) cv.notify_all();
      };
      // Submit only rejects during pool shutdown; run the subtree here
      // then, trading parallelism for the result.
      if (!ctx->pool->Submit(task)) task();
    }
    results[0] = ExecutePlan(root->child(0), ctx);
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mu);
        if (remaining == 0) break;
      }
      if (ctx->pool->TryRunOneTask()) continue;
      std::unique_lock<std::mutex> lock(mu);
      cv.wait_for(lock, std::chrono::milliseconds(1),
                  [&] { return remaining == 0; });
    }
    // Report the lowest-index child error for determinism.
    for (size_t i = 0; i < nc; ++i) {
      if (!results[i]->ok()) return results[i]->status();
    }
    for (size_t i = 0; i < nc; ++i) {
      inputs.push_back(std::move(*results[i]).value());
    }
    return ExecuteNodeOnInputs(root, std::move(inputs), ctx);
  }

  for (size_t i = 0; i < nc; ++i) {
    MPQ_ASSIGN_OR_RETURN(Table t, ExecutePlan(root->child(i), ctx));
    inputs.push_back(std::move(t));
  }
  return ExecuteNodeOnInputs(root, std::move(inputs), ctx);
}

}  // namespace mpq
