// Join/group-by hash-path benchmark: the flat-hash engine (typed key codes,
// dictionary-encoded string/DET keys, CSR probe lists, contiguous aggregate
// arenas, Paillier Montgomery precompute) against the retained row-major
// oracle, on the workloads PR 4 left slow — the Q3-style probe mix and
// high-cardinality group-bys — plus a dictionary-keyed group-by and a
// Paillier homomorphic-sum aggregation.
//
// The homomorphic workloads run over a base table encrypted once outside
// every timed region — the steady state the paper models, where ciphertexts
// already live at the provider and a query pays for ciphertext aggregation
// plus result decryption, not for re-encrypting the base data.
//
// Every workload is verified before timing: the engine result must
// canonicalize identically to the oracle's, and the engine's own output
// must be bit-identical (serialized bytes) at 1, 2, and 8 threads. A
// mismatch fails the process, as does any workload — encrypted ones
// included — running slower than the row oracle (speedup_1t < 1). Both are
// the CI gate.
//
// A column-crypto section times ColumnCodec's batched kernels against the
// per-cell reference path (EncryptValue + AppendEnc, DecryptValue +
// ColumnFromCells) on lineitem's int64, double and string columns under
// RND, DET and OPE, in the same run so the ratio does not depend on host
// speed. It fails the process unless the kernels' ciphertexts and
// decrypted columns are byte-equal to the reference's and each scheme's
// kernels (encrypt plus decrypt, best of reps) run at least 2x the
// reference.
//
// Emits BENCH_hashpath.json (override with --json <path>). Compare the
// hash_1t_ms column against the columnar_ms column of the committed PR 4
// BENCH_columnar.json (same scale factor, same best-of-N methodology) for
// the speedup over the previous engine.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "algebra/plan_builder.h"
#include "bench_json.h"
#include "common/flat_hash.h"
#include "common/thread_pool.h"
#include "crypto/column_codec.h"
#include "crypto/keyring.h"
#include "exec/executor.h"
#include "obs/trace.h"
#include "storage/segment.h"
#include "testing/reference_exec.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

using namespace mpq;

namespace {

using Clock = std::chrono::steady_clock;

struct Workload {
  std::string name;
  PlanPtr plan;         ///< Executed by the engine.
  PlanPtr oracle_plan;  ///< Executed by the row oracle (defaults to `plan`).
  /// Encrypted pipeline: verified against the plaintext oracle plan but
  /// excluded from the speedup geomean (it measures ciphertext work the
  /// oracle never does). Still subject to the ≥1x floor gate.
  bool encrypted = false;
  /// Executes over the pre-encrypted lineitem table (ciphertext at rest).
  bool use_enc_lineitem = false;
};

double BestOf(int reps, const std::function<double()>& run) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) best = std::min(best, run());
  return best;
}

/// Whether two columns hold the same bytes: rep, null mask and values
/// (doubles bitwise; ciphertexts by scheme, key, arena, offsets and aux).
bool SameColumn(const ColumnData& a, const ColumnData& b) {
  if (a.rep() != b.rep() || a.size() != b.size() ||
      a.null_mask() != b.null_mask()) {
    return false;
  }
  switch (a.rep()) {
    case ColumnRep::kInt64:
      return a.i64() == b.i64();
    case ColumnRep::kDouble:
      return a.f64().empty() ||
             std::memcmp(a.f64().data(), b.f64().data(),
                         a.f64().size() * sizeof(double)) == 0;
    case ColumnRep::kString:
      return a.str() == b.str();
    case ColumnRep::kEnc:
      return a.enc_scheme() == b.enc_scheme() &&
             a.enc_key_id() == b.enc_key_id() &&
             a.enc_arena() == b.enc_arena() && a.enc_ends() == b.enc_ends() &&
             a.enc_aux() == b.enc_aux();
    case ColumnRep::kCell:
      return false;  // neither path builds a kCell column here
  }
  return false;
}

/// A result's segment encoding: deterministic and lossless, so equal
/// frames mean bit-identical tables.
std::string Frame(const Table& t) {
  Result<std::string> f = EncodeSegment(t);
  return f.ok() ? *f : "encode error: " + f.status().ToString();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path =
      bench::ParseJsonFlag(&argc, argv, "BENCH_hashpath.json");
  // `--trace <path>` re-runs every workload with span tracing attached,
  // gates the traced output bytes identical to the untraced ones at 1/2/8
  // threads, gates the tracing-OFF overhead on Q3, and writes a
  // chrome://tracing document to <path>.
  std::string trace_path;
  {
    int out = 1;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
        trace_path = argv[i + 1];
        ++i;
        continue;
      }
      argv[out++] = argv[i];
    }
    argc = out;
  }
  double data_sf = argc > 1 ? std::atof(argv[1]) : 0.02;
  int reps = argc > 2 ? std::atoi(argv[2]) : 3;
  if (data_sf <= 0) data_sf = 0.02;
  if (reps < 1) reps = 1;

  TpchEnv env = MakeTpchEnv(/*costing_sf=*/1.0, /*num_providers=*/3);
  TpchData db = GenerateTpch(env, data_sf, /*seed=*/5);
  std::printf(
      "Flat-hash join/group-by engine vs row oracle, TPC-H data_sf=%.4g "
      "(lineitem rows: %zu), best of %d reps\n\n",
      data_sf, db.at(env.lineitem).num_rows(), reps);

  // Key material for the encrypted workload: one key (id 0) held by the
  // engine and the dispatcher alike.
  KeyRing keyring;
  keyring.Add(MakeKeyMaterial(/*seed=*/1, /*key_id=*/0));
  CryptoPlan crypto;
  uint64_t paillier_n = (*keyring.Get(0)).paillier.n;

  // Every workload registered here must build, verify, and be measured;
  // `expected` vs `completed` turns a silently-skipped workload (e.g. a
  // planner regression breaking Q3) into a failing exit status.
  size_t expected = 0;
  std::vector<Workload> workloads;
  {
    // The PR 4 laggards: the customer⋈orders⋈lineitem probe mix and the
    // high-cardinality (one group per few rows) aggregation.
    expected++;
    Result<PlanPtr> q3 = BuildTpchQuery(3, env);
    if (q3.ok()) {
      Workload w;
      w.name = "Q3";
      w.plan = std::move(*q3);
      workloads.push_back(std::move(w));
    } else {
      std::printf("Q3 build error: %s\n", q3.status().ToString().c_str());
    }
  }
  {
    PlanBuilder b(&env.catalog);
    PlanPtr p = Select(b.Rel("lineitem"),
                       {b.Pv("l_quantity", CmpOp::kLe, Value(25.0)),
                        b.Pv("l_shipdate", CmpOp::kGt, Value(int64_t{800}))});
    p = GroupBy(std::move(p), b.Set("l_partkey"),
                {Aggregate::Make(AggFunc::kSum, b.A("l_extendedprice")),
                 Aggregate::Make(AggFunc::kMax, b.A("l_discount"))});
    Result<PlanPtr> fp = FinishPlan(std::move(p), env.catalog);
    expected++;
    if (fp.ok()) {
      Workload w;
      w.name = "groupby-hi";
      w.plan = std::move(*fp);
      workloads.push_back(std::move(w));
    } else {
      std::printf("groupby-hi build error: %s\n",
                  fp.status().ToString().c_str());
    }
  }
  {
    // Join-heavy: a selective orders build side probed by every lineitem
    // row; the residual projection keeps the join the dominant cost.
    PlanBuilder b(&env.catalog);
    PlanPtr o = Select(b.Rel("orders"), {b.Pv("o_orderdate", CmpOp::kLt,
                                              Value(int64_t{1200}))});
    PlanPtr p = Join(std::move(o), b.Rel("lineitem"),
                     {b.Pa("o_orderkey", CmpOp::kEq, "l_orderkey")});
    p = Project(std::move(p),
                b.Set("o_orderkey,o_totalprice,l_extendedprice"));
    Result<PlanPtr> fp = FinishPlan(std::move(p), env.catalog);
    expected++;
    if (fp.ok()) {
      Workload w;
      w.name = "join-probe";
      w.plan = std::move(*fp);
      workloads.push_back(std::move(w));
    } else {
      std::printf("join-probe build error: %s\n",
                  fp.status().ToString().c_str());
    }
  }
  {
    // Dictionary-keyed aggregation: string group keys become dense codes.
    PlanBuilder b(&env.catalog);
    PlanPtr p = GroupBy(b.Rel("lineitem"), b.Set("l_shipmode,l_returnflag"),
                        {Aggregate::Make(AggFunc::kSum, b.A("l_quantity")),
                         Aggregate::Make(AggFunc::kCount, b.A("l_orderkey"))});
    Result<PlanPtr> fp = FinishPlan(std::move(p), env.catalog);
    expected++;
    if (fp.ok()) {
      Workload w;
      w.name = "groupby-str";
      w.plan = std::move(*fp);
      workloads.push_back(std::move(w));
    } else {
      std::printf("groupby-str build error: %s\n",
                  fp.status().ToString().c_str());
    }
  }
  {
    // Paillier homomorphic sum grouped by a DET-encrypted string key, over
    // the pre-encrypted base (see below); the oracle runs the plaintext
    // equivalent over the plaintext table, so verification proves the
    // ciphertext-aggregate → decrypt pipeline end to end.
    PlanBuilder b(&env.catalog);
    PlanPtr p = GroupBy(b.Rel("lineitem"), b.Set("l_returnflag"),
                        {Aggregate::Make(AggFunc::kSum, b.A("l_suppkey"))});
    p = Decrypt(std::move(p), b.Set("l_suppkey,l_returnflag"));
    Result<PlanPtr> fp = FinishPlan(std::move(p), env.catalog);

    PlanBuilder ob(&env.catalog);
    PlanPtr op = GroupBy(ob.Rel("lineitem"), ob.Set("l_returnflag"),
                         {Aggregate::Make(AggFunc::kSum, ob.A("l_suppkey"))});
    Result<PlanPtr> ofp = FinishPlan(std::move(op), env.catalog);
    expected++;
    if (fp.ok() && ofp.ok()) {
      Workload w;
      w.name = "groupby-hom";
      w.plan = std::move(*fp);
      w.oracle_plan = std::move(*ofp);
      w.encrypted = true;
      w.use_enc_lineitem = true;
      workloads.push_back(std::move(w));
    } else {
      std::printf("groupby-hom build error: %s\n",
                  (fp.ok() ? ofp.status() : fp.status()).ToString().c_str());
    }
  }
  {
    // High-cardinality homomorphic variant: ~part-count groups (one per
    // DET-encrypted l_partkey, ≈4k at sf 0.02), each folding a handful of
    // Paillier ciphertexts — the shape where per-group overhead dominates.
    PlanBuilder b(&env.catalog);
    PlanPtr p = GroupBy(b.Rel("lineitem"), b.Set("l_partkey"),
                        {Aggregate::Make(AggFunc::kSum, b.A("l_suppkey"))});
    p = Decrypt(std::move(p), b.Set("l_suppkey,l_partkey"));
    Result<PlanPtr> fp = FinishPlan(std::move(p), env.catalog);

    PlanBuilder ob(&env.catalog);
    PlanPtr op = GroupBy(ob.Rel("lineitem"), ob.Set("l_partkey"),
                         {Aggregate::Make(AggFunc::kSum, ob.A("l_suppkey"))});
    Result<PlanPtr> ofp = FinishPlan(std::move(op), env.catalog);
    expected++;
    if (fp.ok() && ofp.ok()) {
      Workload w;
      w.name = "groupby-hom-hi";
      w.plan = std::move(*fp);
      w.oracle_plan = std::move(*ofp);
      w.encrypted = true;
      w.use_enc_lineitem = true;
      workloads.push_back(std::move(w));
    } else {
      std::printf("groupby-hom-hi build error: %s\n",
                  (fp.ok() ? ofp.status() : fp.status()).ToString().c_str());
    }
  }
  crypto.scheme_of[env.catalog.attrs().Find("l_suppkey")] =
      EncScheme::kPaillier;
  crypto.scheme_of[env.catalog.attrs().Find("l_returnflag")] =
      EncScheme::kDeterministic;
  crypto.scheme_of[env.catalog.attrs().Find("l_partkey")] =
      EncScheme::kDeterministic;

  ReferenceExecutor row_engine(&env.catalog);
  for (const auto& [rel, t] : db.tables) row_engine.LoadTable(rel, &t);

  ThreadPool pool2(2);
  ThreadPool pool8(8);
  TraceSink trace_sink(16);
  double q3_plain_s = 0, q3_traceoff_s = 0;
  bool trace_overhead_ok = true;

  auto modulus_dir = std::make_shared<HomKeyDirectory>(
      HomKeyDirectory{{0, paillier_n}});
  auto make_ctx = [&](ExecContext* ctx, ThreadPool* pool) {
    ctx->catalog = &env.catalog;
    for (const auto& [rel, t] : db.tables) ctx->base_tables[rel] = &t;
    ctx->keyring = &keyring;
    ctx->dispatcher_keyring = &keyring;
    ctx->crypto = &crypto;
    ctx->public_modulus = modulus_dir;
    ctx->pool = pool;
  };

  // One-time base-table encryption for the homomorphic workloads, outside
  // every timed region. The cost is reported for context but is not part of
  // any workload's measurement.
  Table enc_lineitem;
  double encrypt_ms = 0;
  {
    PlanBuilder b(&env.catalog);
    Result<PlanPtr> ep = FinishPlan(
        Encrypt(b.Rel("lineitem"), b.Set("l_suppkey,l_returnflag,l_partkey")),
        env.catalog);
    if (!ep.ok()) {
      std::printf("lineitem encrypt build error: %s\n",
                  ep.status().ToString().c_str());
      return 1;
    }
    ExecContext ctx;
    make_ctx(&ctx, nullptr);
    auto t0 = Clock::now();
    Result<Table> enc = ExecutePlan((*ep).get(), &ctx);
    auto t1 = Clock::now();
    if (!enc.ok()) {
      std::printf("lineitem encrypt error: %s\n",
                  enc.status().ToString().c_str());
      return 1;
    }
    enc_lineitem = std::move(*enc);
    encrypt_ms = std::chrono::duration<double>(t1 - t0).count() * 1e3;
    std::printf("lineitem encrypted once in %.1f ms (untimed setup)\n\n",
                encrypt_ms);
  }

  JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("hashpath");
  w.Key("data_sf").Double(data_sf);
  w.Key("lineitem_rows").UInt(db.at(env.lineitem).num_rows());
  w.Key("lineitem_encrypt_ms").Double(encrypt_ms);
  bench::WriteRunMeta(&w);
  w.Key("workloads").BeginArray();

  std::printf("%-12s %9s %9s %9s %9s %7s   %s\n", "workload", "row(ms)",
              "1t(ms)", "2t(ms)", "8t(ms)", "spd", "rows");
  double geomean_log = 0;
  size_t measured = 0;
  size_t completed = 0;
  bool all_verified = true;
  double min_speedup = 1e300;
  std::string min_speedup_name;
  for (const Workload& wl : workloads) {
    const PlanNode* oracle_plan =
        wl.oracle_plan != nullptr ? wl.oracle_plan.get() : wl.plan.get();
    auto setup_ctx = [&](ExecContext* ctx, ThreadPool* pool) {
      make_ctx(ctx, pool);
      if (wl.use_enc_lineitem) ctx->base_tables[env.lineitem] = &enc_lineitem;
    };
    Result<Table> row_result = row_engine.Run(oracle_plan);
    if (!row_result.ok()) {
      std::printf("%-12s row engine error: %s\n", wl.name.c_str(),
                  row_result.status().ToString().c_str());
      all_verified = false;
      continue;
    }
    // Verification: engine ≡ oracle (canonical rows), and the engine's own
    // result bytes identical at 1, 2, and 8 threads.
    bool verified = true;
    std::string wire1;
    {
      ExecContext ctx1;
      setup_ctx(&ctx1, nullptr);
      Result<Table> r1 = ExecutePlan(wl.plan.get(), &ctx1);
      if (!r1.ok()) {
        std::printf("%-12s engine error: %s\n", wl.name.c_str(),
                    r1.status().ToString().c_str());
        all_verified = false;
        continue;
      }
      verified = CanonicalRows(*row_result) == CanonicalRows(*r1);
      wire1 = Frame(*r1);
    }
    for (ThreadPool* pool : {&pool2, &pool8}) {
      ExecContext ctx;
      setup_ctx(&ctx, pool);
      Result<Table> r = ExecutePlan(wl.plan.get(), &ctx);
      verified = verified && r.ok() && Frame(*r) == wire1;
    }
    // Traced re-runs at 1, 2 and 8 threads: tracing is observation-only, so
    // the serialized result bytes must equal the untraced run's exactly.
    bool traced_identical = true;
    if (!trace_path.empty()) {
      for (ThreadPool* pool :
           {static_cast<ThreadPool*>(nullptr), &pool2, &pool8}) {
        auto qtrace = std::make_shared<QueryTrace>(
            MakeTraceId(/*session_id=*/1, HashBytes(wl.name),
                        /*attempt=*/pool == &pool8 ? 8 : (pool ? 2 : 1)),
            nullptr);
        ExecContext ctx;
        setup_ctx(&ctx, pool);
        ctx.trace = qtrace.get();
        Result<Table> r = ExecutePlan(wl.plan.get(), &ctx);
        traced_identical =
            traced_identical && r.ok() && Frame(*r) == wire1;
        if (pool == &pool8) trace_sink.Add(qtrace);
      }
      verified = verified && traced_identical;
      if (!traced_identical) {
        std::printf("%-12s TRACED RUN DIFFERS FROM UNTRACED\n",
                    wl.name.c_str());
      }
    }
    all_verified = all_verified && verified;
    if (!verified) {
      std::printf("%-12s RESULT MISMATCH\n", wl.name.c_str());
      continue;
    }

    double row_s = BestOf(reps, [&] {
      auto t0 = Clock::now();
      Result<Table> t = row_engine.Run(oracle_plan);
      auto t1 = Clock::now();
      if (!t.ok()) return 1e300;
      return std::chrono::duration<double>(t1 - t0).count();
    });
    size_t rows = 0;
    auto time_engine = [&](ThreadPool* pool) {
      return BestOf(reps, [&] {
        ExecContext ctx;
        setup_ctx(&ctx, pool);
        auto t0 = Clock::now();
        Result<Table> t = ExecutePlan(wl.plan.get(), &ctx);
        auto t1 = Clock::now();
        if (!t.ok()) return 1e300;
        rows = t->num_rows();
        return std::chrono::duration<double>(t1 - t0).count();
      });
    };
    double s1 = time_engine(nullptr);
    double s2 = time_engine(&pool2);
    double s8 = time_engine(&pool8);

    // Tracing-off overhead gate (Q3): with the tracer disabled, an Execute
    // pays one predictable branch per query. Each iteration times a plain
    // run and a tracer-off run back to back and the gate passes if ANY pair
    // lands within the ≤3% ratio (plus a small absolute slack for
    // sub-millisecond jitter): a genuine overhead shows up in every pair,
    // while a load burst on a shared runner dirties some pairs but not all,
    // so one clean pair is enough to prove the disabled tracer free.
    if (!trace_path.empty() && wl.name == "Q3") {
      Tracer off_tracer(TraceConfig{}, nullptr, nullptr);
      int n = std::max(reps, 5);
      q3_plain_s = 1e300;
      q3_traceoff_s = 1e300;
      trace_overhead_ok = false;
      for (int i = 0; i < n; ++i) {
        double plain_i = 1e300;
        double off_i = 1e300;
        {
          ExecContext ctx;
          setup_ctx(&ctx, nullptr);
          auto t0 = Clock::now();
          Result<Table> t = ExecutePlan(wl.plan.get(), &ctx);
          auto t1 = Clock::now();
          if (t.ok()) plain_i = std::chrono::duration<double>(t1 - t0).count();
        }
        {
          ExecContext ctx;
          setup_ctx(&ctx, nullptr);
          auto t0 = Clock::now();
          std::shared_ptr<QueryTrace> qt =
              off_tracer.MaybeStart(1, HashBytes(wl.name));
          ctx.trace = qt.get();  // null: the tracer is disabled
          Result<Table> t = ExecutePlan(wl.plan.get(), &ctx);
          auto t1 = Clock::now();
          if (t.ok()) off_i = std::chrono::duration<double>(t1 - t0).count();
        }
        if (off_i <= plain_i * 1.03 + 5e-4) trace_overhead_ok = true;
        q3_plain_s = std::min(q3_plain_s, plain_i);
        q3_traceoff_s = std::min(q3_traceoff_s, off_i);
      }
      std::printf(
          "%-12s tracing-off overhead: plain %.3f ms, tracer-off %.3f ms "
          "(%+.1f%%): %s\n",
          wl.name.c_str(), q3_plain_s * 1e3, q3_traceoff_s * 1e3,
          (q3_traceoff_s / q3_plain_s - 1) * 100,
          trace_overhead_ok ? "ok" : "ABOVE 3% GATE");
    }

    double spd = row_s / s1;
    std::printf("%-12s %9.2f %9.2f %9.2f %9.2f %6.2fx%s  %zu\n",
                wl.name.c_str(), row_s * 1e3, s1 * 1e3, s2 * 1e3, s8 * 1e3,
                spd, wl.encrypted ? "*" : " ", rows);
    if (!wl.encrypted) {
      geomean_log += std::log(spd);
      measured++;
    }
    // Floor tracking: every measurement taken on real cores participates.
    // A thread count above hardware_concurrency() times scheduler churn,
    // not the engine, so oversubscribed rows are marked in the JSON and
    // excluded from the speedup-floor gate.
    auto track_floor = [&](double secs, const char* tag, bool oversub) {
      if (oversub || secs <= 0) return;
      double v = row_s / secs;
      if (v < min_speedup) {
        min_speedup = v;
        min_speedup_name = wl.name + tag;
      }
    };
    bool over2 = bench::Oversubscribed(2);
    bool over8 = bench::Oversubscribed(8);
    track_floor(s1, "", false);
    track_floor(s2, "@2t", over2);
    track_floor(s8, "@8t", over8);
    completed++;

    w.BeginObject();
    w.Key("name").String(wl.name);
    w.Key("row_ms").Double(row_s * 1e3);
    w.Key("hash_1t_ms").Double(s1 * 1e3);
    w.Key("hash_2t_ms").Double(s2 * 1e3);
    w.Key("hash_8t_ms").Double(s8 * 1e3);
    w.Key("speedup_1t").Double(spd);
    w.Key("oversubscribed_2t").Bool(over2);
    w.Key("oversubscribed_8t").Bool(over8);
    w.Key("rows").UInt(rows);
    w.Key("verified").Bool(verified);
    if (!trace_path.empty()) {
      w.Key("traced_identical").Bool(traced_identical);
    }
    w.EndObject();
  }
  w.EndArray();
  double geomean = measured > 0 ? std::exp(geomean_log / measured) : 0;
  w.Key("geomean_speedup_1t").Double(geomean);
  // Floor gate: no workload — encrypted ones included — may run slower
  // than the row oracle at any non-oversubscribed thread count.
  bool floor_ok = completed > 0 && min_speedup >= 1.0;
  w.Key("min_speedup_1t").Double(completed > 0 ? min_speedup : 0);
  w.Key("min_speedup_workload").String(min_speedup_name);
  w.Key("speedup_floor_ok").Bool(floor_ok);

  // Paillier fixed-window precompute vs the schoolbook PowMod ladder, on
  // identical inputs (outputs asserted equal) — the crypto half of the
  // hash-path satellite, measured directly.
  {
    KeyMaterial km = *keyring.Get(0);
    const PaillierPrecomp& pre = *km.hom_precomp;
    constexpr int kN = 2000;
    bool equal = true;
    auto t0 = Clock::now();
    for (int i = 0; i < kN; ++i) {
      uint128 c = PaillierEncrypt(km.paillier, static_cast<uint64_t>(i),
                                  static_cast<uint64_t>(i) | 1);
      equal = equal && c != 0;
    }
    auto t1 = Clock::now();
    for (int i = 0; i < kN; ++i) {
      uint128 c = pre.Encrypt(static_cast<uint64_t>(i),
                              static_cast<uint64_t>(i) | 1);
      equal = equal &&
              c == PaillierEncrypt(km.paillier, static_cast<uint64_t>(i),
                                   static_cast<uint64_t>(i) | 1);
    }
    auto t2 = Clock::now();
    // t1..t2 ran both paths; isolate the precompute path.
    auto t3 = Clock::now();
    for (int i = 0; i < kN; ++i) {
      uint128 c = pre.Encrypt(static_cast<uint64_t>(i),
                              static_cast<uint64_t>(i) | 1);
      equal = equal && c != 0;
    }
    auto t4 = Clock::now();
    (void)t2;
    double legacy_us =
        std::chrono::duration<double>(t1 - t0).count() * 1e6 / kN;
    double fast_us =
        std::chrono::duration<double>(t4 - t3).count() * 1e6 / kN;
    all_verified = all_verified && equal;
    std::printf(
        "\nPaillier encrypt: schoolbook %.2f us/op, precomputed %.2f us/op "
        "(%.1fx, ciphertexts %s)\n",
        legacy_us, fast_us, legacy_us / fast_us,
        equal ? "identical" : "DIFFER");
    w.Key("paillier_legacy_us_per_op").Double(legacy_us);
    w.Key("paillier_precomp_us_per_op").Double(fast_us);
    w.Key("paillier_precomp_speedup").Double(legacy_us / fast_us);
  }

  // Column crypto: the batched kernels vs the per-cell reference, both
  // over spans of the engine's batch size.
  bool crypto_ok = true;
  {
    const Table& li = db.at(env.lineitem);
    const size_t n = li.num_rows();
    const size_t span = Table::kDefaultBatchSize;
    const uint64_t nonce_base = 0x5eed;
    KeyMaterial km = *keyring.Get(0);
    ColumnCodec codec(km);
    std::printf(
        "\nColumn crypto, ns/row (kernel vs per-cell reference, best of "
        "%d):\n%-5s %-16s %9s %9s %9s %9s  %s\n",
        reps, "", "column", "enc", "enc-ref", "dec", "dec-ref", "bytes");
    w.Key("column_crypto").BeginArray();
    for (EncScheme scheme :
         {EncScheme::kRandom, EncScheme::kDeterministic, EncScheme::kOpe}) {
      double kernel_s = 0, ref_s = 0;
      for (const char* name : {"l_shipdate", "l_extendedprice", "l_shipmode"}) {
        const int idx = li.ColIndex(env.catalog.attrs().Find(name));
        const ColumnData& src = li.col(static_cast<size_t>(idx));
        const DataType type = li.columns()[static_cast<size_t>(idx)].type;
        if (scheme == EncScheme::kOpe && type == DataType::kString) continue;
        Status st;
        auto keep = [&](const Status& s) {
          if (st.ok() && !s.ok()) st = s;
        };
        auto secs = [](Clock::time_point t0) {
          return std::chrono::duration<double>(Clock::now() - t0).count();
        };
        ColumnData enc, enc_ref, dec, dec_ref;
        double enc_s = BestOf(reps, [&] {
          ColumnData out(ColumnRep::kEnc);
          auto t0 = Clock::now();
          for (size_t b = 0; b < n; b += span) {
            keep(codec.EncryptSpan(src, b, std::min(n, b + span), scheme,
                                   nonce_base, &out));
          }
          double t = secs(t0);
          enc = std::move(out);
          return t;
        });
        double enc_ref_s = BestOf(reps, [&] {
          ColumnData out(ColumnRep::kEnc);
          auto t0 = Clock::now();
          for (size_t r = 0; r < n; ++r) {
            Result<EncValue> ev =
                EncryptValue(src.GetValue(r), scheme, km.key_id, km,
                             nonce_base + r);
            if (!ev.ok()) {
              keep(ev.status());
              break;
            }
            out.AppendEnc(*ev);
          }
          double t = secs(t0);
          enc_ref = std::move(out);
          return t;
        });
        double dec_s = BestOf(reps, [&] {
          std::vector<ColumnData> parts;
          auto t0 = Clock::now();
          for (size_t b = 0; b < n; b += span) {
            Result<ColumnData> part =
                codec.DecryptSpan(enc, b, std::min(n, b + span), type, false);
            if (!part.ok()) {
              keep(part.status());
              break;
            }
            parts.push_back(std::move(*part));
          }
          ColumnData out = ConcatSpans(std::move(parts));
          double t = secs(t0);
          dec = std::move(out);
          return t;
        });
        double dec_ref_s = BestOf(reps, [&] {
          std::vector<Cell> cells(n);
          auto t0 = Clock::now();
          for (size_t r = 0; r < n; ++r) {
            Result<Value> v = DecryptValue(enc_ref.EncAt(r), km, type);
            if (!v.ok()) {
              keep(v.status());
              break;
            }
            cells[r] = Cell(std::move(*v));
          }
          ColumnData out = ColumnFromCells(std::move(cells));
          double t = secs(t0);
          dec_ref = std::move(out);
          return t;
        });
        bool same = st.ok() && SameColumn(enc, enc_ref) &&
                    SameColumn(dec, dec_ref);
        crypto_ok = crypto_ok && same;
        kernel_s += enc_s + dec_s;
        ref_s += enc_ref_s + dec_ref_s;
        auto ns = [&](double t) { return t * 1e9 / static_cast<double>(n); };
        std::printf("%-5s %-16s %9.1f %9.1f %9.1f %9.1f  %s\n",
                    EncSchemeName(scheme), name, ns(enc_s), ns(enc_ref_s),
                    ns(dec_s), ns(dec_ref_s),
                    !st.ok() ? st.ToString().c_str()
                             : (same ? "identical" : "DIFFER"));
        w.BeginObject();
        w.Key("scheme").String(EncSchemeName(scheme));
        w.Key("column").String(name);
        w.Key("rows").UInt(n);
        w.Key("encrypt_ns_per_row").Double(ns(enc_s));
        w.Key("encrypt_ref_ns_per_row").Double(ns(enc_ref_s));
        w.Key("decrypt_ns_per_row").Double(ns(dec_s));
        w.Key("decrypt_ref_ns_per_row").Double(ns(dec_ref_s));
        w.Key("identical").Bool(same);
        w.EndObject();
      }
      double speedup = ref_s / kernel_s;
      bool fast = speedup >= 2.0;
      crypto_ok = crypto_ok && fast;
      std::printf("%-5s kernels %.2fx the reference (floor 2.00x): %s\n",
                  EncSchemeName(scheme), speedup, fast ? "ok" : "BELOW FLOOR");
      w.BeginObject();
      w.Key("scheme").String(EncSchemeName(scheme));
      w.Key("column").String("all");
      w.Key("kernel_speedup").Double(speedup);
      w.EndObject();
    }
    w.EndArray();
    w.Key("column_crypto_ok").Bool(crypto_ok);
  }

  if (!trace_path.empty()) {
    w.Key("trace_path").String(trace_path);
    w.Key("q3_plain_ms").Double(q3_plain_s * 1e3);
    w.Key("q3_traceoff_ms").Double(q3_traceoff_s * 1e3);
    w.Key("trace_overhead_ok").Bool(trace_overhead_ok);
    bench::WriteJsonFile(trace_path, trace_sink.ToChromeJson());
    std::printf("wrote %zu traces to %s\n", trace_sink.size(),
                trace_path.c_str());
  }
  w.Key("all_verified").Bool(all_verified);
  w.EndObject();
  bench::WriteJsonFile(json_path, w.TakeString());

  std::printf(
      "\ngeomean single-thread speedup over the row oracle (plaintext "
      "workloads): %.2fx\n",
      geomean);
  std::printf("slowest workload vs oracle: %s at %.2fx (floor 1.00x): %s\n",
              min_speedup_name.c_str(), completed > 0 ? min_speedup : 0,
              floor_ok ? "ok" : "BELOW FLOOR");
  std::printf("results verified (oracle ≡ engine, 1t ≡ 2t ≡ 8t): %s\n",
              all_verified ? "yes" : "NO");
  std::printf(
      "column crypto (kernels ≡ reference, each scheme ≥ 2x): %s\n",
      crypto_ok ? "ok" : "FAILED");
  std::printf("wrote %s\n", json_path.c_str());
  return all_verified && completed == expected && floor_ok &&
                 trace_overhead_ok && crypto_ok
             ? 0
             : 1;
}
