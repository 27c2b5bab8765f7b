// Segment codec benchmarks: (1) compression ratio per TPC-H column against
// an uncompressed column-at-a-time baseline computed by formula (8 bytes
// per number, strings the cheaper of length-prefixed values and a
// dictionary with 32-bit codes, one byte per row of null mask); (2) codec
// throughput, an encode + open + decode round trip of 60k lineitem rows x
// 3 columns, plaintext and with a 16-byte Paillier ciphertext column;
// (3) scan time with and without zone-map segment skipping on
// shipdate-clustered lineitem, against the in-memory scan; (4) a
// budget-forced spill-to-disk join against the in-memory hash join,
// verified bit-identical; (5) bytes-on-wire of the distributed runtime's
// segment transfers against its no-network Table::ByteSize accounting,
// over 12 random authorized scenarios.
//
// Emits BENCH_segments.json (override with --json <path>). The process
// exits nonzero unless every differential verifies, dictionary columns
// compress >= 2x, each codec round trip reaches 1 GB/s (best of reps,
// payload bytes per second), the spill run recursed through >= 2 partition
// generations, and the wire is smaller than the ByteSize accounting and no
// larger than kWireCeilingBytes.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "algebra/plan_builder.h"
#include "bench_json.h"
#include "common/thread_pool.h"
#include "crypto/column_codec.h"
#include "crypto/keyring.h"
#include "exec/distributed.h"
#include "exec/executor.h"
#include "exec/failover.h"
#include "extend/keys.h"
#include "net/simnet.h"
#include "storage/segment.h"
#include "testing/random_plan.h"
#include "testing/reference_exec.h"
#include "tpch/dbgen.h"
#include "tpch/tpch_schema.h"

using namespace mpq;

namespace {

using Clock = std::chrono::steady_clock;

/// Segment bytes the wire section's 12 scenarios moved before ciphertext
/// pages dropped their per-cell headers; the wire must never grow past it.
constexpr uint64_t kWireCeilingBytes = 6022626;

/// Round trips of the codec section must reach this many payload bytes
/// (Table::ByteSize) per second.
constexpr double kCodecFloorBytesPerSec = 1e9;

/// The uncompressed baseline of one typed column: 8 bytes per number;
/// strings as the cheaper of length-prefixed values and a dictionary of
/// distinct values with 32-bit codes (4 + 4 * rows + sum(4 + len)); plus a
/// byte per row of null mask.
uint64_t BaselineBytes(const ColumnData& d) {
  uint64_t rows = d.size();
  uint64_t nulls = d.has_nulls() ? rows : 0;
  if (d.rep() != ColumnRep::kString) return nulls + 8 * rows;
  uint64_t plain = 0;
  for (const std::string& s : d.str()) plain += 4 + s.size();
  std::set<std::string> distinct(d.str().begin(), d.str().end());
  uint64_t dict = 4 + 4 * rows;
  for (const std::string& s : distinct) dict += 4 + s.size();
  return nulls + 1 + std::min(plain, dict);
}

double BestOf(int reps, const std::function<double()>& run) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) best = std::min(best, run());
  return best;
}

/// Columns are labeled by how the codec sees them: low-cardinality strings
/// (repertoire under a quarter of the rows) dictionary-encode and carry the
/// compression floor; near-unique strings like p_name stay plain.
std::string TypeName(const Table& t, size_t c) {
  switch (t.columns()[c].type) {
    case DataType::kInt64:
      return "int64";
    case DataType::kDouble:
      return "double";
    default: {
      std::set<std::string> distinct;
      for (size_t r = 0; r < t.num_rows(); ++r) {
        Cell cell = t.at(r, c);
        if (cell.is_plain() && cell.plain().is_string()) {
          distinct.insert(cell.plain().AsString());
        }
      }
      bool dict = t.num_rows() > 0 && distinct.size() * 4 <= t.num_rows();
      return dict ? "dict" : "string";
    }
  }
}

/// Rows of `t` reordered ascending by int64 column `col` (stable), so zone
/// maps over the sorted column become disjoint and a range scan can prune.
Table SortedBy(const Table& t, size_t col) {
  std::vector<size_t> order(t.num_rows());
  for (size_t r = 0; r < order.size(); ++r) order[r] = r;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return t.at(a, col).plain().AsInt() < t.at(b, col).plain().AsInt();
  });
  Table out(t.columns());
  out.ReserveRows(t.num_rows());
  for (size_t r : order) out.AppendRowFrom(t, r);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path =
      bench::ParseJsonFlag(&argc, argv, "BENCH_segments.json");
  double data_sf = argc > 1 ? std::atof(argv[1]) : 0.02;
  int reps = argc > 2 ? std::atoi(argv[2]) : 3;
  if (data_sf <= 0) data_sf = 0.02;
  if (reps < 1) reps = 1;

  TpchEnv env = MakeTpchEnv(/*costing_sf=*/1.0, /*num_providers=*/3);
  TpchData db = GenerateTpch(env, data_sf, /*seed=*/5);
  std::printf(
      "Segment codec / zone maps / spill, TPC-H data_sf=%.4g "
      "(lineitem rows: %zu), best of %d reps\n\n",
      data_sf, db.at(env.lineitem).num_rows(), reps);

  bool ok = true;
  JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("segments");
  w.Key("data_sf").Double(data_sf);
  w.Key("lineitem_rows").UInt(db.at(env.lineitem).num_rows());
  bench::WriteRunMeta(&w);

  // ------------------------------------------------------ compression ---
  // Each TPC-H column as a single-column table: baseline bytes vs segment
  // bytes, decode verified to re-encode identically. The gate takes the
  // *worst* dict-encodable string column: dictionary + bit-packed codes
  // must beat 32-bit dictionary codes >= 2x.
  std::printf("%-18s %-7s %10s %10s %7s\n", "column", "type", "base(B)",
              "seg(B)", "ratio");
  double min_string_ratio = 1e300;
  w.Key("compression").BeginArray();
  for (RelId rel : {env.lineitem, env.orders, env.part}) {
    const Table& t = db.at(rel);
    for (size_t c = 0; c < t.num_columns(); ++c) {
      Table one;
      one.AddColumn(t.columns()[c], t.ShareCol(c));
      uint64_t base = BaselineBytes(t.col(c));
      Result<std::string> enc = EncodeSegment(one);
      if (!enc.ok()) {
        std::printf("%-18s encode error: %s\n", t.columns()[c].name.c_str(),
                    enc.status().ToString().c_str());
        ok = false;
        continue;
      }
      Result<SegmentReader> rd = SegmentReader::Open(*enc);
      Result<Table> back = rd.ok() ? rd->Decode() : rd.status();
      Result<std::string> again =
          back.ok() ? EncodeSegment(*back) : back.status();
      bool verified = again.ok() && *again == *enc;
      ok = ok && verified;
      double ratio =
          static_cast<double>(base) / static_cast<double>(enc->size());
      const ExecColumn& col = t.columns()[c];
      std::string type_name = TypeName(t, c);
      if (type_name == "dict") {
        min_string_ratio = std::min(min_string_ratio, ratio);
      }
      std::printf("%-18s %-7s %10llu %10zu %6.2fx%s\n", col.name.c_str(),
                  type_name.c_str(), static_cast<unsigned long long>(base),
                  enc->size(), ratio, verified ? "" : "  DECODE MISMATCH");
      w.BeginObject();
      w.Key("column").String(col.name);
      w.Key("type").String(type_name);
      w.Key("baseline_bytes").UInt(base);
      w.Key("segment_bytes").UInt(enc->size());
      w.Key("ratio").Double(ratio);
      w.Key("verified").Bool(verified);
      w.EndObject();
    }
  }
  w.EndArray();
  w.Key("min_string_ratio").Double(min_string_ratio);
  bool compression_gate = min_string_ratio >= 2.0;
  ok = ok && compression_gate;
  std::printf("\nworst string/dict column ratio: %.2fx (floor 2.00x) %s\n\n",
              min_string_ratio, compression_gate ? "" : "FAIL");

  // ------------------------------------------------------------- codec ---
  // EncodeSegment + Open + Decode of 60k lineitem rows x 3 columns, in
  // payload bytes (Table::ByteSize) per second, best of reps: plaintext
  // (two int64 columns and a double) and with the middle column replaced
  // by 16-byte Paillier ciphertexts.
  {
    const Table& li = db.at(env.lineitem);
    size_t rows = std::min<size_t>(60000, li.num_rows());
    auto slice = [&](const char* name) {
      int c = li.ColIndex(env.catalog.attrs().Find(name));
      ColumnData part(li.col(static_cast<size_t>(c)).rep());
      part.AppendRange(li.col(static_cast<size_t>(c)), 0, rows);
      return std::make_pair(li.columns()[static_cast<size_t>(c)],
                            std::move(part));
    };
    Table plain;
    for (const char* name : {"l_orderkey", "l_partkey", "l_extendedprice"}) {
      auto [col, data] = slice(name);
      plain.AddColumn(col, std::move(data));
    }
    Table cipher = plain;
    {
      KeyMaterial km = MakeKeyMaterial(/*seed=*/17, /*key_id=*/9);
      ColumnCodec codec(km);
      ColumnData enc(ColumnRep::kEnc);
      Status st = codec.EncryptSpan(plain.col(1), 0, rows,
                                    EncScheme::kPaillier, 1, &enc);
      if (!st.ok()) {
        std::printf("codec setup error: %s\n", st.ToString().c_str());
        ok = false;
      }
      cipher.SetColumnData(1, std::move(enc));
      cipher.columns()[1].encrypted = true;
      cipher.columns()[1].scheme = EncScheme::kPaillier;
      cipher.columns()[1].key_id = 9;
    }
    w.Key("codec").BeginArray();
    for (const auto& [shape, t] :
         {std::pair<const char*, const Table*>{"plaintext", &plain},
          std::pair<const char*, const Table*>{"hom16", &cipher}}) {
      size_t frame_bytes = 0;
      bool verified = true;
      double best = BestOf(std::max(reps, 20), [&, t = t] {
        auto t0 = Clock::now();
        Result<std::string> f = EncodeSegment(*t);
        Result<SegmentReader> rd =
            f.ok() ? SegmentReader::Open(std::move(*f)) : f.status();
        Result<Table> back = rd.ok() ? rd->Decode() : rd.status();
        auto t1 = Clock::now();
        if (!back.ok()) {
          verified = false;
          return 1e300;
        }
        frame_bytes = rd->encoded_size();
        verified = verified && back->num_rows() == t->num_rows();
        return std::chrono::duration<double>(t1 - t0).count();
      });
      Result<std::string> f1 = EncodeSegment(*t);
      Result<SegmentReader> r1 =
          f1.ok() ? SegmentReader::Open(*f1) : f1.status();
      Result<Table> b1 = r1.ok() ? r1->Decode() : r1.status();
      Result<std::string> f2 = b1.ok() ? EncodeSegment(*b1) : b1.status();
      verified = verified && f2.ok() && *f2 == *f1;
      double bps = static_cast<double>(t->ByteSize()) / best;
      bool gate = verified && bps >= kCodecFloorBytesPerSec;
      ok = ok && gate;
      std::printf(
          "codec round trip (%s): %zu rows, %llu payload B, %zu frame B, "
          "%.3f ms, %.0f MB/s (floor %.0f MB/s)%s\n",
          shape, t->num_rows(),
          static_cast<unsigned long long>(t->ByteSize()), frame_bytes,
          best * 1e3, bps / 1e6, kCodecFloorBytesPerSec / 1e6,
          gate ? "" : "  GATE FAIL");
      w.BeginObject();
      w.Key("shape").String(shape);
      w.Key("rows").UInt(t->num_rows());
      w.Key("payload_bytes").UInt(t->ByteSize());
      w.Key("frame_bytes").UInt(frame_bytes);
      w.Key("round_trip_ms").Double(best * 1e3);
      w.Key("mb_per_s").Double(bps / 1e6);
      w.Key("verified").Bool(verified);
      w.EndObject();
    }
    w.EndArray();
    std::printf("\n");
  }

  // --------------------------------------------------------- zone scan ---
  // lineitem clustered on l_shipdate, segmented at 4096 rows: a range scan
  // over the cluster key decodes only the qualifying segments. The full
  // scan runs the same plan over the same (sorted) rows held in memory.
  {
    const Table& li = db.at(env.lineitem);
    int date_col = li.ColIndex(env.catalog.attrs().Find("l_shipdate"));
    Table sorted = SortedBy(li, static_cast<size_t>(date_col));
    Result<SegmentedTable> seg = SegmentedTable::FromTable(sorted, 4096);
    int64_t lo = sorted.at(0, date_col).plain().AsInt();
    int64_t hi = sorted.at(sorted.num_rows() - 1, date_col).plain().AsInt();
    int64_t cutoff = lo + (hi - lo) / 8;  // ~12% of the clustered range

    PlanBuilder b(&env.catalog);
    PlanPtr p = Select(b.Rel("lineitem"),
                       {b.Pv("l_shipdate", CmpOp::kLt, Value(cutoff))});
    Result<PlanPtr> fp = FinishPlan(std::move(p), env.catalog);
    if (!seg.ok() || !fp.ok()) {
      std::printf("zone scan setup error\n");
      ok = false;
    } else {
      // Three engines over identical rows: the already-decoded in-memory
      // table, the segment scan decoding every segment (skipping off), and
      // the zone-mapped segment scan. The skipping speedup is the honest
      // out-of-core comparison (both sides pay decode); the in-memory time
      // bounds what decode itself costs.
      auto run_scan = [&](bool segments, bool skipping, ExecContext* out) {
        ExecContext local;
        ExecContext* c = out != nullptr ? out : &local;
        c->catalog = &env.catalog;
        if (segments) {
          c->segment_tables[env.lineitem] = &*seg;
        } else {
          c->base_tables[env.lineitem] = &sorted;
        }
        c->zone_map_skipping = skipping;
        return ExecutePlan(fp->get(), c);
      };
      ExecContext zone_ctx;
      Result<Table> mem = run_scan(false, true, nullptr);
      Result<Table> all_segs = run_scan(true, false, nullptr);
      Result<Table> zoned = run_scan(true, true, &zone_ctx);
      bool verified = mem.ok() && all_segs.ok() && zoned.ok() &&
                      CanonicalRows(*mem) == CanonicalRows(*zoned) &&
                      CanonicalRows(*mem) == CanonicalRows(*all_segs);
      ok = ok && verified;
      uint64_t skipped = zone_ctx.segments_skipped.load();
      uint64_t scanned = zone_ctx.segments_scanned.load();

      auto timed = [&](bool segments, bool skipping) {
        return BestOf(reps, [&] {
          auto t0 = Clock::now();
          Result<Table> t = run_scan(segments, skipping, nullptr);
          auto t1 = Clock::now();
          if (!t.ok()) return 1e300;
          return std::chrono::duration<double>(t1 - t0).count();
        });
      };
      double mem_s = timed(false, true);
      double full_s = timed(true, false);
      double zone_s = timed(true, true);
      std::printf(
          "zone scan: in-memory %.2f ms, all-segments %.2f ms, "
          "zone-mapped %.2f ms (%.2fx over all-segments, %.2fx in-memory; "
          "target <= 1.5x), %llu/%llu segments skipped, %zu rows%s\n\n",
          mem_s * 1e3, full_s * 1e3, zone_s * 1e3, full_s / zone_s,
          zone_s / mem_s,
          static_cast<unsigned long long>(skipped),
          static_cast<unsigned long long>(scanned),
          zoned.ok() ? zoned->num_rows() : 0,
          verified ? "" : "  RESULT MISMATCH");
      w.Key("zone_scan").BeginObject();
      w.Key("in_memory_ms").Double(mem_s * 1e3);
      w.Key("all_segments_ms").Double(full_s * 1e3);
      w.Key("zone_scan_ms").Double(zone_s * 1e3);
      w.Key("speedup_over_full_decode").Double(full_s / zone_s);
      w.Key("zone_over_in_memory").Double(zone_s / mem_s);
      w.Key("segments_skipped").UInt(skipped);
      w.Key("segments_considered").UInt(scanned);
      w.Key("rows").UInt(zoned.ok() ? zoned->num_rows() : 0);
      w.Key("verified").Bool(verified);
      w.EndObject();
    }
  }

  // ------------------------------------------------------------- spill ---
  // lineitem JOIN orders under a 64 KB budget: the build side partitions by
  // key hash, overflow partitions spill to disk as segments and recurse
  // (>= 2 generations asserted). Output must serialize bit-identically to
  // the unbounded in-memory join, single-threaded and at 8 threads.
  {
    PlanBuilder b(&env.catalog);
    Result<PlanPtr> fp =
        FinishPlan(Join(b.Rel("lineitem"), b.Rel("orders"),
                        {b.Pa("l_orderkey", CmpOp::kEq, "o_orderkey")}),
                   env.catalog);
    ThreadPool pool8(8);
    auto run = [&](uint64_t budget, ThreadPool* pool, ExecContext* out) {
      ExecContext local;
      ExecContext* ctx = out != nullptr ? out : &local;
      ctx->catalog = &env.catalog;
      ctx->base_tables[env.lineitem] = &db.at(env.lineitem);
      ctx->base_tables[env.orders] = &db.at(env.orders);
      ctx->memory_budget = budget;
      ctx->pool = pool;
      return ExecutePlan(fp->get(), ctx);
    };
    Result<Table> mem = fp.ok()
                            ? run(0, nullptr, nullptr)
                            : Result<Table>(fp.status());
    ExecContext spill_ctx, spill8_ctx;
    Result<Table> sp1 =
        fp.ok() ? run(64 << 10, nullptr, &spill_ctx) : mem;
    Result<Table> sp8 = fp.ok() ? run(64 << 10, &pool8, &spill8_ctx) : mem;
    auto frame = [](const Table& t) {
      Result<std::string> f = EncodeSegment(t);
      return f.ok() ? *f : "encode error: " + f.status().ToString();
    };
    bool verified = mem.ok() && sp1.ok() && sp8.ok() &&
                    frame(*sp1) == frame(*mem) && frame(*sp8) == frame(*mem);
    uint64_t generations = spill_ctx.spill_generations.load();
    bool spill_gate = verified && generations >= 2;
    ok = ok && spill_gate;

    double mem_s = BestOf(reps, [&] {
      auto t0 = Clock::now();
      Result<Table> t = run(0, nullptr, nullptr);
      auto t1 = Clock::now();
      if (!t.ok()) return 1e300;
      return std::chrono::duration<double>(t1 - t0).count();
    });
    double sp1_s = BestOf(reps, [&] {
      auto t0 = Clock::now();
      Result<Table> t = run(64 << 10, nullptr, nullptr);
      auto t1 = Clock::now();
      if (!t.ok()) return 1e300;
      return std::chrono::duration<double>(t1 - t0).count();
    });
    double sp8_s = BestOf(reps, [&] {
      auto t0 = Clock::now();
      Result<Table> t = run(64 << 10, &pool8, nullptr);
      auto t1 = Clock::now();
      if (!t.ok()) return 1e300;
      return std::chrono::duration<double>(t1 - t0).count();
    });
    std::printf(
        "spill join: in-memory %.2f ms, spilled %.2f ms (1t) / %.2f ms "
        "(8t), %llu partitions over %llu generations, %.1f KB spilled, "
        "%zu rows%s\n\n",
        mem_s * 1e3, sp1_s * 1e3, sp8_s * 1e3,
        static_cast<unsigned long long>(spill_ctx.spill_partitions.load()),
        static_cast<unsigned long long>(generations),
        static_cast<double>(spill_ctx.spill_bytes.load()) / 1024.0,
        mem.ok() ? mem->num_rows() : 0,
        spill_gate ? "" : "  GATE FAIL (verify or generations)");
    w.Key("spill_join").BeginObject();
    w.Key("budget_bytes").UInt(64 << 10);
    w.Key("in_memory_ms").Double(mem_s * 1e3);
    w.Key("spilled_1t_ms").Double(sp1_s * 1e3);
    w.Key("spilled_8t_ms").Double(sp8_s * 1e3);
    w.Key("spill_partitions").UInt(spill_ctx.spill_partitions.load());
    w.Key("spill_generations").UInt(generations);
    w.Key("spill_bytes").UInt(spill_ctx.spill_bytes.load());
    w.Key("rows").UInt(mem.ok() ? mem->num_rows() : 0);
    w.Key("verified").Bool(verified);
    w.EndObject();
  }

  // ----------------------------------------------------- bytes on wire ---
  // Random authorized scenarios through the full distributed pipeline:
  // SimNet runs, where every assignee-crossing transfer is a segment frame,
  // against the same assignment run without a network, where the runtime
  // accounts Table::ByteSize (ciphertexts at blob + 8 bytes). String
  // columns draw from a 6-value vocabulary, so dictionary pages dominate;
  // both runs must match the plaintext oracle.
  {
    uint64_t wire_bytesize = 0, wire_seg = 0;
    size_t scenarios = 0;
    bool wire_verified = true;
    for (uint64_t seed = 1; seed <= 60 && scenarios < 12; ++seed) {
      RandomPlanOptions opts;
      opts.provider_plain_prob = 0.50;
      opts.provider_enc_prob = 0.45;
      Result<RandomScenario> sc = MakeRandomScenario(seed, opts);
      if (!sc.ok()) continue;
      std::map<RelId, Table> data = MakeRandomData(*sc, seed ^ 0xfeed, 200);
      PricingTable prices;
      prices.SetDefault(PriceList{10.0, 0.0002, 0.001});
      for (const Subject& s : sc->subjects->subjects()) {
        if (s.kind == SubjectKind::kProvider) {
          prices.Set(s.id, PriceList{0.05, 0.0002, 0.001});
        }
      }
      Topology topo = Topology::PaperDefaults(*sc->subjects);
      ReferenceExecutor oracle(sc->catalog.get());
      for (const auto& [rel, t] : data) oracle.LoadTable(rel, &t);
      Result<Table> reference = oracle.Run(sc->plan.get());
      if (!reference.ok()) continue;
      std::vector<std::string> oracle_rows = CanonicalRows(*reference);

      SimNet net(sc->subjects.get());
      FailoverExecutor exec(sc->catalog.get(), sc->subjects.get(),
                            sc->policy.get(), &prices, &topo, &net);
      BaseTables tables;
      for (const auto& [rel, t] : data) {
        exec.LoadTable(rel, &t);
        tables[rel] = &t;
      }
      Result<FailoverOutcome> seg = exec.Execute(sc->plan.get(), sc->user);
      if (!seg.ok()) continue;
      if (seg->result.total_transfer_bytes == 0) continue;  // single-site

      const ExtendedPlan& ext = seg->assignment.extended;
      PlanKeys keys = DeriveQueryPlanKeys(ext);
      DistributedRuntime rt(sc->catalog.get(), sc->subjects.get());
      rt.DistributeKeys(keys, sc->user, /*seed=*/seed);
      rt.SetCryptoPlan(MakeCryptoPlan(seg->assignment.refined_schemes, keys));
      Result<DistributedResult> no_net = rt.Run(ext, sc->user, tables);
      if (!no_net.ok()) {
        wire_verified = false;
        continue;
      }
      wire_verified = wire_verified &&
                      CanonicalRows(no_net->result) == oracle_rows &&
                      CanonicalRows(seg->result.result) == oracle_rows;
      wire_bytesize += no_net->total_transfer_bytes;
      wire_seg += seg->result.total_transfer_bytes;
      scenarios++;
    }
    double drop = wire_bytesize > 0
                      ? 1.0 - static_cast<double>(wire_seg) /
                                  static_cast<double>(wire_bytesize)
                      : 0.0;
    bool wire_gate = wire_verified && scenarios == 12 &&
                     wire_seg < wire_bytesize &&
                     wire_seg <= kWireCeilingBytes;
    ok = ok && wire_gate;
    std::printf(
        "wire bytes over %zu distributed scenarios: ByteSize accounting "
        "%llu B, segment %llu B (%.1f%% drop; ceiling %llu B)%s\n\n",
        scenarios, static_cast<unsigned long long>(wire_bytesize),
        static_cast<unsigned long long>(wire_seg), drop * 100.0,
        static_cast<unsigned long long>(kWireCeilingBytes),
        wire_gate ? "" : "  GATE FAIL");
    w.Key("wire").BeginObject();
    w.Key("scenarios").UInt(scenarios);
    w.Key("bytesize_bytes").UInt(wire_bytesize);
    w.Key("segment_bytes").UInt(wire_seg);
    w.Key("ceiling_bytes").UInt(kWireCeilingBytes);
    w.Key("drop").Double(drop);
    w.Key("verified").Bool(wire_verified);
    w.EndObject();
  }

  w.Key("all_verified").Bool(ok);
  w.EndObject();
  bench::WriteJsonFile(json_path, w.TakeString());
  std::printf("wrote %s\n", json_path.c_str());
  std::printf("gates: %s\n", ok ? "pass" : "FAIL");
  return ok ? 0 : 1;
}
