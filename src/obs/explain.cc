#include "obs/explain.h"

#include <algorithm>
#include <cmath>

#include "algebra/plan_printer.h"
#include "common/json_util.h"
#include "common/str_util.h"

namespace mpq {

namespace {

const SpanArg* FindArg(const SpanRecord& r, const char* key) {
  for (const SpanArg& a : r.args) {
    if (a.key == key) return &a;
  }
  return nullptr;
}

double ArgNum(const SpanRecord* r, const char* key, double fallback = 0) {
  if (r == nullptr) return fallback;
  const SpanArg* a = FindArg(*r, key);
  if (a == nullptr) return fallback;
  if (a->kind == SpanArg::Kind::kDouble) return a->d;
  if (a->kind == SpanArg::Kind::kInt) return static_cast<double>(a->i);
  return fallback;
}

const std::string* ArgStr(const SpanRecord& r, const char* key) {
  const SpanArg* a = FindArg(r, key);
  return a != nullptr && a->kind == SpanArg::Kind::kStr ? &a->s : nullptr;
}

/// Collects every assignee-crossing edge (child output shipped to the
/// parent's assignee; the root's output shipped to the user).
void CollectEdges(const PlanNode* n, SubjectId dst, const ExtendedPlan& ext,
                  const SubjectRegistry& subjects,
                  const std::unordered_map<int, NodeEstimate>& estimates,
                  const std::unordered_map<int, const SpanRecord*>& net_of,
                  std::vector<EdgeCalibration>* out) {
  auto it = ext.assignment.find(n->id);
  if (it != ext.assignment.end() && it->second != dst) {
    EdgeCalibration e;
    e.node_id = n->id;
    e.from = subjects.Name(it->second);
    e.to = subjects.Name(dst);
    auto est = estimates.find(n->id);
    e.predicted_bytes = est != estimates.end() ? est->second.bytes : 0;
    auto net = net_of.find(n->id);
    e.observed_bytes = static_cast<uint64_t>(
        ArgNum(net != net_of.end() ? net->second : nullptr, "bytes"));
    e.abs_rel_err =
        std::fabs(e.predicted_bytes - static_cast<double>(e.observed_bytes)) /
        std::max<double>(static_cast<double>(e.observed_bytes), 1.0);
    out->push_back(e);
  }
  SubjectId self = it != ext.assignment.end() ? it->second : dst;
  for (const auto& c : n->children) {
    CollectEdges(c.get(), self, ext, subjects, estimates, net_of, out);
  }
}

std::string PercentStr(double frac) {
  return StrFormat("%.1f%%", frac * 100.0);
}

}  // namespace

std::string ExplainAnalyzeReport::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("mean_abs_rel_err").Double(mean_abs_rel_err);
  w.Key("total_transfer_bytes").UInt(total_transfer_bytes);
  w.Key("num_messages").UInt(num_messages);
  w.Key("failovers").UInt(failovers);
  w.Key("retransfer_bytes").UInt(retransfer_bytes);
  w.Key("failover_latency_s").Double(failover_latency_s);
  w.Key("edges").BeginArray();
  for (const EdgeCalibration& e : edges) {
    w.BeginObject();
    w.Key("node").Int(e.node_id);
    w.Key("from").String(e.from);
    w.Key("to").String(e.to);
    w.Key("predicted_bytes").Double(e.predicted_bytes);
    w.Key("observed_bytes").UInt(e.observed_bytes);
    w.Key("abs_rel_err").Double(e.abs_rel_err);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

ExplainAnalyzeReport RenderExplainAnalyze(
    const ExtendedPlan& ext, const Catalog& catalog,
    const SubjectRegistry& subjects, SubjectId user, const QueryTrace& trace,
    const std::unordered_map<int, NodeEstimate>& estimates) {
  ExplainAnalyzeReport report;

  // Spans are sorted by start time, so on a failover the surviving (last)
  // attempt's spans win the per-node maps — the report describes the run
  // that actually produced the result.
  const std::vector<SpanRecord> spans = trace.Spans();
  std::unordered_map<int, const SpanRecord*> op_of;
  std::unordered_map<int, const SpanRecord*> net_of;
  const SpanRecord* dispatch = nullptr;
  const SpanRecord* last_failover = nullptr;
  for (const SpanRecord& r : spans) {
    if (r.cat == "op" && r.node_id >= 0) {
      op_of[r.node_id] = &r;
    } else if (r.cat == "net" && r.node_id >= 0) {
      net_of[r.node_id] = &r;
    } else if (r.cat == "exec" && r.name == "dispatch") {
      dispatch = &r;
    } else if (r.cat == "failover") {
      ++report.failovers;
      if (FindArg(r, "retransfer_bytes") != nullptr) last_failover = &r;
    }
  }
  report.total_transfer_bytes =
      static_cast<uint64_t>(ArgNum(dispatch, "transfer_bytes"));
  report.num_messages = static_cast<uint64_t>(ArgNum(dispatch, "messages"));
  report.retransfer_bytes =
      static_cast<uint64_t>(ArgNum(last_failover, "retransfer_bytes"));
  report.failover_latency_s = ArgNum(last_failover, "failover_latency_s");

  CollectEdges(ext.plan.get(), user, ext, subjects, estimates, net_of,
               &report.edges);
  double err_sum = 0;
  for (const EdgeCalibration& e : report.edges) err_sum += e.abs_rel_err;
  report.mean_abs_rel_err =
      report.edges.empty() ? 0 : err_sum / report.edges.size();

  std::unordered_map<int, const EdgeCalibration*> edge_of;
  for (const EdgeCalibration& e : report.edges) edge_of[e.node_id] = &e;

  PrintOptions opts;
  opts.assignment = &ext.assignment;
  opts.subjects = &subjects;
  opts.annotate = [&](const PlanNode* n) {
    std::string s;
    auto op = op_of.find(n->id);
    if (op != op_of.end()) {
      s += StrFormat(
          "[rows=%llu t=%.3fms",
          static_cast<unsigned long long>(ArgNum(op->second, "rows_out")),
          ArgNum(op->second, "wall_ns") / 1e6);
      auto morsels = static_cast<unsigned long long>(
          ArgNum(op->second, "morsels"));
      if (morsels > 0) s += StrFormat(" morsels=%llu", morsels);
      if (const std::string* schemes = ArgStr(*op->second, "schemes")) {
        s += " schemes=" + *schemes;
      }
      s += "]";
    }
    auto e = edge_of.find(n->id);
    if (e != edge_of.end()) {
      if (!s.empty()) s += " ";
      s += StrFormat(
          "[net %lluB, pred %.0fB, err %s]",
          static_cast<unsigned long long>(e->second->observed_bytes),
          e->second->predicted_bytes,
          PercentStr(e->second->abs_rel_err).c_str());
    }
    return s;
  };

  std::string text =
      StrFormat("EXPLAIN ANALYZE (trace 0x%016llx)\n",
                static_cast<unsigned long long>(trace.trace_id()));
  text += PrintPlan(ext.plan.get(), catalog, opts);
  text += StrFormat(
      "transfer: %llu bytes in %llu messages\n",
      static_cast<unsigned long long>(report.total_transfer_bytes),
      static_cast<unsigned long long>(report.num_messages));
  text += StrFormat("cost-model calibration: mean |pred-obs|/obs = %s over "
                    "%zu crossing edges\n",
                    PercentStr(report.mean_abs_rel_err).c_str(),
                    report.edges.size());
  if (report.failovers > 0) {
    text += StrFormat(
        "failover: %llu re-plans, %llu bytes retransferred, %.6fs recovery\n",
        static_cast<unsigned long long>(report.failovers),
        static_cast<unsigned long long>(report.retransfer_bytes),
        report.failover_latency_s);
  }
  report.text = std::move(text);
  return report;
}

}  // namespace mpq
