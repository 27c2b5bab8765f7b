// Medical/insurance collaborative analytics: the paper's motivating scenario
// end-to-end WITH data — dispatch messages (Fig 8) and a distributed
// encrypted execution whose result is compared against plaintext execution.

#include <cstdio>

#include "algebra/plan_builder.h"
#include "algebra/plan_printer.h"
#include "common/rng.h"
#include "assign/assignment.h"
#include "exec/dispatch.h"
#include "exec/distributed.h"
#include "profile/propagate.h"
#include "sql/binder.h"

using namespace mpq;

namespace {

Table HospData(const Catalog& catalog, RelId hosp, int patients) {
  Table t = MakeBaseTable(catalog.Get(hosp));
  const char* diseases[] = {"stroke", "flu", "diabetes"};
  const char* treatments[] = {"tpa", "rest", "insulin", "surgery"};
  Rng rng(7);
  for (int i = 0; i < patients; ++i) {
    t.AddRow({Cell(Value(int64_t{1000 + i})),
              Cell(Value(
                  int64_t{1950 + static_cast<int64_t>(rng.Uniform(50))})),
              Cell(Value(std::string(diseases[rng.Uniform(3)]))),
              Cell(Value(std::string(treatments[rng.Uniform(4)])))});
  }
  return t;
}

Table InsData(const Catalog& catalog, RelId ins, int patients) {
  Table t = MakeBaseTable(catalog.Get(ins));
  Rng rng(13);
  for (int i = 0; i < patients; ++i) {
    t.AddRow({Cell(Value(int64_t{1000 + i})),
              Cell(Value(50.0 + static_cast<double>(rng.Uniform(200))))});
  }
  return t;
}

}  // namespace

int main() {
  Catalog catalog;
  SubjectRegistry subjects;
  SubjectId H = *subjects.Register("H", SubjectKind::kAuthority);
  SubjectId I = *subjects.Register("I", SubjectKind::kAuthority);
  SubjectId U = *subjects.Register("U", SubjectKind::kUser);
  SubjectId X = *subjects.Register("X", SubjectKind::kProvider);
  SubjectId Y = *subjects.Register("Y", SubjectKind::kProvider);
  (void)subjects.Register("Z", SubjectKind::kProvider);

  using C = std::pair<std::string, DataType>;
  RelId hosp = *catalog.AddRelation(
      "Hosp",
      {C{"S", DataType::kInt64}, C{"B", DataType::kInt64},
       C{"D", DataType::kString}, C{"T", DataType::kString}},
      H, 200);
  RelId ins = *catalog.AddRelation(
      "Ins", {C{"C", DataType::kInt64}, C{"P", DataType::kDouble}}, I, 200);

  Policy policy(&catalog, &subjects);
  auto set = [&](const char* csv) {
    AttrSet out;
    for (const char* c = csv; *c; ++c)
      out.Insert(catalog.attrs().Find(std::string(1, *c)));
    return out;
  };
  (void)policy.Grant(hosp, H, set("SBDT"), {});
  (void)policy.Grant(hosp, U, set("SDT"), {});
  (void)policy.Grant(hosp, X, set("DT"), set("S"));
  (void)policy.Grant(hosp, Y, set("BDT"), set("S"));
  (void)policy.Grant(ins, I, set("CP"), {});
  (void)policy.Grant(ins, U, set("CP"), {});
  (void)policy.Grant(ins, X, {}, set("CP"));
  (void)policy.Grant(ins, Y, set("P"), set("C"));

  auto plan = PlanFromSql(
      "select T, avg(P) from Hosp join Ins on S = C "
      "where D = 'stroke' group by T having avg(P) > 100",
      catalog);
  if (!plan.ok()) {
    std::printf("error: %s\n", plan.status().ToString().c_str());
    return 1;
  }
  (void)DerivePlaintextNeeds(plan->get(), catalog, SchemeCaps{});
  (void)AnnotatePlan(plan->get(), catalog);

  PricingTable prices = PricingTable::PaperDefaults(subjects);
  Topology topo = Topology::PaperDefaults(subjects);
  SchemeMap schemes = AnalyzeSchemes(plan->get(), catalog, SchemeCaps{});
  CostModel cm(&catalog, &prices, &topo, &schemes);
  auto cp = ComputeCandidates(plan->get(), policy);
  if (!cp.ok()) {
    std::printf("error: %s\n", cp.status().ToString().c_str());
    return 1;
  }
  AssignmentOptimizer opt(&policy, &cm);
  auto r = opt.Optimize(plan->get(), *cp, U);
  if (!r.ok()) {
    std::printf("error: %s\n", r.status().ToString().c_str());
    return 1;
  }

  // Dispatch (Fig 8): signed + sealed sub-queries with attached keys.
  PlanKeys keys = DeriveQueryPlanKeys(r->extended);
  auto dispatch = BuildDispatch(r->extended, keys, policy, U);
  std::printf("=== Dispatch ===\n%s\n",
              dispatch->ToString(subjects).c_str());

  // Distributed encrypted execution.
  DistributedRuntime rt(&catalog, &subjects);
  const Table hosp_data = HospData(catalog, hosp, 200);
  const Table ins_data = InsData(catalog, ins, 200);
  const BaseTables tables = {{hosp, &hosp_data}, {ins, &ins_data}};
  rt.DistributeKeys(keys, U, 42);
  rt.SetCryptoPlan(MakeCryptoPlan(schemes, keys));
  auto result = rt.Run(r->extended, U, tables);
  if (!result.ok()) {
    std::printf("error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("=== Result (delivered to U) ===\n%s\n",
              result->result.ToString().c_str());

  std::printf("=== Per-subject accounting ===\n");
  for (const auto& [s, st] : result->stats) {
    std::printf("  %-3s ops=%zu rows=%llu in=%lluB out=%lluB\n",
                subjects.Name(s).c_str(), st.ops_executed,
                static_cast<unsigned long long>(st.rows_produced),
                static_cast<unsigned long long>(st.bytes_in),
                static_cast<unsigned long long>(st.bytes_out));
  }
  std::printf("total transfer: %llu bytes over %zu messages\n",
              static_cast<unsigned long long>(result->total_transfer_bytes),
              result->num_messages);

  // Sanity: plaintext execution agrees.
  KeyRing ring;
  CryptoPlan crypto;
  ExecContext ctx;
  ctx.catalog = &catalog;
  ctx.base_tables = tables;
  ctx.keyring = &ring;
  ctx.crypto = &crypto;
  auto plain = ExecutePlan(plan->get(), &ctx);
  const bool match =
      plain.ok() && plain->num_rows() == result->result.num_rows();
  std::printf("\nplaintext reference rows: %zu (distributed: %zu) — %s\n",
              plain.ok() ? plain->num_rows() : 0, result->result.num_rows(),
              match ? "MATCH" : "MISMATCH");
  return match ? 0 : 1;
}
