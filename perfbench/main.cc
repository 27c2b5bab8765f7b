// perfbench: the repository benchmark's binary. Normally started by
// perfbench/run.py, which builds it and passes each workload's parameters
// from perfbench/design.json:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --sf F --exec-threads T [--adhoc-pool P] [--write-rate R]
//             [--out DIR]
//   perfbench --selftest
//
// The last line of stdout is the result object:
//   {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}
// Exit status is 0 only for a correct run.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "common/json_util.h"

namespace {

int SelfTest() {
  int failures = perfbench::RunStatsSelfChecks() +
                 perfbench::RunLedgerSelfChecks();
  std::printf("self-checks: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures;
}

bool ParseArgs(int argc, char** argv, perfbench::WorkloadParams* p) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      p->name = v;
    } else if (flag == "--seed") {
      p->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      p->seconds = std::atof(v);
    } else if (flag == "--trace") {
      p->trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--sf") {
      p->data_sf = std::atof(v);
    } else if (flag == "--exec-threads") {
      p->exec_threads = std::atoi(v);
    } else if (flag == "--adhoc-pool") {
      p->adhoc_pool = std::atoi(v);
    } else if (flag == "--write-rate") {
      p->write_rate = std::atof(v);
    } else if (flag == "--out") {
      p->out_dir = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return argc % 2 == 1 && !p->name.empty();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--selftest") == 0) {
    return SelfTest() == 0 ? 0 : 1;
  }
  perfbench::WorkloadParams params;
  if (!ParseArgs(argc, argv, &params)) {
    std::fprintf(stderr, "usage: see the header of perfbench/main.cc\n");
    return 2;
  }
  // The benchmark's own logic is checked on every run, before set-up.
  if (SelfTest() != 0) return 1;

  std::printf("workload %s seed %llu: %.3g s %s\n", params.name.c_str(),
              static_cast<unsigned long long>(params.seed), params.seconds,
              params.trace ? "traced" : "untraced");
  std::fflush(stdout);

  mpq::Result<perfbench::RunResult> run = perfbench::RunWorkload(params);
  if (!run.ok()) {
    std::printf("benchmark error: %s\n", run.status().ToString().c_str());
    return 1;
  }
  for (const perfbench::Metric& m : run->metrics) {
    std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  mpq::JsonWriter w;
  w.BeginObject()
      .Key("correct")
      .Bool(run->correct)
      .Key("attempted")
      .UInt(run->attempted)
      .Key("failed")
      .UInt(run->failed)
      .Key("metrics")
      .BeginObject();
  for (const perfbench::Metric& m : run->metrics) {
    w.Key(m.name)
        .BeginObject()
        .Key("value")
        .Double(m.value)
        .Key("unit")
        .String(m.unit)
        .EndObject();
  }
  w.EndObject().EndObject();
  std::printf("%s\n", w.TakeString().c_str());
  return run->correct ? 0 : 1;
}
