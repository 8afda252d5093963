// perfbench — the repository benchmark.
//
//   perfbench --workload <sim-pressure|sim-tiered|numeric-chat> --seed <n>
//             --seconds <s> --trace <0|1> [--small]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
// of a traced run, whose spans go to .bench_out/<workload>.trace.json as
// Chrome trace-event JSON. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Every workload reports every end-to-end metric; a traced run
// reports the per-layer metrics of the layers the workload exercises.
// run.py checks the names and units against BENCHMARK.json, which alone
// lists the metrics, and fills the per-layer metrics left out with 0.

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_serving_common.h"
#include "perfbench/src/report.h"
#include "perfbench/src/workloads.h"
#include "src/common/thread_pool.h"
#include "src/tensor/packed_matrix.h"

namespace perfbench {
namespace {

// Host description recorded with every result: detected cores, dispatched
// GEMM ISA, build type, pool threads and the 1-minute load average at start.
std::string HostJson(int pool_threads) {
  double load[1] = {0.0};
  if (getloadavg(load, 1) != 1) {
    load[0] = -1.0;
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"nproc\": %d, \"isa\": \"%s\", \"build_type\": \"%s\", "
                "\"pool_threads\": %d, \"loadavg_1m\": %.2f",
                pensieve::BenchDetectedCores(), pensieve::GemmIsaName(),
                PERFBENCH_BUILD_TYPE, pool_threads, load[0]);
  return buf;
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<sim-pressure|sim-tiered|numeric-chat> --seed <n> --seconds "
               "<s> --trace <0|1> [--small]\n",
               why);
  std::exit(2);
}

int Run(int argc, char** argv) {
  RunArgs args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--small") {
      args.small = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
      if (!args.trace && std::strcmp(value, "0") != 0) {
        Usage("--trace takes 0 or 1");
      }
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("malformed value for " + flag).c_str());
    }
  }
  if (!have_workload ||
      (!IsSimWorkload(args.workload) && args.workload != "numeric-chat")) {
    Usage("unknown or missing --workload");
  }
  if (!(args.seconds > 0.0 && args.seconds <= 120.0)) {
    Usage("--seconds must be in (0, 120]");
  }
  if (args.trace) {
    mkdir(".bench_out", 0755);
    args.trace_out = ".bench_out/" + args.workload + ".trace.json";
  }

  // The simulator is single-threaded. The numeric path runs on two pool
  // threads (one on a single-core host): on a shared 4-vCPU host, four
  // threads made numeric-chat swing 2.4x between runs (204-493 tok/s over
  // ten runs), since one descheduled worker stalls every ParallelFor.
  const int pool_threads = std::min(2, pensieve::BenchDetectedCores());
  pensieve::ThreadPool::SetGlobalThreads(pool_threads);
  args.host_json = HostJson(pool_threads);
  std::printf("host: {%s}\n", args.host_json.c_str());
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d small=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.small ? 1 : 0);

  Report report;
  Gates gates;
  if (IsSimWorkload(args.workload)) {
    RunSimWorkload(args, &report, &gates);
  } else {
    RunNumericChat(args, &report, &gates);
  }

  if (!args.trace) {
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    report.Add("ok_frac",
               1.0 - static_cast<double>(gates.failed()) /
                         static_cast<double>(
                             std::max<int64_t>(gates.attempted(), 1)),
               "frac", gates.attempted());
  }
  PrintMetrics(report);
  for (const std::string& failure : gates.failures()) {
    std::printf("FAILED gate: %s\n", failure.c_str());
  }
  std::printf("%s\n", ResultJson(gates, report).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
