// The benchmark's workloads. Each one fills the end-to-end metrics (untraced
// run) or the per-layer metrics (traced run) into a Report and records its
// correctness gates.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "perfbench/src/report.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 20.0;  // measured wall time budget
  bool trace = false;     // per-layer (traced) run instead of end-to-end
  bool small = false;     // CI-sized inputs for the benchmark's own tests
  std::string trace_out;  // Chrome trace-event JSON file (traced runs)
  std::string host_json;  // host description object body, for trace files
};

// sim-pressure and sim-tiered: the virtual-time serving simulator.
bool IsSimWorkload(const std::string& name);
void RunSimWorkload(const RunArgs& args, Report* report, Gates* gates);

// numeric-chat: StatefulLlmServer running a real CPU transformer.
void RunNumericChat(const RunArgs& args, Report* report, Gates* gates);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
