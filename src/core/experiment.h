// Experiment assembly helpers shared by the benchmark binaries.
//
// Builds each evaluated system (Pensieve, Pensieve GPU-cache-only, vLLM,
// TensorRT-LLM) with the paper's configuration — 40 GB of KV cache per GPU
// for every system — and runs request-rate sweeps that produce the
// latency-vs-throughput curves of Figures 10, 11, 13, 14 and 15.

#ifndef PENSIEVE_SRC_CORE_EXPERIMENT_H_
#define PENSIEVE_SRC_CORE_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "src/serving/driver.h"
#include "src/serving/engine.h"
#include "src/serving/pensieve_engine.h"
#include "src/serving/stateless_engine.h"
#include "src/sim/cost_model.h"
#include "src/workload/trace.h"

namespace pensieve {

enum class SystemKind {
  kPensieve,
  kPensieveGpuOnly,  // "Pensieve (GPU cache)" variant
  kVllm,
  kTensorRtLlm,
};

const char* SystemKindName(SystemKind kind);

// Dense-operator speedup attributed to TensorRT-LLM's ahead-of-time graph
// compilation relative to the PyTorch-backend systems.
inline constexpr double kTensorRtDenseSpeedup = 1.25;

// KV-cache capacity in tokens that fits the per-GPU cache budget.
int64_t GpuKvCacheTokens(const ModelConfig& model, const HardwareSpec& hw);
int64_t CpuKvCacheTokens(const ModelConfig& model, const HardwareSpec& hw);

struct EngineOverrides {
  int64_t max_batch_tokens = 4096;
  int64_t max_running = 256;
  EvictionPolicyKind policy = EvictionPolicyKind::kRetentionValue;
  bool unified_scheduling = true;
  bool pipelined_restore = true;
  bool prioritize_swap_in = true;
  // Cross-conversation shared-prefix dedup (Pensieve variants). Harmless on
  // traces without template metadata: no trie traffic, bit-identical output.
  bool enable_prefix_sharing = true;
  // Scales both cache tiers (useful for stress tests); 1.0 = paper setup.
  double cache_scale = 1.0;
  // Additional multiplier applied to the CPU tier only, on top of
  // cache_scale. Flash-tier benchmarks shrink the CPU tier below the working
  // set while keeping the GPU large enough for every conversation.
  double cpu_cache_scale = 1.0;
  std::string name_suffix;
  // PCIe KV-transfer fault injection (Pensieve variants only; the stateless
  // baselines never move KV over the link). All rates zero = off.
  LinkFaultProfile pcie_fault_profile;
  LinkRetryPolicy fault_retry;
  uint64_t fault_seed = 0;
  // Flash (SSD) tier behind the CPU tier (full Pensieve variant only). The
  // capacity is in GiB of KV data and is deliberately NOT scaled by
  // cache_scale: stress tests shrink the GPU/CPU tiers to force traffic into
  // a fixed-size flash. 0 disables the tier.
  double ssd_capacity_gb = 0.0;
  int64_t ssd_segment_blocks = 64;
  LinkFaultProfile ssd_fault_profile;
  // Int8-quantize KV blocks at the GPU boundary (Pensieve variants only).
  // CPU/SSD tiers hold ~2x the conversations and off-GPU transfers move the
  // compressed bytes; GPU-resident KV stays fp32.
  bool kv_quant = false;
};

std::unique_ptr<Engine> MakeEngine(SystemKind kind, const GpuCostModel& cost_model,
                                   const EngineOverrides& overrides = {});

struct SweepPoint {
  double conversation_rate = 0.0;
  ServingSummary summary;
};

struct SweepOptions {
  int64_t num_conversations = 300;
  // When > 0, the conversation count is raised to rate * target_arrival_span
  // so that the Poisson arrival process spans at least this many seconds at
  // every swept rate — the steady-state measurement window needs the
  // arrival span to dominate individual conversations' think-time chains.
  double target_arrival_span = 900.0;
  double mean_think_time = 60.0;
  uint64_t seed = 42;
  EngineOverrides overrides;
};

// Runs one experiment per rate; each rate gets a fresh engine and trace.
std::vector<SweepPoint> RateSweep(SystemKind kind, const GpuCostModel& cost_model,
                                  const DatasetProfile& profile,
                                  const std::vector<double>& conversation_rates,
                                  const SweepOptions& options = {});

// Prints "rate  throughput(req/s)  p90-norm-latency(ms/token)  ..." rows.
void PrintSweep(const std::string& title, const std::vector<SweepPoint>& points);

}  // namespace pensieve

#endif  // PENSIEVE_SRC_CORE_EXPERIMENT_H_
