// Stateless baseline engines: vLLM and TensorRT-LLM (paper §6.1).
//
// Both baselines use paged KV memory, iteration-level batching with separate
// prefill and decode phases, FCFS admission, and recompute-preemption — and
// both are stateless across requests: a request's prompt is the full
// conversation history plus the new user prompt, and all of its cache slots
// are freed the moment it finishes.
//
// TensorRT-LLM is modeled as the same scheduler with a dense-operator
// speedup (graph rewriting / operator fusion) over the PyTorch-backend cost,
// which is exactly the advantage the paper attributes to it.

#ifndef PENSIEVE_SRC_SERVING_STATELESS_ENGINE_H_
#define PENSIEVE_SRC_SERVING_STATELESS_ENGINE_H_

#include <deque>
#include <string>
#include <vector>

#include "src/kvcache/block_allocator.h"
#include "src/scheduler/step_cost.h"
#include "src/serving/engine.h"
#include "src/sim/cost_model.h"

namespace pensieve {

struct StatelessEngineOptions {
  std::string name = "vllm";
  int64_t block_size = 16;  // vLLM's default page size
  int64_t num_gpu_blocks = 0;
  // Token budget for a prefill batch (vLLM max_num_batched_tokens).
  int64_t max_batch_tokens = 4096;
  int64_t max_running = 256;
  // > 1 models TensorRT-LLM's fused dense operators.
  double dense_speedup = 1.0;
};

class StatelessEngine final : public Engine {
 public:
  StatelessEngine(const GpuCostModel& cost_model, StatelessEngineOptions options);

  const std::string& name() const override { return options_.name; }
  void Enqueue(const Request& request, double now) override;
  bool HasWork() const override;
  StepResult Step(double now) override;
  const EngineStats& stats() const override { return stats_; }
  // No cross-request state, so the migration defaults (no-op) apply.
  EngineLoad Load() const override;

  // Fault injection: hand back all queued/running requests (crash path).
  DrainedWork DrainUnfinished() override;

 private:
  struct Sequence {
    Request request;
    double first_scheduled_time = -1.0;
    // Prompt tokens needing (re)computation at admission: history + new
    // prompt, plus any output tokens regenerated after a preemption.
    int64_t prefill_len = 0;
    int64_t generated = 0;  // output tokens produced so far
    int64_t context_len = 0;  // tokens with KV currently in the cache
    int32_t preemptions = 0;
    std::vector<BlockId> blocks;
  };

  int64_t BlocksForTokens(int64_t tokens) const {
    return (tokens + options_.block_size - 1) / options_.block_size;
  }
  // True when `context_len` tokens need more blocks than the whole GPU
  // holds: the effective maximum context, as in PensieveEngine. Such a
  // sequence finishes with the tokens it has generated.
  bool ExceedsGpu(int64_t context_len) const {
    return BlocksForTokens(context_len) > allocator_.capacity();
  }
  bool GrowTo(Sequence* seq, int64_t new_context_len);
  void FreeSequence(Sequence* seq);
  void Preempt(Sequence* seq);
  RequestOutcome MakeOutcome(const Sequence& seq, double finish_time) const;

  const GpuCostModel& cost_model_;
  StatelessEngineOptions options_;
  BlockAllocator allocator_;
  std::deque<Sequence> waiting_;
  std::vector<Sequence> running_;
  EngineStats stats_;
};

}  // namespace pensieve

#endif  // PENSIEVE_SRC_SERVING_STATELESS_ENGINE_H_
