// Forwarding Engine that times every call the experiment loop
// (RunServingExperiment / RunClusterExperiment) makes into a real engine,
// from outside the engine's code.
//
// The wrapper changes nothing the engine sees: each method forwards its
// arguments unchanged and returns the inner result, so a traced run's
// virtual outcomes are bit-identical to an untraced run (the benchmark
// gates on it). Step, Enqueue, Load, the migration calls and the cache
// queries are timed with steady_clock; trivial getters (name, HasWork,
// stats) are forwarded untimed and count toward the loop's self time.
//
// A Step is classified as evicting when the engine's own counters show it
// swapped, dropped, demoted or flash-evicted KV during the call.

#ifndef PERFBENCH_SRC_TRACED_ENGINE_H_
#define PERFBENCH_SRC_TRACED_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/report.h"
#include "perfbench/src/span_trace.h"
#include "src/serving/engine.h"

namespace perfbench {

// Wall-time aggregates over every wrapped engine of one run.
struct EngineCallTimes {
  int64_t step_calls = 0;
  double step_s = 0.0;
  std::vector<double> step_us;  // one entry per Step call
  int64_t evict_steps = 0;
  double evict_step_s = 0.0;
  // Non-idle steps and the batch they ran (from StepResult).
  int64_t busy_steps = 0;
  int64_t batch_tokens = 0;
  int64_t batch_requests = 0;
  int64_t load_calls = 0;
  double load_s = 0.0;
  double enqueue_s = 0.0;
  // Export/import/peer-prefix calls, and cache-size queries.
  double migration_s = 0.0;
  double query_s = 0.0;

  double InsideEngineSeconds() const {
    return step_s + load_s + enqueue_s + migration_s + query_s;
  }
};

class TracedEngine : public pensieve::Engine {
 public:
  // `run_span` is the enclosing experiment span every call span names as
  // parent.
  TracedEngine(std::unique_ptr<pensieve::Engine> inner, int32_t replica_id,
               SpanTrace* trace, int32_t run_span, EngineCallTimes* times);

  const std::string& name() const override { return inner_->name(); }
  void Enqueue(const pensieve::Request& request, double now) override;
  bool HasWork() const override { return inner_->HasWork(); }
  pensieve::StepResult Step(double now) override;
  const pensieve::EngineStats& stats() const override {
    return inner_->stats();
  }
  pensieve::EngineLoad Load() const override;
  bool SupportsStateMigration() const override {
    return inner_->SupportsStateMigration();
  }
  int64_t CachedConversationTokens(int64_t conversation_id) const override;
  pensieve::MigratedKvState ExportConversationState(
      int64_t conversation_id) override;
  int64_t ImportConversationState(int64_t conversation_id,
                                  const pensieve::MigratedKvState& state,
                                  double now) override;
  pensieve::DrainedWork DrainUnfinished() override;
  pensieve::DrainedWork DrainForRehome() override;
  std::vector<pensieve::PeerSpillOffer> TakePeerSpillOffers() override;
  int64_t IdleCpuCacheTokens() const override;
  int64_t ReserveForeignCpuTokens(int64_t tokens) override;
  void ReleaseForeignCpuTokens(int64_t tokens) override;
  int64_t AcceptPeerPrefix(int64_t conversation_id, int64_t first_token,
                           int64_t last_token, int64_t kv_len_hint,
                           double now) override;
  int64_t TotalCachedTokens() const override;

 private:
  void RecordMigration(const char* span_name, Clock::time_point start,
                       int64_t conversation_id) const;

  std::unique_ptr<pensieve::Engine> inner_;
  int32_t replica_id_;
  SpanTrace* trace_;
  int32_t run_span_;
  EngineCallTimes* times_;
  std::vector<int64_t> ids_;  // reused per-span request-id buffer
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACED_ENGINE_H_
