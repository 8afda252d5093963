#include "src/serving/stateless_engine.h"

#include <algorithm>

#include "src/common/logging.h"

namespace pensieve {

StatelessEngine::StatelessEngine(const GpuCostModel& cost_model,
                                 StatelessEngineOptions options)
    : cost_model_(cost_model), options_(std::move(options)),
      allocator_(options_.num_gpu_blocks) {
  PENSIEVE_CHECK_GT(options_.num_gpu_blocks, 0);
}

void StatelessEngine::Enqueue(const Request& request, double now) {
  Sequence seq;
  seq.request = request;
  // Stateless serving: the entire history is part of the prompt.
  seq.prefill_len = request.history_len + request.new_prompt_len;
  waiting_.push_back(std::move(seq));
}

bool StatelessEngine::HasWork() const { return !waiting_.empty() || !running_.empty(); }

bool StatelessEngine::GrowTo(Sequence* seq, int64_t new_context_len) {
  const int64_t needed = BlocksForTokens(new_context_len);
  while (static_cast<int64_t>(seq->blocks.size()) < needed) {
    auto block = allocator_.Allocate();
    if (!block.has_value()) {
      return false;
    }
    seq->blocks.push_back(*block);
  }
  seq->context_len = new_context_len;
  return true;
}

void StatelessEngine::FreeSequence(Sequence* seq) {
  for (BlockId b : seq->blocks) {
    allocator_.Free(b);
  }
  seq->blocks.clear();
  seq->context_len = 0;
}

DrainedWork StatelessEngine::DrainUnfinished() {
  DrainedWork drained;
  drained.requests.reserve(waiting_.size() + running_.size());
  for (Sequence& seq : running_) {
    drained.requests.push_back(seq.request);
    drained.lost_generated_tokens += seq.generated;
    FreeSequence(&seq);
  }
  for (Sequence& seq : waiting_) {
    drained.requests.push_back(seq.request);
    drained.lost_generated_tokens += seq.generated;
    FreeSequence(&seq);
  }
  std::sort(drained.requests.begin(), drained.requests.end(),
            [](const Request& a, const Request& b) {
              return a.request_id < b.request_id;
            });
  running_.clear();
  waiting_.clear();
  return drained;
}

void StatelessEngine::Preempt(Sequence* seq) {
  // Recompute-preemption (vLLM default): release all memory; on
  // readmission the prompt plus already-emitted output is prefull-ed again.
  FreeSequence(seq);
  seq->prefill_len = seq->request.history_len + seq->request.new_prompt_len +
                     seq->generated;
  ++seq->preemptions;
  ++stats_.preemptions;
  waiting_.push_front(std::move(*seq));
}

RequestOutcome StatelessEngine::MakeOutcome(const Sequence& seq,
                                            double finish_time) const {
  RequestOutcome outcome;
  outcome.request = seq.request;
  outcome.first_scheduled_time = seq.first_scheduled_time;
  outcome.finish_time = finish_time;
  outcome.prefill_input_tokens = seq.request.history_len + seq.request.new_prompt_len;
  outcome.recomputed_tokens = seq.request.history_len;  // stateless: all history
  outcome.generated_tokens = seq.generated;
  outcome.suspensions = seq.preemptions;
  return outcome;
}

EngineLoad StatelessEngine::Load() const {
  EngineLoad load;
  load.waiting_requests = static_cast<int64_t>(waiting_.size());
  load.running_requests = static_cast<int64_t>(running_.size());
  for (const Sequence& seq : waiting_) {
    load.queued_input_tokens += seq.prefill_len;
    load.outstanding_output_tokens += seq.request.target_output_len - seq.generated;
  }
  for (const Sequence& seq : running_) {
    load.outstanding_output_tokens += seq.request.target_output_len - seq.generated;
  }
  return load;
}

StepResult StatelessEngine::Step(double now) {
  StepResult result;

  // --- Phase selection: prefill has priority (vLLM scheduler) -------------
  std::vector<size_t> admitted;
  int64_t batch_tokens = 0;
  while (!waiting_.empty()) {
    Sequence& cand = waiting_.front();
    if (static_cast<int64_t>(running_.size() + admitted.size()) >=
        options_.max_running) {
      break;
    }
    if (ExceedsGpu(cand.prefill_len)) {
      // Left at the head of the queue it would block every later request.
      ++stats_.context_capped_requests;
      result.finished.push_back(MakeOutcome(cand, now));
      waiting_.pop_front();
      continue;
    }
    if (batch_tokens + cand.prefill_len > options_.max_batch_tokens &&
        !admitted.empty()) {
      break;
    }
    // Admission requires room for the whole prompt's pages.
    if (BlocksForTokens(cand.prefill_len) > allocator_.num_free()) {
      break;
    }
    Sequence seq = std::move(waiting_.front());
    waiting_.pop_front();
    PENSIEVE_CHECK(GrowTo(&seq, seq.prefill_len));
    if (seq.first_scheduled_time < 0) {
      seq.first_scheduled_time = now;
    }
    batch_tokens += seq.prefill_len;
    running_.push_back(std::move(seq));
    admitted.push_back(running_.size() - 1);
    // A very long prompt may exceed the token budget on its own; it is
    // admitted alone (checked above via !admitted.empty()).
    if (batch_tokens >= options_.max_batch_tokens) {
      break;
    }
  }

  std::vector<GpuCostModel::BatchItem> items;
  if (!admitted.empty()) {
    // Prefill-only step (baselines batch the two phases separately). The
    // prefill also produces each sequence's first output token.
    items.reserve(admitted.size());
    for (size_t idx : admitted) {
      Sequence& seq = running_[idx];
      items.push_back({seq.prefill_len, seq.context_len});
      stats_.prefill_tokens += seq.prefill_len;
      stats_.recomputed_history_tokens += seq.request.history_len;
    }
  } else {
    if (running_.empty()) {
      // A step that only context-capped queued requests still hands them
      // back.
      result.idle = result.finished.empty();
      return result;
    }
    // Decode step: one token per running sequence. Grow pages first; on
    // exhaustion, preempt the latest-arrived sequence and retry.
    for (size_t i = 0; i < running_.size();) {
      Sequence& seq = running_[i];
      if (GrowTo(&seq, seq.context_len + 1)) {
        ++i;
        continue;
      }
      // Preempt the most recently arrived running sequence.
      size_t victim = 0;
      for (size_t j = 1; j < running_.size(); ++j) {
        if (running_[j].request.arrival_time >
            running_[victim].request.arrival_time) {
          victim = j;
        }
      }
      Sequence victim_seq = std::move(running_[victim]);
      running_.erase(running_.begin() + static_cast<int64_t>(victim));
      Preempt(&victim_seq);
      if (victim <= i && i > 0) {
        --i;  // indices shifted left
      }
      if (running_.empty()) {
        result.idle = result.finished.empty();
        return result;
      }
    }
    items.reserve(running_.size());
    for (Sequence& seq : running_) {
      items.push_back({1, seq.context_len});
    }
  }

  const double duration = UnifiedStepTime(cost_model_, items, options_.dense_speedup);
  result.duration = duration;
  result.batch_requests = static_cast<int64_t>(items.size());
  for (const GpuCostModel::BatchItem& item : items) {
    result.batch_tokens += item.query_len;
  }
  ++stats_.steps;
  stats_.busy_seconds += duration;

  // Every sequence that computed this step emits one token.
  const double finish_time = now + duration;
  std::vector<Sequence> still_running;
  still_running.reserve(running_.size());
  const bool prefill_step = !admitted.empty();
  for (size_t i = 0; i < running_.size(); ++i) {
    Sequence& seq = running_[i];
    const bool computed =
        !prefill_step || std::find(admitted.begin(), admitted.end(), i) != admitted.end();
    if (!computed) {
      still_running.push_back(std::move(seq));
      continue;
    }
    ++seq.generated;
    ++stats_.generated_tokens;
    // The next decode step grows the KV by one token.
    const bool context_capped = ExceedsGpu(seq.context_len + 1);
    if (context_capped && seq.generated < seq.request.target_output_len) {
      ++stats_.context_capped_requests;
    }
    if (seq.generated >= seq.request.target_output_len || context_capped) {
      FreeSequence(&seq);  // stateless: release everything at finish
      result.finished.push_back(MakeOutcome(seq, finish_time));
    } else {
      still_running.push_back(std::move(seq));
    }
  }
  running_ = std::move(still_running);
  return result;
}

}  // namespace pensieve
