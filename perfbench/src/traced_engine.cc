#include "perfbench/src/traced_engine.h"

#include <utility>

namespace perfbench {

using pensieve::EngineStats;

namespace {

// KV leaving GPU residency: ahead-of-time and forced swap-outs, drops, and
// flash-tier demotions and evictions.
int64_t EvictionCounter(const EngineStats& s) {
  return s.aot_swap_out_tokens + s.forced_swap_out_tokens + s.dropped_tokens +
         s.ssd_demoted_chunks + s.ssd_evicted_chunks;
}

double Seconds(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

}  // namespace

TracedEngine::TracedEngine(std::unique_ptr<pensieve::Engine> inner,
                           int32_t replica_id, SpanTrace* trace,
                           int32_t run_span, EngineCallTimes* times)
    : inner_(std::move(inner)),
      replica_id_(replica_id),
      trace_(trace),
      run_span_(run_span),
      times_(times) {}

void TracedEngine::Enqueue(const pensieve::Request& request, double now) {
  const Clock::time_point start = Clock::now();
  inner_->Enqueue(request, now);
  const Clock::time_point end = Clock::now();
  times_->enqueue_s += Seconds(start, end);
  ids_.assign(1, request.request_id);
  trace_->Add("engine.enqueue", start, end, run_span_, replica_id_, ids_);
}

pensieve::StepResult TracedEngine::Step(double now) {
  const int64_t evicted_before = EvictionCounter(inner_->stats());
  const Clock::time_point start = Clock::now();
  pensieve::StepResult result = inner_->Step(now);
  const Clock::time_point end = Clock::now();
  const bool evicting = EvictionCounter(inner_->stats()) != evicted_before;
  const double seconds = Seconds(start, end);
  ++times_->step_calls;
  times_->step_s += seconds;
  times_->step_us.push_back(seconds * 1e6);
  if (evicting) {
    ++times_->evict_steps;
    times_->evict_step_s += seconds;
  }
  if (!result.idle) {
    ++times_->busy_steps;
    times_->batch_tokens += result.batch_tokens;
    times_->batch_requests += result.batch_requests;
  }
  ids_.clear();
  for (const pensieve::RequestOutcome& o : result.finished) {
    ids_.push_back(o.request.request_id);
  }
  trace_->Add(evicting ? "engine.step.evicting" : "engine.step", start, end,
              run_span_, replica_id_, ids_);
  return result;
}

pensieve::EngineLoad TracedEngine::Load() const {
  const Clock::time_point start = Clock::now();
  pensieve::EngineLoad load = inner_->Load();
  const Clock::time_point end = Clock::now();
  ++times_->load_calls;
  times_->load_s += Seconds(start, end);
  trace_->Add("engine.load", start, end, run_span_, replica_id_);
  return load;
}

int64_t TracedEngine::CachedConversationTokens(int64_t conversation_id) const {
  const Clock::time_point start = Clock::now();
  const int64_t tokens = inner_->CachedConversationTokens(conversation_id);
  times_->query_s += Seconds(start, Clock::now());
  return tokens;
}

void TracedEngine::RecordMigration(const char* span_name,
                                   Clock::time_point start,
                                   int64_t conversation_id) const {
  const Clock::time_point end = Clock::now();
  times_->migration_s += Seconds(start, end);
  // Migration spans carry the conversation id in place of request ids.
  trace_->Add(span_name, start, end, run_span_, replica_id_,
              {conversation_id});
}

pensieve::MigratedKvState TracedEngine::ExportConversationState(
    int64_t conversation_id) {
  const Clock::time_point start = Clock::now();
  pensieve::MigratedKvState state =
      inner_->ExportConversationState(conversation_id);
  RecordMigration("engine.migrate.export", start, conversation_id);
  return state;
}

int64_t TracedEngine::ImportConversationState(
    int64_t conversation_id, const pensieve::MigratedKvState& state,
    double now) {
  const Clock::time_point start = Clock::now();
  const int64_t adopted =
      inner_->ImportConversationState(conversation_id, state, now);
  RecordMigration("engine.migrate.import", start, conversation_id);
  return adopted;
}

pensieve::DrainedWork TracedEngine::DrainUnfinished() {
  return inner_->DrainUnfinished();
}

pensieve::DrainedWork TracedEngine::DrainForRehome() {
  return inner_->DrainForRehome();
}

std::vector<pensieve::PeerSpillOffer> TracedEngine::TakePeerSpillOffers() {
  const Clock::time_point start = Clock::now();
  std::vector<pensieve::PeerSpillOffer> offers = inner_->TakePeerSpillOffers();
  times_->query_s += Seconds(start, Clock::now());
  return offers;
}

int64_t TracedEngine::IdleCpuCacheTokens() const {
  return inner_->IdleCpuCacheTokens();
}

int64_t TracedEngine::ReserveForeignCpuTokens(int64_t tokens) {
  return inner_->ReserveForeignCpuTokens(tokens);
}

void TracedEngine::ReleaseForeignCpuTokens(int64_t tokens) {
  inner_->ReleaseForeignCpuTokens(tokens);
}

int64_t TracedEngine::AcceptPeerPrefix(int64_t conversation_id,
                                       int64_t first_token, int64_t last_token,
                                       int64_t kv_len_hint, double now) {
  const Clock::time_point start = Clock::now();
  const int64_t adopted = inner_->AcceptPeerPrefix(
      conversation_id, first_token, last_token, kv_len_hint, now);
  RecordMigration("engine.migrate.peer_prefix", start, conversation_id);
  return adopted;
}

int64_t TracedEngine::TotalCachedTokens() const {
  const Clock::time_point start = Clock::now();
  const int64_t tokens = inner_->TotalCachedTokens();
  times_->query_s += Seconds(start, Clock::now());
  return tokens;
}

}  // namespace perfbench
