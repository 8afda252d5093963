#include "src/cluster/replica.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/common/logging.h"

namespace pensieve {

namespace {

// Prefill-equivalent cost of a delivery still in flight: the new prompt plus
// whatever history the migrated payload does not already carry. State-only
// deliveries enqueue nothing, so they cost nothing.
int64_t DeliveryLoadTokens(const Replica::Delivery& d) {
  if (d.state_only) {
    return 0;
  }
  return d.request.new_prompt_len +
         std::max<int64_t>(0, d.request.history_len - d.migrated.resident_tokens);
}

}  // namespace

Replica::Replica(int32_t id, std::unique_ptr<Engine> engine)
    : id_(id), engine_(std::move(engine)) {
  PENSIEVE_CHECK(engine_ != nullptr);
  engine_name_ = engine_->name();
}

EngineStats Replica::stats() const {
  EngineStats combined = retired_stats_;
  if (engine_ != nullptr) {
    combined += engine_->stats();
  }
  return combined;
}

Replica::Drained Replica::Drain(double now, DrainMode mode) {
  PENSIEVE_CHECK(alive()) << "drain of dead replica " << id_;
  clock_.AdvanceTo(std::max(clock_.now(), now));
  Drained drained;

  // A KV-only payload has no request to re-home: a quarantined replica
  // keeps it, otherwise it stays behind and the conversation recomputes
  // wherever its next turn lands. A live drain keeps each delivery's
  // original arrival time; the driver re-routes at max(now, d.time).
  std::vector<Delivery> keep;
  while (!pending_.empty()) {
    Delivery d = pending_.top();
    pending_.pop();
    if (d.state_only) {
      if (mode == DrainMode::kQuarantine) {
        keep.push_back(std::move(d));
      } else {
        drained.left_kv_tokens += d.migrated.resident_tokens;
      }
      continue;
    }
    if (mode == DrainMode::kCrash) {
      drained.left_kv_tokens += d.migrated.resident_tokens;
      d.migrated = MigratedKvState{};
      d.migration_stall = 0.0;
      d.time = now;
    }
    drained.deliveries.push_back(std::move(d));
  }
  pending_request_tokens_ = 0;
  for (Delivery& d : keep) {
    Deliver(std::move(d));
  }

  DrainedWork work = mode == DrainMode::kCrash ? engine_->DrainUnfinished()
                                               : engine_->DrainForRehome();
  drained.lost_generated_tokens = work.lost_generated_tokens;
  for (Request& req : work.requests) {
    Delivery d;
    d.time = now;
    d.request = req;
    drained.deliveries.push_back(std::move(d));
  }
  // Re-route in arrival order regardless of whether the request was still in
  // transit or already queued/running.
  std::sort(drained.deliveries.begin(), drained.deliveries.end(),
            [](const Delivery& a, const Delivery& b) {
              return a.request.request_id < b.request.request_id;
            });
  stalled_ = false;
  return drained;
}

void Replica::Dormant() {
  PENSIEVE_CHECK(alive());
  PENSIEVE_CHECK(pending_.empty())
      << "replica " << id_ << " made dormant with deliveries pending";
  PENSIEVE_CHECK(!engine_->HasWork())
      << "replica " << id_ << " made dormant with work enqueued";
  engine_.reset();
}

int64_t Replica::Retire() {
  PENSIEVE_CHECK(alive()) << "retiring dead replica " << id_;
  PENSIEVE_CHECK(pending_.empty() && !engine_->HasWork())
      << "replica " << id_ << " retired undrained";
  const int64_t cached = engine_->TotalCachedTokens();
  retired_stats_ += engine_->stats();
  engine_.reset();
  return cached;
}

void Replica::Recover(std::unique_ptr<Engine> engine, double now) {
  PENSIEVE_CHECK(!alive()) << "replica " << id_ << " recovered while alive";
  PENSIEVE_CHECK(engine != nullptr);
  engine_ = std::move(engine);
  engine_name_ = engine_->name();
  clock_.AdvanceTo(std::max(clock_.now(), now));
  stalled_ = false;
}

void Replica::Deliver(Delivery delivery) {
  // delivery.time may lie in this replica's past (it stepped beyond the
  // arrival while busy); DeliverDue then enqueues at the local clock, exactly
  // as the single-engine driver enqueues overdue arrivals at now().
  PENSIEVE_CHECK(alive()) << "delivery routed to dead replica " << id_;
  delivery.seq = next_delivery_seq_++;
  pending_request_tokens_ += DeliveryLoadTokens(delivery);
  pending_.push(std::move(delivery));
}

double Replica::NextEventTime() const {
  if (!alive()) {
    // A dead replica does nothing until the driver delivers a recovery.
    return std::numeric_limits<double>::infinity();
  }
  if (engine_->HasWork() && !stalled_) {
    return clock_.now();
  }
  if (!pending_.empty()) {
    return std::max(clock_.now(), pending_.top().time);
  }
  return std::numeric_limits<double>::infinity();
}

void Replica::DeliverDue() {
  while (!pending_.empty() && pending_.top().time <= clock_.now()) {
    const Delivery d = pending_.top();
    pending_.pop();
    pending_request_tokens_ -= DeliveryLoadTokens(d);
    if (!d.migrated.Empty()) {
      engine_->ImportConversationState(d.request.conversation_id, d.migrated,
                                       clock_.now());
    }
    migration_stall_seconds_ += d.migration_stall;
    if (d.state_only) {
      continue;  // KV placement only, nothing to enqueue
    }
    engine_->Enqueue(d.request, clock_.now());
    stalled_ = false;
  }
}

Replica::StepOutcome Replica::StepOnce(
    std::vector<ClusterStepTraceEntry>* step_trace) {
  PENSIEVE_CHECK(alive());
  StepOutcome out;
  if (!engine_->HasWork() || stalled_) {
    // Nothing runnable right now: jump to the next delivery. The driver only
    // calls us when NextEventTime() is finite, so a delivery must exist.
    PENSIEVE_CHECK(!pending_.empty());
    clock_.AdvanceTo(std::max(clock_.now(), pending_.top().time));
  }
  DeliverDue();
  if (!engine_->HasWork()) {
    // Everything due was state-only KV placement; nothing to step.
    return out;
  }

  const double step_start = clock_.now();
  StepResult result = engine_->Step(step_start);
  if (result.idle) {
    // Work is queued but not runnable (e.g. waiting on admission that a
    // future arrival unblocks). Mirror the single driver: skip ahead to the
    // next delivery, or mark the replica stalled so the cluster driver can
    // detect a wedged run.
    if (!pending_.empty()) {
      clock_.AdvanceTo(std::max(clock_.now(), pending_.top().time));
    } else {
      stalled_ = true;
    }
    return out;
  }
  clock_.Advance(result.duration);

  if (step_trace != nullptr) {
    ClusterStepTraceEntry entry;
    entry.replica_id = id_;
    entry.step = StepTraceEntry{step_start, result.duration,
                                result.batch_requests, result.batch_tokens,
                                static_cast<int64_t>(result.finished.size())};
    step_trace->push_back(entry);
  }
  for (const RequestOutcome& outcome : result.finished) {
    if (outcome.request.prefill_only || outcome.request.handoff_continuation) {
      // Half of a disaggregated handoff: the driver merges both sides and
      // records the end-to-end outcome via RecordOutcome.
      continue;
    }
    metrics_.Record(outcome);
    last_finish_time_ = std::max(last_finish_time_, outcome.finish_time);
  }
  out.progressed = true;
  out.result = std::move(result);
  return out;
}

void Replica::RecordOutcome(const RequestOutcome& outcome) {
  metrics_.Record(outcome);
  last_finish_time_ = std::max(last_finish_time_, outcome.finish_time);
}

}  // namespace pensieve
