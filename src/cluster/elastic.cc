#include "src/cluster/elastic.h"

#include <cstdio>

#include "src/common/logging.h"

namespace pensieve {

const char* ReplicaHealthName(ReplicaHealth health) {
  switch (health) {
    case ReplicaHealth::kHealthy:
      return "healthy";
    case ReplicaHealth::kSuspect:
      return "suspect";
    case ReplicaHealth::kQuarantined:
      return "quarantined";
  }
  return "?";
}

HealthMonitor::HealthMonitor(int32_t num_replicas,
                             const HealthOptions& options)
    : options_(options), slots_(static_cast<size_t>(num_replicas)) {
  if (options_.enabled) {
    PENSIEVE_CHECK_GT(options_.probe_interval, 0.0);
    PENSIEVE_CHECK_GE(options_.suspect_after, 1);
    PENSIEVE_CHECK_GE(options_.quarantine_after, options_.suspect_after);
    PENSIEVE_CHECK_GE(options_.healthy_after, 1);
  }
  for (const SickWindow& w : options_.sick) {
    PENSIEVE_CHECK_GE(w.replica_id, 0);
    PENSIEVE_CHECK_LT(w.replica_id, num_replicas);
    PENSIEVE_CHECK_LE(w.begin, w.end);
  }
}

bool HealthMonitor::InSickWindow(int32_t replica, double now) const {
  for (const SickWindow& w : options_.sick) {
    if (w.replica_id == replica && now >= w.begin && now < w.end) {
      return true;
    }
  }
  return false;
}

HealthMonitor::Transition HealthMonitor::RecordProbe(int32_t replica,
                                                     bool ok) {
  Slot& slot = slots_[static_cast<size_t>(replica)];
  ++stats_.probes_sent;
  if (ok) {
    ++stats_.probes_ok;
    slot.consecutive_failures = 0;
    ++slot.consecutive_successes;
    if (slot.health == ReplicaHealth::kQuarantined &&
        slot.consecutive_successes >= options_.healthy_after) {
      slot.health = ReplicaHealth::kHealthy;
      slot.consecutive_successes = 0;
      ++stats_.reinstatements;
      return Transition::kReinstate;
    }
    if (slot.health == ReplicaHealth::kSuspect &&
        slot.consecutive_successes >= options_.healthy_after) {
      // A suspect never left the dispatch set; it recovers silently.
      slot.health = ReplicaHealth::kHealthy;
      slot.consecutive_successes = 0;
    }
    return Transition::kNone;
  }
  ++stats_.probes_failed;
  slot.consecutive_successes = 0;
  ++slot.consecutive_failures;
  if (slot.health != ReplicaHealth::kQuarantined &&
      slot.consecutive_failures >= options_.quarantine_after) {
    slot.health = ReplicaHealth::kQuarantined;
    ++stats_.quarantines;
    return Transition::kQuarantine;
  }
  if (slot.health == ReplicaHealth::kHealthy &&
      slot.consecutive_failures >= options_.suspect_after) {
    slot.health = ReplicaHealth::kSuspect;
    ++stats_.suspects;
    return Transition::kSuspect;
  }
  return Transition::kNone;
}

void HealthMonitor::Reset(int32_t replica) {
  slots_[static_cast<size_t>(replica)] = Slot{};
}

ReplicaHealth HealthMonitor::health(int32_t replica) const {
  return slots_[static_cast<size_t>(replica)].health;
}

Autoscaler::Autoscaler(const AutoscaleOptions& options) : options_(options) {
  if (options_.enabled) {
    PENSIEVE_CHECK_GE(options_.min_replicas, 1);
    PENSIEVE_CHECK_GE(options_.max_replicas, options_.min_replicas);
    PENSIEVE_CHECK_GT(options_.check_interval, 0.0);
    PENSIEVE_CHECK_GE(options_.cooldown, 0.0);
    PENSIEVE_CHECK_GT(options_.up_queue_tokens, options_.down_queue_tokens)
        << "autoscale thresholds need a hysteresis band";
  }
}

Autoscaler::Decision Autoscaler::Decide(double now,
                                        int64_t total_weighted_tokens,
                                        int32_t active_replicas) const {
  if (!options_.enabled || active_replicas <= 0) {
    return Decision::kHold;
  }
  if (now - last_scale_time_ < options_.cooldown) {
    return Decision::kHold;
  }
  const int64_t per_replica =
      total_weighted_tokens / static_cast<int64_t>(active_replicas);
  if (per_replica > options_.up_queue_tokens &&
      active_replicas < options_.max_replicas) {
    return Decision::kUp;
  }
  if (per_replica < options_.down_queue_tokens &&
      active_replicas > options_.min_replicas) {
    return Decision::kDown;
  }
  return Decision::kHold;
}

std::string FormatElasticSummary(const ElasticStats& stats) {
  std::string out;
  char buf[512];
  const HealthStats& h = stats.health;
  if (h.probes_sent > 0) {
    std::snprintf(buf, sizeof(buf),
                  "health-probes:     %lld sent (%lld ok, %lld failed), "
                  "%lld suspects\n",
                  static_cast<long long>(h.probes_sent),
                  static_cast<long long>(h.probes_ok),
                  static_cast<long long>(h.probes_failed),
                  static_cast<long long>(h.suspects));
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "quarantines:       %lld (%lld reinstated), %lld requests + "
                  "%lld KV tokens drained, %lld streams voided\n",
                  static_cast<long long>(h.quarantines),
                  static_cast<long long>(h.reinstatements),
                  static_cast<long long>(h.drained_requests),
                  static_cast<long long>(h.drained_kv_tokens),
                  static_cast<long long>(h.voided_streams));
    out += buf;
  }
  const AutoscaleStats& a = stats.autoscale;
  if (a.scale_ups > 0 || a.scale_downs > 0 || !a.events.empty()) {
    std::snprintf(buf, sizeof(buf),
                  "scale-events:      %lld up, %lld down (active %d..%d), "
                  "%lld requests + %lld KV tokens drained, %lld idle KV "
                  "released\n",
                  static_cast<long long>(a.scale_ups),
                  static_cast<long long>(a.scale_downs),
                  a.min_active_replicas, a.peak_active_replicas,
                  static_cast<long long>(a.drained_requests),
                  static_cast<long long>(a.drained_kv_tokens),
                  static_cast<long long>(a.released_kv_tokens));
    out += buf;
  }
  return out;
}

}  // namespace pensieve
