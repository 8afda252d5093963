// One stateful serving replica inside a cluster.
//
// A replica owns an engine plus its own virtual clock; the cluster driver
// interleaves replicas in global time order, so each replica advances
// independently exactly as the single-engine driver would have advanced it.
// Routed requests arrive as Deliveries: a delivery carries the request, an
// optional migrated KV payload (imported just before the request is
// enqueued), and the stall the request paid waiting for that payload to
// cross the inter-replica link.

#ifndef PENSIEVE_SRC_CLUSTER_REPLICA_H_
#define PENSIEVE_SRC_CLUSTER_REPLICA_H_

#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "src/cluster/cluster_metrics.h"
#include "src/scheduler/request.h"
#include "src/serving/engine.h"
#include "src/serving/metrics.h"
#include "src/sim/virtual_clock.h"

namespace pensieve {

class Replica {
 public:
  struct Delivery {
    double time = 0.0;  // when the request reaches the replica's queue
    Request request;
    MigratedKvState migrated;  // adopted right before Enqueue (may be empty)
    double migration_stall = 0.0;
    // KV-only delivery (DESIGN.md §13): a handoff stream for a request that
    // finished entirely on the prefill side. The migrated state is imported
    // but no request is enqueued; if the replica dies first, the payload is
    // lost with it (never re-routed).
    bool state_only = false;
    int64_t seq = 0;  // assigned by Deliver(); FIFO among equal times
  };

  struct StepOutcome {
    bool progressed = false;  // false: the replica only advanced its clock
    StepResult result;
  };

  // Why a replica is drained. Every drain hands back the requests the
  // replica still owed; the mode decides what happens to the KV in transit
  // to it and to its engine's admission state.
  enum class DrainMode {
    kCrash,       // the engine dies next: in-transit KV dies with it
    kRetire,      // scale-down: the engine is retired once its KV is exported
    kQuarantine,  // the replica keeps serving and keeps its KV-only payloads
  };

  // What a drain hands back: the owed requests in request-id order, the
  // decode progress they restart elsewhere, and the in-transit KV left
  // behind (KV-only payloads, and on a crash every migrated payload).
  struct Drained {
    std::vector<Delivery> deliveries;
    int64_t lost_generated_tokens = 0;
    int64_t left_kv_tokens = 0;
  };

  Replica(int32_t id, std::unique_ptr<Engine> engine);

  int32_t id() const { return id_; }
  bool alive() const { return engine_ != nullptr; }
  Engine& engine() { return *engine_; }
  const Engine& engine() const { return *engine_; }
  const std::string& engine_name() const { return engine_name_; }
  double now() const { return clock_.now(); }

  // Combined engine stats across every incarnation of this replica: retired
  // stats from engines destroyed by failures plus the current engine's.
  EngineStats stats() const;

  // Rejoins with a fresh (empty) engine at virtual time `now`.
  void Recover(std::unique_ptr<Engine> engine, double now);

  // The one drain, shared by crash, quarantine and scale-down: takes every
  // pending request off the replica at virtual time `now`, both the
  // undelivered deliveries and the engine's queued/running requests.
  // Deliveries keep their migrated payloads (the driver carries them on)
  // except on a crash. A live drain (kRetire, kQuarantine) unwinds the
  // engine's admission state via DrainForRehome, so its cached KV stays
  // exportable; the engine itself stays up until Retire.
  Drained Drain(double now, DrainMode mode);

  // Initial autoscale slot that never served: drops the engine without
  // retiring stats. Only legal before any work was delivered.
  void Dormant();

  // Destroys the engine of a drained replica, retires its stats and returns
  // the KV tokens its cache still held: lost on a crash, released on
  // scale-down. The replica stops reporting events until Recover.
  int64_t Retire();

  void Deliver(Delivery delivery);

  // Global time at which this replica next does something: now() when it can
  // step immediately, the next delivery time when it is waiting for input,
  // +inf when fully quiescent.
  double NextEventTime() const;

  // Runs one scheduler iteration (or clock advance) at NextEventTime().
  // Appends a replica-tagged entry to `step_trace` when non-null.
  StepOutcome StepOnce(std::vector<ClusterStepTraceEntry>* step_trace);

  const MetricsCollector& metrics() const { return metrics_; }
  double last_finish_time() const { return last_finish_time_; }
  double migration_stall_seconds() const { return migration_stall_seconds_; }

  // Prefill-equivalent tokens of routed-but-undelivered requests sitting in
  // pending_. The engine's Load() cannot see these (they are not enqueued
  // yet), so a router balancing on engine load alone herds a burst onto
  // whichever replica looked idle at the first dispatch. Weighted routing
  // (EngineLoad::WeightedTokens) folds this in via the cluster driver's view
  // snapshot.
  int64_t pending_request_tokens() const { return pending_request_tokens_; }

  // Records a request outcome into this replica's metrics. StepOnce does
  // this itself for ordinary requests; handoff halves (prefill_only /
  // handoff_continuation) are instead returned unrecorded so the cluster
  // driver can merge the two sides and record the single end-to-end outcome
  // here, on the replica that finished the request.
  void RecordOutcome(const RequestOutcome& outcome);

 private:
  void DeliverDue();

  struct DeliveryLater {
    bool operator()(const Delivery& a, const Delivery& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };

  int32_t id_;
  std::unique_ptr<Engine> engine_;  // null while the replica is down
  std::string engine_name_;
  // Stats of engine incarnations destroyed by failures (the work they did
  // before crashing still happened on the simulated hardware).
  EngineStats retired_stats_;
  VirtualClock clock_;
  MetricsCollector metrics_;
  std::priority_queue<Delivery, std::vector<Delivery>, DeliveryLater> pending_;
  int64_t next_delivery_seq_ = 0;
  int64_t pending_request_tokens_ = 0;
  double last_finish_time_ = 0.0;
  double migration_stall_seconds_ = 0.0;
  // Engine reported idle with work queued and nothing pending: it is waiting
  // on an external event (a future delivery), not runnable at now().
  bool stalled_ = false;
};

}  // namespace pensieve

#endif  // PENSIEVE_SRC_CLUSTER_REPLICA_H_
