#include "src/cluster/cluster_driver.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <utility>

#include "src/cluster/replica.h"
#include "src/common/logging.h"
#include "src/serving/experiment_core.h"
#include "src/sim/event_loop.h"
#include "src/sim/kv_stream.h"

namespace pensieve {

namespace {

constexpr double kNever = std::numeric_limits<double>::infinity();

// One prefill->decode KV stream on the NIC (DESIGN.md §13). Indexed by its
// kHandoffArrival event id; the entry outlives the stream so a replica
// failure between launch and arrival can void the payload in place.
struct HandoffStream {
  int64_t conversation_id = 0;
  int32_t src = -1;
  int32_t dst = -1;
  MigratedKvState state;
  Request continuation;
  bool state_only = false;  // nothing left to decode; KV placement only
  bool cancelled = false;   // an endpoint died mid-stream; payload lost
  bool arrived = false;     // the kHandoffArrival event has been processed
};

// Prefill-side half of a handed-off turn, waiting to be merged with the
// decode-side half into one end-to-end outcome. A conversation has at most
// one turn in flight, so at most one chain.
struct HandoffChain {
  Request original;
  RequestOutcome partial;
  bool has_partial = false;
};

// The handed-off half of a turn folded into its merged outcome.
void AddHandoffHalf(const RequestOutcome& half, RequestOutcome* merged) {
  merged->prefill_input_tokens += half.prefill_input_tokens;
  merged->reused_gpu_tokens += half.reused_gpu_tokens;
  merged->reused_cpu_tokens += half.reused_cpu_tokens;
  merged->reused_ssd_tokens += half.reused_ssd_tokens;
  merged->reused_shared_tokens += half.reused_shared_tokens;
  merged->recomputed_tokens += half.recomputed_tokens;
  merged->generated_tokens += half.generated_tokens;
  merged->suspensions += half.suspensions;
}

// KV a dispatched request brings from replica `src`. An arrival passes
// `from_router` instead: when the router re-homes its conversation away from
// a live replica, the cached state there is exported after routing and
// carried the same way.
struct KvCarry {
  int32_t src = -1;
  MigratedKvState state;
  bool from_router = false;

  static KvCarry FromRouter() {
    KvCarry carry;
    carry.from_router = true;
    return carry;
  }
};

}  // namespace

ClusterSummary RunClusterExperiment(const ReplicaEngineFactory& make_engine,
                                    const WorkloadTrace& trace,
                                    const ClusterOptions& options) {
  PENSIEVE_CHECK(make_engine != nullptr);
  PENSIEVE_CHECK_GT(options.num_replicas, 0);

  std::vector<Replica> replicas;
  replicas.reserve(static_cast<size_t>(options.num_replicas));
  for (int32_t i = 0; i < options.num_replicas; ++i) {
    replicas.emplace_back(i, make_engine(i));
  }
  std::unique_ptr<Router> router;
  if (options.disagg.enabled) {
    PENSIEVE_CHECK_GE(options.num_replicas, 2)
        << "disaggregation needs at least one prefill and one decode replica";
    DisaggRouterConfig config;
    config.prefill_replicas = options.disagg.prefill_replicas;
    config.min_handoff_tokens = options.disagg.min_handoff_tokens;
    router = MakeDisaggRouter(config);
  } else {
    router = MakeRouter(options.router);
  }
  ClusterInterconnect interconnect(options.num_replicas, options.interconnect);
  LinkFaultInjector nic_faults(options.fault_seed, options.nic_fault_profile,
                               options.fault_retry);

  // --- Elastic replica set (DESIGN.md §14) --------------------------------
  const ElasticOptions& elastic = options.elastic;
  HealthMonitor health(options.num_replicas, elastic.health);
  Autoscaler scaler(elastic.autoscale);
  // Probes are control-plane traffic: they share the NIC's latency/bandwidth
  // figures but never occupy data ports, and each probe gets exactly one
  // attempt (the next round is the retry). The injector seed mixes the
  // cluster fault seed with a probe salt so arming probes never perturbs the
  // data-plane fault draw sequence.
  LinkRetryPolicy probe_retry;
  probe_retry.max_attempts = 1;
  LinkFaultInjector probe_faults(options.fault_seed ^ elastic.health.probe_seed,
                                 elastic.health.probe_faults, probe_retry);
  // Active set membership (autoscaling). Inactive slots hold no engine; a
  // scale-up recovers the lowest inactive slot with a fresh engine.
  std::vector<bool> active(replicas.size(), true);
  AutoscaleStats autoscale_stats;
  if (elastic.autoscale.enabled) {
    PENSIEVE_CHECK(!options.disagg.enabled)
        << "autoscaling is incompatible with disaggregated prefill (the "
           "prefill/decode pools are statically partitioned)";
    PENSIEVE_CHECK_LE(elastic.autoscale.max_replicas, options.num_replicas);
    for (int32_t i = elastic.autoscale.min_replicas; i < options.num_replicas;
         ++i) {
      replicas[static_cast<size_t>(i)].Dormant();
      active[static_cast<size_t>(i)] = false;
      router->NotifyReplicaDown(i);
    }
  }
  auto dispatchable = [&](int32_t i) {
    return replicas[static_cast<size_t>(i)].alive() &&
           active[static_cast<size_t>(i)] && !health.Quarantined(i);
  };
  auto active_alive_count = [&]() {
    int32_t n = 0;
    for (size_t i = 0; i < replicas.size(); ++i) {
      if (active[i] && replicas[i].alive()) {
        ++n;
      }
    }
    return n;
  };
  autoscale_stats.peak_active_replicas = active_alive_count();
  autoscale_stats.min_active_replicas = autoscale_stats.peak_active_replicas;

  // One typed event queue drives the run: arrivals and scheduled faults pop
  // in deterministic order (arrival < fail < recover on time ties), and
  // replica steps rank after all of them so routers always see fresh state.
  EventQueue events;
  ArrivalProcess arrivals(trace, &events);
  for (const ReplicaFault& fault : options.faults) {
    PENSIEVE_CHECK_GE(fault.replica_id, 0);
    PENSIEVE_CHECK_LT(fault.replica_id, options.num_replicas);
    PENSIEVE_CHECK_GE(fault.time, 0.0);
    SimEvent event;
    event.time = fault.time;
    event.kind = fault.recover ? SimEventKind::kReplicaRecover
                               : SimEventKind::kReplicaFail;
    event.id = fault.replica_id;
    events.Push(event);
  }

  int64_t total_steps = 0;
  MigrationStats migration;
  FaultStats faults;
  // Requests with no alive replica to run on; flushed at the next recovery.
  std::vector<Request> orphans;
  HandoffStats handoff;
  // Prefill-side halves waiting for their decode halves, by conversation.
  std::unordered_map<int64_t, HandoffChain> chains;
  // Every KV stream launched this run; kHandoffArrival events index this.
  std::vector<HandoffStream> streams;

  std::vector<ReplicaView> views(replicas.size());
  auto snapshot_views = [&]() {
    bool any_dispatchable = false;
    for (size_t i = 0; i < replicas.size(); ++i) {
      views[i].alive = replicas[i].alive();
      views[i].engine = views[i].alive ? &replicas[i].engine() : nullptr;
      views[i].load = views[i].alive ? replicas[i].engine().Load() : EngineLoad{};
      // Routed-but-undelivered work is invisible to the engine; without it a
      // burst dispatched between replica steps sees every load as zero and
      // herds. Folded into the weighted term only, so unweighted
      // (session-affinity / --disagg=off) decisions are untouched.
      views[i].load.queued_uncached_prefill_tokens +=
          replicas[i].pending_request_tokens();
      views[i].dispatchable = dispatchable(static_cast<int32_t>(i));
      any_dispatchable = any_dispatchable || views[i].dispatchable;
    }
    if (!any_dispatchable) {
      // Emergency: every alive replica is quarantined (or inactive). Routing
      // to a sick replica beats orphaning the request — quarantine is a
      // suspicion, not a death certificate.
      for (size_t i = 0; i < replicas.size(); ++i) {
        views[i].dispatchable = views[i].alive;
      }
    }
  };
  auto any_alive = [&]() {
    for (const Replica& r : replicas) {
      if (r.alive()) {
        return true;
      }
    }
    return false;
  };

  // Snapshots the replica views and asks the router where `req` runs.
  auto route = [&](const Request& req) {
    snapshot_views();
    const RoutingDecision decision = router->Route(req, views);
    PENSIEVE_CHECK_GE(decision.target, 0);
    PENSIEVE_CHECK_LT(decision.target, static_cast<int32_t>(replicas.size()));
    PENSIEVE_CHECK(views[static_cast<size_t>(decision.target)].alive)
        << router->name() << " routed request " << req.request_id
        << " to dead replica " << decision.target;
    return decision;
  };

  // The one KV-loss bookkeeping step: a payload lost in transit or with a
  // dead endpoint is charged to faults.lost_kv_tokens and, when given, to
  // the losing path's failure and token counters, then zeroed in place. The
  // conversation still reaches its new home, with bookkeeping only, and its
  // history recomputes there through the dropped-prefix path.
  auto lose_kv = [&](MigratedKvState& state, int64_t* failures,
                     int64_t* lost_tokens) {
    if (failures != nullptr) {
      ++*failures;
    }
    if (lost_tokens != nullptr) {
      *lost_tokens += state.resident_tokens;
    }
    faults.lost_kv_tokens += state.resident_tokens;
    state.resident_tokens = 0;
    state.bytes = 0.0;
  };

  // The one dispatch step (DESIGN.md §6): routes `req` at virtual time `now`
  // and delivers it to the chosen replica, or orphans it while no replica is
  // alive. A carried payload crosses the NIC from `carry.src` unless the
  // request lands back there; the request cannot start before its KV lands
  // (or the transfer is abandoned: either way it waits out every attempt).
  // `landed_tokens`, when given, accumulates the carried tokens that arrive.
  auto dispatch = [&](const Request& req, double now, KvCarry carry,
                      int64_t* landed_tokens = nullptr) {
    if (!any_alive()) {
      orphans.push_back(req);
      ++faults.orphaned_requests;
      return;
    }
    const RoutingDecision decision = route(req);
    Replica::Delivery delivery;
    delivery.time = now;
    delivery.request = req;
    if (options.disagg.enabled && !req.handoff_continuation) {
      // The router decides afresh at every dispatch (including crash
      // re-drains) whether this turn prefills remotely or runs colocated.
      delivery.request.prefill_only = decision.prefill_handoff;
      if (decision.prefill_handoff) {
        ++handoff.handoff_requests;
        // (Re)arm the merge chain. A conversation has at most one turn in
        // flight, so any existing chain belongs to an earlier incarnation
        // of this same turn (its prefill replica crashed before finishing).
        HandoffChain& chain = chains[req.conversation_id];
        if (!chain.has_partial) {
          chain.original = req;
          chain.original.prefill_only = false;
          chain.partial = RequestOutcome{};
          chain.partial.request = chain.original;
        }
      } else {
        ++handoff.colocated_requests;
      }
    }
    if (carry.from_router && decision.migrate && decision.source >= 0 &&
        decision.source != decision.target &&
        replicas[static_cast<size_t>(decision.source)].alive()) {
      carry.src = decision.source;
      Engine& source = replicas[static_cast<size_t>(carry.src)].engine();
      carry.state = source.ExportConversationState(req.conversation_id);
    }
    if (carry.state.resident_tokens > 0 && decision.target != carry.src) {
      const LinkTransferOutcome out = nic_faults.Transfer(
          now, carry.state.bytes, [&](double start, double bytes) {
            return interconnect.ScheduleTransfer(carry.src, decision.target,
                                                 start, bytes);
          });
      delivery.time = out.done;
      delivery.migration_stall = out.done - now;
      ++migration.migrations;
      migration.migration_stall_seconds += delivery.migration_stall;
      if (out.delivered) {
        migration.migrated_bytes += carry.state.bytes;
        if (landed_tokens != nullptr) {
          *landed_tokens += carry.state.resident_tokens;
        }
      } else {
        lose_kv(carry.state, &migration.failed_migrations,
                &migration.kv_tokens_lost_in_transit);
      }
    }
    delivery.migrated = carry.state;
    replicas[static_cast<size_t>(decision.target)].Deliver(std::move(delivery));
  };

  // The one re-homing path, shared by crash, quarantine and scale-down:
  // drains replica `id` and dispatches everything it owed, each request at
  // max(now, its delivery time). While `id` is alive a request carries its
  // KV from there: an in-flight migrated payload as is, otherwise the
  // conversation's cached state exported from `id`. Under disaggregation a
  // request instead re-runs the handoff chain logic without a carry, its
  // in-flight payload lost, as on the crash path. A crashed engine dies
  // before anything re-routes; a retiring one only after every export.
  // `landed_tokens` accumulates the carried tokens that reached a new home.
  auto rehome = [&](int32_t id, double now, Replica::DrainMode mode,
                    int64_t* landed_tokens) {
    Replica& src = replicas[static_cast<size_t>(id)];
    Replica::Drained drained = src.Drain(now, mode);
    if (mode == Replica::DrainMode::kCrash) {
      drained.left_kv_tokens += src.Retire();
    }
    for (Replica::Delivery& d : drained.deliveries) {
      KvCarry carry;
      if (options.disagg.enabled) {
        lose_kv(d.migrated, nullptr, nullptr);
      } else if (src.alive()) {
        carry.src = id;
        carry.state = d.migrated;
        if (carry.state.Empty()) {
          carry.state =
              src.engine().ExportConversationState(d.request.conversation_id);
          // A request drained mid-decode leaves KV for the tokens it had
          // already generated this turn. That progress restarts from
          // scratch at the new home (it is in lost_generated_tokens), so
          // the trailing decode KV must not travel: the import would
          // otherwise cover more raw history than the restarted request has.
          MigratedKvState& state = carry.state;
          const int64_t excess = state.kv_len - d.request.history_len;
          if (excess > 0) {
            const int64_t kept =
                std::max<int64_t>(0, state.resident_tokens - excess);
            if (state.resident_tokens > 0) {
              state.bytes *= static_cast<double>(kept) /
                             static_cast<double>(state.resident_tokens);
            }
            state.kv_len = d.request.history_len;
            state.resident_tokens = kept;
          }
        }
      }
      dispatch(d.request, std::max(now, d.time), std::move(carry),
               landed_tokens);
    }
    if (mode == Replica::DrainMode::kRetire) {
      drained.left_kv_tokens += src.Retire();
    }
    return drained;
  };

  // Voids the in-flight KV streams into replica `id`, and out of it when
  // `outbound_too`. The arrival event still fires and delivers (or
  // re-routes) the continuation with bookkeeping only, so the decode side
  // degrades to dropped-prefix recompute instead of dropping the request.
  // Returns the number of streams voided.
  auto void_streams = [&](int32_t id, bool outbound_too) {
    int64_t voided = 0;
    for (HandoffStream& s : streams) {
      if (s.arrived || s.cancelled || s.state.resident_tokens <= 0 ||
          (s.dst != id && !(outbound_too && s.src == id))) {
        continue;
      }
      s.cancelled = true;
      ++voided;
      lose_kv(s.state, &handoff.failed_streams, &handoff.kv_tokens_lost);
    }
    return voided;
  };

  auto handle_fail = [&](const SimEvent& event) {
    const int32_t id = static_cast<int32_t>(event.id);
    if (!replicas[static_cast<size_t>(id)].alive()) {
      PENSIEVE_LOG_WARNING << "fail event for already-dead replica " << id
                           << " at t=" << event.time << "; ignored";
      return;
    }
    // The router forgets the replica first so re-routed (and all future)
    // requests pick an alive home.
    router->NotifyReplicaDown(id);
    // Probe history dies with the replica; it restarts healthy on recovery.
    health.Reset(id);
    const Replica::Drained drained =
        rehome(id, event.time, Replica::DrainMode::kCrash, nullptr);
    ++faults.failures;
    faults.lost_kv_tokens += drained.left_kv_tokens;
    faults.lost_generated_tokens += drained.lost_generated_tokens;
    faults.rerouted_requests += static_cast<int64_t>(drained.deliveries.size());
    // KV streams touching the dead replica die mid-flight.
    void_streams(id, /*outbound_too=*/true);
  };

  // Brings slot `id` back with a fresh, empty engine, in the active set and
  // healthy, and dispatches the requests stranded while no replica could
  // take them.
  auto revive = [&](int32_t id, double now) {
    replicas[static_cast<size_t>(id)].Recover(make_engine(id), now);
    router->NotifyReplicaUp(id);
    health.Reset(id);
    active[static_cast<size_t>(id)] = true;
    std::vector<Request> stranded;
    stranded.swap(orphans);
    for (const Request& req : stranded) {
      dispatch(req, now, KvCarry{});
    }
  };

  auto handle_recover = [&](const SimEvent& event) {
    const int32_t id = static_cast<int32_t>(event.id);
    if (replicas[static_cast<size_t>(id)].alive()) {
      PENSIEVE_LOG_WARNING << "recover event for alive replica " << id
                           << " at t=" << event.time << "; ignored";
      return;
    }
    // A scheduled recovery targeting a dormant/retired slot puts it back in
    // the active set (it is serving now, whatever the autoscaler thinks).
    revive(id, event.time);
    ++faults.recoveries;
  };

  // Quarantine: the replica is alive but failing probes. It leaves the
  // dispatch set, and everything it still owes is proactively re-homed with
  // its KV, so a later hard failure of this replica destroys far less.
  auto quarantine_replica = [&](int32_t id, double now) {
    router->NotifyReplicaDown(id);
    if (!replicas[static_cast<size_t>(id)].alive()) {
      return;  // already down; the failure path drained it
    }
    HealthStats& hs = health.stats();
    const Replica::Drained drained =
        rehome(id, now, Replica::DrainMode::kQuarantine, &hs.drained_kv_tokens);
    hs.drained_requests += static_cast<int64_t>(drained.deliveries.size());
    hs.lost_generated_tokens += drained.lost_generated_tokens;
    // KV streams aimed at the quarantined replica are voided — their payload
    // would land on a sick target. The source side of a stream stays: the
    // quarantined replica is alive and keeps streaming what it already owes.
    hs.voided_streams += void_streams(id, /*outbound_too=*/false);
  };

  // True while re-arming a control-plane timer could still matter: any
  // non-timer event pending, any replica with a finite next-event time, or
  // stranded work a future scale-up could rescue. When false, the timer lets
  // itself lapse so the run can terminate.
  auto cluster_busy = [&]() {
    const int64_t timers =
        events.PendingOfKind(SimEventKind::kHealthProbe) +
        events.PendingOfKind(SimEventKind::kAutoscale);
    if (static_cast<int64_t>(events.Size()) > timers) {
      return true;
    }
    for (const Replica& r : replicas) {
      if (r.NextEventTime() < kNever) {
        return true;
      }
    }
    if (elastic.autoscale.enabled && !orphans.empty()) {
      for (size_t i = 0; i < replicas.size(); ++i) {
        if (!active[i]) {
          return true;  // a scale-up could still rescue the orphans
        }
      }
    }
    return false;
  };
  auto arm_timer = [&](SimEventKind kind, double time) {
    SimEvent e;
    e.time = time;
    e.kind = kind;
    events.Push(e);
  };

  // One probe round: every alive, active replica is probed once on the NIC
  // with a single attempt; ok means delivered within the probe timeout. A
  // sick window forces the verdict to failed *after* the draw, so arming
  // sick windows never shifts the probe RNG sequence.
  auto handle_probe = [&](const SimEvent& event) {
    const double now = event.time;
    for (int32_t i = 0; i < static_cast<int32_t>(replicas.size()); ++i) {
      if (!replicas[static_cast<size_t>(i)].alive() ||
          !active[static_cast<size_t>(i)]) {
        continue;  // dead and dormant replicas are not probed
      }
      const LinkTransferOutcome out = probe_faults.Transfer(
          now, elastic.health.probe_bytes, [&](double start, double bytes) {
            return start + interconnect.spec().latency +
                   bytes / interconnect.spec().bandwidth;
          });
      bool ok =
          out.delivered && (out.done - now) <= elastic.health.probe_timeout;
      if (health.InSickWindow(i, now)) {
        ok = false;
      }
      switch (health.RecordProbe(i, ok)) {
        case HealthMonitor::Transition::kQuarantine:
          quarantine_replica(i, now);
          break;
        case HealthMonitor::Transition::kReinstate:
          router->NotifyReplicaUp(i);
          break;
        default:
          break;
      }
    }
    if (cluster_busy()) {
      arm_timer(SimEventKind::kHealthProbe,
                now + elastic.health.probe_interval);
    }
  };

  auto scale_up = [&](double now, int64_t signal_tokens) {
    int32_t slot = -1;
    for (int32_t i = 0; i < static_cast<int32_t>(replicas.size()); ++i) {
      if (!active[static_cast<size_t>(i)]) {
        slot = i;
        break;
      }
    }
    if (slot < 0) {
      return;  // crashed-but-active replicas keep their slots
    }
    revive(slot, now);
    ++autoscale_stats.scale_ups;
    autoscale_stats.events.push_back(
        ScaleEvent{now, slot, /*up=*/true, signal_tokens});
    scaler.NoteScaled(now);
  };

  auto scale_down = [&](double now, int64_t signal_tokens) {
    int32_t victim = -1;
    for (int32_t i = static_cast<int32_t>(replicas.size()) - 1; i >= 0; --i) {
      if (active[static_cast<size_t>(i)] &&
          replicas[static_cast<size_t>(i)].alive()) {
        victim = i;
        break;
      }
    }
    if (victim < 0) {
      return;
    }
    // The drained work needs somewhere dispatchable to land; if every other
    // replica is quarantined or down, keep the victim in service.
    bool other_home = false;
    for (int32_t i = 0; i < static_cast<int32_t>(replicas.size()); ++i) {
      if (i != victim && dispatchable(i)) {
        other_home = true;
        break;
      }
    }
    if (!other_home) {
      return;
    }
    router->NotifyReplicaDown(victim);
    active[static_cast<size_t>(victim)] = false;
    const Replica::Drained drained = rehome(
        victim, now, Replica::DrainMode::kRetire,
        &autoscale_stats.drained_kv_tokens);
    autoscale_stats.drained_requests +=
        static_cast<int64_t>(drained.deliveries.size());
    autoscale_stats.lost_generated_tokens += drained.lost_generated_tokens;
    // KV-only payloads and the idle cache discarded with the retiring
    // replica are a deliberate release, not a fault.
    autoscale_stats.released_kv_tokens += drained.left_kv_tokens;
    health.Reset(victim);
    ++autoscale_stats.scale_downs;
    autoscale_stats.events.push_back(
        ScaleEvent{now, victim, /*up=*/false, signal_tokens});
    scaler.NoteScaled(now);
  };

  auto handle_autoscale = [&](const SimEvent& event) {
    const double now = event.time;
    snapshot_views();
    int64_t total_weighted = 0;
    int32_t n_active = 0;
    for (size_t i = 0; i < replicas.size(); ++i) {
      if (active[i] && replicas[i].alive()) {
        total_weighted += views[i].load.WeightedTokens();
        ++n_active;
      }
    }
    const int64_t per_replica =
        n_active > 0 ? total_weighted / n_active : total_weighted;
    if (n_active < elastic.autoscale.min_replicas) {
      // Below the floor (crashes ate into the active set): restore it
      // immediately, cooldown notwithstanding — this is a safety floor, not
      // a load decision.
      scale_up(now, per_replica);
    } else {
      switch (scaler.Decide(now, total_weighted, n_active)) {
        case Autoscaler::Decision::kUp:
          scale_up(now, per_replica);
          break;
        case Autoscaler::Decision::kDown:
          scale_down(now, per_replica);
          break;
        case Autoscaler::Decision::kHold:
          break;
      }
    }
    const int32_t after = active_alive_count();
    autoscale_stats.peak_active_replicas =
        std::max(autoscale_stats.peak_active_replicas, after);
    autoscale_stats.min_active_replicas =
        std::min(autoscale_stats.min_active_replicas, after);
    if (cluster_busy()) {
      arm_timer(SimEventKind::kAutoscale,
                now + elastic.autoscale.check_interval);
    }
  };

  // A request's end-to-end outcome is final: report it and schedule the
  // conversation's next turn after the user's think time.
  auto complete = [&](const RequestOutcome& outcome) {
    if (options.outcomes != nullptr) {
      options.outcomes->push_back(outcome);
    }
    arrivals.OnRequestFinished(outcome);
  };

  // Merges the prefill- and decode-side halves of a handed-off turn into
  // one end-to-end outcome and records it on the finishing replica.
  // `decode_half` is null for single-token responses that finished entirely
  // on the prefill side.
  auto finish_chain = [&](int64_t conv, const RequestOutcome* decode_half,
                          int32_t finishing_replica, double finish_time) {
    auto it = chains.find(conv);
    PENSIEVE_CHECK(it != chains.end())
        << "handoff half finished with no chain for conversation " << conv;
    RequestOutcome merged = it->second.partial;
    merged.request = it->second.original;
    merged.finish_time = finish_time;
    if (decode_half != nullptr) {
      AddHandoffHalf(*decode_half, &merged);
      merged.decode_admit_time = decode_half->first_scheduled_time;
    }
    replicas[static_cast<size_t>(finishing_replica)].RecordOutcome(merged);
    complete(merged);
    chains.erase(it);
  };

  // A prefill-role replica finished the prefill half of a handed-off turn:
  // fold its accounting into the chain, place the remainder on a decode
  // replica, export the KV, and launch the layer-pipelined stream. The
  // stream was already overlapping the prefill step, so its chunks become
  // ready across [prefill_compute_start, finish_time].
  auto handle_prefill_finish = [&](const RequestOutcome& outcome, int32_t p) {
    const int64_t conv = outcome.request.conversation_id;
    auto it = chains.find(conv);
    PENSIEVE_CHECK(it != chains.end())
        << "prefill finished with no chain for conversation " << conv;
    HandoffChain& chain = it->second;
    if (!chain.has_partial) {
      chain.partial.first_scheduled_time = outcome.first_scheduled_time;
      chain.partial.first_token_time = outcome.first_token_time;
      chain.partial.prefill_compute_start = outcome.prefill_compute_start;
      chain.partial.prefill_replica = p;
      chain.has_partial = true;
    }
    AddHandoffHalf(outcome, &chain.partial);

    // The decode-side remainder: the prefill side emitted the first output
    // token, which becomes the continuation's one-token "prompt".
    Request cont = outcome.request;
    cont.prefill_only = false;
    cont.handoff_continuation = true;
    cont.history_len =
        outcome.request.history_len + outcome.request.new_prompt_len;
    cont.new_prompt_len = 1;
    cont.target_output_len =
        outcome.request.target_output_len - outcome.generated_tokens;
    // Single-token responses finished entirely on the prefill side; the
    // stream below (if any) only places KV for the conversation's next turn.
    const bool state_only = cont.target_output_len <= 0;

    const int32_t d = route(cont).target;
    // The stream writes layer by layer into the decode GPU's KV pool; no
    // host->device restore is owed when the continuation admits.
    MigratedKvState state;
    if (d != p) {
      state = replicas[static_cast<size_t>(p)].engine().ExportConversationState(
          conv);
      state.gpu_direct = true;
    }
    if (state.resident_tokens <= 0) {
      // Local handoff, no wire transfer: the decode pool routed back onto
      // the prefill replica (pool dead), where the KV is already resident,
      // or nothing was resident to stream (evicted under pressure
      // mid-prefill) and the decode side recomputes the whole prefix from
      // the kv_len bookkeeping.
      ++handoff.local_handoffs;
      if (state_only) {
        finish_chain(conv, nullptr, p, outcome.finish_time);
        return;
      }
      Replica::Delivery delivery;
      delivery.time = outcome.finish_time;
      delivery.request = cont;
      delivery.migrated = state;
      replicas[static_cast<size_t>(d)].Deliver(std::move(delivery));
      return;
    }

    KvStreamPlan plan;
    plan.src = p;
    plan.dst = d;
    plan.bytes = state.bytes;
    plan.num_layers = std::max<int64_t>(1, options.disagg.stream_layers);
    plan.compute_start = outcome.prefill_compute_start;
    plan.compute_end = outcome.finish_time;
    const KvStreamResult stream =
        StreamKvLayers(&interconnect, &nic_faults, plan);
    ++handoff.streams;
    handoff.stream_chunks += stream.chunks_delivered;
    handoff.stream_bytes += stream.bytes_delivered;
    if (stream.delivered) {
      handoff.overlap_saved_seconds += stream.unpipelined_done - stream.done;
      handoff.stream_wait_seconds +=
          std::max(0.0, stream.done - outcome.finish_time);
    } else {
      lose_kv(state, &handoff.failed_streams, &handoff.kv_tokens_lost);
    }
    chain.partial.handoff_stream_done = stream.done;
    if (state_only) {
      finish_chain(conv, nullptr, p, outcome.finish_time);
      // `chain` is dangling from here on.
    }

    HandoffStream inflight;
    inflight.conversation_id = conv;
    inflight.src = p;
    inflight.dst = d;
    inflight.state = state;
    inflight.continuation = cont;
    inflight.state_only = state_only;
    streams.push_back(std::move(inflight));
    SimEvent arrival;
    arrival.time = stream.done;
    arrival.kind = SimEventKind::kHandoffArrival;
    arrival.id = static_cast<int64_t>(streams.size()) - 1;
    events.Push(arrival);
  };

  // A KV stream's final layer landed (or its abandonment time passed):
  // admit the continuation at the decode replica with whatever survived.
  auto handle_handoff_arrival = [&](const SimEvent& event) {
    HandoffStream& s = streams[static_cast<size_t>(event.id)];
    s.arrived = true;
    Replica& dst = replicas[static_cast<size_t>(s.dst)];
    if (s.state_only) {
      if (s.state.resident_tokens <= 0) {
        return;
      }
      if (!dst.alive()) {
        // Landed on a corpse (the failure that would have voided the
        // payload hit after our send completed): the KV is simply lost.
        lose_kv(s.state, &handoff.failed_streams, &handoff.kv_tokens_lost);
        return;
      }
      Replica::Delivery delivery;
      delivery.time = event.time;
      delivery.request.conversation_id = s.conversation_id;
      delivery.migrated = s.state;
      delivery.state_only = true;
      handoff.streamed_tokens += s.state.resident_tokens;
      dst.Deliver(std::move(delivery));
      return;
    }
    if (!dst.alive() || !dispatchable(s.dst)) {
      // The decode target died — or was quarantined — while the stream was
      // in flight; the payload was voided at fail/quarantine time, and the
      // continuation re-routes afresh (degrading to recompute, never
      // dropping the request).
      dispatch(s.continuation, event.time, KvCarry{});
      return;
    }
    Replica::Delivery delivery;
    delivery.time = event.time;
    delivery.request = s.continuation;
    delivery.migrated = s.state;
    if (s.state.resident_tokens > 0) {
      handoff.streamed_tokens += s.state.resident_tokens;
    }
    dst.Deliver(std::move(delivery));
  };

  // Control-plane timers start one interval in (the cluster state at t=0 is
  // by construction healthy and unloaded).
  if (elastic.health.enabled) {
    arm_timer(SimEventKind::kHealthProbe, elastic.health.probe_interval);
  }
  if (elastic.autoscale.enabled) {
    arm_timer(SimEventKind::kAutoscale, elastic.autoscale.check_interval);
  }

  while (true) {
    const double t_event = events.NextTime();
    double t_replica = kNever;
    int32_t next_replica = -1;
    for (int32_t i = 0; i < static_cast<int32_t>(replicas.size()); ++i) {
      const double t = replicas[static_cast<size_t>(i)].NextEventTime();
      if (t < t_replica) {
        t_replica = t;
        next_replica = i;
      }
    }

    // Queued events outrank replica steps on ties: the single driver
    // delivers everything due before stepping, and routers should see the
    // freshest queue state.
    if (t_event <= t_replica) {
      if (events.Empty()) {
        break;  // both sides quiescent
      }
      const SimEvent event = events.Pop();
      switch (event.kind) {
        case SimEventKind::kArrival:
          dispatch(arrivals.BuildRequest(event), event.time,
                   KvCarry::FromRouter());
          break;
        case SimEventKind::kReplicaFail:
          handle_fail(event);
          break;
        case SimEventKind::kReplicaRecover:
          handle_recover(event);
          break;
        case SimEventKind::kHandoffArrival:
          handle_handoff_arrival(event);
          break;
        case SimEventKind::kHealthProbe:
          handle_probe(event);
          break;
        case SimEventKind::kAutoscale:
          handle_autoscale(event);
          break;
      }
      continue;
    }

    if (next_replica < 0) {
      break;
    }
    Replica::StepOutcome step =
        replicas[static_cast<size_t>(next_replica)].StepOnce(
            options.step_trace);
    if (!step.progressed) {
      continue;
    }
    for (const RequestOutcome& outcome : step.result.finished) {
      if (outcome.request.prefill_only) {
        handle_prefill_finish(outcome, next_replica);
        continue;
      }
      if (outcome.request.handoff_continuation) {
        finish_chain(outcome.request.conversation_id, &outcome, next_replica,
                     outcome.finish_time);
        continue;
      }
      complete(outcome);
    }
    ++total_steps;
    if (options.max_steps > 0 && total_steps >= options.max_steps) {
      PENSIEVE_LOG_WARNING << "cluster experiment hit max_steps="
                           << options.max_steps;
      break;
    }
  }

  for (const Replica& r : replicas) {
    if (r.alive() && r.engine().HasWork()) {
      PENSIEVE_LOG_WARNING << "replica " << r.id()
                           << " still has work at experiment end (stalled)";
    }
  }
  if (!orphans.empty()) {
    PENSIEVE_LOG_WARNING << orphans.size()
                         << " request(s) orphaned by replica failures never "
                            "ran (no recovery scheduled)";
  }

  double global_last_finish = 0.0;
  for (const Replica& r : replicas) {
    global_last_finish = std::max(global_last_finish, r.last_finish_time());
  }
  // Same steady-state window as the single driver, by construction.
  const SteadyStateWindow window =
      ComputeSteadyStateWindow(ArrivalSpan(trace), global_last_finish);

  ClusterSummary summary;
  summary.router_name = router->name();
  summary.num_replicas = options.num_replicas;
  summary.migration = migration;
  std::vector<const MetricsCollector*> collectors;
  collectors.reserve(replicas.size());
  for (const Replica& r : replicas) {
    summary.replicas.push_back(r.metrics().Summarize(
        r.engine_name(), r.last_finish_time(), r.stats(), window.begin,
        window.end));
    collectors.push_back(&r.metrics());
    summary.migration.migrated_tokens += r.stats().migrated_in_tokens;
  }
  // The combined summary merges the per-replica collectors in place —
  // outcomes are stored once, in their replica's collector.
  summary.cluster = MetricsCollector::SummarizeMerged(
      collectors, std::string("cluster/") + router->name(), global_last_finish,
      CombineEngineStats(summary.replicas), window.begin, window.end);
  summary.load_imbalance = LoadImbalance(summary.replicas);
  summary.migration.rehomes = router->counters().rehomes;
  summary.migration.overload_queued = router->counters().overload_queued;
  summary.faults = faults;
  summary.nic_link_faults = nic_faults.stats();
  summary.handoff = handoff;
  summary.elastic.health = health.stats();
  summary.elastic.autoscale = autoscale_stats;
  if (options.disagg.enabled) {
    summary.prefill_replicas =
        std::min(options.disagg.prefill_replicas, options.num_replicas - 1);
  }
  return summary;
}

}  // namespace pensieve
