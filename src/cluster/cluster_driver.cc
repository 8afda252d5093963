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
    }
    bool any_dispatchable = false;
    for (size_t i = 0; i < replicas.size(); ++i) {
      views[i].dispatchable =
          views[i].alive && active[i] &&
          !health.Quarantined(static_cast<int32_t>(i));
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

  // Routes `req` at virtual time `now` and delivers it to the chosen
  // replica. `allow_migrate` is false for crash-rerouted requests: the KV
  // they would have migrated died with their replica.
  auto route_and_deliver = [&](const Request& req, double now,
                               bool allow_migrate) {
    if (!any_alive()) {
      orphans.push_back(req);
      ++faults.orphaned_requests;
      return;
    }
    snapshot_views();
    const RoutingDecision decision = router->Route(req, views);
    PENSIEVE_CHECK_GE(decision.target, 0);
    PENSIEVE_CHECK_LT(decision.target, static_cast<int32_t>(replicas.size()));
    PENSIEVE_CHECK(views[static_cast<size_t>(decision.target)].alive)
        << router->name() << " routed request " << req.request_id
        << " to dead replica " << decision.target;

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
        const bool keep_partial = chain.has_partial;
        if (!keep_partial) {
          chain.original = req;
          chain.original.prefill_only = false;
          chain.partial = RequestOutcome{};
          chain.partial.request = chain.original;
        }
      } else {
        ++handoff.colocated_requests;
      }
    }
    if (allow_migrate && decision.migrate && decision.source >= 0 &&
        decision.source != decision.target &&
        replicas[static_cast<size_t>(decision.source)].alive()) {
      Replica& source = replicas[static_cast<size_t>(decision.source)];
      MigratedKvState state =
          source.engine().ExportConversationState(req.conversation_id);
      if (state.resident_tokens > 0) {
        // The request cannot start at its new home before its KV lands (or
        // the transfer is abandoned; either way it waits out every attempt).
        const LinkTransferOutcome out = nic_faults.Transfer(
            now, state.bytes, [&](double start, double bytes) {
              return interconnect.ScheduleTransfer(decision.source,
                                                   decision.target, start, bytes);
            });
        delivery.time = out.done;
        delivery.migration_stall = out.done - now;
        ++migration.migrations;
        migration.migration_stall_seconds += delivery.migration_stall;
        if (out.delivered) {
          migration.migrated_bytes += state.bytes;
        } else {
          // KV lost in transit: the conversation is still re-homed, but
          // arrives with bookkeeping only — its history recomputes at the
          // destination through the dropped-prefix path.
          ++migration.failed_migrations;
          migration.kv_tokens_lost_in_transit += state.resident_tokens;
          faults.lost_kv_tokens += state.resident_tokens;
          state.resident_tokens = 0;
          state.bytes = 0.0;
        }
      }
      delivery.migrated = state;
    }
    replicas[static_cast<size_t>(decision.target)].Deliver(
        std::move(delivery));
  };

  // Re-routes one delivery drained off a still-alive replica `src`
  // (quarantine or scale-down retirement), hand-carrying its KV: an
  // in-flight migrated payload is re-forwarded as is, otherwise the
  // conversation's cached state is exported from `src`. The extra hop is
  // charged on the NIC exactly like a router-initiated migration.
  // `drained_kv_tokens` accumulates the tokens that reached a new home.
  auto reroute_drained = [&](Replica::Delivery d, int32_t src, double now,
                             int64_t* drained_kv_tokens) {
    const double base = std::max(now, d.time);
    if (!any_alive()) {
      orphans.push_back(d.request);
      ++faults.orphaned_requests;
      return;
    }
    MigratedKvState state = d.migrated;
    if (state.Empty() && replicas[static_cast<size_t>(src)].alive()) {
      state = replicas[static_cast<size_t>(src)].engine().ExportConversationState(
          d.request.conversation_id);
      // A request drained mid-decode leaves KV for the tokens it had already
      // generated this turn. That progress restarts from scratch at the new
      // home (it is in lost_generated_tokens), so the trailing decode KV
      // must not travel: the import would otherwise cover more raw history
      // than the restarted request has.
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
    snapshot_views();
    const RoutingDecision decision = router->Route(d.request, views);
    PENSIEVE_CHECK_GE(decision.target, 0);
    PENSIEVE_CHECK_LT(decision.target, static_cast<int32_t>(replicas.size()));
    PENSIEVE_CHECK(views[static_cast<size_t>(decision.target)].alive);

    Replica::Delivery out;
    out.time = base;
    out.request = d.request;
    if (state.resident_tokens > 0 && decision.target != src) {
      const LinkTransferOutcome t = nic_faults.Transfer(
          base, state.bytes, [&](double start, double bytes) {
            return interconnect.ScheduleTransfer(src, decision.target, start,
                                                 bytes);
          });
      out.time = t.done;
      out.migration_stall = t.done - base;
      ++migration.migrations;
      migration.migration_stall_seconds += out.migration_stall;
      if (t.delivered) {
        migration.migrated_bytes += state.bytes;
        *drained_kv_tokens += state.resident_tokens;
      } else {
        ++migration.failed_migrations;
        migration.kv_tokens_lost_in_transit += state.resident_tokens;
        faults.lost_kv_tokens += state.resident_tokens;
        state.resident_tokens = 0;
        state.bytes = 0.0;
      }
    }
    out.migrated = state;
    replicas[static_cast<size_t>(decision.target)].Deliver(std::move(out));
  };

  auto handle_fail = [&](const SimEvent& event) {
    Replica& victim = replicas[static_cast<size_t>(event.id)];
    if (!victim.alive()) {
      PENSIEVE_LOG_WARNING << "fail event for already-dead replica "
                           << event.id << " at t=" << event.time << "; ignored";
      return;
    }
    // The router forgets the replica first so re-routed (and all future)
    // requests pick an alive home.
    router->NotifyReplicaDown(static_cast<int32_t>(event.id));
    // Probe history dies with the replica; it restarts healthy on recovery.
    health.Reset(static_cast<int32_t>(event.id));
    Replica::FailureDrain drain = victim.Fail(event.time);
    ++faults.failures;
    faults.lost_kv_tokens += drain.lost_kv_tokens;
    faults.lost_generated_tokens += drain.lost_generated_tokens;
    faults.rerouted_requests += static_cast<int64_t>(drain.deliveries.size());
    for (const Replica::Delivery& d : drain.deliveries) {
      route_and_deliver(d.request, event.time, /*allow_migrate=*/false);
    }
    // KV streams touching the dead replica die mid-flight: the payload is
    // voided here, but the arrival event still fires and delivers (or
    // re-routes) the continuation with bookkeeping only, so the decode side
    // degrades to dropped-prefix recompute instead of dropping the request.
    for (HandoffStream& s : streams) {
      if (s.arrived || s.cancelled || s.state.resident_tokens <= 0) {
        continue;
      }
      if (s.src != static_cast<int32_t>(event.id) &&
          s.dst != static_cast<int32_t>(event.id)) {
        continue;
      }
      s.cancelled = true;
      ++handoff.failed_streams;
      handoff.kv_tokens_lost += s.state.resident_tokens;
      faults.lost_kv_tokens += s.state.resident_tokens;
      s.state.resident_tokens = 0;
      s.state.bytes = 0.0;
    }
  };

  auto handle_recover = [&](const SimEvent& event) {
    Replica& replica = replicas[static_cast<size_t>(event.id)];
    if (replica.alive()) {
      PENSIEVE_LOG_WARNING << "recover event for alive replica " << event.id
                           << " at t=" << event.time << "; ignored";
      return;
    }
    replica.Recover(make_engine(static_cast<int32_t>(event.id)), event.time);
    router->NotifyReplicaUp(static_cast<int32_t>(event.id));
    health.Reset(static_cast<int32_t>(event.id));
    // A scheduled recovery targeting a dormant/retired slot puts it back in
    // the active set (it is serving now, whatever the autoscaler thinks).
    active[static_cast<size_t>(event.id)] = true;
    ++faults.recoveries;
    // Requests stranded while the whole cluster was down run here.
    std::vector<Request> stranded;
    stranded.swap(orphans);
    for (const Request& req : stranded) {
      route_and_deliver(req, event.time, /*allow_migrate=*/false);
    }
  };

  // Quarantine: the replica is alive but failing probes. It leaves the
  // dispatch set, and everything it still owes is proactively drained over
  // the migration path — requests re-route with their KV hand-carried, so
  // a later hard failure of this replica destroys far less.
  auto quarantine_replica = [&](int32_t id, double now) {
    router->NotifyReplicaDown(id);
    Replica& victim = replicas[static_cast<size_t>(id)];
    if (!victim.alive()) {
      return;  // already down; the failure path drained it
    }
    HealthStats& hs = health.stats();
    Replica::LiveDrain drain = victim.DrainLive(now, /*keep_state_only=*/true);
    hs.drained_requests += static_cast<int64_t>(drain.deliveries.size());
    hs.lost_generated_tokens += drain.lost_generated_tokens;
    for (Replica::Delivery& d : drain.deliveries) {
      if (options.disagg.enabled) {
        // Disagg re-dispatch must re-run the handoff chain logic; the
        // request re-routes without a KV carry (any in-flight payload is
        // voided, mirroring the crash path).
        if (!d.migrated.Empty()) {
          faults.lost_kv_tokens += d.migrated.resident_tokens;
        }
        route_and_deliver(d.request, std::max(now, d.time),
                          /*allow_migrate=*/false);
      } else {
        reroute_drained(std::move(d), id, now, &hs.drained_kv_tokens);
      }
    }
    // KV streams aimed at the quarantined replica are voided — their payload
    // would land on a sick target. The source side of a stream stays: the
    // quarantined replica is alive and keeps streaming what it already owes.
    for (HandoffStream& s : streams) {
      if (s.arrived || s.cancelled || s.state.resident_tokens <= 0 ||
          s.dst != id) {
        continue;
      }
      s.cancelled = true;
      ++handoff.failed_streams;
      ++hs.voided_streams;
      handoff.kv_tokens_lost += s.state.resident_tokens;
      faults.lost_kv_tokens += s.state.resident_tokens;
      s.state.resident_tokens = 0;
      s.state.bytes = 0.0;
    }
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

  auto scale_up = [&](double now, int64_t signal_tokens, double p99) {
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
    replicas[static_cast<size_t>(slot)].Recover(make_engine(slot), now);
    active[static_cast<size_t>(slot)] = true;
    health.Reset(slot);
    router->NotifyReplicaUp(slot);
    ++autoscale_stats.scale_ups;
    autoscale_stats.events.push_back(
        ScaleEvent{now, slot, /*up=*/true, signal_tokens, p99});
    scaler.NoteScaled(now);
    // Work stranded while the active set was empty runs here.
    std::vector<Request> stranded;
    stranded.swap(orphans);
    for (const Request& req : stranded) {
      route_and_deliver(req, now, /*allow_migrate=*/false);
    }
  };

  auto scale_down = [&](double now, int64_t signal_tokens, double p99) {
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
    Replica& r = replicas[static_cast<size_t>(victim)];
    Replica::LiveDrain drain = r.DrainLive(now, /*keep_state_only=*/false);
    autoscale_stats.drained_requests +=
        static_cast<int64_t>(drain.deliveries.size());
    autoscale_stats.lost_generated_tokens += drain.lost_generated_tokens;
    // State-only payloads discarded with the retiring replica are a
    // deliberate release, not a fault.
    autoscale_stats.released_kv_tokens += drain.dropped_state_tokens;
    for (Replica::Delivery& d : drain.deliveries) {
      reroute_drained(std::move(d), victim, now,
                      &autoscale_stats.drained_kv_tokens);
    }
    autoscale_stats.released_kv_tokens += r.Retire(now);
    health.Reset(victim);
    ++autoscale_stats.scale_downs;
    autoscale_stats.events.push_back(
        ScaleEvent{now, victim, /*up=*/false, signal_tokens, p99});
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
    const double p99 = scaler.RecentP99();
    const int64_t per_replica =
        n_active > 0 ? total_weighted / n_active : total_weighted;
    if (n_active < elastic.autoscale.min_replicas) {
      // Below the floor (crashes ate into the active set): restore it
      // immediately, cooldown notwithstanding — this is a safety floor, not
      // a load decision.
      scale_up(now, per_replica, p99);
    } else {
      switch (scaler.Decide(now, total_weighted, n_active)) {
        case Autoscaler::Decision::kUp:
          scale_up(now, per_replica, p99);
          break;
        case Autoscaler::Decision::kDown:
          scale_down(now, per_replica, p99);
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
      merged.prefill_input_tokens += decode_half->prefill_input_tokens;
      merged.reused_gpu_tokens += decode_half->reused_gpu_tokens;
      merged.reused_cpu_tokens += decode_half->reused_cpu_tokens;
      merged.reused_ssd_tokens += decode_half->reused_ssd_tokens;
      merged.reused_shared_tokens += decode_half->reused_shared_tokens;
      merged.recomputed_tokens += decode_half->recomputed_tokens;
      merged.generated_tokens += decode_half->generated_tokens;
      merged.suspensions += decode_half->suspensions;
      merged.decode_admit_time = decode_half->first_scheduled_time;
    }
    replicas[static_cast<size_t>(finishing_replica)].RecordOutcome(merged);
    if (elastic.autoscale.enabled && merged.request.target_output_len > 0) {
      scaler.RecordFinish(merged.NormalizedLatency());
    }
    if (options.outcomes != nullptr) {
      options.outcomes->push_back(merged);
    }
    arrivals.OnRequestFinished(merged);
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
    chain.partial.prefill_input_tokens += outcome.prefill_input_tokens;
    chain.partial.reused_gpu_tokens += outcome.reused_gpu_tokens;
    chain.partial.reused_cpu_tokens += outcome.reused_cpu_tokens;
    chain.partial.reused_ssd_tokens += outcome.reused_ssd_tokens;
    chain.partial.reused_shared_tokens += outcome.reused_shared_tokens;
    chain.partial.recomputed_tokens += outcome.recomputed_tokens;
    chain.partial.generated_tokens += outcome.generated_tokens;
    chain.partial.suspensions += outcome.suspensions;

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

    snapshot_views();
    const RoutingDecision decision = router->Route(cont, views);
    const int32_t d = decision.target;
    PENSIEVE_CHECK_GE(d, 0);
    PENSIEVE_CHECK_LT(d, static_cast<int32_t>(replicas.size()));

    Replica& prefiller = replicas[static_cast<size_t>(p)];
    if (d == p) {
      // Decode pool routed back onto the prefill replica (pool dead): the
      // KV is already resident here, no wire transfer.
      ++handoff.local_handoffs;
      if (state_only) {
        finish_chain(conv, nullptr, p, outcome.finish_time);
        return;
      }
      Replica::Delivery delivery;
      delivery.time = outcome.finish_time;
      delivery.request = cont;
      prefiller.Deliver(std::move(delivery));
      return;
    }

    MigratedKvState state = prefiller.engine().ExportConversationState(conv);
    // The stream writes layer by layer into the decode GPU's KV pool; no
    // host->device restore is owed when the continuation admits.
    state.gpu_direct = true;
    if (state.resident_tokens <= 0) {
      // Nothing resident to stream (evicted under pressure mid-prefill);
      // the decode side recomputes the whole prefix.
      ++handoff.local_handoffs;
      if (state_only) {
        finish_chain(conv, nullptr, p, outcome.finish_time);
        return;
      }
      Replica::Delivery delivery;
      delivery.time = outcome.finish_time;
      delivery.request = cont;
      delivery.migrated = state;  // kv_len bookkeeping only
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
      ++handoff.failed_streams;
      handoff.kv_tokens_lost += state.resident_tokens;
      faults.lost_kv_tokens += state.resident_tokens;
      state.resident_tokens = 0;
      state.bytes = 0.0;
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
      if (dst.alive() && s.state.resident_tokens > 0) {
        Replica::Delivery delivery;
        delivery.time = event.time;
        delivery.request.conversation_id = s.conversation_id;
        delivery.migrated = s.state;
        delivery.state_only = true;
        handoff.streamed_tokens += s.state.resident_tokens;
        dst.Deliver(std::move(delivery));
      } else if (!dst.alive() && s.state.resident_tokens > 0) {
        // Landed on a corpse (the failure that would have voided the
        // payload hit after our send completed): the KV is simply lost.
        ++handoff.failed_streams;
        handoff.kv_tokens_lost += s.state.resident_tokens;
        faults.lost_kv_tokens += s.state.resident_tokens;
      }
      return;
    }
    if (!dst.alive() || !dispatchable(s.dst)) {
      // The decode target died — or was quarantined — while the stream was
      // in flight; the payload was voided at fail/quarantine time, and the
      // continuation re-routes afresh (degrading to recompute, never
      // dropping the request).
      route_and_deliver(s.continuation, event.time, /*allow_migrate=*/false);
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
          route_and_deliver(arrivals.BuildRequest(event), event.time,
                            /*allow_migrate=*/true);
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
      if (elastic.autoscale.enabled && outcome.request.target_output_len > 0) {
        scaler.RecordFinish(outcome.NormalizedLatency());
      }
      if (options.outcomes != nullptr) {
        options.outcomes->push_back(outcome);
      }
      // Schedule the conversation's next turn after the user's think time.
      arrivals.OnRequestFinished(outcome);
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
  summary.migration.migrations = migration.migrations;
  summary.migration.migrated_bytes = migration.migrated_bytes;
  summary.migration.migration_stall_seconds = migration.migration_stall_seconds;
  summary.migration.failed_migrations = migration.failed_migrations;
  summary.migration.kv_tokens_lost_in_transit =
      migration.kv_tokens_lost_in_transit;
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
