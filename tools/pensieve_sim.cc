// pensieve_sim — command-line serving-experiment runner.
//
// Runs one serving experiment on the simulated A100 testbed and prints the
// summary; optionally dumps per-request outcomes and per-step traces as CSV
// for plotting.
//
// Examples:
//   pensieve_sim --model=llama2-13b --dataset=sharegpt --system=pensieve
//                --rate=1.0 --conversations=600 --think=60
//   pensieve_sim --model=opt-66b --system=vllm --rate=0.4
//                --outcomes_csv=/tmp/outcomes.csv --steps_csv=/tmp/steps.csv

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>

#include "src/common/flags.h"
#include "src/common/thread_pool.h"
#include "src/core/pensieve.h"
#include "src/serving/telemetry.h"
#include "src/sim/fault_injector.h"
#include "src/workload/trace_io.h"

namespace pensieve {
namespace {

// Parses a sick-window list of the form "ID@T1:T2[,ID@T1:T2...]" (replica
// id, window begin/end in virtual seconds) into SickWindow entries.
bool ParseSickList(const std::string& spec, std::vector<SickWindow>* out) {
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) {
      comma = spec.size();
    }
    const std::string item = spec.substr(pos, comma - pos);
    const size_t at = item.find('@');
    const size_t colon = item.find(':', at == std::string::npos ? 0 : at + 1);
    if (at == std::string::npos || at == 0 || colon == std::string::npos ||
        colon <= at + 1 || colon + 1 >= item.size()) {
      return false;
    }
    SickWindow window;
    try {
      window.replica_id = static_cast<int32_t>(std::stol(item.substr(0, at)));
      window.begin = std::stod(item.substr(at + 1, colon - at - 1));
      window.end = std::stod(item.substr(colon + 1));
    } catch (...) {
      return false;
    }
    if (window.replica_id < 0 || window.begin < 0.0 ||
        window.end <= window.begin) {
      return false;
    }
    out->push_back(window);
    pos = comma + 1;
  }
  return true;
}

// Parses a fault list of the form "ID@T[,ID@T...]" (replica id, virtual
// time in seconds) into ReplicaFault events.
bool ParseFaultList(const std::string& spec, bool recover,
                    std::vector<ReplicaFault>* out) {
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) {
      comma = spec.size();
    }
    const std::string item = spec.substr(pos, comma - pos);
    const size_t at = item.find('@');
    if (at == std::string::npos || at == 0 || at + 1 >= item.size()) {
      return false;
    }
    ReplicaFault fault;
    fault.recover = recover;
    try {
      fault.replica_id = static_cast<int32_t>(std::stol(item.substr(0, at)));
      fault.time = std::stod(item.substr(at + 1));
    } catch (...) {
      return false;
    }
    if (fault.replica_id < 0 || fault.time < 0.0) {
      return false;
    }
    out->push_back(fault);
    pos = comma + 1;
  }
  return true;
}

// Every request of the trace must complete. A shortfall (a wedged engine,
// orphaned work) is reported and fails the run.
int DroppedExitCode(int64_t completed, int64_t expected) {
  if (completed >= expected) {
    return 0;
  }
  std::fprintf(stderr, "dropped: %ld of %ld requests\n",
               static_cast<long>(expected - completed),
               static_cast<long>(expected));
  return 1;
}

int Run(int argc, char** argv) {
  FlagParser flags;
  flags.AddString("model", "opt-13b",
                  "model preset: opt-13b, opt-66b, llama2-13b, llama2-70b");
  flags.AddString("dataset", "sharegpt", "workload profile: sharegpt or ultrachat");
  flags.AddString("system", "pensieve",
                  "serving system: pensieve, pensieve-gpu, vllm, tensorrt-llm");
  flags.AddString("policy", "retention",
                  "eviction policy: retention, lru, conversation-lru, cost-only");
  flags.AddDouble("rate", 1.0, "conversation arrival rate (conversations/s)");
  flags.AddInt("conversations", 600, "number of conversations in the trace");
  flags.AddDouble("think", 60.0, "mean user think time (s)");
  flags.AddDouble("cache_scale", 1.0,
                  "scales both cache tiers relative to the paper's 40 GB setup");
  flags.AddDouble("cpu-scale", 1.0,
                  "extra multiplier on the CPU tier only (on top of "
                  "cache_scale); < 1 forces traffic into the flash tier");
  flags.AddDouble("ssd-capacity", 0.0,
                  "flash (SSD) tier capacity in GiB of KV data behind the CPU "
                  "tier; 0 disables the tier (bit-identical to the two-tier "
                  "build). Full pensieve system only; not scaled by "
                  "cache_scale");
  flags.AddInt("ssd-segment-blocks", 64,
               "blocks per append-only flash log segment (GC granularity)");
  flags.AddInt("prefix-templates", 0,
               "number of shared prompt templates; conversation i opens with "
               "template (i mod N) prepended to its first prompt (0 = none)");
  flags.AddInt("prefix-len", 0,
               "tokens per shared prompt template (ignored unless "
               "--prefix-templates > 0)");
  flags.AddBool("prefix-share", true,
                "cross-conversation shared-prefix dedup (Pensieve variants): "
                "conversations opening with the same template attach "
                "refcounted views over the first conversation's KV blocks "
                "instead of prefilling; off = every conversation prefills its "
                "own copy");
  flags.AddInt("seed", 42, "workload seed");
  flags.AddInt("replicas", 1,
               "number of serving replicas; > 1 runs the cluster layer");
  flags.AddString("router", "session-affinity",
                  "cluster routing policy: round-robin, least-loaded, "
                  "session-affinity");
  flags.AddInt("overload_tokens", 8192,
               "affinity failover: absolute outstanding-token floor before a "
               "home replica counts as overloaded");
  flags.AddDouble("overload_factor", 2.0,
                  "affinity failover: overloaded when outstanding tokens also "
                  "exceed this multiple of the cluster mean");
  flags.AddString("disagg", "off",
                  "prefill/decode disaggregation (DESIGN.md §13): on splits "
                  "the cluster into prefill- and decode-role replicas and "
                  "streams each prefill's KV layer-by-layer over the NIC into "
                  "the decode replica; off (default) is bit-identical to the "
                  "colocated cluster");
  flags.AddInt("prefill-replicas", 1,
               "replicas [0, N) serve prefill when --disagg=on (clamped to "
               "leave at least one decode replica)");
  flags.AddInt("disagg-min-prefill", 64,
               "minimum pending prefill tokens (prompt + uncached history) "
               "for a turn to be handed to the prefill pool");
  flags.AddString("health-probe", "off",
                  "active health probing (DESIGN.md §14): on runs a seeded "
                  "probe loop over every active replica and quarantines "
                  "replicas that fail consecutive probes — routers stop "
                  "dispatching to them and their conversations drain to "
                  "healthy peers; off is bit-identical to the unprobed "
                  "cluster");
  flags.AddDouble("probe-interval", 1.0,
                  "virtual seconds between health-probe rounds");
  flags.AddDouble("probe-timeout-ms", 50.0,
                  "probe round-trips slower than this count as failed");
  flags.AddInt("probe-quarantine-after", 4,
               "consecutive probe failures before quarantine (a replica "
               "turns suspect at half this count)");
  flags.AddInt("probe-healthy-after", 3,
               "consecutive probe successes a quarantined replica needs to "
               "rejoin the dispatch set");
  flags.AddDouble("probe-loss", 0.0,
                  "ambient probe-loss probability on the probe link "
                  "(independent seeded stream; models a flaky control plane)");
  flags.AddString("sick-replica", "",
                  "force probes of replica ID to fail during [T1, T2): "
                  "ID@T1:T2[,ID@T1:T2...]; models a degraded replica that "
                  "probing can catch before it hard-fails");
  flags.AddString("autoscale", "off",
                  "queue/latency-driven autoscaling (DESIGN.md §14): on "
                  "starts --min-replicas active out of --replicas slots and "
                  "grows/shrinks the active set mid-run; retiring replicas "
                  "drain before destruction. off is bit-identical to the "
                  "fixed-size cluster");
  flags.AddInt("min-replicas", 1,
               "autoscaling floor: active replicas never drop below this");
  flags.AddInt("max-replicas", 0,
               "autoscaling ceiling (0 = --replicas); must not exceed "
               "--replicas, which sizes the slot vector");
  flags.AddDouble("scale-interval", 2.0,
                  "virtual seconds between autoscaler evaluations");
  flags.AddDouble("scale-cooldown", 10.0,
                  "minimum virtual seconds between two scale actions");
  flags.AddInt("scale-up-tokens", 4096,
               "grow when mean outstanding weighted tokens per active "
               "replica exceeds this");
  flags.AddInt("scale-down-tokens", 512,
               "shrink when mean outstanding weighted tokens per active "
               "replica falls below this (and the latency signal is calm)");
  flags.AddDouble("scale-up-p99-ms", 0.0,
                  "also grow when the p99 normalized latency (ms/token) of "
                  "recently finished requests exceeds this (0 = queue-depth "
                  "signal only)");
  flags.AddString("fail-replica", "",
                  "kill replica ID at virtual time T: ID@T[,ID@T...]; its KV "
                  "is lost and its requests re-route to surviving replicas");
  flags.AddString("recover-replica", "",
                  "bring replica ID back (empty) at virtual time T: "
                  "ID@T[,ID@T...]");
  flags.AddBool("split_scheduling", false,
                "disable unified batching (Figure 13 ablation)");
  flags.AddString("trace_csv", "",
                  "replay conversations from this CSV (see src/workload/trace_io.h) "
                  "instead of synthesizing them");
  flags.AddString("outcomes_csv", "", "write per-request outcomes CSV here");
  flags.AddString("steps_csv", "", "write per-step trace CSV here");
  flags.AddInt("threads", 0,
               "worker threads for the CPU kernels/GEMMs (default: "
               "PENSIEVE_THREADS env var, else hardware concurrency); results "
               "are bit-identical for every value");
  flags.AddString("weight-quant", "fp32",
                  "weight storage: fp32 (default, bit-identical to prior "
                  "builds) or int8 (per-column symmetric scales; the cost "
                  "model's per-step weight-read floor streams 1 B/param)");
  flags.AddString("kv-quant", "off",
                  "int8 KV compression at the GPU boundary: on quantizes "
                  "blocks demoted to the CPU/SSD tiers (~2x capacity, "
                  "compressed transfers), off keeps fp16 KV everywhere "
                  "(bit-identical to prior builds)");
  AddFaultFlags(&flags);
  flags.AddBool("help", false, "print usage");
  Status status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n\nflags:\n%s", status.ToString().c_str(),
                 flags.Help().c_str());
    return 2;
  }
  if (flags.GetBool("help")) {
    std::printf("pensieve_sim: serving-experiment runner\n\nflags:\n%s",
                flags.Help().c_str());
    return 0;
  }
  ThreadPool::SetGlobalThreads(static_cast<int>(flags.GetInt("threads")));

  ModelConfig model;
  if (!ModelConfigByName(flags.GetString("model"), &model)) {
    std::fprintf(stderr, "unknown model '%s'\n", flags.GetString("model").c_str());
    return 2;
  }
  DatasetProfile profile;
  if (flags.GetString("dataset") == "sharegpt") {
    profile = ShareGptProfile();
  } else if (flags.GetString("dataset") == "ultrachat") {
    profile = UltraChatProfile();
  } else {
    std::fprintf(stderr, "unknown dataset '%s'\n", flags.GetString("dataset").c_str());
    return 2;
  }
  SystemKind kind;
  const std::string system = flags.GetString("system");
  if (system == "pensieve") {
    kind = SystemKind::kPensieve;
  } else if (system == "pensieve-gpu") {
    kind = SystemKind::kPensieveGpuOnly;
  } else if (system == "vllm") {
    kind = SystemKind::kVllm;
  } else if (system == "tensorrt-llm") {
    kind = SystemKind::kTensorRtLlm;
  } else {
    std::fprintf(stderr, "unknown system '%s'\n", system.c_str());
    return 2;
  }
  EngineOverrides overrides;
  overrides.cache_scale = flags.GetDouble("cache_scale");
  overrides.cpu_cache_scale = flags.GetDouble("cpu-scale");
  overrides.unified_scheduling = !flags.GetBool("split_scheduling");
  overrides.enable_prefix_sharing = flags.GetBool("prefix-share");
  const std::string policy = flags.GetString("policy");
  if (policy == "retention") {
    overrides.policy = EvictionPolicyKind::kRetentionValue;
  } else if (policy == "lru") {
    overrides.policy = EvictionPolicyKind::kLru;
  } else if (policy == "conversation-lru") {
    overrides.policy = EvictionPolicyKind::kConversationLru;
  } else if (policy == "cost-only") {
    overrides.policy = EvictionPolicyKind::kCostOnly;
  } else {
    std::fprintf(stderr, "unknown policy '%s'\n", policy.c_str());
    return 2;
  }
  const FaultConfig fault_config = FaultConfigFromFlags(flags);
  overrides.pcie_fault_profile = fault_config.pcie;
  overrides.fault_retry = fault_config.retry;
  overrides.fault_seed = fault_config.seed;
  overrides.ssd_capacity_gb = flags.GetDouble("ssd-capacity");
  overrides.ssd_segment_blocks = flags.GetInt("ssd-segment-blocks");
  overrides.ssd_fault_profile = fault_config.ssd;
  QuantMode weight_quant;
  if (!QuantModeByName(flags.GetString("weight-quant"), &weight_quant)) {
    std::fprintf(stderr, "unknown weight-quant '%s' (fp32 or int8)\n",
                 flags.GetString("weight-quant").c_str());
    return 2;
  }
  const std::string kv_quant = flags.GetString("kv-quant");
  if (kv_quant != "on" && kv_quant != "off") {
    std::fprintf(stderr, "unknown kv-quant '%s' (on or off)\n", kv_quant.c_str());
    return 2;
  }
  overrides.kv_quant = kv_quant == "on";

  const GpuCostModel cost_model(model, A100Spec(model.num_gpus), weight_quant);
  TraceOptions trace_options;
  trace_options.num_conversations = flags.GetInt("conversations");
  trace_options.conversation_rate = flags.GetDouble("rate");
  trace_options.mean_think_time = flags.GetDouble("think");
  trace_options.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  trace_options.num_prefix_templates = flags.GetInt("prefix-templates");
  trace_options.prefix_len = flags.GetInt("prefix-len");
  std::optional<WorkloadTrace> trace_storage;
  if (!flags.GetString("trace_csv").empty()) {
    auto loaded = LoadConversationsCsv(flags.GetString("trace_csv"));
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    trace_storage.emplace(std::move(loaded).value(), profile, trace_options);
  } else {
    trace_storage.emplace(profile, trace_options);
  }
  const WorkloadTrace& trace = *trace_storage;

  const int64_t replicas = flags.GetInt("replicas");
  RouterPolicy router_policy;
  if (!RouterPolicyByName(flags.GetString("router"), &router_policy)) {
    std::fprintf(stderr, "unknown router '%s'\n",
                 flags.GetString("router").c_str());
    return 2;
  }
  std::vector<ReplicaFault> fault_events;
  if (!ParseFaultList(flags.GetString("fail-replica"), /*recover=*/false,
                      &fault_events) ||
      !ParseFaultList(flags.GetString("recover-replica"), /*recover=*/true,
                      &fault_events)) {
    std::fprintf(stderr,
                 "malformed fault spec (expected ID@T[,ID@T...]): "
                 "--fail-replica='%s' --recover-replica='%s'\n",
                 flags.GetString("fail-replica").c_str(),
                 flags.GetString("recover-replica").c_str());
    return 2;
  }
  for (const ReplicaFault& fault : fault_events) {
    if (fault.replica_id >= replicas) {
      std::fprintf(stderr, "fault names replica %d but only %ld configured\n",
                   fault.replica_id, static_cast<long>(replicas));
      return 2;
    }
  }
  const std::string disagg = flags.GetString("disagg");
  if (disagg != "on" && disagg != "off") {
    std::fprintf(stderr, "unknown disagg '%s' (on or off)\n", disagg.c_str());
    return 2;
  }
  if (disagg == "on" && replicas < 2) {
    std::fprintf(stderr,
                 "--disagg=on needs --replicas>=2 (one prefill + one decode)\n");
    return 2;
  }
  const int64_t prefill_replicas = flags.GetInt("prefill-replicas");
  if (disagg == "on" &&
      (prefill_replicas < 1 || prefill_replicas >= replicas)) {
    std::fprintf(stderr,
                 "--prefill-replicas=%ld out of range: --disagg=on needs "
                 "1 <= prefill-replicas <= replicas-1 (= %ld) so at least "
                 "one decode replica remains\n",
                 static_cast<long>(prefill_replicas),
                 static_cast<long>(replicas - 1));
    return 2;
  }

  ElasticOptions elastic;
  const std::string health_probe = flags.GetString("health-probe");
  if (health_probe != "on" && health_probe != "off") {
    std::fprintf(stderr, "unknown health-probe '%s' (on or off)\n",
                 health_probe.c_str());
    return 2;
  }
  elastic.health.enabled = health_probe == "on";
  elastic.health.probe_interval = flags.GetDouble("probe-interval");
  elastic.health.probe_timeout = flags.GetDouble("probe-timeout-ms") / 1e3;
  elastic.health.quarantine_after =
      static_cast<int32_t>(flags.GetInt("probe-quarantine-after"));
  elastic.health.suspect_after =
      std::max<int32_t>(1, elastic.health.quarantine_after / 2);
  elastic.health.healthy_after =
      static_cast<int32_t>(flags.GetInt("probe-healthy-after"));
  elastic.health.probe_faults.timeout_rate = flags.GetDouble("probe-loss");
  if (!ParseSickList(flags.GetString("sick-replica"), &elastic.health.sick)) {
    std::fprintf(stderr,
                 "malformed sick spec (expected ID@T1:T2[,ID@T1:T2...]): "
                 "--sick-replica='%s'\n",
                 flags.GetString("sick-replica").c_str());
    return 2;
  }
  for (const SickWindow& window : elastic.health.sick) {
    if (window.replica_id >= replicas) {
      std::fprintf(stderr,
                   "sick window names replica %d but only %ld configured\n",
                   window.replica_id, static_cast<long>(replicas));
      return 2;
    }
  }
  if (elastic.health.enabled &&
      (elastic.health.probe_interval <= 0.0 ||
       elastic.health.probe_timeout <= 0.0 ||
       elastic.health.quarantine_after < 1 ||
       elastic.health.healthy_after < 1)) {
    std::fprintf(stderr,
                 "--health-probe=on needs positive --probe-interval, "
                 "--probe-timeout-ms, --probe-quarantine-after and "
                 "--probe-healthy-after\n");
    return 2;
  }
  const std::string autoscale = flags.GetString("autoscale");
  if (autoscale != "on" && autoscale != "off") {
    std::fprintf(stderr, "unknown autoscale '%s' (on or off)\n",
                 autoscale.c_str());
    return 2;
  }
  elastic.autoscale.enabled = autoscale == "on";
  elastic.autoscale.min_replicas =
      static_cast<int32_t>(flags.GetInt("min-replicas"));
  elastic.autoscale.max_replicas =
      flags.GetInt("max-replicas") == 0
          ? static_cast<int32_t>(replicas)
          : static_cast<int32_t>(flags.GetInt("max-replicas"));
  elastic.autoscale.check_interval = flags.GetDouble("scale-interval");
  elastic.autoscale.cooldown = flags.GetDouble("scale-cooldown");
  elastic.autoscale.up_queue_tokens = flags.GetInt("scale-up-tokens");
  elastic.autoscale.down_queue_tokens = flags.GetInt("scale-down-tokens");
  elastic.autoscale.up_p99_latency = flags.GetDouble("scale-up-p99-ms") / 1e3;
  if (elastic.autoscale.enabled) {
    if (elastic.autoscale.min_replicas < 1 ||
        elastic.autoscale.min_replicas > elastic.autoscale.max_replicas ||
        elastic.autoscale.max_replicas > replicas) {
      std::fprintf(stderr,
                   "--autoscale=on needs 1 <= min-replicas <= max-replicas "
                   "<= replicas (got min=%d max=%d replicas=%ld)\n",
                   elastic.autoscale.min_replicas,
                   elastic.autoscale.max_replicas,
                   static_cast<long>(replicas));
      return 2;
    }
    if (elastic.autoscale.up_queue_tokens <=
        elastic.autoscale.down_queue_tokens) {
      std::fprintf(stderr,
                   "--scale-up-tokens (%ld) must exceed --scale-down-tokens "
                   "(%ld): the gap is the hysteresis band\n",
                   static_cast<long>(elastic.autoscale.up_queue_tokens),
                   static_cast<long>(elastic.autoscale.down_queue_tokens));
      return 2;
    }
    if (elastic.autoscale.check_interval <= 0.0 ||
        elastic.autoscale.cooldown < 0.0) {
      std::fprintf(stderr,
                   "--autoscale=on needs positive --scale-interval and "
                   "non-negative --scale-cooldown\n");
      return 2;
    }
    if (disagg == "on") {
      std::fprintf(stderr,
                   "--autoscale=on is incompatible with --disagg=on (the "
                   "prefill/decode role split assumes a fixed replica set)\n");
      return 2;
    }
  }

  // Fault injection, disaggregation, and the elastic features all run
  // through the cluster layer even with one replica.
  if (replicas > 1 || !fault_events.empty() || elastic.Enabled()) {
    ClusterOptions cluster_options;
    cluster_options.num_replicas = static_cast<int32_t>(replicas);
    cluster_options.router.policy = router_policy;
    cluster_options.router.min_overload_tokens = flags.GetInt("overload_tokens");
    cluster_options.router.overload_factor = flags.GetDouble("overload_factor");
    cluster_options.faults = std::move(fault_events);
    cluster_options.nic_fault_profile = fault_config.nic;
    cluster_options.fault_retry = fault_config.retry;
    cluster_options.fault_seed = fault_config.seed;
    cluster_options.elastic = elastic;
    if (disagg == "on") {
      cluster_options.disagg.enabled = true;
      cluster_options.disagg.prefill_replicas =
          static_cast<int32_t>(prefill_replicas);
      cluster_options.disagg.min_handoff_tokens =
          flags.GetInt("disagg-min-prefill");
      cluster_options.disagg.stream_layers = model.num_layers;
    }
    std::vector<RequestOutcome> outcomes;
    std::vector<ClusterStepTraceEntry> steps;
    cluster_options.outcomes = &outcomes;
    cluster_options.step_trace = &steps;
    const ClusterSummary cs = RunClusterExperiment(
        [&](int32_t replica_id) {
          // Each replica (and each recovery incarnation) draws from its own
          // deterministic fault stream.
          EngineOverrides replica_overrides = overrides;
          replica_overrides.fault_seed =
              fault_config.seed +
              0x9E3779B9ull * static_cast<uint64_t>(replica_id + 1);
          return MakeEngine(kind, cost_model, replica_overrides);
        },
        trace, cluster_options);
    const ServingSummary& s = cs.cluster;
    std::printf("cluster:           %ld x %s behind %s router\n",
                static_cast<long>(replicas), system.c_str(), cs.router_name.c_str());
    std::printf("model:             %s on %d GPU(s) per replica\n",
                model.name.c_str(), model.num_gpus);
    std::printf("requests:          %ld completed, makespan %.1f s\n",
                static_cast<long>(s.completed_requests), s.makespan);
    std::printf("throughput:        %.3f req/s (%.1f tok/s) over steady window "
                "[%.1f, %.1f] s\n",
                s.throughput_rps, s.token_throughput, s.window_begin,
                s.window_end);
    std::printf("norm latency:      mean %.1f / p50 %.1f / p90 %.1f / p99 %.1f "
                "ms per token\n",
                s.mean_normalized_latency * 1e3, s.p50_normalized_latency * 1e3,
                s.p90_normalized_latency * 1e3, s.p99_normalized_latency * 1e3);
    std::printf("cache:             hit %.3f (cpu-tier hit %.3f), %ld tokens "
                "recomputed\n",
                s.engine_stats.CacheHitRate(), s.engine_stats.CpuCacheHitRate(),
                static_cast<long>(s.engine_stats.recomputed_history_tokens));
    std::printf("balance:           load imbalance %.2f (peak/mean busy)\n",
                cs.load_imbalance);
    std::printf("migration:         %ld transfers (%ld rehomes, %ld queued at "
                "home), %.1f MB, %ld tokens adopted, %.3f s stall\n",
                static_cast<long>(cs.migration.migrations),
                static_cast<long>(cs.migration.rehomes),
                static_cast<long>(cs.migration.overload_queued),
                cs.migration.migrated_bytes / 1e6,
                static_cast<long>(cs.migration.migrated_tokens),
                cs.migration.migration_stall_seconds);
    if (cs.faults.failures > 0 || cs.faults.recoveries > 0) {
      std::printf("faults:            %ld failure(s), %ld recovery(ies); %ld "
                  "requests re-routed (%ld orphaned), %ld KV tokens lost, %ld "
                  "generated tokens lost\n",
                  static_cast<long>(cs.faults.failures),
                  static_cast<long>(cs.faults.recoveries),
                  static_cast<long>(cs.faults.rerouted_requests),
                  static_cast<long>(cs.faults.orphaned_requests),
                  static_cast<long>(cs.faults.lost_kv_tokens),
                  static_cast<long>(cs.faults.lost_generated_tokens));
    }
    if (cs.nic_link_faults.InjectedFaults() > 0 ||
        cs.migration.failed_migrations > 0) {
      std::printf("nic-faults:        %s\n",
                  FormatLinkFaultLine(cs.nic_link_faults).c_str());
      std::printf("nic-degrade:       %ld failed migrations, %ld KV tokens "
                  "recomputed at destination\n",
                  static_cast<long>(cs.migration.failed_migrations),
                  static_cast<long>(cs.migration.kv_tokens_lost_in_transit));
    }
    // Empty unless the run actually handed off, so colocated output is
    // bit-identical to pre-disaggregation builds.
    std::printf("%s", FormatHandoffSummary(cs.handoff).c_str());
    // Likewise empty when no probing or scaling happened.
    std::printf("%s", FormatElasticSummary(cs.elastic).c_str());
    std::printf("%s", FormatKvFaultSummary(s.engine_stats).c_str());
    std::printf("%s", FormatSsdTierSummary(s.engine_stats).c_str());
    std::printf("%s", FormatPrefixSharingSummary(s.engine_stats).c_str());
    std::printf("%s", FormatKvQuantSummary(s.engine_stats).c_str());
    for (size_t i = 0; i < cs.replicas.size(); ++i) {
      const ServingSummary& r = cs.replicas[i];
      std::printf("  replica %-2zu       %ld requests, %.1f s busy, hit %.3f\n",
                  i, static_cast<long>(r.completed_requests),
                  r.engine_stats.busy_seconds, r.engine_stats.CacheHitRate());
    }
    if (!flags.GetString("outcomes_csv").empty()) {
      status = WriteOutcomesCsv(flags.GetString("outcomes_csv"), outcomes);
      if (!status.ok()) {
        std::fprintf(stderr, "%s\n", status.ToString().c_str());
        return 1;
      }
      std::printf("wrote %s\n", flags.GetString("outcomes_csv").c_str());
    }
    if (!flags.GetString("steps_csv").empty()) {
      status = WriteClusterStepTraceCsv(flags.GetString("steps_csv"), steps);
      if (!status.ok()) {
        std::fprintf(stderr, "%s\n", status.ToString().c_str());
        return 1;
      }
      std::printf("wrote %s\n", flags.GetString("steps_csv").c_str());
    }
    return DroppedExitCode(s.completed_requests, trace.TotalRequests());
  }

  auto engine = MakeEngine(kind, cost_model, overrides);
  std::vector<RequestOutcome> outcomes;
  std::vector<StepTraceEntry> steps;
  DriverOptions driver_options;
  driver_options.outcomes = &outcomes;
  driver_options.step_trace = &steps;
  const ServingSummary s =
      RunServingExperiment(engine.get(), trace, driver_options);

  std::printf("system:            %s\n", s.engine_name.c_str());
  std::printf("model:             %s on %d GPU(s)\n", model.name.c_str(),
              model.num_gpus);
  std::printf("requests:          %ld completed, makespan %.1f s\n",
              static_cast<long>(s.completed_requests), s.makespan);
  std::printf("throughput:        %.3f req/s (%.1f tok/s) over steady window "
              "[%.1f, %.1f] s\n",
              s.throughput_rps, s.token_throughput, s.window_begin, s.window_end);
  std::printf("norm latency:      mean %.1f / p50 %.1f / p90 %.1f / p99 %.1f "
              "ms per token\n",
              s.mean_normalized_latency * 1e3, s.p50_normalized_latency * 1e3,
              s.p90_normalized_latency * 1e3, s.p99_normalized_latency * 1e3);
  std::printf("cache:             hit %.3f (cpu-tier hit %.3f), %ld tokens "
              "recomputed, %.2f s recompute\n",
              s.engine_stats.CacheHitRate(), s.engine_stats.CpuCacheHitRate(),
              static_cast<long>(s.engine_stats.recomputed_history_tokens),
              s.engine_stats.recompute_seconds);
  std::printf("swapping:          %ld AOT tokens out, %ld forced, %ld dropped, "
              "%.2f s restore stall\n",
              static_cast<long>(s.engine_stats.aot_swap_out_tokens),
              static_cast<long>(s.engine_stats.forced_swap_out_tokens),
              static_cast<long>(s.engine_stats.dropped_tokens),
              s.engine_stats.restore_stall_seconds);
  std::printf("%s", FormatKvFaultSummary(s.engine_stats).c_str());
  std::printf("%s", FormatSsdTierSummary(s.engine_stats).c_str());
  std::printf("%s", FormatPrefixSharingSummary(s.engine_stats).c_str());
  std::printf("%s", FormatKvQuantSummary(s.engine_stats).c_str());
  const StepTraceSummary st = SummarizeStepTrace(steps);
  std::printf("scheduler:         %ld steps, mean batch %.1f requests / %.1f "
              "tokens, %.1f s busy\n",
              static_cast<long>(st.steps), st.mean_batch_requests,
              st.mean_batch_tokens, st.busy_seconds);

  if (!flags.GetString("outcomes_csv").empty()) {
    status = WriteOutcomesCsv(flags.GetString("outcomes_csv"), outcomes);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", flags.GetString("outcomes_csv").c_str());
  }
  if (!flags.GetString("steps_csv").empty()) {
    status = WriteStepTraceCsv(flags.GetString("steps_csv"), steps, weight_quant);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", flags.GetString("steps_csv").c_str());
  }
  return DroppedExitCode(s.completed_requests, trace.TotalRequests());
}

}  // namespace
}  // namespace pensieve

int main(int argc, char** argv) { return pensieve::Run(argc, argv); }
