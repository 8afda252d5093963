// sim-pressure and sim-tiered: serving experiments in virtual time.
//
// Virtual metrics (TTFT, ITL, SLO attainment, goodput) are exact functions
// of the seed. Wall-clock metrics measure the simulator itself: how many
// simulated requests it serves per wall-second, and its set-up cost. The
// traced run wraps every engine the experiment loop builds in a
// TracedEngine and times each call from outside.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "perfbench/src/inputs.h"
#include "perfbench/src/report.h"
#include "perfbench/src/span_trace.h"
#include "perfbench/src/traced_engine.h"
#include "perfbench/src/workloads.h"
#include "src/cluster/cluster_driver.h"
#include "src/common/logging.h"
#include "src/core/experiment.h"
#include "src/serving/driver.h"
#include "src/sim/cost_model.h"
#include "src/sim/hardware.h"
#include "src/workload/trace.h"

namespace perfbench {
namespace {

using pensieve::EngineStats;
using pensieve::RequestOutcome;

// Latency limits of the SLO (paper-style interactive chat).
constexpr double kTtftLimitS = 2.0;
constexpr double kItlLimitS = 0.100;

struct SimSpec {
  const char* model;
  int32_t replicas;  // 1 = RunServingExperiment (no cluster layer)
  double conversation_rate;
  double think_time;
  int64_t conversations;  // per sub-trace
  // Independent traces per run, pooled: tail percentiles of one trace swing
  // with its arrival process, so a run rests on several.
  int64_t sub_traces;
  double cache_scale;
  double cpu_scale;
  double ssd_gb;
  int64_t templates;
  int64_t template_len;
};

SimSpec SpecFor(const std::string& workload, bool small) {
  if (workload == "sim-pressure") {
    // opt-13b behind 4 session-affinity replicas with paper-size tiers.
    // 1500 conversations per trace keep the run below the SLO knee: at
    // 3000 (attainment 0.95) p99 TTFT swings by 10x between seeds, because
    // whether a backlog forms at all depends on the arrival draw.
    return {.model = "opt-13b",
            .replicas = 4,
            .conversation_rate = 2.0,
            .think_time = 60.0,
            .conversations = small ? 200 : 1500,
            .sub_traces = small ? 1 : 4,
            .cache_scale = 1.0,
            .cpu_scale = 1.0,
            .ssd_gb = 0.0,
            .templates = 0,
            .template_len = 0};
  }
  // opt-66b on one engine with shrunken GPU/CPU tiers over a 128 GiB flash
  // tier, and 8 shared 512-token templates. The engine is overloaded, so
  // queueing sets TTFT; with stratified inputs that is steady across seeds.
  return {.model = "opt-66b",
          .replicas = 1,
          .conversation_rate = 1.5,
          .think_time = 60.0,
          .conversations = small ? 150 : 300,
          .sub_traces = small ? 1 : 8,
          .cache_scale = 0.3,
          .cpu_scale = 0.3,
          .ssd_gb = 128.0,
          .templates = 8,
          .template_len = 512};
}

pensieve::TraceOptions TraceOptionsFor(const SimSpec& spec, uint64_t seed) {
  pensieve::TraceOptions options;
  options.num_conversations = spec.conversations;
  options.conversation_rate = spec.conversation_rate;
  options.mean_think_time = spec.think_time;
  options.seed = seed;
  options.num_prefix_templates = spec.templates;
  options.prefix_len = spec.template_len;
  return options;
}

pensieve::WorkloadTrace MakeTrace(const SimSpec& spec, uint64_t seed) {
  const pensieve::DatasetProfile profile = pensieve::ShareGptProfile();
  return pensieve::WorkloadTrace(
      StratifiedConversations(profile, spec.conversations, seed), profile,
      TraceOptionsFor(spec, seed));
}

pensieve::EngineOverrides OverridesFor(const SimSpec& spec) {
  pensieve::EngineOverrides overrides;
  overrides.cache_scale = spec.cache_scale;
  overrides.cpu_cache_scale = spec.cpu_scale;
  overrides.ssd_capacity_gb = spec.ssd_gb;
  return overrides;
}

// Everything one simulation leaves behind.
struct SimRep {
  double trace_gen_s = 0.0;
  double engine_build_s = 0.0;
  double run_wall_s = 0.0;  // experiment call, engine construction included
  int64_t requests_sent = 0;
  std::vector<RequestOutcome> outcomes;
  pensieve::ServingSummary summary;                // all replicas combined
  std::vector<EngineStats> replica_stats;          // one per replica
  std::optional<pensieve::ClusterSummary> cluster;  // cluster runs only
  EngineCallTimes times;                           // traced runs only
  uint64_t digest = 0;

  double SimSeconds() const { return run_wall_s - engine_build_s; }
};

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h;
}

uint64_t Bits(double d) {
  uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// Independent of the order outcomes were collected in: hashes them by
// request id plus the combined engine counters.
uint64_t OutcomeDigest(std::vector<RequestOutcome> outcomes,
                       const EngineStats& stats) {
  std::sort(outcomes.begin(), outcomes.end(),
            [](const RequestOutcome& a, const RequestOutcome& b) {
              return a.request.request_id < b.request.request_id;
            });
  uint64_t h = 1469598103934665603ull;
  for (const RequestOutcome& o : outcomes) {
    h = Mix(h, static_cast<uint64_t>(o.request.request_id));
    h = Mix(h, Bits(o.request.arrival_time));
    h = Mix(h, Bits(o.first_scheduled_time));
    h = Mix(h, Bits(o.first_token_time));
    h = Mix(h, Bits(o.finish_time));
    h = Mix(h, static_cast<uint64_t>(o.generated_tokens));
    h = Mix(h, static_cast<uint64_t>(o.prefill_input_tokens));
    h = Mix(h, static_cast<uint64_t>(o.recomputed_tokens));
    h = Mix(h, static_cast<uint64_t>(o.reused_cpu_tokens));
    h = Mix(h, static_cast<uint64_t>(o.reused_ssd_tokens));
  }
  h = Mix(h, static_cast<uint64_t>(stats.steps));
  h = Mix(h, static_cast<uint64_t>(stats.aot_swap_out_tokens));
  h = Mix(h, static_cast<uint64_t>(stats.dropped_tokens));
  h = Mix(h, static_cast<uint64_t>(stats.ssd_gc_moves));
  h = Mix(h, static_cast<uint64_t>(stats.kv_block_acquires));
  return h;
}

// One full simulation. With `trace` non-null every engine is wrapped and
// every call into it becomes a span.
SimRep RunOnce(const SimSpec& spec, uint64_t seed, SpanTrace* trace) {
  SimRep rep;
  const int32_t gen_span =
      trace ? trace->Begin("workload.trace_gen", SpanTrace::kNoParent, -1) : 0;
  Clock::time_point start = Clock::now();
  const pensieve::WorkloadTrace workload = MakeTrace(spec, seed);
  rep.trace_gen_s = SecondsSince(start);
  if (trace) {
    trace->End(gen_span);
  }
  rep.requests_sent = workload.TotalRequests();

  pensieve::ModelConfig model;
  PENSIEVE_CHECK(pensieve::ModelConfigByName(spec.model, &model));
  const pensieve::GpuCostModel cost_model(model,
                                          pensieve::A100Spec(model.num_gpus));
  const pensieve::EngineOverrides overrides = OverridesFor(spec);
  const int32_t run_span =
      trace ? trace->Begin(spec.replicas > 1 ? "cluster.run" : "serving.run",
                           SpanTrace::kNoParent, -1)
            : 0;
  auto make_engine = [&](int32_t replica_id) {
    const Clock::time_point build_start = Clock::now();
    std::unique_ptr<pensieve::Engine> engine = pensieve::MakeEngine(
        pensieve::SystemKind::kPensieve, cost_model, overrides);
    const Clock::time_point build_end = Clock::now();
    rep.engine_build_s +=
        std::chrono::duration<double>(build_end - build_start).count();
    if (trace == nullptr) {
      return engine;
    }
    trace->Add("engine.build", build_start, build_end, run_span, replica_id);
    return std::unique_ptr<pensieve::Engine>(std::make_unique<TracedEngine>(
        std::move(engine), replica_id, trace, run_span, &rep.times));
  };

  start = Clock::now();
  if (spec.replicas > 1) {
    pensieve::ClusterOptions options;
    options.num_replicas = spec.replicas;
    options.router.policy = pensieve::RouterPolicy::kSessionAffinity;
    options.outcomes = &rep.outcomes;
    rep.cluster =
        pensieve::RunClusterExperiment(make_engine, workload, options);
    rep.run_wall_s = SecondsSince(start);
    rep.summary = rep.cluster->cluster;
    for (const pensieve::ServingSummary& r : rep.cluster->replicas) {
      rep.replica_stats.push_back(r.engine_stats);
    }
  } else {
    std::unique_ptr<pensieve::Engine> engine = make_engine(0);
    pensieve::DriverOptions options;
    options.outcomes = &rep.outcomes;
    rep.summary =
        pensieve::RunServingExperiment(engine.get(), workload, options);
    rep.run_wall_s = SecondsSince(start);
    rep.replica_stats.push_back(rep.summary.engine_stats);
  }
  if (trace) {
    trace->End(run_span);
  }
  rep.digest = OutcomeDigest(rep.outcomes, rep.summary.engine_stats);
  return rep;
}

// Set-up alone: trace generation plus construction of every replica's
// engine, as a fresh run pays it.
double SetupSeconds(const SimSpec& spec, uint64_t seed) {
  const Clock::time_point start = Clock::now();
  const pensieve::WorkloadTrace workload = MakeTrace(spec, seed);
  pensieve::ModelConfig model;
  PENSIEVE_CHECK(pensieve::ModelConfigByName(spec.model, &model));
  const pensieve::GpuCostModel cost_model(model,
                                          pensieve::A100Spec(model.num_gpus));
  std::vector<std::unique_ptr<pensieve::Engine>> engines;
  for (int32_t r = 0; r < spec.replicas; ++r) {
    engines.push_back(pensieve::MakeEngine(pensieve::SystemKind::kPensieve,
                                           cost_model, OverridesFor(spec)));
  }
  const double seconds = SecondsSince(start);
  PENSIEVE_CHECK_GT(workload.TotalRequests(), 0);
  return seconds;
}

// Pooled over the run's sub-traces: every sampled latency plus the
// counters that sum across simulations.
struct Pooled {
  std::vector<double> ttft_s;
  std::vector<double> itl_ms;
  std::vector<double> e2e_ms;
  std::vector<double> queue_wait_s;
  int64_t requests_sent = 0;
  int64_t slo_met = 0;
  int64_t slo_met_in_window = 0;
  double window_s = 0.0;
  double window_tokens = 0.0;
  int64_t window_completions = 0;
  EngineStats stats;
  EngineCallTimes times;
  std::vector<double> first_turn_prefill;  // template conversations
  pensieve::MigrationStats migration;
  double load_imbalance_sum = 0.0;
  int64_t clusters = 0;
  double trace_gen_s = 0.0;
  double engine_build_s = 0.0;
  double sim_s = 0.0;
};

void Accumulate(const SimRep& rep, Pooled* p) {
  const pensieve::ServingSummary& s = rep.summary;
  for (const RequestOutcome& o : rep.outcomes) {
    const double arrival = o.request.arrival_time;
    const double ttft = o.first_token_time - arrival;
    p->ttft_s.push_back(ttft);
    p->e2e_ms.push_back((o.finish_time - arrival) * 1e3);
    p->queue_wait_s.push_back(o.first_scheduled_time - arrival);
    bool itl_ok = true;
    if (o.generated_tokens > 1) {
      const double itl = (o.finish_time - o.first_token_time) /
                         static_cast<double>(o.generated_tokens - 1);
      p->itl_ms.push_back(itl * 1e3);
      itl_ok = itl <= kItlLimitS;
    }
    if (o.first_token_time > 0.0 && ttft <= kTtftLimitS && itl_ok) {
      ++p->slo_met;
      if (o.finish_time >= s.window_begin && o.finish_time <= s.window_end) {
        ++p->slo_met_in_window;
      }
    }
    if (o.request.turn_index == 0 && o.request.template_id >= 0) {
      p->first_turn_prefill.push_back(
          static_cast<double>(o.prefill_input_tokens));
    }
  }
  p->requests_sent += rep.requests_sent;
  const double window = s.window_end - s.window_begin;
  p->window_s += window;
  p->window_tokens += s.token_throughput * window;
  p->window_completions += s.window_completions;
  p->stats += s.engine_stats;
  const EngineCallTimes& t = rep.times;
  p->times.step_calls += t.step_calls;
  p->times.step_s += t.step_s;
  p->times.step_us.insert(p->times.step_us.end(), t.step_us.begin(),
                          t.step_us.end());
  p->times.evict_steps += t.evict_steps;
  p->times.evict_step_s += t.evict_step_s;
  p->times.busy_steps += t.busy_steps;
  p->times.batch_tokens += t.batch_tokens;
  p->times.batch_requests += t.batch_requests;
  p->times.load_calls += t.load_calls;
  p->times.load_s += t.load_s;
  p->times.enqueue_s += t.enqueue_s;
  p->times.migration_s += t.migration_s;
  p->times.query_s += t.query_s;
  if (rep.cluster) {
    const pensieve::MigrationStats& m = rep.cluster->migration;
    p->migration.migrations += m.migrations;
    p->migration.migrated_bytes += m.migrated_bytes;
    p->migration.migration_stall_seconds += m.migration_stall_seconds;
    p->load_imbalance_sum += rep.cluster->load_imbalance;
    ++p->clusters;
  }
  p->trace_gen_s += rep.trace_gen_s;
  p->engine_build_s += rep.engine_build_s;
  p->sim_s += rep.SimSeconds();
}

void AddEndToEnd(const Pooled& p, double req_per_s, int64_t sims,
                 const SetupSampler& setup, Report* report) {
  const int64_t n_ttft = static_cast<int64_t>(p.ttft_s.size());
  const int64_t n_itl = static_cast<int64_t>(p.itl_ms.size());
  const int64_t n_e2e = static_cast<int64_t>(p.e2e_ms.size());
  report->Add("ttft_p50_s", Quantile(p.ttft_s, 0.50), "s", n_ttft);
  report->Add("ttft_p99_s", Quantile(p.ttft_s, 0.99), "s", n_ttft);
  report->Add("itl_p50_ms", Quantile(p.itl_ms, 0.50), "ms", n_itl);
  report->Add("itl_p99_ms", Quantile(p.itl_ms, 0.99), "ms", n_itl);
  report->Add("slo_attain",
              static_cast<double>(p.slo_met) /
                  static_cast<double>(p.requests_sent),
              "frac", p.requests_sent);
  report->Add("goodput_rps",
              static_cast<double>(p.slo_met_in_window) / p.window_s, "1/s",
              p.slo_met_in_window);
  report->Add("sim_req_per_s", req_per_s, "1/s", sims);
  report->Add("turn_ms_p50", Quantile(p.e2e_ms, 0.50), "ms", n_e2e);
  report->Add("turn_ms_p90", Quantile(p.e2e_ms, 0.90), "ms", n_e2e);
  report->Add("tok_per_s", p.window_tokens / p.window_s, "1/s",
              p.window_completions);
  report->Add("setup_s", setup.Value(), "s", setup.count());
}

void AddPerLayer(const Pooled& p, double untraced_sim_s, Report* report) {
  const EngineCallTimes& t = p.times;
  const EngineStats& st = p.stats;
  // cluster (experiment loop and routing)
  report->Add("cluster.driver_self_s", p.sim_s - t.InsideEngineSeconds(), "s");
  report->Add("cluster.load_calls", static_cast<double>(t.load_calls), "count");
  report->Add("cluster.load_s", t.load_s, "s");
  if (p.clusters > 0) {
    report->Add("cluster.migrations",
                static_cast<double>(p.migration.migrations), "count");
    report->Add("cluster.migrated_mb", p.migration.migrated_bytes / 1e6, "MB");
    report->Add("cluster.migration_stall_s",
                p.migration.migration_stall_seconds, "s");
    report->Add("cluster.load_imbalance",
                p.load_imbalance_sum / static_cast<double>(p.clusters),
                "ratio");
  }
  // serving (engine steps)
  report->Add("serving.step_calls", static_cast<double>(t.step_calls), "count");
  report->Add("serving.step_s", t.step_s, "s");
  report->Add("serving.step_us_p50", Quantile(t.step_us, 0.50), "us",
              t.step_calls);
  report->Add("serving.step_us_p99", Quantile(t.step_us, 0.99), "us",
              t.step_calls);
  const double busy = static_cast<double>(std::max<int64_t>(t.busy_steps, 1));
  report->Add("serving.batch_tokens_mean",
              static_cast<double>(t.batch_tokens) / busy, "tokens");
  report->Add("serving.batch_requests_mean",
              static_cast<double>(t.batch_requests) / busy, "requests");
  const int64_t n = static_cast<int64_t>(p.queue_wait_s.size());
  report->Add("serving.queue_wait_p50_s", Quantile(p.queue_wait_s, 0.50), "s",
              n);
  report->Add("serving.queue_wait_p99_s", Quantile(p.queue_wait_s, 0.99), "s",
              n);
  report->Add("serving.restore_stall_s", st.restore_stall_seconds, "s");
  report->Add("serving.recompute_s", st.recompute_seconds, "s");
  report->Add("serving.busy_s", st.busy_seconds, "s");
  report->Add("serving.preemptions", static_cast<double>(st.preemptions),
              "count");
  report->Add("serving.suspensions", static_cast<double>(st.suspensions),
              "count");
  // scheduler / eviction
  report->Add("scheduler.evict_steps", static_cast<double>(t.evict_steps),
              "count");
  report->Add("scheduler.evict_step_s", t.evict_step_s, "s");
  report->Add("scheduler.evict_step_share", t.evict_step_s / p.sim_s, "frac");
  // kvcache
  report->Add("kvcache.hit_rate", st.CacheHitRate(), "frac");
  report->Add("kvcache.cpu_hit_rate", st.CpuCacheHitRate(), "frac");
  report->Add("kvcache.swap_out_tokens",
              static_cast<double>(st.aot_swap_out_tokens +
                                  st.forced_swap_out_tokens),
              "tokens");
  report->Add("kvcache.swap_in_tokens",
              static_cast<double>(st.reused_cpu_tokens + st.reused_ssd_tokens),
              "tokens");
  report->Add("kvcache.dropped_tokens", static_cast<double>(st.dropped_tokens),
              "tokens");
  report->Add("kvcache.recomputed_tokens",
              static_cast<double>(st.recomputed_history_tokens), "tokens");
  // References (a shared block counts once per view) and physical blocks
  // are different quantities: live_refs may exceed gpu_peak_blocks.
  report->Add("kvcache.block_acquires",
              static_cast<double>(st.kv_block_acquires), "count");
  report->Add("kvcache.block_releases",
              static_cast<double>(st.kv_block_releases), "count");
  report->Add("kvcache.live_refs", static_cast<double>(st.kv_blocks_live),
              "count");
  report->Add("kvcache.gpu_peak_blocks",
              static_cast<double>(st.gpu_peak_allocated_blocks), "count");
  // kvcache/flash (zero when the tier is off)
  const bool flash = st.ssd_user_blocks_written > 0;
  report->Add("flash.demoted_chunks",
              static_cast<double>(st.ssd_demoted_chunks), "count");
  report->Add("flash.promoted_chunks",
              static_cast<double>(st.ssd_promoted_chunks), "count");
  report->Add("flash.hit_rate", flash ? st.SsdCacheHitRate() : 0.0, "frac");
  report->Add("flash.gc_moves", static_cast<double>(st.ssd_gc_moves), "count");
  report->Add("flash.write_amp", flash ? st.SsdWriteAmplification() : 0.0,
              "ratio");
  report->Add("flash.evicted_chunks",
              static_cast<double>(st.ssd_evicted_chunks), "count");
  // kvcache/prefix_trie
  report->Add("prefix.dedup_hit_requests",
              static_cast<double>(st.dedup_hit_requests), "count");
  report->Add("prefix.shared_tokens",
              static_cast<double>(st.reused_shared_tokens), "tokens");
  report->Add("prefix.cow_copies", static_cast<double>(st.cow_copies), "count");
  double mean_prefill = 0.0;
  for (double v : p.first_turn_prefill) {
    mean_prefill += v / static_cast<double>(p.first_turn_prefill.size());
  }
  report->Add("prefix.template_first_turn_prefill_tokens", mean_prefill,
              "tokens", static_cast<int64_t>(p.first_turn_prefill.size()));
  // workload and set-up
  report->Add("workload.trace_gen_s", p.trace_gen_s, "s");
  report->Add("serving.engine_build_s", p.engine_build_s, "s");
  report->Add("trace.overhead_frac", p.sim_s / untraced_sim_s - 1.0, "frac");
}

void CheckRep(const SimRep& rep, const std::string& label, Gates* gates) {
  gates->AddOperations(rep.requests_sent,
                       rep.requests_sent -
                           static_cast<int64_t>(rep.outcomes.size()));
  gates->Check(static_cast<int64_t>(rep.outcomes.size()) == rep.requests_sent,
               label + ": every request completes");
  bool balanced = true;
  for (const EngineStats& s : rep.replica_stats) {
    balanced = balanced && s.kv_blocks_live >= 0 &&
               s.kv_block_acquires == s.kv_block_releases + s.kv_blocks_live;
  }
  gates->Check(balanced, label + ": allocator ledger balances per replica");
}

// Seed of sub-trace i of a run (splitmix64 of the run seed, offset by i).
uint64_t SubTraceSeed(uint64_t seed, int64_t i) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) + static_cast<uint64_t>(i);
}

}  // namespace

bool IsSimWorkload(const std::string& name) {
  return name == "sim-pressure" || name == "sim-tiered";
}

void RunSimWorkload(const RunArgs& args, Report* report, Gates* gates) {
  const SimSpec spec = SpecFor(args.workload, args.small);

  // Set-up: a burst of set-ups before the measured region and after each
  // simulation in it, so the samples span the run (see SetupSampler).
  SetupSampler setup;
  auto setup_burst = [&] {
    for (int r = 0; r < SetupSampler::kSamples; ++r) {
      setup.Add(SetupSeconds(spec, SubTraceSeed(args.seed, 0)));
    }
  };
  setup_burst();

  // Measured region. The first pass simulates each sub-trace once; its
  // pooled outcomes give the virtual metrics. Further passes repeat the
  // sub-traces until the time budget is spent, adding wall-time samples
  // and checking the simulator is deterministic. The simulator's rate is
  // the median over sub-traces of each one's rate at its fastest
  // simulation: the host's speed drifts by 15-30% within minutes, so a
  // repeat that catches a faster stretch replaces the slower sample (as
  // the best over passes does on numeric-chat), and the median keeps one
  // slow sub-trace from moving the result. A traced run follows each
  // untraced simulation with a traced one of the same sub-trace, so the
  // tracing overhead is a paired comparison on the same host state.
  std::vector<SimRep> first_pass;
  Pooled untraced;
  Pooled traced;
  std::vector<double> best_sim_s(static_cast<size_t>(spec.sub_traces),
                                 std::numeric_limits<double>::infinity());
  int64_t sims = 0;
  std::unique_ptr<SpanTrace> kept_trace;  // spans of sub-trace 0
  bool deterministic = true;
  bool invisible = true;
  const Clock::time_point start = Clock::now();
  for (int64_t i = 0;; ++i) {
    const int64_t k = i % spec.sub_traces;
    const uint64_t seed = SubTraceSeed(args.seed, k);
    SimRep rep = RunOnce(spec, seed, nullptr);
    best_sim_s[static_cast<size_t>(k)] =
        std::min(best_sim_s[static_cast<size_t>(k)], rep.SimSeconds());
    ++sims;
    setup_burst();
    if (i < spec.sub_traces) {
      CheckRep(rep, args.workload + " sub-trace " + std::to_string(k), gates);
      first_pass.push_back(std::move(rep));
    } else {
      deterministic = deterministic &&
                      rep.digest == first_pass[static_cast<size_t>(k)].digest;
    }
    if (args.trace && i < spec.sub_traces) {
      auto spans = std::make_unique<SpanTrace>();
      const SimRep traced_rep = RunOnce(spec, seed, spans.get());
      invisible = invisible &&
                  traced_rep.digest ==
                      first_pass[static_cast<size_t>(k)].digest;
      Accumulate(first_pass.back(), &untraced);
      Accumulate(traced_rep, &traced);
      if (k == 0) {
        kept_trace = std::move(spans);
      }
    }
    if (i + 1 >= spec.sub_traces && SecondsSince(start) >= args.seconds) {
      break;
    }
  }
  if (sims > spec.sub_traces) {
    gates->Check(deterministic, "repeated simulations are identical");
  }

  if (!args.trace) {
    for (const SimRep& rep : first_pass) {
      Accumulate(rep, &untraced);
    }
    std::vector<double> best_rates;
    for (size_t k = 0; k < first_pass.size(); ++k) {
      best_rates.push_back(static_cast<double>(first_pass[k].requests_sent) /
                           best_sim_s[k]);
    }
    AddEndToEnd(untraced, Median(best_rates), sims, setup, report);
    return;
  }
  gates->Check(invisible, "traced runs' virtual outcomes match untraced");
  AddPerLayer(traced, untraced.sim_s, report);
  const bool written = kept_trace->WriteChromeJson(
      args.trace_out, args.host_json + ", \"workload\": \"" + args.workload +
                          "\", \"seed\": " + std::to_string(args.seed));
  gates->Check(written, "trace written to " + args.trace_out);
  std::printf("trace: %lld spans of sub-trace 0 -> %s\n",
              static_cast<long long>(kept_trace->size()),
              args.trace_out.c_str());
}

}  // namespace perfbench
