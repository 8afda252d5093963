// numeric-chat: StatefulLlmServer running a real CPU transformer.
//
// One closed-loop client interleaves kSlots conversations round-robin: it
// sends a conversation's next turn only after the previous Chat returned.
// The GPU pool is smaller than the conversations' combined KV, so turns
// find their history GPU-resident (warm), swapped to the CPU tier
// (restore) or partly dropped (recompute). The benchmark classifies each
// turn from the cache before the call and times the call from outside.
//
// Chat is a non-streaming call: the reply, first token included, reaches
// the caller when it returns. The latency metrics are defined on that:
// TTFT is the call's wall time, ITL its wall time per generated token.
//
// The traced run then replays the run's median prefill and decode shapes
// through Transformer::ForwardInto, MultiTokenPagedAttention and the packed
// GEMMs on the server's model, splitting a decode step into attention,
// GEMM and the remainder.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/inputs.h"
#include "perfbench/src/report.h"
#include "perfbench/src/span_trace.h"
#include "perfbench/src/workloads.h"
#include "src/common/logging.h"
#include "src/core/stateful_server.h"
#include "src/kernels/attention.h"
#include "src/kvcache/kv_pool.h"
#include "src/model/transformer.h"
#include "src/tensor/ops.h"
#include "src/tensor/packed_matrix.h"
#include "src/tensor/workspace.h"
#include "src/workload/dataset.h"

namespace perfbench {
namespace {

using pensieve::ContextState;

constexpr double kTtftLimitS = 2.0;
constexpr double kItlLimitS = 0.100;
constexpr int64_t kSlots = 8;  // conversations interleaved
constexpr int64_t kBlockSize = 16;
constexpr int64_t kMaxContext = 1024;  // tokens per conversation
constexpr uint64_t kWeightSeed = 1234;
// Conversation shapes (turn counts and lengths) and their order are the
// same for every run seed, so every seed sees the same cache dynamics: the
// same turns restore or recompute. The run seed sets the token contents.
// With seed-dependent shapes, which turns recompute changed from seed to
// seed and moved the latency tail by 2x; the workload measures the numeric
// path, so its spread should be the host's.
constexpr uint64_t kShapeSeed = 42;

// CPU-sized GQA model (the server CHECKs hidden <= 512).
pensieve::ModelConfig NumericModel() {
  pensieve::ModelConfig c;
  c.name = "bench-gqa-512";
  c.num_layers = 4;
  c.hidden_size = 512;
  c.num_heads = 8;
  c.num_kv_heads = 2;
  c.head_dim = 64;
  c.ffn_hidden = 1408;
  c.vocab_size = 4096;
  c.max_context = kMaxContext + 64;
  c.activation = pensieve::Activation::kSilu;
  c.norm = pensieve::NormKind::kRmsNorm;
  c.pos_embedding = pensieve::PositionEmbedding::kRotary;
  c.gated_ffn = true;
  c.qkv_bias = false;
  c.bytes_per_value = 4;
  return c;
}

// Tier sizes follow from the working set W: kSlots conversations at the
// mean final KV size of the conversation set. The GPU pool holds W/2 and
// the CPU tier W/4, so the GPU pool is smaller than the working set
// (swap-out and restore) and both tiers together are too (dropped-prefix
// recompute).
pensieve::StatefulServerConfig ServerConfig(
    const std::vector<pensieve::ConversationSpec>& convs) {
  int64_t tokens = 0;
  for (const pensieve::ConversationSpec& c : convs) {
    tokens += std::min(c.TotalTokens(), kMaxContext);
  }
  const int64_t working_set_blocks =
      kSlots * tokens / (static_cast<int64_t>(convs.size()) * kBlockSize);
  pensieve::StatefulServerConfig config;
  config.model = NumericModel();
  config.block_size = kBlockSize;
  config.num_gpu_blocks = working_set_blocks / 2;
  config.num_cpu_blocks = working_set_blocks / 4;
  config.weight_seed = kWeightSeed;
  return config;
}

// ShareGPT's Table 2 shape with every length scaled by 1/4 (a CPU turn
// then takes about a tenth of a second instead of a second) and a
// 1024-token context cap.
pensieve::DatasetProfile ChatProfile() {
  pensieve::DatasetProfile p = pensieve::ShareGptProfile();
  p.name = "sharegpt/4";
  p.mean_input_len /= 4.0;
  p.mean_output_len /= 4.0;
  p.max_context = kMaxContext;
  return p;
}

enum TurnClass { kCold = 0, kWarm, kRestore, kRecompute, kNumClasses };
const char* const kClassSpan[kNumClasses] = {"core.chat.cold", "core.chat.warm",
                                             "core.chat.restore",
                                             "core.chat.recompute"};

struct Turn {
  TurnClass cls = kCold;
  double seconds = 0.0;
  int64_t generated = 0;
  int64_t history = 0;    // KV tokens of the conversation before the call
  int64_t cpu_only = 0;   // of which CPU-only (swapped in by the call)
  int64_t dropped = 0;    // of which dropped (recomputed by the call)
  int64_t prefill = 0;    // tokens the call's prefill pass processes
  int64_t decode_context = 0;  // context at the middle decode step
};

struct PassResult {
  std::vector<Turn> turns;
  int64_t failed = 0;
  int64_t checks = 0;
  int64_t mismatches = 0;
  int64_t dropped_by_calls = 0;    // KV tokens other conversations lost
  int64_t swap_out_blocks = 0;     // CPU-tier blocks written
};

int64_t DroppedTokensAll(const pensieve::TwoTierKvCache& cache) {
  int64_t total = 0;
  for (const auto& [id, conv] : cache.conversations()) {
    total += conv.TokensDropped();
  }
  return total;
}

std::vector<int32_t> Tokens(uint64_t salt, int64_t conversation, int64_t start,
                            int64_t n, int32_t vocab) {
  std::vector<int32_t> out;
  out.reserve(static_cast<size_t>(n));
  const int64_t key =
      static_cast<int64_t>((salt * 0x9E3779B97F4A7C15ull) >> 20) +
                      conversation;
  for (int64_t i = 0; i < n; ++i) {
    out.push_back(pensieve::SyntheticToken(key, start + i, vocab));
  }
  return out;
}

// Serves every conversation once, kSlots at a time, round-robin. Turns
// whose index is a multiple of `check_every` are replayed statelessly on
// `reference` (outside the timed call) and must produce the same tokens.
PassResult ServePass(pensieve::StatefulLlmServer* server,
                     pensieve::StatefulLlmServer* reference,
                     const std::vector<pensieve::ConversationSpec>& convs,
                     uint64_t seed, int64_t pass, int64_t check_every,
                     SpanTrace* trace, int32_t parent) {
  PassResult result;
  const int32_t vocab =
      static_cast<int32_t>(server->model().config().vocab_size);
  struct Slot {
    int64_t conv = -1;  // index into convs
    int64_t turn = 0;
  };
  std::vector<Slot> slots(static_cast<size_t>(kSlots));
  int64_t next_conv = 0;
  int64_t turn_seq = 0;
  auto uid = [&](int64_t conv) {
    return pass * static_cast<int64_t>(convs.size()) + conv;
  };
  for (bool active = true; active;) {
    active = false;
    for (Slot& slot : slots) {
      if (slot.conv < 0 && next_conv < static_cast<int64_t>(convs.size())) {
        slot = {next_conv++, 0};
      }
      if (slot.conv < 0) {
        continue;
      }
      active = true;
      const pensieve::ConversationSpec& spec =
          convs[static_cast<size_t>(slot.conv)];
      const pensieve::TurnSpec& ts = spec.turns[static_cast<size_t>(slot.turn)];
      const int64_t id = uid(slot.conv);

      // Classify from the cache before the call.
      Turn turn;
      // Raw history (prompts and replies) before the call. Its last token
      // has no KV yet: Chat leaves each reply's final token pending.
      const int64_t raw_history =
          static_cast<int64_t>(server->History(id).size());
      if (const ContextState* conv = server->cache().Find(id)) {
        turn.history = conv->kv_len();
        turn.cpu_only = conv->TokensCpuOnly();
        turn.dropped = conv->LeadingDroppedTokens();
        turn.cls = turn.dropped > 0    ? kRecompute
                   : turn.cpu_only > 0 ? kRestore
                                       : kWarm;
      }
      const std::vector<int32_t> prompt = Tokens(
          seed, slot.conv, spec.HistoryLenBeforeTurn(slot.turn), ts.input_len,
          vocab);
      turn.prefill = turn.dropped + (raw_history - turn.history) + ts.input_len;
      turn.decode_context = raw_history + ts.input_len + ts.output_len / 2;
      const bool check = turn_seq % check_every == 0;
      std::vector<int32_t> full_prompt;
      if (check) {
        full_prompt = server->History(id);
        full_prompt.insert(full_prompt.end(), prompt.begin(), prompt.end());
      }
      const int64_t dropped_before = DroppedTokensAll(server->cache());
      const int64_t cpu_acquires_before =
          server->cache().cpu_allocator().total_acquires();

      const Clock::time_point start = Clock::now();
      auto reply = server->Chat(id, prompt, ts.output_len);
      const Clock::time_point end = Clock::now();

      turn.seconds = std::chrono::duration<double>(end - start).count();
      if (trace != nullptr) {
        trace->Add(kClassSpan[turn.cls], start, end, parent, -1, {turn_seq});
      }
      if (!reply.ok()) {
        ++result.failed;
        std::printf("chat failed: conversation %lld turn %lld: %s\n",
                    static_cast<long long>(id),
                    static_cast<long long>(slot.turn),
                    reply.status().ToString().c_str());
      } else {
        turn.generated = static_cast<int64_t>(reply.value().size());
        result.dropped_by_calls +=
            DroppedTokensAll(server->cache()) - dropped_before + turn.dropped;
        result.swap_out_blocks +=
            server->cache().cpu_allocator().total_acquires() -
            cpu_acquires_before;
        if (check) {
          // A fresh conversation on the reference server replays the whole
          // history statelessly; its reply must match token for token.
          const int64_t ref_id = 1;
          auto expected = reference->Chat(ref_id, full_prompt, ts.output_len);
          reference->EndConversation(ref_id);
          ++result.checks;
          if (!expected.ok() || expected.value() != reply.value()) {
            ++result.mismatches;
          }
        }
      }
      result.turns.push_back(turn);
      ++turn_seq;
      if (++slot.turn == static_cast<int64_t>(spec.turns.size()) ||
          !reply.ok()) {
        server->EndConversation(id);
        slot.conv = -1;
      }
    }
  }
  return result;
}

// --- Replay of the run's median shapes (traced run) ----------------------

struct Replay {
  double prefill_ms_per_tok = 0.0;
  double decode_step_ms = 0.0;
  double attn_decode_us = 0.0;
  double attn_decode_gbps = 0.0;
  double gemm_decode_us = 0.0;
  double gemm_prefill_gflops = 0.0;
};

template <typename Fn>
double Seconds(Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return SecondsSince(start);
}

template <typename Fn>
double MedianSeconds(int reps, Fn&& fn) {
  std::vector<double> s;
  for (int r = 0; r < reps; ++r) {
    s.push_back(Seconds(fn));
  }
  return Median(s);
}

// One packed GEMM with its input and output allocated up front, so a timed
// call runs the kernel alone, as the model's workspace-backed calls do.
struct GemmCall {
  pensieve::Tensor a;
  pensieve::Tensor c;
  const pensieve::PackedMatrix* w;
};

Replay ReplayShapes(const pensieve::Transformer& model, int64_t prefill,
                    int64_t context, SpanTrace* trace, int32_t parent) {
  const pensieve::ModelConfig& cfg = model.config();
  constexpr int kReps = 15;
  Replay out;
  const int64_t blocks =
      (std::max(prefill, context) + kBlockSize) / kBlockSize + 1;
  pensieve::KvPool pool(blocks, kBlockSize, cfg.num_layers, cfg.num_kv_heads,
                        cfg.head_dim);
  std::vector<pensieve::BlockId> table;
  for (int64_t b = 0; b < blocks; ++b) {
    table.push_back(static_cast<pensieve::BlockId>(b));
  }
  auto batch_of = [&](int64_t first, int64_t n, int64_t context_len) {
    pensieve::ForwardBatch batch;
    for (int64_t i = first; i < first + n; ++i) {
      batch.tokens.push_back(pensieve::SyntheticToken(
          7, i, static_cast<int32_t>(cfg.vocab_size)));
      batch.positions.push_back(i);
      batch.kv_slots.push_back(
          {static_cast<pensieve::BlockId>(i / kBlockSize), i % kBlockSize});
    }
    batch.subs.push_back({0, n, context_len, &table});
    batch.logit_rows.push_back(n - 1);
    return batch;
  };
  pensieve::Tensor logits;
  Clock::time_point start = Clock::now();
  const pensieve::ForwardBatch pre = batch_of(0, prefill, prefill);
  model.ForwardInto(&pool, pre, &logits);  // warm the workspace
  out.prefill_ms_per_tok =
      MedianSeconds(kReps, [&] { model.ForwardInto(&pool, pre, &logits); }) *
      1e3 / static_cast<double>(prefill);
  trace->Add("model.replay.prefill", start, Clock::now(), parent, -1);

  // The decode step's GEMMs: per layer QKV, output, up, gate and down
  // projections (distinct weights per layer, as the model streams them),
  // plus the LM head. Same shapes as the model's packed weights.
  const int64_t h = cfg.hidden_size;
  const int64_t qkv = (cfg.num_heads + 2 * cfg.num_kv_heads) * cfg.head_dim;
  const int64_t q_width = cfg.num_heads * cfg.head_dim;
  struct Shape2 {
    int64_t out;
    int64_t in;
  };
  const Shape2 layer_shapes[] = {{qkv, h}, {h, q_width}, {cfg.ffn_hidden, h},
                                 {cfg.ffn_hidden, h}, {h, cfg.ffn_hidden}};
  std::vector<pensieve::PackedMatrix> weights;
  std::vector<Shape2> shapes;
  uint64_t wseed = 100;
  for (int64_t l = 0; l < cfg.num_layers; ++l) {
    for (const Shape2& s : layer_shapes) {
      pensieve::Tensor w({s.out, s.in});
      pensieve::FillNormal(w, ++wseed, 0.05f);
      weights.emplace_back(w);
      shapes.push_back(s);
    }
  }
  pensieve::Tensor lm({cfg.vocab_size, h});
  pensieve::FillNormal(lm, ++wseed, 0.05f);
  const pensieve::PackedMatrix lm_head(lm);
  auto gemm_calls = [&](int64_t m, bool with_head, double* flops) {
    std::vector<GemmCall> calls;
    *flops = 0.0;
    for (size_t i = 0; i < weights.size(); ++i) {
      calls.push_back({pensieve::Tensor({m, shapes[i].in}),
                       pensieve::Tensor({m, shapes[i].out}), &weights[i]});
      *flops += 2.0 * static_cast<double>(m * shapes[i].in * shapes[i].out);
    }
    if (with_head) {
      calls.push_back({pensieve::Tensor({m, h}),
                       pensieve::Tensor({m, cfg.vocab_size}), &lm_head});
    }
    return calls;
  };
  auto run_gemms = [](std::vector<GemmCall>& calls) {
    for (GemmCall& g : calls) {
      pensieve::MatMulPackedInto(g.a, *g.w, &g.c);
    }
  };
  double decode_flops = 0.0;
  double prefill_flops = 0.0;
  std::vector<GemmCall> decode_gemms = gemm_calls(1, true, &decode_flops);
  std::vector<GemmCall> prefill_gemms =
      gemm_calls(prefill, false, &prefill_flops);

  // Attention of the decode step, every layer.
  pensieve::Tensor q({1, cfg.num_heads, cfg.head_dim});
  pensieve::FillNormal(q, 11, 1.0f);
  pensieve::Tensor attn({1, cfg.num_heads, cfg.head_dim});
  pensieve::Workspace ws;
  const std::vector<pensieve::AttentionSubRequest> subs = {
      {0, 1, context, &table}};
  const float scale = 1.0f / std::sqrt(static_cast<float>(cfg.head_dim));
  auto attention = [&] {
    for (int64_t l = 0; l < cfg.num_layers; ++l) {
      ws.Reset();
      pensieve::MultiTokenPagedAttention(pool, l, q, subs, scale, &attn, &ws);
    }
  };

  // Decode one token at position context-1 over a filled KV history. The
  // step, its attention and its GEMMs are timed in turn within each
  // repetition, so their medians come from the same stretch of host time
  // and the remainder (step minus attention and GEMMs) is a decomposition
  // of one step rather than a difference of timings taken apart. Each part
  // runs once untimed first: the model and the replayed GEMMs stream
  // separate copies of the weights, and a timed call should find its own
  // copy as cache-warm as consecutive decode steps of a turn do.
  start = Clock::now();
  if (context > 1) {
    model.ForwardInto(&pool, batch_of(0, context - 1, context - 1), &logits);
  }
  const pensieve::ForwardBatch dec = batch_of(context - 1, 1, context);
  auto step = [&] { model.ForwardInto(&pool, dec, &logits); };
  auto gemms = [&] { run_gemms(decode_gemms); };
  std::vector<double> step_s;
  std::vector<double> attn_s;
  std::vector<double> gemm_s;
  for (int r = 0; r < kReps; ++r) {
    step();
    step_s.push_back(Seconds(step));
    attention();
    attn_s.push_back(Seconds(attention));
    gemms();
    gemm_s.push_back(Seconds(gemms));
  }
  out.decode_step_ms = Median(step_s) * 1e3;
  out.attn_decode_us = Median(attn_s) * 1e6;
  out.gemm_decode_us = Median(gemm_s) * 1e6;
  trace->Add("model.replay.decode", start, Clock::now(), parent, -1);
  // Bytes computed from KV sizes: every layer reads `context` tokens of K
  // and V, fp32, num_kv_heads * head_dim values each.
  const double kv_bytes = static_cast<double>(context) *
                          static_cast<double>(cfg.num_kv_heads * cfg.head_dim) *
                          2.0 * sizeof(float) *
                          static_cast<double>(cfg.num_layers);
  out.attn_decode_gbps = kv_bytes / (out.attn_decode_us * 1e-6) / 1e9;

  start = Clock::now();
  run_gemms(prefill_gemms);
  const double prefill_s =
      MedianSeconds(kReps, [&] { run_gemms(prefill_gemms); });
  out.gemm_prefill_gflops = prefill_flops / prefill_s / 1e9;
  trace->Add("tensor.replay.gemm_prefill", start, Clock::now(), parent, -1);
  return out;
}

// Per turn, the fastest of the passes (passes serve identical turns).
std::vector<Turn> BestOfPasses(const std::vector<std::vector<Turn>>& passes) {
  if (passes.empty()) {
    return {};
  }
  std::vector<Turn> best = passes.front();
  for (const std::vector<Turn>& pass : passes) {
    if (pass.size() != best.size()) {
      continue;  // a failed call cut the pass short; the gate reports it
    }
    for (size_t i = 0; i < pass.size(); ++i) {
      best[i].seconds = std::min(best[i].seconds, pass[i].seconds);
    }
  }
  return best;
}

double ClassMedianMs(const std::vector<Turn>& turns, TurnClass cls,
                     int64_t* count) {
  std::vector<double> ms;
  for (const Turn& t : turns) {
    if (t.cls == cls) {
      ms.push_back(t.seconds * 1e3);
    }
  }
  *count = static_cast<int64_t>(ms.size());
  return Median(ms);
}

}  // namespace

void RunNumericChat(const RunArgs& args, Report* report, Gates* gates) {
  constexpr int64_t kConversations = 16;  // per pass

  // Set-up: traffic generation plus server construction (weight init and
  // packing). Three set-ups before the measured region, the last of which
  // builds the server the run uses, and one more after each pass, so the
  // samples span the run (see SetupSampler).
  SetupSampler setup;
  std::vector<pensieve::ConversationSpec> convs;
  auto set_up = [&] {
    const Clock::time_point start = Clock::now();
    convs = StratifiedConversations(ChatProfile(), kConversations, kShapeSeed);
    auto built =
        std::make_unique<pensieve::StatefulLlmServer>(ServerConfig(convs));
    setup.Add(SecondsSince(start));
    return built;
  };
  std::unique_ptr<pensieve::StatefulLlmServer> server;
  for (int r = 0; r < (args.small ? 1 : 3); ++r) {
    server.reset();
    server = set_up();
  }
  const pensieve::StatefulServerConfig config = ServerConfig(convs);
  std::printf("tiers: %lld GPU blocks, %lld CPU blocks of %lld tokens\n",
              static_cast<long long>(config.num_gpu_blocks),
              static_cast<long long>(config.num_cpu_blocks),
              static_cast<long long>(kBlockSize));
  pensieve::StatefulServerConfig ref_config = config;
  ref_config.num_gpu_blocks = kMaxContext / kBlockSize + 8;
  ref_config.num_cpu_blocks = 8;
  pensieve::StatefulLlmServer reference(ref_config);

  // Measured region: whole passes over the conversation set until the time
  // budget is spent. Every pass serves the same turns, so each turn's time
  // is the best over the passes. On a shared host, stretches of seconds run
  // 1.2-5x slow (a whole pass of 13 s once took 25 s), and the first turns
  // of a run take up to 2x while caches warm, so one turn can be slow in
  // two passes. An untraced run therefore takes at least three passes.
  // Traced runs alternate untraced and traced passes, at least two
  // untraced, ending on a traced one; their figures have no bound.
  const size_t min_passes = args.trace || args.small ? 2 : 3;
  SpanTrace trace;
  const int32_t run_span = trace.Begin("numeric.run", SpanTrace::kNoParent, -1);
  std::vector<std::vector<Turn>> passes;         // untraced
  std::vector<std::vector<Turn>> traced_passes;
  PassResult totals;
  int64_t attempted = 0;
  const Clock::time_point start = Clock::now();
  for (int64_t pass = 0;; ++pass) {
    const bool traced = args.trace && pass % 2 == 1;
    PassResult r = ServePass(server.get(), &reference, convs, args.seed, pass,
                             pass == 0 ? 8 : 32, traced ? &trace : nullptr,
                             run_span);
    attempted += static_cast<int64_t>(r.turns.size());
    totals.failed += r.failed;
    totals.checks += r.checks;
    totals.mismatches += r.mismatches;
    totals.dropped_by_calls += r.dropped_by_calls;
    totals.swap_out_blocks += r.swap_out_blocks;
    double pass_chat_s = 0.0;
    int64_t pass_generated = 0;
    for (const Turn& t : r.turns) {
      pass_chat_s += t.seconds;
      pass_generated += t.generated;
    }
    std::printf("pass %lld%s: %.3f s in Chat, %.1f tok/s, %.1f s into run\n",
                static_cast<long long>(pass), traced ? " (traced)" : "",
                pass_chat_s, static_cast<double>(pass_generated) / pass_chat_s,
                SecondsSince(start));
    (traced ? traced_passes : passes).push_back(std::move(r.turns));
    if (!args.small) {
      set_up();
    }
    if (SecondsSince(start) >= args.seconds && passes.size() >= min_passes &&
        (!args.trace || traced)) {
      break;
    }
  }
  trace.End(run_span);
  const std::vector<Turn> turns = BestOfPasses(passes);
  const std::vector<Turn> traced_turns = BestOfPasses(traced_passes);
  std::printf("passes: %zu untraced, %zu traced, %zu turns each\n",
              passes.size(), traced_passes.size(), turns.size());

  gates->AddOperations(attempted, totals.failed);
  gates->Check(totals.failed == 0, "every Chat call succeeds");
  gates->Check(totals.checks > 0 && totals.mismatches == 0,
               "sampled turns equal a stateless replay (" +
                   std::to_string(totals.checks) + " checked)");
  int64_t restores = 0;
  int64_t recomputes = 0;
  for (const Turn& t : turns) {
    restores += t.cls == kRestore;
    recomputes += t.cls == kRecompute;
  }

  if (!args.trace) {
    std::vector<double> ttft_s;
    std::vector<double> itl_ms;
    std::vector<double> turn_ms;
    double chat_s = 0.0;
    int64_t generated = 0;
    int64_t slo_met = 0;
    for (const Turn& t : turns) {
      const double itl =
          t.seconds / static_cast<double>(std::max<int64_t>(t.generated, 1));
      ttft_s.push_back(t.seconds);
      itl_ms.push_back(itl * 1e3);
      turn_ms.push_back(t.seconds * 1e3);
      chat_s += t.seconds;
      generated += t.generated;
      slo_met +=
          t.generated > 0 && t.seconds <= kTtftLimitS && itl <= kItlLimitS;
    }
    const int64_t n = static_cast<int64_t>(turns.size());
    report->Add("ttft_p50_s", Quantile(ttft_s, 0.50), "s", n);
    report->Add("ttft_p99_s", Quantile(ttft_s, 0.99), "s", n);
    report->Add("itl_p50_ms", Quantile(itl_ms, 0.50), "ms", n);
    report->Add("itl_p99_ms", Quantile(itl_ms, 0.99), "ms", n);
    report->Add("slo_attain",
                static_cast<double>(slo_met) / static_cast<double>(n), "frac",
                n);
    report->Add("goodput_rps", static_cast<double>(slo_met) / chat_s, "1/s",
                slo_met);
    report->Add("sim_req_per_s", static_cast<double>(n) / chat_s, "1/s", n);
    report->Add("turn_ms_p50", Quantile(turn_ms, 0.50), "ms", n);
    report->Add("turn_ms_p90", Quantile(turn_ms, 0.90), "ms", n);
    report->Add("tok_per_s", static_cast<double>(generated) / chat_s, "1/s",
                generated);
    report->Add("setup_s", setup.Value(), "s", setup.count());
    std::printf("turns: %lld (restore %lld, recompute %lld)\n",
                static_cast<long long>(n), static_cast<long long>(restores),
                static_cast<long long>(recomputes));
    return;
  }

  // core: per-class turn medians.
  const char* const kClassMetric[kNumClasses] = {
      "core.cold_turn_ms", "core.warm_turn_ms", "core.restore_turn_ms",
      "core.recompute_turn_ms"};
  for (int c = 0; c < kNumClasses; ++c) {
    int64_t count = 0;
    const double median_ms =
        ClassMedianMs(turns, static_cast<TurnClass>(c), &count);
    report->Add(kClassMetric[c], median_ms, "ms", count);
  }
  report->Add("core.restore_turns", static_cast<double>(restores), "count");
  report->Add("core.recompute_turns", static_cast<double>(recomputes), "count");

  // kvcache: tier traffic seen from outside, and the GPU allocator ledger.
  int64_t history = 0;
  int64_t cpu_only = 0;
  int64_t dropped = 0;
  std::vector<double> prefill;
  std::vector<double> context;
  for (const Turn& t : turns) {
    history += t.history;
    cpu_only += t.cpu_only;
    dropped += t.dropped;
    prefill.push_back(static_cast<double>(t.prefill));
    context.push_back(static_cast<double>(t.decode_context));
  }
  report->Add("kvcache.hit_rate",
              history > 0 ? 1.0 - static_cast<double>(dropped) /
                                      static_cast<double>(history)
                          : 0.0,
              "frac");
  report->Add("kvcache.cpu_hit_rate",
              cpu_only + dropped > 0
                  ? static_cast<double>(cpu_only) /
                        static_cast<double>(cpu_only + dropped)
                  : 0.0,
              "frac");
  report->Add("kvcache.swap_out_tokens",
              static_cast<double>(totals.swap_out_blocks * kBlockSize),
              "tokens");
  report->Add("kvcache.swap_in_tokens", static_cast<double>(cpu_only),
              "tokens");
  report->Add("kvcache.dropped_tokens",
              static_cast<double>(totals.dropped_by_calls), "tokens");
  report->Add("kvcache.recomputed_tokens", static_cast<double>(dropped),
              "tokens");
  const pensieve::BlockAllocator& gpu = server->cache().gpu_allocator();
  report->Add("kvcache.block_acquires",
              static_cast<double>(gpu.total_acquires()), "count");
  report->Add("kvcache.block_releases",
              static_cast<double>(gpu.total_releases()), "count");
  report->Add("kvcache.live_refs", static_cast<double>(gpu.live_refs()),
              "count");
  report->Add("kvcache.gpu_peak_blocks",
              static_cast<double>(gpu.peak_allocated()), "count");
  gates->Check(gpu.total_acquires() == gpu.total_releases() + gpu.live_refs() &&
                   gpu.live_refs() >= gpu.num_allocated(),
               "GPU allocator ledger balances");

  // model / kernels / tensor at the run's median shapes.
  const int64_t median_prefill =
      std::max<int64_t>(1, static_cast<int64_t>(Median(prefill)));
  const int64_t median_context =
      std::max<int64_t>(1, static_cast<int64_t>(Median(context)));
  std::printf("replay shapes: prefill %lld tokens, decode context %lld\n",
              static_cast<long long>(median_prefill),
              static_cast<long long>(median_context));
  const Replay replay = ReplayShapes(server->model(), median_prefill,
                                     median_context, &trace, run_span);
  const double other_us = replay.decode_step_ms * 1e3 - replay.attn_decode_us -
                          replay.gemm_decode_us;
  report->Add("model.prefill_ms_per_tok", replay.prefill_ms_per_tok, "ms");
  report->Add("model.decode_step_ms", replay.decode_step_ms, "ms");
  report->Add("model.decode_other_us", other_us, "us");
  report->Add("kernels.attn_decode_us", replay.attn_decode_us, "us");
  report->Add("kernels.attn_decode_gbps", replay.attn_decode_gbps, "GB/s");
  report->Add("tensor.gemm_decode_us", replay.gemm_decode_us, "us");
  report->Add("tensor.gemm_prefill_gflops", replay.gemm_prefill_gflops,
              "GFLOP/s");
  std::printf("decode step %.1f us = attention %.1f + GEMM %.1f + other %.1f\n",
              replay.decode_step_ms * 1e3, replay.attn_decode_us,
              replay.gemm_decode_us, other_us);

  // Set-up and tracing overhead (wall time per generated token).
  report->Add("serving.engine_build_s", setup.Value(), "s");
  auto per_token = [](const std::vector<Turn>& ts) {
    double s = 0.0;
    int64_t g = 0;
    for (const Turn& t : ts) {
      s += t.seconds;
      g += t.generated;
    }
    return s / static_cast<double>(std::max<int64_t>(g, 1));
  };
  report->Add("trace.overhead_frac",
              per_token(traced_turns) / per_token(turns) - 1.0, "frac");
  const bool written = trace.WriteChromeJson(
      args.trace_out, args.host_json + ", \"workload\": \"" + args.workload +
                          "\", \"seed\": " + std::to_string(args.seed));
  gates->Check(written, "trace written to " + args.trace_out);
  std::printf("trace: %lld spans -> %s\n", static_cast<long long>(trace.size()),
              args.trace_out.c_str());
}

}  // namespace perfbench
