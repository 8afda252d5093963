#include "src/core/stateful_server.h"

#include <algorithm>

#include "src/common/hash.h"
#include "src/common/logging.h"

namespace pensieve {

namespace {

KvCacheConfig MakeNumericCacheConfig(const StatefulServerConfig& config) {
  KvCacheConfig kv;
  kv.block_size = config.block_size;
  kv.num_gpu_blocks = config.num_gpu_blocks;
  kv.num_cpu_blocks = config.num_cpu_blocks;
  kv.numeric = true;
  kv.num_layers = config.model.num_layers;
  kv.num_kv_heads = config.model.num_kv_heads;
  kv.head_dim = config.model.head_dim;
  kv.kv_quant = config.kv_quant;
  kv.enable_prefix_sharing = true;
  return kv;
}

// Prefix-trie keys of the first `num_blocks` full blocks of a history.
std::vector<uint64_t> HistoryHashChain(const std::vector<int32_t>& history,
                                       int64_t num_blocks, int64_t block_size) {
  return BlockHashChain(num_blocks, block_size, [&history](int64_t pos) {
    return static_cast<uint64_t>(history[static_cast<size_t>(pos)]);
  });
}

CacheCoordinator::Options MakeCoordOptions() {
  CacheCoordinator::Options o;
  o.use_cpu_cache = true;
  o.swap_out_target = 0.0;  // the numeric server swaps on demand only
  return o;
}

}  // namespace

StatefulLlmServer::StatefulLlmServer(const StatefulServerConfig& config)
    : config_(config), model_(std::make_unique<Transformer>(config.model,
                                                            config.weight_seed,
                                                            config.weight_quant)),
      cache_(MakeNumericCacheConfig(config)),
      cost_estimator_(ChunkCostEstimator::ProfileFromKernels(
          config.model, config.block_size,
          std::max<int64_t>(config.block_size * 4, 128))),
      policy_(MakeEvictionPolicy(config.policy, cost_estimator_)),
      coordinator_(&cache_, policy_.get(), MakeCoordOptions()) {
  PENSIEVE_CHECK_LE(config.model.hidden_size, 512)
      << "StatefulLlmServer executes real numerics; use a tiny model preset";
}

const std::vector<int32_t>& StatefulLlmServer::History(int64_t conversation_id) const {
  static const std::vector<int32_t> kEmpty;
  auto it = history_.find(conversation_id);
  return it == history_.end() ? kEmpty : it->second;
}

StatusOr<std::vector<int32_t>> StatefulLlmServer::Chat(
    int64_t conversation_id, const std::vector<int32_t>& prompt,
    int64_t max_new_tokens) {
  if (prompt.empty()) {
    return Status::InvalidArgument("empty prompt");
  }
  if (max_new_tokens <= 0) {
    return Status::InvalidArgument("max_new_tokens must be positive");
  }
  double now = Tick();
  ContextState& conv = cache_.GetOrCreate(conversation_id);
  std::vector<int32_t>& hist = history_[conversation_id];
  hist.insert(hist.end(), prompt.begin(), prompt.end());
  if (conv.kv_len() == 0) {
    AttachPublishedPrefix(conversation_id, hist);
  }
  const int64_t kv = conv.kv_len();
  // Everything past the KV is prefilled: this turn's prompt, plus the last
  // token generated by the previous turn, which is left unprocessed (its KV
  // is computed together with this turn's prompt, exactly as the serving
  // engine treats pending tokens).
  const int64_t tail_len = static_cast<int64_t>(hist.size()) - kv;

  conv.Pin();
  const auto fail = [&](Status status) -> StatusOr<std::vector<int32_t>> {
    conv.Unpin();
    return status;
  };

  // --- Plan: restore dropped prefix, swap in CPU chunks, append the tail ---
  const int64_t dropped_chunks = conv.LeadingDroppedChunks();
  const int64_t dropped_tokens = conv.LeadingDroppedTokens();
  const std::vector<int64_t> cpu_chunks = conv.CpuOnlyChunks();
  const int64_t blocks_needed = dropped_chunks +
                                static_cast<int64_t>(cpu_chunks.size()) +
                                conv.NumNewChunksForAppend(tail_len);
  if (!coordinator_.EnsureFreeGpuBlocks(blocks_needed, now).ok) {
    return fail(Status::ResourceExhausted("GPU cache cannot hold this turn"));
  }
  for (int64_t idx : cpu_chunks) {
    PENSIEVE_CHECK_OK(cache_.SwapIn(conversation_id, idx));
  }
  // Back-to-front restore keeps the dropped-prefix invariant intact.
  for (int64_t i = dropped_chunks - 1; i >= 0; --i) {
    PENSIEVE_CHECK_OK(cache_.RestoreDropped(conversation_id, i));
  }

  // Batch input = recomputed dropped prefix ++ (pending + prompt) tail.
  ForwardBatch batch;
  for (int64_t i = 0; i < dropped_chunks; ++i) {
    const Chunk& c = conv.chunk(i);
    for (int64_t s = 0; s < c.num_tokens; ++s) {
      const int64_t pos = conv.ChunkStartToken(i) + s;
      batch.tokens.push_back(hist[static_cast<size_t>(pos)]);
      batch.positions.push_back(pos);
      batch.kv_slots.push_back({c.gpu_block, s});
    }
  }
  std::vector<ContextState::SlotRef> tail_slots;
  PENSIEVE_CHECK_OK(cache_.AppendTokenSlots(conversation_id, tail_len, &tail_slots));
  for (int64_t j = 0; j < tail_len; ++j) {
    const int64_t pos = kv + j;
    batch.tokens.push_back(hist[static_cast<size_t>(pos)]);
    batch.positions.push_back(pos);
    batch.kv_slots.push_back({tail_slots[static_cast<size_t>(j)].block,
                              tail_slots[static_cast<size_t>(j)].slot});
  }
  const std::vector<BlockId> table = cache_.GpuBlockTable(conversation_id);
  if (dropped_tokens > 0) {
    // Recomputed prefix attends only to itself (paper §4.3.4).
    batch.subs.push_back({0, dropped_tokens, dropped_tokens, &table});
  }
  batch.subs.push_back({dropped_tokens, tail_len, conv.kv_len(), &table});
  batch.logit_rows.push_back(dropped_tokens + tail_len - 1);

  Tensor logits;
  model_->ForwardInto(cache_.gpu_pool(), batch, &logits);
  int32_t next = Transformer::Greedy(logits, 0);
  PublishPrefix(conv, hist);

  // --- Greedy decode loop -------------------------------------------------
  // The batch record and logits buffer are hoisted out of the loop so
  // steady-state steps reuse their capacity (the model's workspace arena
  // does the same inside the forward pass); only the block table is rebuilt
  // per step.
  std::vector<int32_t> generated;
  generated.reserve(static_cast<size_t>(max_new_tokens));
  ForwardBatch decode;
  std::vector<ContextState::SlotRef> slot;
  for (int64_t step = 0; step < max_new_tokens; ++step) {
    generated.push_back(next);
    hist.push_back(next);
    if (step + 1 == max_new_tokens) {
      break;  // the final token stays pending until the next turn
    }
    now = Tick();
    if (conv.NumNewChunksForAppend(1) > cache_.gpu_allocator().num_free() &&
        !coordinator_.EnsureFreeGpuBlocks(conv.NumNewChunksForAppend(1), now).ok) {
      return fail(Status::ResourceExhausted("GPU cache exhausted during decode"));
    }
    slot.clear();
    PENSIEVE_CHECK_OK(cache_.AppendTokenSlots(conversation_id, 1, &slot));
    const std::vector<BlockId> decode_table = cache_.GpuBlockTable(conversation_id);
    decode.tokens.assign(1, next);
    decode.positions.assign(1, conv.kv_len() - 1);
    decode.kv_slots.assign(1, ForwardBatch::KvSlot{slot[0].block, slot[0].slot});
    decode.subs.assign(1, AttentionSubRequest{0, 1, conv.kv_len(), &decode_table});
    decode.logit_rows.assign(1, 0);
    model_->ForwardInto(cache_.gpu_pool(), decode, &logits);
    next = Transformer::Greedy(logits, 0);
  }

  conv.Unpin();
  conv.set_last_active(Tick());
  return generated;
}

void StatefulLlmServer::EndConversation(int64_t conversation_id) {
  cache_.Release(conversation_id);
  history_.erase(conversation_id);
}

void StatefulLlmServer::AttachPublishedPrefix(int64_t conversation_id,
                                              const std::vector<int32_t>& history) {
  // The last history token is always prefilled: the turn's first output
  // comes from its logits.
  const int64_t blocks =
      (static_cast<int64_t>(history.size()) - 1) / config_.block_size;
  if (blocks == 0) {
    return;
  }
  std::vector<BlockId> matched;
  const int64_t n = cache_.LookupSharedPrefix(
      HistoryHashChain(history, blocks, config_.block_size), &matched);
  if (n > 0) {
    cache_.AttachSharedPrefix(conversation_id, matched, n * config_.block_size);
  }
}

void StatefulLlmServer::PublishPrefix(const ContextState& conv,
                                      const std::vector<int32_t>& history) {
  std::vector<BlockId> blocks;
  for (const Chunk& c : conv.chunks()) {
    if (!c.OnGpu() || c.num_tokens < config_.block_size) {
      break;
    }
    blocks.push_back(c.gpu_block);
  }
  if (!blocks.empty()) {
    cache_.PublishSharedPrefix(
        HistoryHashChain(history, static_cast<int64_t>(blocks.size()),
                         config_.block_size),
        blocks);
  }
}

Status StatefulLlmServer::SwapOutConversation(int64_t conversation_id) {
  ContextState* conv = cache_.Find(conversation_id);
  if (conv == nullptr) {
    return Status::NotFound("unknown conversation");
  }
  const double now = Tick();
  for (int64_t i = 0; i < conv->num_chunks(); ++i) {
    const ChunkLocation loc = conv->chunk(i).location;
    if (loc == ChunkLocation::kGpu) {
      if (cache_.cpu_allocator().num_free() == 0 &&
          !coordinator_.EnsureFreeCpuBlocks(1, now)) {
        return Status::ResourceExhausted("CPU tier full");
      }
      PENSIEVE_CHECK_OK(cache_.SwapOut(conversation_id, i));
      PENSIEVE_CHECK_OK(cache_.ReclaimGpu(conversation_id, i));
    } else if (loc == ChunkLocation::kGpuAndCpu) {
      PENSIEVE_CHECK_OK(cache_.ReclaimGpu(conversation_id, i));
    }
  }
  return Status::Ok();
}

Status StatefulLlmServer::DropLeadingChunks(int64_t conversation_id,
                                            int64_t num_chunks) {
  ContextState* conv = cache_.Find(conversation_id);
  if (conv == nullptr) {
    return Status::NotFound("unknown conversation");
  }
  const int64_t limit = std::min(num_chunks, conv->num_chunks());
  for (int64_t i = 0; i < limit; ++i) {
    if (conv->chunk(i).Dropped()) {
      continue;
    }
    Status status = cache_.DropChunk(conversation_id, i);
    if (!status.ok()) {
      return status;
    }
  }
  return Status::Ok();
}

}  // namespace pensieve
