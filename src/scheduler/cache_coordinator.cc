#include "src/scheduler/cache_coordinator.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "src/common/logging.h"

namespace pensieve {

CacheCoordinator::CacheCoordinator(TwoTierKvCache* cache, const EvictionPolicy* policy,
                                   Options options,
                                   std::function<bool(ConversationId)> may_forget)
    : cache_(cache), policy_(policy), options_(options),
      may_forget_(std::move(may_forget)) {
  PENSIEVE_CHECK(cache != nullptr);
  PENSIEVE_CHECK(policy != nullptr);
}

void CacheCoordinator::MaybeForget(ConversationId id) {
  const ContextState* state = cache_->Find(id);
  if (state == nullptr || state->pinned()) {
    return;
  }
  for (const Chunk& c : state->chunks()) {
    if (!c.Dropped()) {
      return;
    }
  }
  if (may_forget_ != nullptr && !may_forget_(id)) {
    return;
  }
  cache_->Release(id);
}

double CacheCoordinator::Score(ConversationId id, const ContextState& state,
                               int64_t chunk_index, double now) const {
  ChunkCandidate candidate;
  candidate.conversation_id = id;
  candidate.chunk_index = chunk_index;
  candidate.context_len = state.ChunkContextLen(chunk_index);
  candidate.last_active = state.last_active();
  const Chunk& chunk = state.chunk(chunk_index);
  candidate.shared = chunk.OnGpu() && cache_->SharedGpuBlock(chunk.gpu_block);
  return policy_->Score(candidate, now);
}

std::optional<CacheCoordinator::Victim> CacheCoordinator::PickVictim(
    double now, const std::function<bool(const Chunk&)>& eligible,
    bool prefix_only) const {
  std::optional<Victim> best;
  for (const auto& [id, state] : cache_->conversations()) {
    if (state.pinned()) {
      continue;
    }
    if (prefix_only) {
      // Only the frontier (first non-dropped) chunk is a legal DropChunk
      // target.
      const int64_t frontier = state.LeadingDroppedChunks();
      if (frontier >= state.num_chunks() || !eligible(state.chunk(frontier))) {
        continue;
      }
      const double score = Score(id, state, frontier, now);
      if (!best.has_value() || score < best->score) {
        best = Victim{id, frontier, score};
      }
      continue;
    }
    for (int64_t i = 0; i < state.num_chunks(); ++i) {
      if (!eligible(state.chunk(i))) {
        continue;
      }
      const double score = Score(id, state, i, now);
      if (!best.has_value() || score < best->score) {
        best = Victim{id, i, score};
      }
    }
  }
  return best;
}

CacheCoordinator::EvictOutcome CacheCoordinator::AheadOfTimeEvict(double now) {
  EvictOutcome outcome;
  const int64_t capacity = cache_->gpu_allocator().capacity();
  if (capacity == 0) {
    return outcome;
  }
  const int64_t target_blocks =
      static_cast<int64_t>(options_.swap_out_target * static_cast<double>(capacity));
  if (cache_->AvailableGpuBlocks() >= target_blocks) {
    aot_failed_at_ = kNeverFailed;
    return outcome;
  }
  // Retry guard: a pass that could not reach the target (CPU tier full,
  // everything pinned) is only retried when virtual time has advanced or
  // the available count changed — at most one rescan per scheduler step.
  if (now == aot_failed_at_ && cache_->AvailableGpuBlocks() == aot_last_failed_available_) {
    return outcome;
  }
  if (!options_.use_cpu_cache) {
    // GPU-cache-only variant: evicted chunks are simply dropped, frontier
    // first (only frontier chunks are legal drop targets).
    while (cache_->AvailableGpuBlocks() < target_blocks) {
      auto drop = PickVictim(
          now, [](const Chunk& c) { return c.OnGpu(); }, /*prefix_only=*/true);
      if (!drop.has_value()) {
        break;
      }
      const ContextState* state = cache_->Find(drop->conversation);
      if (options_.conversation_granularity) {
        outcome.dropped_tokens += state->TokensOnGpu() + state->TokensCpuOnly();
        DropWholeConversation(drop->conversation);
      } else {
        const int64_t tokens = state->chunk(drop->chunk_index).num_tokens;
        if (!cache_->DropChunk(drop->conversation, drop->chunk_index).ok()) {
          break;  // would re-pick the same victim forever
        }
        outcome.dropped_tokens += tokens;
      }
      MaybeForget(drop->conversation);
    }
    if (cache_->AvailableGpuBlocks() < target_blocks) {
      aot_last_failed_available_ = cache_->AvailableGpuBlocks();
      aot_failed_at_ = now;
    }
    return outcome;
  }
  // Collect every GPU-only chunk of unpinned conversations once, sort by
  // ascending retention score, and swap out until the target is met.
  std::vector<Victim> candidates;
  for (const auto& [id, state] : cache_->conversations()) {
    if (state.pinned()) {
      continue;
    }
    for (int64_t i = 0; i < state.num_chunks(); ++i) {
      if (state.chunk(i).location == ChunkLocation::kGpu) {
        candidates.push_back(Victim{id, i, Score(id, state, i, now)});
      }
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Victim& a, const Victim& b) { return a.score < b.score; });
  // Reserve CPU space for the whole deficit in one pass; fall back to
  // per-chunk frees only if that could not be satisfied.
  const int64_t deficit = target_blocks - cache_->AvailableGpuBlocks();
  (void)EnsureFreeCpuBlocks(std::min<int64_t>(deficit,
                                              cache_->cpu_allocator().capacity()),
                            now);
  for (const Victim& victim : candidates) {
    if (cache_->AvailableGpuBlocks() >= target_blocks) {
      break;
    }
    if (cache_->cpu_allocator().num_free() == 0 && !EnsureFreeCpuBlocks(1, now)) {
      break;
    }
    const ContextState* state = cache_->Find(victim.conversation);
    if (state == nullptr) {
      continue;  // forgotten by a CPU-pressure drop during this loop
    }
    const int64_t chunk_tokens = state->chunk(victim.chunk_index).num_tokens;
    const Status status = cache_->SwapOut(victim.conversation, victim.chunk_index);
    if (!status.ok()) {
      continue;
    }
    outcome.swapped_out_tokens += chunk_tokens;
    outcome.swapped.emplace_back(victim.conversation, victim.chunk_index);
  }
  if (cache_->AvailableGpuBlocks() < target_blocks) {
    aot_last_failed_available_ = cache_->AvailableGpuBlocks();
    aot_failed_at_ = now;
  }
  return outcome;
}

void CacheCoordinator::DropWholeConversation(ConversationId id) {
  ContextState* state = cache_->Find(id);
  PENSIEVE_CHECK(state != nullptr);
  for (int64_t i = 0; i < state->num_chunks(); ++i) {
    if (!state->chunk(i).Dropped()) {
      if (!cache_->DropChunk(id, i).ok()) {
        break;  // later chunks would violate the drop-prefix invariant anyway
      }
    }
  }
}

bool CacheCoordinator::EnsureFreeCpuBlocks(int64_t n, double now) {
  while (cache_->cpu_allocator().num_free() < n) {
    // Prefer evicting frontier chunks that live only on the CPU: that frees
    // a CPU block and loses the least valuable data per the policy. With the
    // flash tier enabled they are demoted to SSD instead of dropped. One
    // scan finds the best victim and the runner-up score; we then keep
    // evicting the victim conversation's successive frontier chunks for as
    // long as they still beat the runner-up — exactly the strict per-chunk
    // policy order, without rescanning per block. The frontier is the first
    // chunk past the dropped/SSD prefix, so conversations whose oldest
    // resident data already sits on flash remain eligible.
    std::optional<Victim> best;
    double runner_up = std::numeric_limits<double>::infinity();
    for (const auto& [id, state] : cache_->conversations()) {
      if (state.pinned()) {
        continue;
      }
      const int64_t frontier = state.LeadingDroppedOrSsdChunks();
      if (frontier >= state.num_chunks() ||
          state.chunk(frontier).location != ChunkLocation::kCpu) {
        continue;
      }
      const double score = Score(id, state, frontier, now);
      if (!best.has_value() || score < best->score) {
        if (best.has_value()) {
          runner_up = best->score;
        }
        best = Victim{id, frontier, score};
      } else if (score < runner_up) {
        runner_up = score;
      }
    }
    if (best.has_value()) {
      if (options_.conversation_granularity) {
        DropWholeConversation(best->conversation);
      } else {
        ContextState* state = cache_->Find(best->conversation);
        int64_t chunk = best->chunk_index;
        while (cache_->cpu_allocator().num_free() < n && chunk < state->num_chunks() &&
               state->chunk(chunk).location == ChunkLocation::kCpu &&
               Score(best->conversation, *state, chunk, now) <= runner_up) {
          if (options_.use_ssd_cache) {
            const int64_t tokens = state->chunk(chunk).num_tokens;
            if (cache_->DemoteToFlash(best->conversation, chunk).ok()) {
              pending_spill_.demoted_tokens += tokens;
              pending_spill_.demoted.emplace_back(best->conversation, chunk);
              ++chunk;
              continue;
            }
            ++pending_spill_.failed_demotes;
            // Flash full of pinned chunks, or the CPU copy failed its
            // checksum: fall through to dropping.
          }
          // DropThroughPrefix also takes down any SSD chunks demoted just
          // above when flash admission stalls mid-conversation.
          if (!cache_->DropThroughPrefix(best->conversation, chunk).ok()) {
            break;
          }
          ++chunk;
        }
      }
      MaybeForget(best->conversation);
      continue;
    }
    // Otherwise discard a clean CPU copy (the chunk stays on the GPU).
    auto dual = PickVictim(
        now, [](const Chunk& c) { return c.location == ChunkLocation::kGpuAndCpu; },
        /*prefix_only=*/false);
    if (dual.has_value()) {
      if (!cache_->DropCpuCopy(dual->conversation, dual->chunk_index).ok()) {
        return false;
      }
      continue;
    }
    return false;
  }
  return true;
}

CacheCoordinator::SpillOutcome CacheCoordinator::TakeSpill() {
  SpillOutcome spill = std::move(pending_spill_);
  pending_spill_ = SpillOutcome{};
  return spill;
}

CacheCoordinator::FreeOutcome CacheCoordinator::EnsureFreeGpuBlocks(int64_t n,
                                                                    double now) {
  FreeOutcome outcome;
  // 1. Instant reclamation of clean copies: one scan, sorted, reclaim as
  // many as needed.
  if (cache_->gpu_allocator().num_free() < n) {
    std::vector<Victim> reclaimable;
    for (const auto& [id, state] : cache_->conversations()) {
      if (state.pinned()) {
        continue;
      }
      for (int64_t i = 0; i < state.num_chunks(); ++i) {
        if (state.chunk(i).location == ChunkLocation::kGpuAndCpu) {
          reclaimable.push_back(Victim{id, i, Score(id, state, i, now)});
        }
      }
    }
    std::sort(reclaimable.begin(), reclaimable.end(),
              [](const Victim& a, const Victim& b) { return a.score < b.score; });
    for (const Victim& v : reclaimable) {
      if (cache_->gpu_allocator().num_free() >= n) {
        break;
      }
      if (!cache_->ReclaimGpu(v.conversation, v.chunk_index).ok()) {
        continue;  // e.g. the CPU copy was corrupted by a faulted transfer
      }
      ++outcome.reclaimed_blocks;
    }
  }
  // 2. Forced swap-out (ahead-of-time swapping fell behind): pays a
  // synchronous PCIe stall, charged by the engine.
  if (options_.use_cpu_cache && cache_->gpu_allocator().num_free() < n) {
    std::vector<Victim> swappable;
    for (const auto& [id, state] : cache_->conversations()) {
      if (state.pinned()) {
        continue;
      }
      for (int64_t i = 0; i < state.num_chunks(); ++i) {
        if (state.chunk(i).location == ChunkLocation::kGpu) {
          swappable.push_back(Victim{id, i, Score(id, state, i, now)});
        }
      }
    }
    std::sort(swappable.begin(), swappable.end(),
              [](const Victim& a, const Victim& b) { return a.score < b.score; });
    const int64_t swap_deficit = n - cache_->gpu_allocator().num_free();
    (void)EnsureFreeCpuBlocks(
        std::min<int64_t>(swap_deficit, cache_->cpu_allocator().capacity()), now);
    for (const Victim& v : swappable) {
      if (cache_->gpu_allocator().num_free() >= n) {
        break;
      }
      if (cache_->cpu_allocator().num_free() == 0 && !EnsureFreeCpuBlocks(1, now)) {
        break;
      }
      const ContextState* state = cache_->Find(v.conversation);
      if (state == nullptr || v.chunk_index >= state->num_chunks() ||
          state->chunk(v.chunk_index).location != ChunkLocation::kGpu) {
        continue;  // state changed under CPU-pressure drops
      }
      const int64_t tokens = state->chunk(v.chunk_index).num_tokens;
      if (!cache_->SwapOut(v.conversation, v.chunk_index).ok()) {
        continue;
      }
      if (!cache_->ReclaimGpu(v.conversation, v.chunk_index).ok()) {
        continue;  // chunk stays kGpuAndCpu; no block freed, no stall charged
      }
      outcome.forced_swap_out_tokens += tokens;
      outcome.forced_swapped.emplace_back(v.conversation, v.chunk_index);
    }
  }
  while (cache_->gpu_allocator().num_free() < n) {
    // 3. Last resort (and the only path in GPU-cache-only mode): drop the
    // lowest-retention frontier chunk that still occupies GPU memory.
    auto drop = PickVictim(
        now, [](const Chunk& c) { return c.OnGpu(); },
        /*prefix_only=*/true);
    if (drop.has_value()) {
      const ContextState* state = cache_->Find(drop->conversation);
      if (options_.conversation_granularity) {
        outcome.dropped_tokens += state->TokensOnGpu() + state->TokensCpuOnly();
        DropWholeConversation(drop->conversation);
      } else {
        const int64_t tokens = state->chunk(drop->chunk_index).num_tokens;
        if (!cache_->DropChunk(drop->conversation, drop->chunk_index).ok()) {
          outcome.ok = false;  // would re-pick the same victim forever
          return outcome;
        }
        outcome.dropped_tokens += tokens;
      }
      MaybeForget(drop->conversation);
      continue;
    }
    // 3b. Deep frontier: a conversation whose oldest resident chunks sit on
    // the CPU tier or on flash holds its GPU blocks behind a kCpu/kSsd
    // prefix that the frontier-only DropChunk above cannot reach. Such
    // prefixes arise from flash demotion, and without flash whenever step 2
    // could not free CPU space and step 3 dropped a GPU frontier chunk that
    // had CPU-only chunks behind it. Pick the best conversation by its first
    // GPU-resident chunk and drop the whole prefix through it.
    std::optional<Victim> deep;
    for (const auto& [id, state] : cache_->conversations()) {
      if (state.pinned()) {
        continue;
      }
      int64_t i = state.LeadingDroppedChunks();
      while (i < state.num_chunks() && !state.chunk(i).OnGpu()) {
        ++i;
      }
      if (i >= state.num_chunks()) {
        continue;
      }
      const double score = Score(id, state, i, now);
      if (!deep.has_value() || score < deep->score) {
        deep = Victim{id, i, score};
      }
    }
    if (deep.has_value()) {
      int64_t dropped = 0;
      if (cache_->DropThroughPrefix(deep->conversation, deep->chunk_index,
                                    &dropped)
              .ok()) {
        outcome.dropped_tokens += dropped;
        MaybeForget(deep->conversation);
        continue;
      }
    }
    // Nothing evictable: every conversation with GPU-resident chunks is
    // pinned by the running batch.
    outcome.ok = false;
    return outcome;
  }
  outcome.ok = true;
  return outcome;
}

}  // namespace pensieve
