// Scheduler-side cache policy application (paper §4.3).
//
// The TwoTierKvCache provides mechanisms; this coordinator decides *which*
// chunks move, consulting the eviction policy:
//
//  * Ahead-of-time swap-out (§4.3.2): when free+reclaimable GPU slots fall
//    below a threshold, copy the lowest-retention GPU chunks to the CPU so
//    their slots become reclaimable for free later.
//  * GPU allocation pressure: reclaim clean-copy slots first (instant),
//    force-swap (synchronous PCIe stall) second, drop (recompute later)
//    last.
//  * CPU pressure: drop the lowest-retention frontier chunks (the paper
//    drops from the leading end of a conversation because leading tokens
//    are cheapest to recompute).
//
// Pinned conversations (those with a request in the running batch) are never
// victimized.

#ifndef PENSIEVE_SRC_SCHEDULER_CACHE_COORDINATOR_H_
#define PENSIEVE_SRC_SCHEDULER_CACHE_COORDINATOR_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "src/eviction/policy.h"
#include "src/kvcache/two_tier_cache.h"

namespace pensieve {

class CacheCoordinator {
 public:
  struct Options {
    // false = the Pensieve (GPU cache) variant: evicted chunks are dropped
    // rather than swapped to the CPU tier.
    bool use_cpu_cache = true;
    // Spill CPU-pressure victims to the flash tier (DemoteToFlash) instead
    // of dropping them. Requires the cache to have a flash tier configured.
    bool use_ssd_cache = false;
    // Ahead-of-time swap-out keeps free+reclaimable above this fraction
    // (paper uses a 25% trigger).
    double swap_out_target = 0.25;
    // Classic-LRU granularity (the Figure 14 baseline): once a conversation
    // is chosen for dropping, its *entire* cached history is dropped, as in
    // CachedAttention (paper Table 3), instead of Pensieve's chunk-level
    // dropping.
    bool conversation_granularity = false;
  };

  // `may_forget` (optional) is consulted before erasing a fully-dropped
  // conversation's bookkeeping: the engine returns false while a request for
  // that conversation is still queued or running.
  CacheCoordinator(TwoTierKvCache* cache, const EvictionPolicy* policy, Options options,
                   std::function<bool(ConversationId)> may_forget = nullptr);

  struct FreeOutcome {
    bool ok = false;
    int64_t reclaimed_blocks = 0;
    // Tokens force-swapped synchronously (the engine charges their PCIe
    // transfer as a stall: ahead-of-time swapping failed to keep up).
    int64_t forced_swap_out_tokens = 0;
    int64_t dropped_tokens = 0;
    // The (conversation, chunk) pairs behind forced_swap_out_tokens. The
    // chunks are kCpu once this returns; if the engine's d2h transfer for
    // them fails, it marks each one corrupt so a later swap-in degrades to
    // recomputation instead of restoring garbage.
    std::vector<std::pair<ConversationId, int64_t>> forced_swapped;
  };
  // Makes at least `n` blocks available on the GPU free list.
  FreeOutcome EnsureFreeGpuBlocks(int64_t n, double now);

  // Ahead-of-time eviction toward the target free fraction. With the CPU
  // tier enabled this swaps out lowest-retention GPU chunks (returning the
  // tokens to schedule on the device-to-host link); in GPU-cache-only mode
  // it drops lowest-retention frontier chunks instead (the paper's
  // "Pensieve (GPU cache)" variant discards evicted tokens).
  struct EvictOutcome {
    int64_t swapped_out_tokens = 0;
    int64_t dropped_tokens = 0;
    // The (conversation, chunk) pairs behind swapped_out_tokens. The chunks
    // are still kGpuAndCpu (reclamation is lazy); if the engine's d2h
    // transfer for them fails, it rolls the copies back with DropCpuCopy —
    // nothing is lost, the chunks simply stay unevicted.
    std::vector<std::pair<ConversationId, int64_t>> swapped;
  };
  EvictOutcome AheadOfTimeEvict(double now);

  // Frees at least `n` CPU blocks by dropping low-retention chunks — or,
  // with use_ssd_cache, demoting them to the flash tier instead.
  bool EnsureFreeCpuBlocks(int64_t n, double now);

  // Demotions performed since the last call (any coordinator entry point may
  // spill under CPU pressure). The engine drains this after each call and
  // charges the chunks' SSD writes as background traffic; on a failed
  // transfer it marks them corrupt.
  struct SpillOutcome {
    int64_t demoted_tokens = 0;
    // Demotions refused (flash full of pinned chunks / corrupt CPU copy)
    // that fell back to dropping.
    int64_t failed_demotes = 0;
    // The (conversation, chunk) pairs now kSsd.
    std::vector<std::pair<ConversationId, int64_t>> demoted;
  };
  SpillOutcome TakeSpill();

  const Options& options() const { return options_; }

 private:
  struct Victim {
    ConversationId conversation;
    int64_t chunk_index;
    double score;
  };

  // Lowest-score chunk among unpinned conversations satisfying `eligible`.
  // For prefix_only victims, only each conversation's first non-dropped
  // chunk is considered (DropChunk legality).
  std::optional<Victim> PickVictim(double now,
                                   const std::function<bool(const Chunk&)>& eligible,
                                   bool prefix_only) const;

  double Score(ConversationId id, const ContextState& state, int64_t chunk_index,
               double now) const;

  // Drops every cached chunk of a conversation (classic-LRU granularity).
  void DropWholeConversation(ConversationId id);

  // Erases a conversation whose chunks are all dropped (pure bookkeeping at
  // that point) so eviction scans stay proportional to *resident*
  // conversations, unless the engine still has a request for it in flight.
  void MaybeForget(ConversationId id);

  TwoTierKvCache* cache_;
  const EvictionPolicy* policy_;
  Options options_;
  std::function<bool(ConversationId)> may_forget_;
  SpillOutcome pending_spill_;
  // Retry guard for ahead-of-time eviction: when a pass could not reach the
  // target (e.g. CPU tier full), skip further passes within the same virtual
  // instant unless the available block count changed.
  static constexpr double kNeverFailed = -1.0;
  double aot_failed_at_ = kNeverFailed;
  int64_t aot_last_failed_available_ = -1;
};

}  // namespace pensieve

#endif  // PENSIEVE_SRC_SCHEDULER_CACHE_COORDINATOR_H_
