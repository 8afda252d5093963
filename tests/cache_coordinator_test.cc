// Tests for the scheduler-side cache coordinator, in particular the
// ahead-of-time eviction retry guard: a pass that cannot reach the free
// target (CPU tier full) must not rescan within the same virtual instant
// unless the available block count changed; and GPU allocation pressure
// reaching blocks behind a CPU-only prefix without a flash tier.

#include <gtest/gtest.h>

#include "src/eviction/policy.h"
#include "src/kvcache/two_tier_cache.h"
#include "src/scheduler/cache_coordinator.h"

namespace pensieve {
namespace {

// 4 GPU blocks, 1 CPU block, 4-token chunks: with a 0.5 free target the
// CPU tier can never hold enough evicted chunks to satisfy a pass.
KvCacheConfig TinyConfig() {
  KvCacheConfig config;
  config.block_size = 4;
  config.num_gpu_blocks = 4;
  config.num_cpu_blocks = 1;
  return config;
}

class AotRetryGuardTest : public ::testing::Test {
 protected:
  AotRetryGuardTest() : cache_(TinyConfig()) {
    CacheCoordinator::Options options;
    options.swap_out_target = 0.5;  // 2 of 4 blocks
    coordinator_ = std::make_unique<CacheCoordinator>(&cache_, &policy_, options);
    for (int64_t id = 1; id <= 4; ++id) {
      EXPECT_TRUE(cache_.AppendTokenSlots(id, 4, nullptr).ok());
    }
  }

  TwoTierKvCache cache_;
  LruPolicy policy_;
  std::unique_ptr<CacheCoordinator> coordinator_;
};

TEST_F(AotRetryGuardTest, FailedPassSkipsRescanWithinSameInstant) {
  // First pass: the single CPU block forces a swap/discard tussle — each
  // swap-out evicts the previous candidate's CPU copy — and the pass ends
  // below target, arming the guard.
  const CacheCoordinator::EvictOutcome first = coordinator_->AheadOfTimeEvict(1.0);
  EXPECT_EQ(first.swapped_out_tokens, 16);
  const int64_t after_first = cache_.counters().swapped_out_chunks;
  EXPECT_EQ(after_first, 4);
  EXPECT_LT(cache_.AvailableGpuBlocks(), 2);

  // Same instant, same availability: the guard suppresses the rescan.
  const CacheCoordinator::EvictOutcome second = coordinator_->AheadOfTimeEvict(1.0);
  EXPECT_EQ(second.swapped_out_tokens, 0);
  EXPECT_EQ(cache_.counters().swapped_out_chunks, after_first);
}

TEST_F(AotRetryGuardTest, AvailabilityChangeRetriesWithinSameInstant) {
  (void)coordinator_->AheadOfTimeEvict(1.0);
  const int64_t after_first = cache_.counters().swapped_out_chunks;

  // Discard the surviving CPU copy behind the coordinator's back: available
  // drops from 1 to 0, which must defeat the guard and trigger a rescan.
  for (const auto& [id, state] : cache_.conversations()) {
    if (state.num_chunks() > 0 &&
        state.chunk(0).location == ChunkLocation::kGpuAndCpu) {
      ASSERT_TRUE(cache_.DropCpuCopy(id, 0).ok());
      break;
    }
  }
  ASSERT_EQ(cache_.AvailableGpuBlocks(), 0);
  const CacheCoordinator::EvictOutcome retry = coordinator_->AheadOfTimeEvict(1.0);
  EXPECT_GT(cache_.counters().swapped_out_chunks, after_first);
  EXPECT_GT(retry.swapped_out_tokens, 0);
}

TEST_F(AotRetryGuardTest, TimeAdvanceRetries) {
  (void)coordinator_->AheadOfTimeEvict(1.0);
  const int64_t after_first = cache_.counters().swapped_out_chunks;
  (void)coordinator_->AheadOfTimeEvict(1.0);
  ASSERT_EQ(cache_.counters().swapped_out_chunks, after_first);

  // Virtual time moved on: the guard no longer applies.
  (void)coordinator_->AheadOfTimeEvict(2.0);
  EXPECT_GT(cache_.counters().swapped_out_chunks, after_first);
}

TEST_F(AotRetryGuardTest, ReachingTargetClearsGuard) {
  (void)coordinator_->AheadOfTimeEvict(1.0);
  const int64_t after_first = cache_.counters().swapped_out_chunks;

  // Free two whole conversations; the target is now met, so the next pass
  // is a no-op success rather than a guarded failure.
  cache_.Release(1);
  cache_.Release(2);
  ASSERT_GE(cache_.AvailableGpuBlocks(), 2);
  const CacheCoordinator::EvictOutcome pass = coordinator_->AheadOfTimeEvict(1.0);
  EXPECT_EQ(pass.swapped_out_tokens, 0);
  EXPECT_EQ(cache_.counters().swapped_out_chunks, after_first);
  cache_.CheckInvariants();
}

TEST(CacheCoordinatorTest, PinnedConversationsAreNeverVictims) {
  TwoTierKvCache cache(TinyConfig());
  LruPolicy policy;
  CacheCoordinator::Options options;
  options.swap_out_target = 0.5;
  CacheCoordinator coordinator(&cache, &policy, options);
  for (int64_t id = 1; id <= 4; ++id) {
    ASSERT_TRUE(cache.AppendTokenSlots(id, 4, nullptr).ok());
    cache.GetOrCreate(id).Pin();
  }
  const CacheCoordinator::EvictOutcome outcome = coordinator.AheadOfTimeEvict(1.0);
  EXPECT_EQ(outcome.swapped_out_tokens, 0);
  EXPECT_EQ(outcome.dropped_tokens, 0);
  EXPECT_EQ(cache.counters().swapped_out_chunks, 0);
}

TEST(CacheCoordinatorTest, FreesGpuBlocksBehindCpuOnlyPrefixWithoutFlash) {
  // 4 GPU / 2 CPU blocks, no flash tier. Conversation 1 is [GPU, CPU, GPU];
  // the pinned conversation 2 is [CPU, GPU, GPU], so both tiers are full.
  KvCacheConfig config;
  config.block_size = 4;
  config.num_gpu_blocks = 4;
  config.num_cpu_blocks = 2;
  TwoTierKvCache cache(config);
  ASSERT_TRUE(cache.AppendTokenSlots(1, 12, nullptr).ok());
  ASSERT_TRUE(cache.SwapOut(1, 1).ok());
  ASSERT_TRUE(cache.ReclaimGpu(1, 1).ok());
  ASSERT_TRUE(cache.AppendTokenSlots(2, 4, nullptr).ok());
  ASSERT_TRUE(cache.SwapOut(2, 0).ok());
  ASSERT_TRUE(cache.ReclaimGpu(2, 0).ok());
  ASSERT_TRUE(cache.AppendTokenSlots(2, 8, nullptr).ok());
  cache.GetOrCreate(2).Pin();
  ASSERT_EQ(cache.gpu_allocator().num_free(), 0);
  ASSERT_EQ(cache.cpu_allocator().num_free(), 0);

  LruPolicy policy;
  CacheCoordinator coordinator(&cache, &policy, CacheCoordinator::Options{});
  // No CPU block can be freed, so nothing can be swapped out. Dropping
  // conversation 1's GPU front frees one block; the second sits behind the
  // CPU-only chunk and is reached by dropping through it.
  const CacheCoordinator::FreeOutcome outcome = coordinator.EnsureFreeGpuBlocks(2, 1.0);
  EXPECT_TRUE(outcome.ok);
  EXPECT_EQ(cache.gpu_allocator().num_free(), 2);
  EXPECT_EQ(outcome.dropped_tokens, 12);
  EXPECT_EQ(outcome.forced_swap_out_tokens, 0);
  EXPECT_EQ(cache.Find(1), nullptr);  // fully dropped, so forgotten
  cache.CheckInvariants();
}

}  // namespace
}  // namespace pensieve
