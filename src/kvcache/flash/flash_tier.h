// The flash (simulated SSD) tier: segment log + FIFO retention + an
// optional numeric KV pool, behind one facade.
//
// The tier indexes KV chunks by an opaque 64-bit key packing (conversation,
// chunk index). The key -> flash-block mapping is fully internal: GC
// relocations rewrite it without the upper layers noticing, so Chunk
// bookkeeping never stores flash block ids — a chunk is merely "on SSD"
// (ChunkLocation::kSsd) and the tier resolves the bytes.
//
// Retention is insertion order. The tier is exclusive — a promote erases the
// key — so a resident entry is never re-referenced and recency-aware orders
// (LRU, SIEVE, S3FIFO) all reduce to FIFO here. Admission evicts the oldest
// key whose conversation is not pinned; pinned keys keep their place.
//
// Capacity is split in two: the *logical* capacity enforced by admission,
// and the *physical* log capacity, which is over-provisioned by a couple of
// segments so GC always has somewhere to relocate live blocks (real SSDs
// reserve spare area for exactly this reason).

#ifndef PENSIEVE_SRC_KVCACHE_FLASH_FLASH_TIER_H_
#define PENSIEVE_SRC_KVCACHE_FLASH_FLASH_TIER_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/kvcache/block.h"
#include "src/kvcache/flash/segment_log.h"
#include "src/kvcache/kv_pool.h"

namespace pensieve {

struct FlashTierConfig {
  // Logical capacity (admission budget) in KV blocks.
  int64_t capacity_blocks = 0;
  int64_t segment_blocks = 64;
  // Numeric mode: allocate a real pool with this geometry.
  bool numeric = false;
  int64_t block_size = kDefaultBlockSize;
  int64_t num_layers = 1;
  int64_t num_kv_heads = 1;
  int64_t head_dim = 1;
};

class FlashTier {
 public:
  // Vetoes eviction of a key (its conversation is pinned).
  using EvictablePredicate = std::function<bool(uint64_t)>;

  explicit FlashTier(const FlashTierConfig& config);

  // Key packing: conversation id in the high bits, chunk index in the low
  // 20 bits.
  static uint64_t MakeKey(int64_t conversation_id, int64_t chunk_index);
  static int64_t KeyConversation(uint64_t key);
  static int64_t KeyChunk(uint64_t key);

  int64_t capacity_blocks() const { return config_.capacity_blocks; }
  int64_t live_blocks() const { return log_.live_blocks(); }
  // Resident keys.
  int64_t size() const { return static_cast<int64_t>(fifo_.size()); }

  // Admits `key`, evicting the oldest evictable keys (appended to *evicted
  // in eviction order) until it fits; their log blocks are already dead when
  // this returns. Fails, inserting nothing, when the tier is still full and
  // every key left is vetoed; keys evicted before that point stay evicted.
  bool Insert(uint64_t key, const EvictablePredicate& evictable,
              std::vector<uint64_t>* evicted);
  bool Contains(uint64_t key) const;
  // Removes a key (promotion or drop). Idempotent.
  void Erase(uint64_t key);
  // Current log block of a resident key; kInvalidFlashBlock when absent.
  FlashBlockId BlockOf(uint64_t key) const;

  // Null in simulated mode. Blocks are addressed by BlockOf's FlashBlockId.
  KvPool* pool() { return pool_.get(); }

  const SegmentLog& log() const { return log_; }

 private:
  struct Entry {
    FlashBlockId block;
    std::list<uint64_t>::iterator pos;  // in fifo_
  };

  void OnRelocate(uint64_t key, FlashBlockId from, FlashBlockId to);
  // Kills the entry's log block and forgets the key.
  void Remove(std::unordered_map<uint64_t, Entry>::iterator it);

  FlashTierConfig config_;
  SegmentLog log_;
  std::unique_ptr<KvPool> pool_;
  std::list<uint64_t> fifo_;  // front = oldest insertion
  std::unordered_map<uint64_t, Entry> entries_;
};

}  // namespace pensieve

#endif  // PENSIEVE_SRC_KVCACHE_FLASH_FLASH_TIER_H_
