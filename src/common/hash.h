// FNV-1a hashing shared by the KV-transfer checksum path and the
// content-addressed prefix-dedup trie. Both use the same byte-stream
// algorithm; the checksum path keeps the 32-bit variant it has always
// emitted, the trie chains the 64-bit variant across blocks
// (BlockHashChain).

#ifndef PENSIEVE_SRC_COMMON_HASH_H_
#define PENSIEVE_SRC_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pensieve {

inline constexpr uint32_t kFnv1a32OffsetBasis = 2166136261u;
inline constexpr uint32_t kFnv1a32Prime = 16777619u;
inline constexpr uint64_t kFnv1a64OffsetBasis = 14695981039346656037ull;
inline constexpr uint64_t kFnv1a64Prime = 1099511628211ull;

inline uint32_t Fnv1a32(const void* data, size_t n,
                        uint32_t seed = kFnv1a32OffsetBasis) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  uint32_t hash = seed;
  for (size_t i = 0; i < n; ++i) {
    hash ^= bytes[i];
    hash *= kFnv1a32Prime;
  }
  return hash;
}

inline uint64_t Fnv1a64(const void* data, size_t n,
                        uint64_t seed = kFnv1a64OffsetBasis) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  uint64_t hash = seed;
  for (size_t i = 0; i < n; ++i) {
    hash ^= bytes[i];
    hash *= kFnv1a64Prime;
  }
  return hash;
}

// Cumulative FNV-1a chain over a token stream, one hash per full block:
// chain[b] covers positions [0, (b + 1) * block_size), so equal chain
// entries mean equal prefixes. `token_at(pos)` is the 64-bit identity of the
// token at position pos. The prefix-dedup trie is keyed by these chains.
template <typename TokenAt>
std::vector<uint64_t> BlockHashChain(int64_t num_blocks, int64_t block_size,
                                     TokenAt&& token_at) {
  std::vector<uint64_t> chain;
  chain.reserve(static_cast<size_t>(num_blocks));
  uint64_t h = kFnv1a64OffsetBasis;
  int64_t pos = 0;
  for (int64_t b = 0; b < num_blocks; ++b) {
    for (int64_t i = 0; i < block_size; ++i, ++pos) {
      const uint64_t tok = token_at(pos);
      h = Fnv1a64(&tok, sizeof(tok), h);
    }
    chain.push_back(h);
  }
  return chain;
}

// Deterministic token-identity mix for position `position` of shared-prefix
// template `template_id` (SplitMix64, salted differently from the
// per-conversation SyntheticToken stream so templates never collide with
// conversation bodies). Every conversation carrying the same template id has
// this exact raw-token stream as its history prefix; the workload layer
// reduces it to a vocabulary token id, the serving layer chains it through
// Fnv1a64 to key the prefix-dedup trie.
inline uint64_t TemplatePrefixMix(int32_t template_id, int64_t position) {
  uint64_t z = (static_cast<uint64_t>(static_cast<uint32_t>(template_id)) ^
                0x94D049BB133111EBULL) *
                   0x9E3779B97F4A7C15ULL +
               static_cast<uint64_t>(position);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace pensieve

#endif  // PENSIEVE_SRC_COMMON_HASH_H_
