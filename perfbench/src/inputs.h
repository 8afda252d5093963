// Seeded benchmark inputs: conversations with ShareGPT's Table 2 statistics,
// stratified by size.
//
// Conversation sizes are heavy-tailed (log-normal turn lengths, geometric
// turn counts), so a few hundred conversations drawn independently per seed
// differ a lot in total work, and the latency tail follows the few largest.
// To keep runs with different seeds comparable, the benchmark draws one
// fixed pool of kPoolPerPick * n conversations, sorts it by total tokens,
// cuts it into n equal strata, and lets the seed pick one conversation per
// stratum and their order. Every seed then serves the same size
// distribution; which conversations, their order, their arrival times and
// think times still change with the seed.

#ifndef PERFBENCH_SRC_INPUTS_H_
#define PERFBENCH_SRC_INPUTS_H_

#include <cstdint>
#include <vector>

#include "src/workload/dataset.h"

namespace perfbench {

inline constexpr int64_t kPoolPerPick = 8;

std::vector<pensieve::ConversationSpec> StratifiedConversations(
    const pensieve::DatasetProfile& profile, int64_t n, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_INPUTS_H_
