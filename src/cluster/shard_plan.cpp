#include "cluster/shard_plan.h"

#include <stdexcept>

namespace sdlc::cluster {

std::vector<IndexRange> plan_shards(size_t lo, size_t hi, size_t shard_count) {
    if (lo > hi) throw std::invalid_argument("plan_shards: lo > hi");
    if (shard_count == 0) throw std::invalid_argument("plan_shards: shard_count == 0");
    const size_t total = hi - lo;
    const size_t shards = total < shard_count ? total : shard_count;
    std::vector<IndexRange> plan;
    plan.reserve(shards);
    // First (total % shards) ranges get one extra index: sizes differ by at
    // most one and the concatenation covers [lo, hi) exactly.
    const size_t base = shards == 0 ? 0 : total / shards;
    const size_t extra = shards == 0 ? 0 : total % shards;
    size_t cursor = lo;
    for (size_t i = 0; i < shards; ++i) {
        const size_t size = base + (i < extra ? 1 : 0);
        plan.push_back(IndexRange{cursor, cursor + size});
        cursor += size;
    }
    return plan;
}

std::vector<IndexRange> plan_group_shards(const std::vector<size_t>& bounds,
                                          size_t shard_count) {
    const size_t groups = bounds.empty() ? 0 : bounds.size() - 1;
    std::vector<IndexRange> plan = plan_shards(0, groups, shard_count);
    for (IndexRange& r : plan) r = IndexRange{bounds[r.lo], bounds[r.hi]};
    return plan;
}

}  // namespace sdlc::cluster
