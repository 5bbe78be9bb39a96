// Deterministic shard planning for distributed sweeps.
//
// The enumeration index space is cut into a fixed number of contiguous
// ranges, independent of how many workers happen to be alive — the same
// trick the evaluator and error/evaluate.h use for thread-count
// independence. The plan depends only on the space and shard_count, so
// every coordinator configured the same way cuts the same sweep
// identically, and retrying a shard on a different worker re-runs exactly
// the same indices. Distributed sweeps cut on function-group boundaries
// (plan_group_shards), so a function is never split across two replicas
// and each replica evaluates every function it holds once.
#ifndef SDLC_CLUSTER_SHARD_PLAN_H
#define SDLC_CLUSTER_SHARD_PLAN_H

#include <cstddef>
#include <vector>

namespace sdlc::cluster {

/// One contiguous slice [lo, hi) of the enumeration index space.
struct IndexRange {
    size_t lo = 0;
    size_t hi = 0;

    [[nodiscard]] size_t size() const noexcept { return hi - lo; }
};

/// Cuts [lo, hi) into at most `shard_count` contiguous, non-empty,
/// ascending ranges whose sizes differ by at most one and whose union is
/// exactly [lo, hi). Fewer ranges come back when the space is smaller than
/// `shard_count`; an empty space yields an empty plan. Throws
/// std::invalid_argument on lo > hi or shard_count == 0.
[[nodiscard]] std::vector<IndexRange> plan_shards(size_t lo, size_t hi, size_t shard_count);

/// Cuts the groups delimited by `bounds` (ascending group starts followed
/// by the end, as dse/evaluator.h's function_group_bounds returns them)
/// into at most `shard_count` shards of whole groups: plan_shards over the
/// group list, mapped back to index ranges. No range splits a group, and
/// min(shard_count, groups) ranges come back. Empty or single-entry
/// `bounds` yield an empty plan; throws std::invalid_argument on
/// shard_count == 0.
[[nodiscard]] std::vector<IndexRange> plan_group_shards(const std::vector<size_t>& bounds,
                                                        size_t shard_count);

}  // namespace sdlc::cluster

#endif  // SDLC_CLUSTER_SHARD_PLAN_H
