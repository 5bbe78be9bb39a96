// Enumeration-order merge of sharded sweep streams.
//
// A distributed sweep splits SweepSpec::enumerate() into index shards and
// evaluates them on different machines; the per-point streams come back
// concurrently, out of order, and — after a retry — possibly more than
// once. ShardMerger is the funnel that turns that into the exact stream a
// single-node sweep would have produced: points are emitted strictly in
// enumeration order (point i only after every j < i), duplicates are
// dropped on first-write-wins (evaluation is deterministic, so a retried
// shard re-delivers identical points), and a partial delivery followed by
// a retry never re-emits or reorders anything.
//
// The thread whose add() completes the contiguous ready prefix drains it
// under the internal lock, so the emit callback sees a serialized,
// in-order call sequence. evaluate_sweep streams its own points through a
// ShardMerger too, so on_point behaves the same on every path.
#ifndef SDLC_DSE_SHARD_MERGE_H
#define SDLC_DSE_SHARD_MERGE_H

#include <cstddef>
#include <functional>
#include <mutex>
#include <vector>

#include "dse/evaluator.h"

namespace sdlc {

/// Merges per-point deliveries for enumeration indices [lo, hi) back into
/// order (see file comment). Thread-safe.
class ShardMerger {
public:
    /// `emit` (optional) is called once per index, in order, under the
    /// internal lock; indices passed to it are global enumeration indices.
    ShardMerger(size_t lo, size_t hi,
                std::function<void(size_t index, const DesignPoint& point)> emit = nullptr);

    /// Records the point for a global enumeration index. Duplicate indices
    /// are ignored (first write wins). Throws std::out_of_range for an
    /// index outside [lo, hi).
    void add(size_t index, const DesignPoint& point);

    /// Distinct indices received so far.
    [[nodiscard]] size_t merged() const;

    /// Indices emitted so far (the contiguous prefix length).
    [[nodiscard]] size_t emitted() const;

    /// True once every index in [lo, hi) has been received (and emitted).
    [[nodiscard]] bool complete() const;

    /// Moves the merged points out, in enumeration order. Call only once
    /// complete(); throws std::logic_error otherwise.
    [[nodiscard]] std::vector<DesignPoint> take();

private:
    mutable std::mutex mutex_;
    const size_t lo_;
    const size_t hi_;
    size_t next_emit_;  ///< next global index awaiting emission
    size_t merged_ = 0;
    std::vector<uint8_t> present_;
    std::vector<DesignPoint> points_;
    std::function<void(size_t, const DesignPoint&)> emit_;
};

}  // namespace sdlc

#endif  // SDLC_DSE_SHARD_MERGE_H
