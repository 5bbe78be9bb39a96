// Exhaustive error evaluation on the sliced (lane-table) kernel.
//
// Same shard grid, same (a, b) visit order and same shard merge order as
// the scalar exhaustive_metrics(); the products and their reduction
// change. Each stripe prepares its lane tables once per a, evaluates 64
// consecutive b values per block through
// SlicedMultiplyKernel::multiply_block_prepared, and reduces each block in
// ErrorAccumulator::LaneBlocks, which holds the shard's sums in registers
// and derives the exact products from (a, b0) instead of storing them.
// LaneBlocks reproduces ErrorAccumulator::add() pair for pair, in the same
// order, so the returned ErrorMetrics is bit-identical to the scalar
// engine for every eligible configuration (enforced by
// tests/kernels_sliced_test.cpp).
#ifndef SDLC_ERROR_EVALUATE_SLICED_H
#define SDLC_ERROR_EVALUATE_SLICED_H

#include "core/kernels_sliced.h"
#include "error/evaluate.h"
#include "error/metrics.h"

namespace sdlc {

/// Exhaustive metrics over every operand pair of the kernel's width.
/// Threading and interruption contract match exhaustive_metrics(): inline
/// by default, shards over `pool` when provided, and `stop` runs before
/// each shard.
[[nodiscard]] ErrorMetrics exhaustive_metrics_sliced(const SlicedMultiplyKernel& kernel,
                                                     ThreadPool* pool = nullptr,
                                                     const StopCheck& stop = {});

}  // namespace sdlc

#endif  // SDLC_ERROR_EVALUATE_SLICED_H
