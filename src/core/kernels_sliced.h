// Lane-table evaluation of the planned sum-minus-OR path for exhaustive
// sweeps: one block of 64 consecutive b values per call.
//
// The scalar planned path (core/kernels.h) evaluates one (a, b) pair per
// call. Exhaustive error sweeps, however, iterate b densely for a fixed a,
// in 64-aligned blocks b = b0 + l (l = 0..63). Inside such a block, B bits
// 0..5 are the lane index l and B bits >= 6 are those of b0, shared by
// every lane. Every cluster group's error (SUM - OR of its active rows'
// windowed partial products, see core/kernels.h) therefore splits by row:
//
//   - a low group (all rows < 6) depends on (a, l) only: prepare(a) tables
//     its error per lane once per a;
//   - a high group (all rows >= 6) is one scalar per block, from b0;
//   - groups are `depth`-row ranges g*depth.., so at most one group
//     straddles bit 6. Its SUM and OR split into a low part, tabled per
//     lane in prepare(a), and a high part uniform across the block:
//       err_l = ((S_lo[l] + S_hi) - (O_lo[l] | O_hi)).
//
// Compensation depends on b alone, so the compensated variant reads a
// per-kernel table indexed by b (high rows select the block, low rows the
// lane). products[l] = a*b_l - err_l + comp(b_l) in uint64 wrap arithmetic
// reproduces the scalar kernel exactly — results are bit-identical to
// MultiplyKernel for every operand pair (enforced by exhaustive tests).
#ifndef SDLC_CORE_KERNELS_SLICED_H
#define SDLC_CORE_KERNELS_SLICED_H

#include <cstdint>
#include <vector>

#include "api/approx_multiplier.h"

namespace sdlc {

/// Per-configuration block evaluator for the planned path. The name
/// "sliced" is the engine's wire and tally name.
class SlicedMultiplyKernel {
public:
    /// Precomputed per-a lane tables for multiply_block_prepared().
    struct Prepared {
        uint64_t a = 0;
        uint64_t lane[64] = {};    ///< a*l minus the low groups' error
        uint64_t sum_lo[64] = {};  ///< straddling group: SUM of its rows < 6
        uint64_t or_lo[64] = {};   ///< straddling group: OR of its rows < 6
    };

    /// Throws std::invalid_argument when !eligible(config).
    explicit SlicedMultiplyKernel(const MultiplierConfig& config);

    /// True when this engine applies: width in [2, 16] and a non-empty
    /// compression plan (sdlc/compensated with depth in [2, width]).
    /// Accurate and depth-1 configurations are exact — the scalar
    /// accurate kernel is already optimal for them.
    [[nodiscard]] static bool eligible(const MultiplierConfig& config) noexcept;

    /// Tables every lane-dependent group term for this `a` into prep.
    void prepare(uint64_t a, Prepared& prep) const noexcept;

    /// Products of a * (b0 + l) for l in [0, natural_lanes()).
    /// Requires b0 to be a multiple of natural_lanes().
    void multiply_block_prepared(const Prepared& prep, uint64_t b0,
                                 uint64_t out[64]) const noexcept;

    /// Lanes per block: min(64, 2^width), so a full b-sweep at width < 6
    /// is a single partial block.
    [[nodiscard]] unsigned natural_lanes() const noexcept { return lanes_; }

    [[nodiscard]] const MultiplierConfig& config() const noexcept { return config_; }
    [[nodiscard]] const char* name() const noexcept { return "sliced"; }

private:
    /// One partial-product row of a cluster group: (a & mask) << row,
    /// present when B bit `row` is set.
    struct Row {
        int row = 0;
        uint64_t mask = 0;
    };

    struct Group {
        uint32_t first = 0;  ///< index of the group's first row in rows_
        uint32_t count = 0;
    };

    /// SUM and OR of the rows of `g` whose B bit is set in `b`.
    void partial(const Group& g, uint64_t a, uint64_t b, uint64_t& sum,
                 uint64_t& any) const noexcept;

    MultiplierConfig config_;
    unsigned lanes_ = 64;
    std::vector<Row> rows_;
    std::vector<Group> low_;   ///< all rows < 6
    std::vector<Group> high_;  ///< all rows >= 6
    Group straddle_;           ///< rows on both sides of bit 6 (count 0: none)
    std::vector<uint64_t> comp_;  ///< compensation per b (compensated only)
};

}  // namespace sdlc

#endif  // SDLC_CORE_KERNELS_SLICED_H
