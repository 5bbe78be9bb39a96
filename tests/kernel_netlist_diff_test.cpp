// Differential battery: MultiplyKernel (the fast software path the DSE
// error sweep runs on) against gate-level netlist simulation (the hardware
// the DSE cost model synthesizes), for every MultiplierConfig in the
// width-2..8 sweep grid.
//
// kernels_test proves kernel == functional model; sdlc_netlist_test proves
// netlist == functional model for the SDLC generator. This suite closes
// the remaining gap end to end at the DSE granularity: the exact
// configuration objects a sweep enumerates — every width, depth, variant
// AND accumulation scheme — produce a netlist whose simulated product is
// bit-identical to the kernel the evaluator actually ran. A mismatch here
// means the cost model and the error model describe different hardware.
//
// Exhaustive over the full operand square up to width 6; fixed-seed random
// operand streams at widths 7 and 8 (the square is 65k pairs there — the
// random stream plus the exhaustive smaller widths already pin every
// structural path).
#include <gtest/gtest.h>

#include <vector>

#include "api/approx_multiplier.h"
#include "arith/mul_netlist.h"
#include "core/kernels.h"
#include "core/kernels_sliced.h"
#include "dse/sweep.h"
#include "util/rng.h"

namespace sdlc {
namespace {

/// Drains `as`/`bs` through one 64-lane simulator pass and compares every
/// lane against the kernel.
void flush_batch(const MultiplierNetlist& m, const MultiplyKernel& kernel,
                 std::vector<uint64_t>& as, std::vector<uint64_t>& bs) {
    if (as.empty()) return;
    const std::vector<uint64_t> products = simulate_batch(m, as, bs);
    for (size_t i = 0; i < as.size(); ++i) {
        ASSERT_EQ(products[i], kernel(as[i], bs[i]))
            << m.label << ": " << as[i] << " * " << bs[i];
    }
    as.clear();
    bs.clear();
}

void expect_netlist_matches_kernel(const MultiplierConfig& config) {
    const ApproxMultiplier facade(config);
    const MultiplierNetlist m = facade.build_netlist();
    const MultiplyKernel kernel(config);
    std::vector<uint64_t> as, bs;
    as.reserve(64);
    bs.reserve(64);

    if (config.width <= 6) {
        const uint64_t side = uint64_t{1} << config.width;
        for (uint64_t a = 0; a < side; ++a) {
            for (uint64_t b = 0; b < side; ++b) {
                as.push_back(a);
                bs.push_back(b);
                if (as.size() == 64) flush_batch(m, kernel, as, bs);
            }
        }
    } else {
        // Seed from the configuration so every config gets its own
        // reproducible stream, plus the corner operands.
        const uint64_t mask = (uint64_t{1} << config.width) - 1;
        for (const uint64_t corner : {uint64_t{0}, uint64_t{1}, mask, mask - 1, mask >> 1}) {
            as.push_back(corner);
            bs.push_back(mask);
            as.push_back(mask);
            bs.push_back(corner);
        }
        Xoshiro256 rng(0xd1ff5eed ^ (static_cast<uint64_t>(config.width) << 16) ^
                       (static_cast<uint64_t>(config.depth) << 8) ^
                       (static_cast<uint64_t>(static_cast<int>(config.variant)) << 4) ^
                       static_cast<uint64_t>(static_cast<int>(config.scheme)));
        for (int i = 0; i < 1024; ++i) {
            as.push_back(rng.next() & mask);
            bs.push_back(rng.next() & mask);
            if (as.size() == 64) flush_batch(m, kernel, as, bs);
        }
    }
    flush_batch(m, kernel, as, bs);
}

TEST(KernelNetlistDifferential, SweepGridWidths2To8) {
    SweepSpec spec;
    spec.widths.clear();
    for (int w = 2; w <= 8; ++w) spec.widths.push_back(w);
    const std::vector<MultiplierConfig> grid = spec.enumerate();
    // The default axes at these widths: (accurate + 2 variants * depths
    // 2..w) * 4 schemes per width.
    ASSERT_EQ(grid.size(), 252u);
    for (const MultiplierConfig& config : grid) {
        SCOPED_TRACE(ApproxMultiplier(config).describe());
        expect_netlist_matches_kernel(config);
        if (HasFatalFailure()) return;
    }
}

/// Closes the same gap for the sliced engine: for every eligible grid
/// config, a sliced block's products match the simulated netlist directly
/// (not just the scalar kernel — kernels_sliced_test covers that
/// exhaustively). One aligned block for a few `a` stripes pins the lane
/// tables against the hardware model.
TEST(KernelNetlistDifferential, SlicedEngineMatchesNetlist) {
    SweepSpec spec;
    spec.widths.clear();
    for (int w = 2; w <= 8; ++w) spec.widths.push_back(w);
    for (const MultiplierConfig& config : spec.enumerate()) {
        if (!SlicedMultiplyKernel::eligible(config)) continue;
        SCOPED_TRACE(ApproxMultiplier(config).describe());
        const MultiplierNetlist m = ApproxMultiplier(config).build_netlist();
        const SlicedMultiplyKernel sliced(config);
        const uint64_t side = uint64_t{1} << config.width;
        const unsigned lanes = sliced.natural_lanes();
        uint64_t out[64];
        std::vector<uint64_t> as, bs;
        for (const uint64_t a : {uint64_t{0}, side / 2, side - 1}) {
            SlicedMultiplyKernel::Prepared prep;
            sliced.prepare(a, prep);
            const uint64_t b0 = side >= 2 * lanes ? side - lanes : 0;
            sliced.multiply_block_prepared(prep, b0, out);
            as.assign(lanes, a);
            bs.resize(lanes);
            for (unsigned l = 0; l < lanes; ++l) bs[l] = b0 + l;
            const std::vector<uint64_t> products = simulate_batch(m, as, bs);
            for (unsigned l = 0; l < lanes; ++l) {
                ASSERT_EQ(products[l], out[l]) << "aligned a=" << a << " b=" << b0 + l;
            }
        }
        if (HasFatalFailure()) return;
    }
}

}  // namespace
}  // namespace sdlc
