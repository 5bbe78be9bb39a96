// Tests for the fast-path kernel layer: path names and, most importantly,
// bit-exact equivalence between the block kernel (one pair or a whole
// block) and the reference ClusterPlan interpreter / ApproxMultiplier
// software model.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "api/approx_multiplier.h"
#include "baselines/truncated.h"
#include "core/functional.h"
#include "core/kernels.h"
#include "util/rng.h"

namespace sdlc {
namespace {

/// Compares kernel vs facade on a reproducible random operand stream.
void expect_sampled_equivalence(const MultiplierConfig& cfg, uint64_t samples) {
    const ApproxMultiplier mul(cfg);
    const MultiplyKernel kernel(cfg);
    Xoshiro256 rng(0x5eed ^ (static_cast<uint64_t>(cfg.width) << 8) ^
                   static_cast<uint64_t>(cfg.depth));
    const uint64_t mask = (uint64_t{1} << cfg.width) - 1;
    for (uint64_t i = 0; i < samples; ++i) {
        const uint64_t a = rng.next() & mask;
        const uint64_t b = rng.next() & mask;
        ASSERT_EQ(kernel(a, b), mul.multiply(a, b))
            << mul.describe() << " path=" << kernel.name() << " a=" << a << " b=" << b;
    }
}

// ------------------------------------------------------------ path names ----

TEST(KernelNames, AccurateAndDepth1AreTheExactPath) {
    EXPECT_STREQ(multiply_kernel_name({8, 1, MultiplierVariant::kAccurate}), "accurate");
    // Depth 1 means no compression for both approximate variants.
    EXPECT_STREQ(multiply_kernel_name({8, 1, MultiplierVariant::kSdlc}), "accurate");
    EXPECT_STREQ(multiply_kernel_name({8, 1, MultiplierVariant::kCompensated}), "accurate");
    // The accurate variant ignores its depth knob.
    EXPECT_STREQ(multiply_kernel_name({8, 5, MultiplierVariant::kAccurate}), "accurate");
}

TEST(KernelNames, PlainDepth2IsFast2AndTheRestPlanned) {
    EXPECT_STREQ(multiply_kernel_name({8, 2, MultiplierVariant::kSdlc}), "sdlc-fast2");
    EXPECT_STREQ(multiply_kernel_name({8, 3, MultiplierVariant::kSdlc}), "planned");
    EXPECT_STREQ(multiply_kernel_name({8, 2, MultiplierVariant::kCompensated}), "planned");
    EXPECT_STREQ(MultiplyKernel({8, 3, MultiplierVariant::kSdlc}).name(), "planned");
}

TEST(KernelNames, SchemeDoesNotAffectThePath) {
    // The accumulation scheme shapes hardware, never the software product.
    for (const AccumulationScheme s :
         {AccumulationScheme::kRowRipple, AccumulationScheme::kWallace,
          AccumulationScheme::kDadda, AccumulationScheme::kRowFastCpa}) {
        EXPECT_STREQ(multiply_kernel_name({8, 2, MultiplierVariant::kSdlc, s}), "sdlc-fast2");
        EXPECT_STREQ(multiply_kernel_name({8, 4, MultiplierVariant::kSdlc, s}), "planned");
    }
}

TEST(MultiplyKernelClass, RejectsUnbuildableConfigs) {
    EXPECT_THROW(MultiplyKernel({40, 2, MultiplierVariant::kSdlc}), std::invalid_argument);
    EXPECT_THROW(MultiplyKernel({8, 9, MultiplierVariant::kSdlc}), std::invalid_argument);
}

TEST(MultiplyKernelClass, Depth2MatchesTheFast2BitTrick) {
    for (const int width : {4, 8, 16, 32}) {
        const MultiplyKernel kernel({width, 2, MultiplierVariant::kSdlc});
        const uint64_t mask = (uint64_t{1} << width) - 1;
        Xoshiro256 rng(7);
        for (int i = 0; i < 1000; ++i) {
            const uint64_t a = rng.next() & mask;
            const uint64_t b = rng.next() & mask;
            EXPECT_EQ(kernel(a, b), sdlc_multiply_fast2(width, a, b));
        }
    }
}

TEST(MultiplyKernelClass, ErrorDistanceMatchesFacade) {
    const MultiplierConfig cfg{8, 3, MultiplierVariant::kSdlc};
    const ApproxMultiplier mul(cfg);
    const MultiplyKernel kernel(cfg);
    Xoshiro256 rng(3);
    for (int i = 0; i < 2000; ++i) {
        const uint64_t a = rng.next() & 0xff, b = rng.next() & 0xff;
        EXPECT_EQ(kernel.error_distance(a, b), mul.error_distance(a, b));
    }
}

// ----------------------------------------------------------- equivalence ----

TEST(KernelEquivalence, SampledWideConfigs) {
    for (const int width : {9, 12, 16, 24, 32}) {
        for (const int depth : {2, 3, 4, width / 2}) {
            if (depth < 1 || depth > width) continue;
            expect_sampled_equivalence({width, depth, MultiplierVariant::kSdlc}, 20000);
            expect_sampled_equivalence({width, depth, MultiplierVariant::kCompensated}, 20000);
        }
    }
}

// ------------------------------------------------------- block evaluation ----

/// Checks multiply_block over `pairs` against operator() and the facade,
/// in blocks whose sizes cycle through 64, 63 and 1 so that every block
/// size the engines use (and a single pair) starts at many offsets.
void expect_block_equivalence(const MultiplierConfig& cfg, const std::vector<uint64_t>& as,
                              const std::vector<uint64_t>& bs) {
    const ApproxMultiplier mul(cfg);
    const MultiplyKernel kernel(cfg);
    const unsigned sizes[] = {64, 63, 1};
    uint64_t out[MultiplyKernel::kMaxBlock];
    size_t next = 0;
    for (size_t k = 0; next < as.size(); ++k) {
        const auto n = static_cast<unsigned>(std::min<size_t>(sizes[k % 3], as.size() - next));
        kernel.multiply_block(as.data() + next, bs.data() + next, out, n);
        for (unsigned i = 0; i < n; ++i) {
            const uint64_t a = as[next + i], b = bs[next + i];
            ASSERT_EQ(out[i], kernel(a, b)) << mul.describe() << " n=" << n << " a=" << a
                                            << " b=" << b;
            ASSERT_EQ(out[i], mul.multiply(a, b)) << mul.describe() << " n=" << n << " a=" << a
                                                  << " b=" << b;
        }
        next += n;
    }
}

TEST(BlockEquivalence, ExhaustiveEveryDepthWidths2To10) {
    for (int width = 2; width <= 10; ++width) {
        const uint64_t side = uint64_t{1} << width;
        std::vector<uint64_t> as, bs;
        for (uint64_t a = 0; a < side; ++a) {
            for (uint64_t b = 0; b < side; ++b) {
                as.push_back(a);
                bs.push_back(b);
            }
        }
        expect_block_equivalence({width, 1, MultiplierVariant::kAccurate}, as, bs);
        for (int depth = 1; depth <= width; ++depth) {
            expect_block_equivalence({width, depth, MultiplierVariant::kSdlc}, as, bs);
            expect_block_equivalence({width, depth, MultiplierVariant::kCompensated}, as, bs);
        }
    }
}

TEST(BlockEquivalence, RandomPairsWidths17To32) {
    for (int width = 17; width <= 32; ++width) {
        Xoshiro256 rng(static_cast<uint64_t>(width));
        const uint64_t mask = (uint64_t{1} << width) - 1;
        std::vector<uint64_t> as(3000), bs(3000);
        for (size_t i = 0; i < as.size(); ++i) {
            as[i] = rng.next() & mask;
            bs[i] = rng.next() & mask;
        }
        // Compensated depths above 16 need tables across several chunks.
        for (const int depth : {2, 3, 7, 9, 16, 17, 24, width}) {
            if (depth > width) continue;
            expect_block_equivalence({width, depth, MultiplierVariant::kSdlc}, as, bs);
            expect_block_equivalence({width, depth, MultiplierVariant::kCompensated}, as, bs);
        }
    }
}

TEST(MultiplyKernelClass, CompensationTablesStayWithinTheBound) {
    size_t widest = 0;
    for (int width = 2; width <= 32; ++width) {
        for (int depth = 1; depth <= width; ++depth) {
            const size_t bytes =
                MultiplyKernel({width, depth, MultiplierVariant::kCompensated}).table_bytes();
            EXPECT_LE(bytes, MultiplyKernel::kMaxTableBytes) << width << " d" << depth;
            widest = std::max(widest, bytes);
            EXPECT_EQ(MultiplyKernel({width, depth, MultiplierVariant::kSdlc}).table_bytes(), 0u);
        }
    }
    // The bound is the width-32, depth-32 table set: 4 inside-chunk
    // tables plus 8 per pair of chunks, 2^8 entries each.
    EXPECT_EQ(widest, MultiplyKernel::kMaxTableBytes * 52 / 64);
    EXPECT_EQ(MultiplyKernel({32, 32, MultiplierVariant::kCompensated}).table_bytes(), widest);
}

// -------------------------------------------------------------- truncated ----

TEST(TruncatedKernel, ExhaustiveEquivalenceWidth8AllCuts) {
    const int width = 8;
    for (int cut = 0; cut < 2 * width; ++cut) {
        const MultiplyKernelFn fn = find_truncated_kernel(cut);
        ASSERT_NE(fn, nullptr) << cut;
        for (uint64_t a = 0; a < 256; ++a) {
            for (uint64_t b = 0; b < 256; ++b) {
                ASSERT_EQ(fn(a, b), truncated_multiply(width, cut, a, b))
                    << "cut=" << cut << " a=" << a << " b=" << b;
                ASSERT_EQ(truncated_multiply_fast(width, cut, a, b),
                          truncated_multiply(width, cut, a, b));
            }
        }
    }
}

TEST(TruncatedKernel, OutOfRangeCutReturnsNull) {
    EXPECT_EQ(find_truncated_kernel(-1), nullptr);
    EXPECT_EQ(find_truncated_kernel(64), nullptr);
}

}  // namespace
}  // namespace sdlc
