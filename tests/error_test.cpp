// Tests for error metrics, evaluators and the RED histogram.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "error/evaluate.h"
#include "error/histogram.h"
#include "error/metrics.h"
#include "util/rng.h"

namespace sdlc {
namespace {

TEST(ErrorAccumulator, ZeroSamplesYieldZeroMetrics) {
    ErrorAccumulator acc(8);
    const ErrorMetrics m = acc.finalize();
    EXPECT_EQ(m.samples, 0u);
    EXPECT_EQ(m.mred, 0.0);
    EXPECT_EQ(m.error_rate, 0.0);
}

TEST(ErrorAccumulator, HandComputedMetrics) {
    ErrorAccumulator acc(4);  // Pmax = 225
    acc.add(100, 100);        // exact
    acc.add(100, 90);         // ED 10, RED 0.1
    acc.add(50, 40);          // ED 10, RED 0.2
    acc.add(10, 15);          // ED 5 (overshoot), RED 0.5
    const ErrorMetrics m = acc.finalize();
    EXPECT_EQ(m.samples, 4u);
    EXPECT_DOUBLE_EQ(m.error_rate, 0.75);
    EXPECT_DOUBLE_EQ(m.med, 25.0 / 4.0);
    EXPECT_DOUBLE_EQ(m.nmed, 25.0 / 4.0 / 225.0);
    EXPECT_DOUBLE_EQ(m.mred, (0.1 + 0.2 + 0.5) / 4.0);
    EXPECT_DOUBLE_EQ(m.max_red, 0.5);
    EXPECT_EQ(m.max_ed, 10u);
    EXPECT_DOUBLE_EQ(m.bias, (-10.0 - 10.0 + 5.0) / 4.0);
    EXPECT_DOUBLE_EQ(m.rmse, std::sqrt((100.0 + 100.0 + 25.0) / 4.0));
}

TEST(ErrorAccumulator, BiasAndRmseMergeConsistently) {
    ErrorAccumulator all(8), p1(8), p2(8);
    all.add(100, 90);
    all.add(30, 45);
    p1.add(100, 90);
    p2.add(30, 45);
    p1.merge(p2);
    const ErrorMetrics ma = all.finalize();
    const ErrorMetrics mm = p1.finalize();
    EXPECT_DOUBLE_EQ(ma.bias, mm.bias);
    EXPECT_DOUBLE_EQ(ma.rmse, mm.rmse);
}

TEST(ErrorAccumulator, ZeroExactConvention) {
    ErrorAccumulator acc(4);
    acc.add(0, 0);  // exact at zero: no error
    acc.add(0, 3);  // erroneous at zero: RED counts as 1
    const ErrorMetrics m = acc.finalize();
    EXPECT_DOUBLE_EQ(m.error_rate, 0.5);
    EXPECT_DOUBLE_EQ(m.mred, 0.5);
    EXPECT_DOUBLE_EQ(m.max_red, 1.0);
}

TEST(ErrorAccumulator, MergeEqualsSequential) {
    ErrorAccumulator all(8), part1(8), part2(8);
    const std::pair<uint64_t, uint64_t> pairs[] = {
        {100, 90}, {7, 7}, {200, 180}, {33, 30}, {1000, 999}, {64, 64}};
    int i = 0;
    for (const auto& [e, a] : pairs) {
        all.add(e, a);
        (i++ % 2 ? part2 : part1).add(e, a);
    }
    part1.merge(part2);
    const ErrorMetrics ma = all.finalize();
    const ErrorMetrics mm = part1.finalize();
    EXPECT_DOUBLE_EQ(ma.mred, mm.mred);
    EXPECT_DOUBLE_EQ(ma.med, mm.med);
    EXPECT_DOUBLE_EQ(ma.error_rate, mm.error_rate);
    EXPECT_EQ(ma.max_ed, mm.max_ed);
    EXPECT_EQ(ma.samples, mm.samples);
}

/// Feeds the same pairs to one accumulator through add() and to another
/// through add_block() in chunks of `chunk`, then requires bit-identical
/// metrics (ErrorMetrics operator== compares doubles exactly).
void expect_add_block_matches_add(int width, const std::vector<uint64_t>& exact,
                                  const std::vector<uint64_t>& approx, size_t chunk) {
    ErrorAccumulator seq(width), blk(width);
    for (size_t i = 0; i < exact.size(); ++i) seq.add(exact[i], approx[i]);
    for (size_t i = 0; i < exact.size(); i += chunk) {
        blk.add_block(exact.data() + i, approx.data() + i, std::min(chunk, exact.size() - i));
    }
    const ErrorMetrics ms = seq.finalize(), mb = blk.finalize();
    EXPECT_EQ(mb, ms) << "mred " << mb.mred << " vs " << ms.mred << ", med " << mb.med
                      << " vs " << ms.med << ", bias " << mb.bias << " vs " << ms.bias
                      << ", rmse " << mb.rmse << " vs " << ms.rmse;
}

TEST(ErrorAccumulator, AddBlockMatchesSequentialAddOnRandomBlocks) {
    // Random magnitudes up to 2^40, both error signs, ~1/4 exact pairs,
    // and odd block lengths so a chunk boundary never lines up with 64.
    Xoshiro256 rng(0xadd0b10c);
    std::vector<uint64_t> exact, approx;
    for (int i = 0; i < 20000; ++i) {
        const uint64_t e = rng.next() >> (24 + rng.next() % 40);
        const uint64_t d = rng.next() >> (40 + rng.next() % 24);
        const unsigned kind = static_cast<unsigned>(rng.next() % 4);
        exact.push_back(e);
        approx.push_back(kind == 0 ? e : kind == 1 ? e + d : e - std::min(e, d));
    }
    for (const size_t chunk : {size_t{1}, size_t{7}, size_t{63}, size_t{64}}) {
        SCOPED_TRACE(chunk);
        expect_add_block_matches_add(32, exact, approx, chunk);
    }
}

TEST(ErrorAccumulator, AddBlockAdversarialCases) {
    // exact == 0 with approx != 0 (RED 1), exact == 0 with approx == 0
    // (no error), and approx > exact.
    expect_add_block_matches_add(8, {0, 0, 5, 0, 9, 100}, {3, 0, 9, 0, 5, 101}, 64);
    // An all-exact block moves only the sample count.
    expect_add_block_matches_add(8, std::vector<uint64_t>(64, 77),
                                 std::vector<uint64_t>(64, 77), 64);
    ErrorAccumulator exact_only(8);
    const std::vector<uint64_t> same(64, 42);
    exact_only.add_block(same.data(), same.data(), same.size());
    EXPECT_EQ(exact_only.finalize().samples, 64u);
    EXPECT_EQ(exact_only.finalize().error_rate, 0.0);
    EXPECT_EQ(exact_only.finalize().max_red, 0.0);
    // n < 64, including a single pair and an empty block.
    expect_add_block_matches_add(8, {10, 20, 30}, {11, 19, 30}, 3);
    expect_add_block_matches_add(8, {10}, {0}, 1);
    ErrorAccumulator empty(8);
    empty.add_block(nullptr, nullptr, 0);
    EXPECT_EQ(empty.finalize().samples, 0u);
}

TEST(ErrorAccumulator, AddBlockKeepsRoundingPastTwoTo53) {
    // ED near 2^32 (odd, so every partial sum has low bits set): sum_ed
    // crosses 2^53 after ~2^21 pairs and ED^2 exceeds it at once, so each
    // double addition rounds and an exact integer sum would differ.
    Xoshiro256 rng(0x2b53);
    std::vector<uint64_t> exact, approx;
    const uint64_t base = uint64_t{1} << 40;
    for (int i = 0; i < (1 << 21) + 4096; ++i) {
        const uint64_t e = base + (rng.next() >> 30);
        const uint64_t ed = (uint64_t{1} << 32) - 1 - 2 * (rng.next() >> 48);
        exact.push_back(e);
        approx.push_back(i % 3 == 0 ? e + ed : e - ed);
    }
    expect_add_block_matches_add(32, exact, approx, 64);
    // Operands at or above 2^53 (not exact doubles) take the same bits too.
    for (size_t i = 0; i < 4096; ++i) {
        exact[i] = (uint64_t{1} << 60) + (rng.next() >> 8);
        approx[i] = exact[i] - (rng.next() >> 12);
    }
    exact.resize(4096);
    approx.resize(4096);
    expect_add_block_matches_add(32, exact, approx, 64);
}

TEST(ErrorAccumulator, RejectsBadWidth) {
    EXPECT_THROW(ErrorAccumulator(0), std::invalid_argument);
    EXPECT_THROW(ErrorAccumulator(33), std::invalid_argument);
}

TEST(Exhaustive, ExactMultiplierHasNoError) {
    const ErrorMetrics m =
        exhaustive_metrics(6, [](uint64_t a, uint64_t b) { return a * b; });
    EXPECT_EQ(m.samples, 4096u);
    EXPECT_EQ(m.error_rate, 0.0);
    EXPECT_EQ(m.mred, 0.0);
}

TEST(Exhaustive, ThreadCountDoesNotChangeResult) {
    auto approx = [](uint64_t a, uint64_t b) { return (a * b) & ~uint64_t{1}; };
    const ErrorMetrics m1 = exhaustive_metrics(7, approx, 1);
    const ErrorMetrics m4 = exhaustive_metrics(7, approx, 4);
    EXPECT_DOUBLE_EQ(m1.mred, m4.mred);
    EXPECT_DOUBLE_EQ(m1.med, m4.med);
    EXPECT_EQ(m1.samples, m4.samples);
    EXPECT_DOUBLE_EQ(m1.error_rate, m4.error_rate);
}

TEST(Exhaustive, CountsAllPairs) {
    const ErrorMetrics m =
        exhaustive_metrics(5, [](uint64_t a, uint64_t b) { return a * b; });
    EXPECT_EQ(m.samples, 1024u);
}

TEST(Sampled, DeterministicForSeed) {
    auto approx = [](uint64_t a, uint64_t b) { return a * b - ((a & b) & 1u); };
    const ErrorMetrics m1 = sampled_metrics(8, 10000, 42, approx);
    const ErrorMetrics m2 = sampled_metrics(8, 10000, 42, approx);
    EXPECT_DOUBLE_EQ(m1.mred, m2.mred);
    EXPECT_EQ(m1.samples, 10000u);
}

TEST(Sampled, ApproximatesExhaustive) {
    auto approx = [](uint64_t a, uint64_t b) {
        const uint64_t p = a * b;
        return p - (p & 3u);  // drop two LSBs
    };
    const ErrorMetrics ex = exhaustive_metrics(8, approx);
    const ErrorMetrics sa = sampled_metrics(8, 1u << 20, 7, approx);
    EXPECT_NEAR(sa.mred, ex.mred, ex.mred * 0.05);
    EXPECT_NEAR(sa.error_rate, ex.error_rate, 0.01);
}

TEST(Histogram, BinsByPercentage) {
    RedHistogram h(34);
    h.add(100, 100);  // RED 0 % -> bin 0
    h.add(100, 99);   // 1 % -> bin 1
    h.add(100, 67);   // 33 % -> bin 33
    h.add(100, 50);   // 50 % -> overflow
    h.add(0, 5);      // P=0 convention: 100 % -> overflow
    EXPECT_EQ(h.total(), 5u);
    EXPECT_EQ(h.count(0), 1u);
    EXPECT_EQ(h.count(1), 1u);
    EXPECT_EQ(h.count(33), 1u);
    EXPECT_EQ(h.overflow(), 2u);
}

TEST(Histogram, BoundaryFallsIntoUpperBin) {
    RedHistogram h(34);
    h.add(100, 98);  // exactly 2 % -> bin 2
    EXPECT_EQ(h.count(2), 1u);
}

TEST(Histogram, ProbabilitiesSumToOne) {
    RedHistogram h(10);
    for (uint64_t i = 1; i <= 100; ++i) h.add(100, 100 - (i % 13));
    const auto p = h.probabilities();
    double sum = 0.0;
    for (const double v : p) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Histogram, MergeAddsCounts) {
    RedHistogram a(10), b(10);
    a.add(100, 95);
    b.add(100, 95);
    b.add(100, 100);
    a.merge(b);
    EXPECT_EQ(a.total(), 3u);
    EXPECT_EQ(a.count(5), 2u);
    EXPECT_EQ(a.count(0), 1u);
    RedHistogram c(5);
    EXPECT_THROW(a.merge(c), std::invalid_argument);
}

TEST(Histogram, RejectsNonPositiveBins) {
    EXPECT_THROW(RedHistogram(0), std::invalid_argument);
}

}  // namespace
}  // namespace sdlc
