#include "core/kernels_sliced.h"

#include <bit>
#include <stdexcept>

#include "core/cluster_plan.h"
#include "core/compensation.h"
#include "util/bitops.h"

namespace sdlc {

namespace {

/// B bits below this index vary across an aligned block; bits at or above
/// it are shared by every lane.
constexpr int kLaneBits = 6;

}  // namespace

bool SlicedMultiplyKernel::eligible(const MultiplierConfig& config) noexcept {
    if (config.width < 2 || config.width > 16) return false;
    if (config.variant == MultiplierVariant::kAccurate) return false;
    // depth 1 compresses nothing; depth > width is unbuildable.
    return config.depth >= 2 && config.depth <= config.width;
}

SlicedMultiplyKernel::SlicedMultiplyKernel(const MultiplierConfig& config)
    : config_(config) {
    if (!eligible(config)) {
        throw std::invalid_argument("SlicedMultiplyKernel: config not eligible");
    }
    const uint64_t side = 1ull << config.width;
    lanes_ = side < 64 ? static_cast<unsigned>(side) : 64u;

    const ClusterPlan plan = ClusterPlan::make(config.width, config.depth);
    for (const ClusterGroup& grp : plan.groups()) {
        const Group g{static_cast<uint32_t>(rows_.size()), static_cast<uint32_t>(grp.rows)};
        for (int k = 0; k < grp.rows; ++k) {
            const int window = grp.extent + 1 - k;  // columns c <= extent - k
            rows_.push_back({grp.base_row + k,
                             window > 0 ? mask_low(static_cast<unsigned>(window)) : 0});
        }
        if (grp.base_row + grp.rows <= kLaneBits) {
            low_.push_back(g);
        } else if (grp.base_row >= kLaneBits) {
            high_.push_back(g);
        } else {
            // Groups are disjoint row ranges, so only one can contain both
            // row kLaneBits - 1 and row kLaneBits.
            if (straddle_.count != 0) {
                throw std::logic_error("SlicedMultiplyKernel: two groups straddle B bit 6");
            }
            straddle_ = g;
        }
    }
    if (config.variant == MultiplierVariant::kCompensated) {
        comp_.assign(side, 0);
        for (const CompensationTerm& t : compensation_terms(plan)) {
            for (uint64_t b = 0; b < side; ++b) {
                comp_[b] += t.value & (0 - ((b >> t.row_a) & (b >> t.row_b) & 1u));
            }
        }
    }
}

void SlicedMultiplyKernel::partial(const Group& g, uint64_t a, uint64_t b, uint64_t& sum,
                                   uint64_t& any) const noexcept {
    for (uint32_t i = 0; i < g.count; ++i) {
        const Row& r = rows_[g.first + i];
        if (((b >> r.row) & 1u) == 0) continue;
        const uint64_t t = (a & r.mask) << r.row;
        sum += t;
        any |= t;
    }
}

void SlicedMultiplyKernel::prepare(uint64_t a, Prepared& prep) const noexcept {
    prep.a = a;
    for (unsigned l = 0; l < lanes_; ++l) {
        prep.lane[l] = a * l;
        prep.sum_lo[l] = 0;
        prep.or_lo[l] = 0;
    }
    // A group's SUM and OR over its rows below kLaneBits depend only on
    // those rows' bits of l: tabulate them per bit pattern (each pattern
    // extends a smaller one by its lowest row), then look them up per lane.
    uint64_t sum[64], any[64];
    const auto lane_tables = [&](const Group& g, unsigned rows, auto&& apply) {
        sum[0] = any[0] = 0;
        for (unsigned p = 1; p < (1u << rows); ++p) {
            const Row& r = rows_[g.first + static_cast<unsigned>(std::countr_zero(p))];
            const uint64_t t = (a & r.mask) << r.row;
            sum[p] = sum[p & (p - 1)] + t;
            any[p] = any[p & (p - 1)] | t;
        }
        const int shift = rows_[g.first].row;
        for (unsigned l = 0; l < lanes_; ++l) apply(l, (l >> shift) & ((1u << rows) - 1));
    };
    for (const Group& g : low_) {
        lane_tables(g, g.count, [&](unsigned l, unsigned p) { prep.lane[l] -= sum[p] - any[p]; });
    }
    if (straddle_.count != 0) {
        const auto rows = static_cast<unsigned>(kLaneBits - rows_[straddle_.first].row);
        lane_tables(straddle_, rows, [&](unsigned l, unsigned p) {
            prep.sum_lo[l] = sum[p];
            prep.or_lo[l] = any[p];
        });
    }
}

void SlicedMultiplyKernel::multiply_block_prepared(const Prepared& prep, uint64_t b0,
                                                   uint64_t out[64]) const noexcept {
    // b0 is aligned, so it carries only rows >= kLaneBits: the high
    // groups' error and the straddling group's high part are per-block
    // scalars.
    uint64_t high_err = 0;
    for (const Group& g : high_) {
        uint64_t sum = 0, any = 0;
        partial(g, prep.a, b0, sum, any);
        high_err += sum - any;
    }
    const uint64_t base = prep.a * b0 - high_err;
    uint64_t sum_hi = 0, or_hi = 0;
    partial(straddle_, prep.a, b0, sum_hi, or_hi);
    const bool straddle = straddle_.count != 0;
    const uint64_t* comp = comp_.empty() ? nullptr : comp_.data() + b0;
    for (unsigned l = 0; l < lanes_; ++l) {
        uint64_t p = base + prep.lane[l];
        if (straddle) p -= (prep.sum_lo[l] + sum_hi) - (prep.or_lo[l] | or_hi);
        if (comp != nullptr) p += comp[l];
        out[l] = p;
    }
}

}  // namespace sdlc
