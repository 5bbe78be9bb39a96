#include "core/kernels.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "core/compensation.h"
#include "util/bitops.h"

namespace sdlc {

namespace {

/// Truncated baseline: the dropped value is, per active row r < cut, the
/// low (cut - r) bits of A shifted to the row's weight. One masked add per
/// low row instead of the row x column double loop.
template <int Cut>
uint64_t truncated_kernel(uint64_t a, uint64_t b) {
    uint64_t dropped = 0;
    for (int r = 0; r < Cut; ++r) {
        if ((b >> r) & 1u) dropped += (a & mask_low(static_cast<unsigned>(Cut - r))) << r;
    }
    return a * b - dropped;
}

template <size_t... C>
constexpr std::array<MultiplyKernelFn, sizeof...(C)> truncated_table(std::index_sequence<C...>) {
    return {{&truncated_kernel<static_cast<int>(C)>...}};
}

constexpr auto kTruncatedKernels = truncated_table(std::make_index_sequence<64>{});

}  // namespace

const char* multiply_kernel_name(const MultiplierConfig& config) noexcept {
    // Depth 1 has no compression sites, hence nothing to compensate.
    if (config.variant == MultiplierVariant::kAccurate || config.depth == 1) return "accurate";
    if (config.variant == MultiplierVariant::kSdlc && config.depth == 2) return "sdlc-fast2";
    return "planned";
}

MultiplyKernelFn find_truncated_kernel(int cut) noexcept {
    if (cut < 0 || cut >= static_cast<int>(kTruncatedKernels.size())) return nullptr;
    return kTruncatedKernels[static_cast<size_t>(cut)];
}

MultiplyKernel::MultiplyKernel(const MultiplierConfig& config) : config_(config) {
    if (config.width < 2 || config.width > 32) {
        throw std::invalid_argument("MultiplyKernel: width must be in [2,32]");
    }
    name_ = multiply_kernel_name(config);

    // The accurate variant ignores its depth: an empty plan.
    const int depth = config.variant == MultiplierVariant::kAccurate ? 1 : config.depth;
    const ClusterPlan plan = ClusterPlan::make(config.width, depth);
    for (const ClusterGroup& grp : plan.groups()) {
        Group g;
        g.base_row = static_cast<unsigned>(grp.base_row);
        g.first_row = static_cast<unsigned>(rows_.size());
        for (int k = 0; k < grp.rows; ++k) {
            const int window = grp.extent + 1 - k;  // columns c <= extent - k
            if (window <= 0) continue;              // no partial product in the window
            rows_.push_back({mask_low(static_cast<unsigned>(window)), static_cast<unsigned>(k),
                             static_cast<unsigned>(grp.base_row + k)});
        }
        g.end_row = static_cast<unsigned>(rows_.size());
        if (g.end_row - g.first_row >= 2) {
            groups_.push_back(g);
        } else {
            rows_.resize(g.first_row);  // a lone row cannot collide
        }
    }
    if (config.variant == MultiplierVariant::kCompensated) build_compensation(plan);
}

void MultiplyKernel::build_compensation(const ClusterPlan& plan) {
    // value[r1 * width + r2] (r1 < r2): the gated constant of the row pair.
    // The terms pair rows of one group only, but the tables need not know.
    const auto width = static_cast<size_t>(plan.width());
    std::vector<uint64_t> value(width * width, 0);
    for (const CompensationTerm& t : compensation_terms(plan)) {
        value[static_cast<size_t>(t.row_a) * width + static_cast<size_t>(t.row_b)] = t.value;
    }
    // Balanced chunks of at most kCompChunkRows B bits: chunk c covers
    // rows [first[c], first[c + 1]).
    const int chunks = (plan.width() + kCompChunkRows - 1) / kCompChunkRows;
    std::vector<int> first(static_cast<size_t>(chunks) + 1);
    for (int c = 0; c <= chunks; ++c) {
        first[static_cast<size_t>(c)] = plan.width() * c / chunks;
    }
    // Appends the table over chunk c's B bits — entry x sums pair(r, x)
    // over the rows r of the chunk set in x — and its lookup, gated by B
    // bit `gate` of (b | force). An all-zero table is dropped.
    auto add_table = [&](int c, unsigned gate, uint64_t force, auto&& pair) {
        const int lo = first[static_cast<size_t>(c)];
        const int span = first[static_cast<size_t>(c) + 1] - lo;
        const size_t offset = tables_.size();
        bool nonzero = false;
        for (uint64_t x = 0; x < (uint64_t{1} << span); ++x) {
            uint64_t v = 0;
            for (int r = lo; r < lo + span; ++r) {
                if ((x >> (r - lo)) & 1u) v += pair(r, x);
            }
            tables_.push_back(v);
            nonzero |= v != 0;
        }
        if (!nonzero) {
            tables_.resize(offset);
            return;
        }
        lookups_.push_back({static_cast<unsigned>(lo), mask_low(static_cast<unsigned>(span)),
                            gate, force, offset});
    };
    auto v = [&](int r1, int r2) {
        return value[static_cast<size_t>(r1) * width + static_cast<size_t>(r2)];
    };
    auto rows_of = [&](int c) {
        return std::pair{first[static_cast<size_t>(c)], first[static_cast<size_t>(c) + 1]};
    };
    for (int c = 0; c < chunks; ++c) {
        // Pairs inside chunk c, each counted at its higher row.
        const auto [lo, hi] = rows_of(c);
        add_table(c, 0, 1, [&](int r, uint64_t x) {
            uint64_t sum = 0;
            for (int r1 = lo; r1 < r; ++r1) {
                if ((x >> (r1 - lo)) & 1u) sum += v(r1, r);
            }
            return sum;
        });
        // Pairs across chunks e < c: one table per row of one side, gated
        // by that row's bit and indexed by the other chunk's bits. Take
        // the side with fewer rows in such pairs: fewer lookups.
        for (int e = 0; e < c; ++e) {
            const auto [elo, ehi] = rows_of(e);
            std::vector<bool> in_e(static_cast<size_t>(ehi - elo)), in_c(static_cast<size_t>(hi - lo));
            for (int r1 = elo; r1 < ehi; ++r1) {
                for (int r2 = lo; r2 < hi; ++r2) {
                    if (v(r1, r2) == 0) continue;
                    in_e[static_cast<size_t>(r1 - elo)] = true;
                    in_c[static_cast<size_t>(r2 - lo)] = true;
                }
            }
            const auto count = [](const std::vector<bool>& in) {
                return std::count(in.begin(), in.end(), true);
            };
            if (count(in_c) <= count(in_e)) {
                for (int r = lo; r < hi; ++r) {
                    add_table(e, static_cast<unsigned>(r), 0,
                              [&](int r1, uint64_t) { return v(r1, r); });
                }
            } else {
                for (int r1 = elo; r1 < ehi; ++r1) {
                    add_table(c, static_cast<unsigned>(r1), 0,
                              [&](int r, uint64_t) { return v(r1, r); });
                }
            }
        }
    }
}

template <unsigned N>
void MultiplyKernel::evaluate(const uint64_t* a, const uint64_t* b, uint64_t* __restrict out,
                              unsigned n) const noexcept {
    // N = 1 folds every pair loop away for a single pair; N = 0 loops over
    // the run-time block size.
    const unsigned count = N != 0 ? N : n;
    uint64_t err[kMaxBlock], sum[kMaxBlock], any[kMaxBlock];
    for (unsigned i = 0; i < count; ++i) err[i] = 0;
    for (const Group& g : groups_) {
        for (unsigned i = 0; i < count; ++i) sum[i] = any[i] = 0;
        for (unsigned r = g.first_row; r < g.end_row; ++r) {
            const Row row = rows_[r];
            for (unsigned i = 0; i < count; ++i) {
                const uint64_t t = ((a[i] & row.mask) << row.shift) & (0 - ((b[i] >> row.bit) & 1u));
                sum[i] += t;
                any[i] |= t;
            }
        }
        for (unsigned i = 0; i < count; ++i) err[i] += (sum[i] - any[i]) << g.base_row;
    }
    for (unsigned i = 0; i < count; ++i) out[i] = a[i] * b[i] - err[i];
    for (const Lookup& l : lookups_) {
        const uint64_t* table = tables_.data() + l.offset;
        for (unsigned i = 0; i < count; ++i) {
            out[i] += table[(b[i] >> l.shift) & l.index_mask] &
                      (0 - (((b[i] | l.force) >> l.gate) & 1u));
        }
    }
}

void MultiplyKernel::multiply_block(const uint64_t* a, const uint64_t* b, uint64_t* out,
                                    unsigned n) const noexcept {
    if (n == 1) {
        evaluate<1>(a, b, out, 1);
    } else {
        evaluate<0>(a, b, out, n);
    }
}

uint64_t truncated_multiply_fast(int width, int cut, uint64_t a, uint64_t b) {
    if (cut <= 0) return a * b;
    const MultiplyKernelFn fn = find_truncated_kernel(cut);
    if (fn == nullptr || width > 32) {
        throw std::invalid_argument("truncated_multiply_fast: cut/width out of range");
    }
    return fn(a, b);
}

}  // namespace sdlc
