// Error metrics for approximate arithmetic (paper Section III).
//
//   ED   = |P - P'|                       error distance
//   RED  = ED / P                         relative error distance
//   MRED = mean RED over all inputs
//   MED  = mean ED
//   NMED = MED / Pmax,  Pmax = (2^N - 1)^2
//   ER   = fraction of inputs with P' != P
//
// Convention for P = 0 (needed by baselines such as ETM that can err at
// zero): RED = 0 when P' == 0, RED = 1 otherwise. SDLC itself is always
// exact at P = 0. This convention reproduces the paper's quoted numbers.
#ifndef SDLC_ERROR_METRICS_H
#define SDLC_ERROR_METRICS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace sdlc {

/// Final error statistics over a set of (exact, approximate) pairs.
struct ErrorMetrics {
    double mred = 0.0;       ///< mean relative error distance (ratio, not %)
    double med = 0.0;        ///< mean error distance
    double nmed = 0.0;       ///< MED normalized by Pmax
    double error_rate = 0.0; ///< fraction of erroneous outputs
    double max_red = 0.0;    ///< maximum RED (ratio)
    uint64_t max_ed = 0;     ///< maximum ED
    uint64_t samples = 0;    ///< number of evaluated pairs
    double bias = 0.0;       ///< mean signed error (approx - exact); <= 0 for plain SDLC
    double rmse = 0.0;       ///< root-mean-square error distance
};

/// Bit-exact equality of every metric. Error evaluation is deterministic
/// for a given configuration and seed, so re-evaluating must reproduce the
/// metrics exactly; the DSE repeat guard and the serve determinism tests
/// rely on this.
[[nodiscard]] bool operator==(const ErrorMetrics& a, const ErrorMetrics& b) noexcept;
[[nodiscard]] inline bool operator!=(const ErrorMetrics& a, const ErrorMetrics& b) noexcept {
    return !(a == b);
}

/// Streaming accumulator for ErrorMetrics; mergeable for parallel sweeps.
class ErrorAccumulator {
public:
    class LaneBlocks;

    /// `width` is the operand bit-width N; sets Pmax = (2^N - 1)^2.
    explicit ErrorAccumulator(int width);

    /// Adds one (exact, approximate) product pair: the definition of what
    /// add_block() must reproduce, and its path for values of 2^53 or more.
    void add(uint64_t exact, uint64_t approx) noexcept {
        ++samples_;
        const uint64_t ed = exact > approx ? exact - approx : approx - exact;
        if (ed == 0) return;  // fast path: exact product, only the count moves
        ++errors_;
        sum_ed_ += static_cast<double>(ed);
        sum_signed_ += approx > exact ? static_cast<double>(ed) : -static_cast<double>(ed);
        sum_sq_ += static_cast<double>(ed) * static_cast<double>(ed);
        max_ed_ = std::max(max_ed_, ed);
        const double red =
            exact == 0 ? 1.0 : static_cast<double>(ed) / static_cast<double>(exact);
        sum_red_ += red;
        max_red_ = std::max(max_red_, red);
    }

    /// Adds n pairs (exact[i], approx[i]) in order: bit-identical to n
    /// in-order add() calls. The scalar and sampled engines feed their
    /// pairs through here (the sliced engine through LaneBlocks). The four
    /// double sums stay in-order chains; an exact pair adds +0.0 to each (a
    /// no-op), so exact pairs need no branch of their own.
    void add_block(const uint64_t* exact, const uint64_t* approx, size_t n) noexcept {
        uint64_t all = 0, diff = 0;
        for (size_t i = 0; i < n; ++i) {
            all |= exact[i] | approx[i];
            diff |= exact[i] ^ approx[i];
        }
        if (diff == 0) {  // an all-exact block moves only the count
            samples_ += n;
            return;
        }
        if ((all >> 53) != 0) {  // not every value is an exact double
            for (size_t i = 0; i < n; ++i) add(exact[i], approx[i]);
            return;
        }
        // Below 2^53 every product, and every difference of two, converts
        // to double exactly, so the signed error is one exact subtraction.
        double sum_red = sum_red_, sum_ed = sum_ed_, sum_signed = sum_signed_;
        double sum_sq = sum_sq_, max_red = max_red_, max_d = 0.0;
        uint64_t errors = 0;
        for (size_t i = 0; i < n; ++i) {
            const double e = static_cast<double>(static_cast<int64_t>(exact[i]));
            const double s = static_cast<double>(static_cast<int64_t>(approx[i])) - e;
            const double d = std::fabs(s);
            // RED = ED / P, and 1 for an error at P = 0 (d / d).
            const double red = d / (exact[i] != 0 ? e : std::max(d, 1.0));
            sum_ed += d;
            sum_signed += s;
            sum_sq += d * d;
            sum_red += red;
            errors += exact[i] != approx[i];
            max_d = std::max(max_d, d);
            max_red = std::max(max_red, red);
        }
        sum_red_ = sum_red;
        sum_ed_ = sum_ed;
        sum_signed_ = sum_signed;
        sum_sq_ = sum_sq;
        max_red_ = max_red;
        max_ed_ = std::max(max_ed_, static_cast<uint64_t>(max_d));
        errors_ += errors;
        samples_ += n;
    }

    /// Adds the statistics gathered by another accumulator of equal width.
    void merge(const ErrorAccumulator& other) noexcept;

    /// Finalizes the metrics gathered so far.
    [[nodiscard]] ErrorMetrics finalize() const noexcept;

    [[nodiscard]] int width() const noexcept { return width_; }

private:
    int width_;
    double pmax_;
    double sum_red_ = 0.0;
    double sum_ed_ = 0.0;
    double sum_signed_ = 0.0;
    double sum_sq_ = 0.0;
    double max_red_ = 0.0;
    uint64_t max_ed_ = 0;
    uint64_t errors_ = 0;
    uint64_t samples_ = 0;
};

/// Shard-local reducer of the sliced exhaustive engine: adds blocks of
/// `lanes` pairs (a, b0 + l), l < lanes, one operand a at a time, with the
/// exact products implied by (a, b0) instead of stored. Bit-identical to
/// add() over the same pairs in the same order:
///
///   - exact P = double(a*b0) + double(a*l), the second from a per-a lane
///     table. Both terms and the sum are exact: at width <= 16 every
///     product is below 2^32.
///   - approx converts exactly through the 2^52 exponent trick (every
///     value is below 2^52), so the signed error approx - P is one exact
///     subtraction and ED its absolute value.
///   - RED = ED / max(P, 1). P = 0 in two places. In the a = 0 row,
///     compensated products are nonzero, so that row keeps add()'s
///     definition, ED / max(ED, 1). At b = 0 with a != 0, every sliced
///     configuration gives approx = 0 (no row is active and the
///     compensation of b = 0 is 0): ED = 0 and RED = 0 / 1 = 0, as in
///     add(). A configuration that broke this invariant would differ from
///     add() there.
///   - the four double sums stay in-order chains, reduced two lanes at a
///     time and packed as {sum RED, sum ED^2} and {sum ED, sum signed}, so
///     bit-identity rests on order alone, at every width.
///   - max ED, max RED and the error count are exact and order-free: they
///     are kept per vector lane and folded once, in finish().
///
/// Construction takes over the accumulator's state and finish() hands it
/// back; the accumulator must not be used in between.
class ErrorAccumulator::LaneBlocks {
public:
    /// `lanes`: even, in [2, 64]. Throws std::invalid_argument for an
    /// accumulator wider than 16 bits or an unsupported lane count.
    LaneBlocks(ErrorAccumulator& acc, unsigned lanes);

    /// Starts the row of operand `a`.
    void set_a(uint64_t a) noexcept {
        a_ = a;
        for (unsigned i = 0; i < lanes_ / 2; ++i) {
            const uint64_t p = a * (2 * i);
            lane_e_[i] = v2d{static_cast<double>(p), static_cast<double>(p + a)};
        }
    }

    /// Adds the pairs (a, b0 + l) whose approximate products are
    /// approx[l], l < lanes, in lane order. b0 is a multiple of `lanes`.
    void add(uint64_t b0, const uint64_t* approx) noexcept {
        if (a_ == 0) {
            add_lanes<true>(b0, approx);
        } else {
            add_lanes<false>(b0, approx);
        }
    }

    /// Hands the sums, maxima and counts back to the accumulator.
    void finish() noexcept;

private:
    // Two-lane GCC (12+) / Clang vector types: SSE2 registers at the
    // baseline ISA. A C-style cast between them reinterprets the bits.
    using v2d = double __attribute__((vector_size(16)));
    using v2u = uint64_t __attribute__((vector_size(16)));
    using v2i = int64_t __attribute__((vector_size(16)));

    static v2d vmax(v2d x, v2d y) noexcept { return x > y ? x : y; }

    template <bool ZeroA>
    void add_lanes(uint64_t b0, const uint64_t* approx) noexcept {
        constexpr v2u kExp = {0x4330000000000000u, 0x4330000000000000u};  // 2^52
        constexpr v2u kAbs = {0x7fffffffffffffffu, 0x7fffffffffffffffu};
        constexpr v2d kTwo52 = {0x1p52, 0x1p52};
        constexpr v2d kOne = {1.0, 1.0};
        const double p0 = static_cast<double>(a_ * b0);
        const v2d base = {p0, p0};
        // Locals, so the chains stay in registers across the block.
        v2d red_sq = red_sq_, ed_signed = ed_signed_;
        v2d max_ed = max_ed_, max_red = max_red_;
        v2i errors = errors_;
        for (unsigned i = 0; i < lanes_ / 2; ++i) {
            v2u q;
            std::memcpy(&q, approx + 2 * i, sizeof q);
            const v2d e = base + lane_e_[i];
            const v2d s = ((v2d)(q | kExp) - kTwo52) - e;
            const v2d d = (v2d)((v2u)s & kAbs);
            const v2d red = d / (ZeroA ? vmax(d, kOne) : vmax(e, kOne));
            const v2d sq = d * d;
            red_sq += __builtin_shufflevector(red, sq, 0, 2);
            red_sq += __builtin_shufflevector(red, sq, 1, 3);
            ed_signed += __builtin_shufflevector(d, s, 0, 2);
            ed_signed += __builtin_shufflevector(d, s, 1, 3);
            max_ed = vmax(max_ed, d);
            max_red = vmax(max_red, red);
            errors -= s != v2d{};
        }
        red_sq_ = red_sq;
        ed_signed_ = ed_signed;
        max_ed_ = max_ed;
        max_red_ = max_red;
        errors_ = errors;
        samples_ += lanes_;
    }

    ErrorAccumulator& acc_;
    unsigned lanes_;
    uint64_t a_ = 0;
    uint64_t samples_ = 0;
    v2d red_sq_, ed_signed_;
    v2d max_ed_ = {}, max_red_ = {};
    v2i errors_ = {};
    v2d lane_e_[32] = {};
};

}  // namespace sdlc

#endif  // SDLC_ERROR_METRICS_H
