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
    /// in-order add() calls. Every error engine feeds its pairs through
    /// here. The four double sums stay in-order chains; an exact pair adds
    /// +0.0 to each (a no-op), so exact pairs need no branch of their own.
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

}  // namespace sdlc

#endif  // SDLC_ERROR_METRICS_H
