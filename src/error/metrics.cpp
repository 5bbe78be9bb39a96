#include "error/metrics.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sdlc {

ErrorAccumulator::ErrorAccumulator(int width) : width_(width) {
    if (width < 1 || width > 32) {
        throw std::invalid_argument("ErrorAccumulator: width must be in [1,32]");
    }
    const double top = static_cast<double>((uint64_t{1} << width) - 1);
    pmax_ = top * top;
}

ErrorAccumulator::LaneBlocks::LaneBlocks(ErrorAccumulator& acc, unsigned lanes)
    : acc_(acc),
      lanes_(lanes),
      red_sq_{acc.sum_red_, acc.sum_sq_},
      ed_signed_{acc.sum_ed_, acc.sum_signed_} {
    if (acc.width_ > 16 || lanes < 2 || lanes > 64 || lanes % 2 != 0) {
        throw std::invalid_argument("LaneBlocks: width must be <= 16, lanes even in [2,64]");
    }
}

void ErrorAccumulator::LaneBlocks::finish() noexcept {
    acc_.sum_red_ = red_sq_[0];
    acc_.sum_sq_ = red_sq_[1];
    acc_.sum_ed_ = ed_signed_[0];
    acc_.sum_signed_ = ed_signed_[1];
    acc_.max_red_ = std::max({acc_.max_red_, max_red_[0], max_red_[1]});
    acc_.max_ed_ =
        std::max(acc_.max_ed_, static_cast<uint64_t>(std::max(max_ed_[0], max_ed_[1])));
    acc_.errors_ += static_cast<uint64_t>(errors_[0] + errors_[1]);
    acc_.samples_ += samples_;
}

void ErrorAccumulator::merge(const ErrorAccumulator& other) noexcept {
    sum_red_ += other.sum_red_;
    sum_ed_ += other.sum_ed_;
    sum_signed_ += other.sum_signed_;
    sum_sq_ += other.sum_sq_;
    max_red_ = std::max(max_red_, other.max_red_);
    max_ed_ = std::max(max_ed_, other.max_ed_);
    errors_ += other.errors_;
    samples_ += other.samples_;
}

ErrorMetrics ErrorAccumulator::finalize() const noexcept {
    ErrorMetrics m;
    m.samples = samples_;
    if (samples_ == 0) return m;
    const double n = static_cast<double>(samples_);
    m.mred = sum_red_ / n;
    m.med = sum_ed_ / n;
    m.nmed = m.med / pmax_;
    m.error_rate = static_cast<double>(errors_) / n;
    m.max_red = max_red_;
    m.max_ed = max_ed_;
    m.bias = sum_signed_ / n;
    m.rmse = std::sqrt(sum_sq_ / n);
    return m;
}

bool operator==(const ErrorMetrics& a, const ErrorMetrics& b) noexcept {
    return a.mred == b.mred && a.med == b.med && a.nmed == b.nmed &&
           a.error_rate == b.error_rate && a.max_red == b.max_red && a.max_ed == b.max_ed &&
           a.samples == b.samples && a.bias == b.bias && a.rmse == b.rmse;
}

}  // namespace sdlc
