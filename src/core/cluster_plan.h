// Significance-driven logic-cluster plan (the heart of SDLC).
//
// An N x N partial-product matrix has rows r = 0..N-1 (row r holds
// A(c) AND B(r) at weights 2^(r+c)). SDLC groups rows into clusters of
// `depth` consecutive rows. Inside cluster g (base row R = g*depth) every
// weight position at relative offset j = 1..extent(g) above the cluster's
// base weight 2^R is lossy-compressed: all partial-product bits of the
// cluster present at that weight are replaced by their logical OR.
//
// The extent rule is the significance-driven progressive sizing recovered by
// an exhaustive fit against the paper's Tables II and III (every metric
// matches to all printed digits; see DESIGN.md Section 1.1):
//
//     extent(g) = (N - 1) + 2*(depth - 2) - (depth - 1)*g
//
// For depth 2 this reproduces the paper's Figure 2 cluster sizes
// (2x7, 2x6, 2x5, 2x4 at N=8).
#ifndef SDLC_CORE_CLUSTER_PLAN_H
#define SDLC_CORE_CLUSTER_PLAN_H

#include <string>
#include <vector>

namespace sdlc {

/// One logic cluster: rows [base_row, base_row+rows) with compression of
/// relative weight positions j = 1..extent above base weight 2^base_row.
struct ClusterGroup {
    int base_row = 0;
    int rows = 0;
    int extent = 0;

    /// True if weight `w` (absolute, 0-based) is compressed by this group.
    [[nodiscard]] bool compresses_weight(int w) const noexcept {
        const int j = w - base_row;
        return j >= 1 && j <= extent;
    }
};

/// Full compression plan for an N x N SDLC multiplier.
class ClusterPlan {
public:
    /// Builds the plan. `depth` == 1 yields an empty plan (accurate
    /// multiplier); depth must be in [1, width].
    /// Throws std::invalid_argument for out-of-range arguments.
    static ClusterPlan make(int width, int depth);

    [[nodiscard]] int width() const noexcept { return width_; }
    [[nodiscard]] int depth() const noexcept { return depth_; }
    [[nodiscard]] const std::vector<ClusterGroup>& groups() const noexcept { return groups_; }

    /// The group containing partial-product row `r`, or nullptr when the row
    /// is uncompressed (e.g. a trailing group of a single row).
    [[nodiscard]] const ClusterGroup* group_of_row(int r) const noexcept;

    /// Total number of compressed weight positions (with >= 2 potential
    /// bits), i.e. OR sites in the generated hardware.
    [[nodiscard]] int compression_sites() const noexcept;

    /// Readable description, e.g. "SDLC N=8 d=2 clusters 2x7 2x6 2x5 2x4".
    [[nodiscard]] std::string describe() const;

private:
    int width_ = 0;
    int depth_ = 1;
    std::vector<ClusterGroup> groups_;
};

}  // namespace sdlc

#endif  // SDLC_CORE_CLUSTER_PLAN_H
