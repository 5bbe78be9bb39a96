// Fast-path multiply kernels for the error-evaluation engines.
//
// The DSE sweep evaluates billions of products, so the generic
// ClusterPlan interpreter (sdlc_error_distance: three nested loops over
// groups x weights x rows) is far too slow to be the inner loop.
// MultiplyKernel is a per-configuration object that evaluates blocks of up
// to 64 operand pairs with one branch-free *planned* evaluation for every
// configuration: multiply_block(a[], b[], out[], n). A single pair
// (operator()) is a block of one. multiply_kernel_name() names the engine
// path a configuration is charged as ("accurate", "sdlc-fast2",
// "planned"); the names set the exhaustive budget's cost weights
// (dse/evaluator.cpp), while the kernel runs the same code for all three.
// The module also holds strength-reduced truncated baselines
// (find_truncated_kernel).
//
// The planned path rests on this identity. Within one cluster group
// (base row R, `rows` rows, window j = 1..extent), let
// bb = the group's active B bits and, for each active row k, let
// t_k = (a & mask_low(extent+1-k)) << k (the row's partial products
// restricted to the compressed window, in relative weight space). Then
//
//     sum_j pc_j * 2^j        = sum_k t_k        (integer addition)
//     sum_j [pc_j >= 1] * 2^j = OR_k  t_k        (bitwise OR)
//
// so the group's error  sum_j max(0, pc_j - 1) * 2^j  is exactly
// (sum_k t_k) - (OR_k t_k), and the j = 0 column (which can never
// collide) cancels between the two terms.
//
// Rows loop. multiply_block loops over rows outside and over the block's
// pairs inside. Every row adds t = ((a & mask_k) << k) & (0 - bit_k(b))
// into `sum` and `any`: an inactive row adds zero instead of being
// skipped, so nothing branches on operand bits (which a predictor cannot
// learn on random operands) and the pair loop vectorizes.
//
// Compensation tables. The compensated variant adds a gated constant for
// every in-group row pair whose B bits are both set, so the compensation
// is a function of B alone. The constructor tables it: B's bits are cut
// into balanced chunks of at most kCompChunkRows bits; each chunk gets one
// table indexed by its bits (the pairs inside it), and each pair of chunks
// gets one table per row on its side with fewer paired rows, indexed by
// the other chunk's bits and gated by the row's own bit (the pairs across
// chunks). Tables that hold only zeros
// are dropped, so at depth 2 a 16-bit compensated product costs two
// lookups. There is no per-term loop, and the tables stay within
// kMaxTableBytes at every width and depth <= 32.
//
// All kernels assume operands already masked to the configured width
// (the evaluation engines guarantee this).
#ifndef SDLC_CORE_KERNELS_H
#define SDLC_CORE_KERNELS_H

#include <cstdint>
#include <vector>

#include "api/approx_multiplier.h"
#include "core/cluster_plan.h"

namespace sdlc {

/// Stateless multiply kernel: approximate product of two width-masked
/// operands.
using MultiplyKernelFn = uint64_t (*)(uint64_t a, uint64_t b);

/// Name of the engine path `config` is charged as: "accurate" (accurate
/// variant or depth 1: no compression), "sdlc-fast2" (plain SDLC at depth
/// 2) or "planned" (every other depth, and the compensated variant).
[[nodiscard]] const char* multiply_kernel_name(const MultiplierConfig& config) noexcept;

/// Stateless kernel for the truncated baseline with the given cut
/// (drops all partial products of weight < 2^cut). The kernel is
/// width-independent because width-masked operands cannot populate rows or
/// columns beyond the operand width. Returns nullptr for cut outside
/// [0, 63].
[[nodiscard]] MultiplyKernelFn find_truncated_kernel(int cut) noexcept;

/// Per-configuration fast evaluator. Construction is O(plan size) plus
/// the compensation tables; a block costs O(rows + table lookups) per
/// pair. Results are bit-identical to ApproxMultiplier::multiply for the
/// same configuration (enforced by exhaustive tests).
class MultiplyKernel {
public:
    /// Largest block multiply_block() accepts.
    static constexpr unsigned kMaxBlock = 64;
    /// Most B bits one compensation table is indexed by.
    static constexpr int kCompChunkRows = 8;
    /// Upper bound on table_bytes() for every buildable configuration
    /// (width <= 32, every depth): at most four chunks, so at most 4 + 48
    /// tables of 2^8 entries.
    static constexpr size_t kMaxTableBytes = size_t{128} << 10;

    /// Precomputes the per-row window masks and, for the compensated
    /// variant, the compensation tables.
    /// Throws std::invalid_argument for unbuildable configurations.
    explicit MultiplyKernel(const MultiplierConfig& config);

    /// out[i] = the approximate product of (a[i], b[i]) for i < n, where
    /// n <= kMaxBlock. The arrays must not overlap.
    void multiply_block(const uint64_t* a, const uint64_t* b, uint64_t* out,
                        unsigned n) const noexcept;

    [[nodiscard]] uint64_t operator()(uint64_t a, uint64_t b) const noexcept {
        uint64_t p;
        multiply_block(&a, &b, &p, 1);
        return p;
    }

    /// |exact - approximate| for these operands.
    [[nodiscard]] uint64_t error_distance(uint64_t a, uint64_t b) const noexcept {
        const uint64_t exact = a * b;
        const uint64_t approx = operator()(a, b);
        return exact > approx ? exact - approx : approx - exact;
    }

    /// Evaluation-path name ("accurate", "sdlc-fast2", "planned", ...).
    [[nodiscard]] const char* name() const noexcept { return name_; }

    [[nodiscard]] const MultiplierConfig& config() const noexcept { return config_; }

    /// Bytes held by the compensation tables (0 for the uncompensated
    /// variants); at most kMaxTableBytes.
    [[nodiscard]] size_t table_bytes() const noexcept {
        return tables_.size() * sizeof(uint64_t);
    }

private:
    /// One row of a cluster group that can collide.
    struct Row {
        uint64_t mask = 0;  ///< window mask for A: columns c <= extent - k
        unsigned shift = 0; ///< k: the row's offset inside its group
        unsigned bit = 0;   ///< R + k: the row's B bit
    };
    /// One cluster group: rows_[first_row, end_row) at base row R.
    struct Group {
        unsigned base_row = 0;
        unsigned first_row = 0;
        unsigned end_row = 0;
    };
    /// One compensation table lookup: adds
    /// tables_[offset + ((b >> shift) & index_mask)] when B bit `gate` of
    /// (b | force) is set. Tables for the pairs inside a chunk force their
    /// gate on (force = 1 << gate).
    struct Lookup {
        unsigned shift = 0;
        uint64_t index_mask = 0;
        unsigned gate = 0;
        uint64_t force = 0;
        size_t offset = 0;
    };

    void build_compensation(const ClusterPlan& plan);
    template <unsigned N>
    void evaluate(const uint64_t* a, const uint64_t* b, uint64_t* out, unsigned n) const noexcept;

    MultiplierConfig config_;
    const char* name_ = "planned";
    std::vector<Group> groups_;
    std::vector<Row> rows_;
    std::vector<Lookup> lookups_;
    std::vector<uint64_t> tables_;
};

/// Strength-reduced software model of the truncated baseline; equivalent to
/// truncated_multiply() but O(cut) instead of O(width^2).
[[nodiscard]] uint64_t truncated_multiply_fast(int width, int cut, uint64_t a, uint64_t b);

}  // namespace sdlc

#endif  // SDLC_CORE_KERNELS_H
