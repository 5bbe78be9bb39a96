// Parallel evaluation of design points: software error + hardware cost.
//
// For each MultiplierConfig the evaluator computes error metrics with the
// bit-exact software model (exhaustive up to a width threshold, seeded
// Monte-Carlo above it) and hardware cost by generating the netlist and
// running the virtual-synthesis flow (optimize -> STA -> power). Error
// metrics depend only on the multiplier's function (width, variant, cluster
// depth), not on the accumulation scheme, so a sweep evaluates each
// function once and copies the result to its scheme siblings. Function
// groups are distributed over a ThreadPool; sampling is seeded per
// function, so results are bit-identical regardless of the thread count or
// scheduling order.
//
// Error evaluation dispatches to one of three engines (select_error_engine):
// the sliced exhaustive engine (core/kernels_sliced.h, per-lane tables over
// 64-pair blocks), the scalar exhaustive engine over core/kernels.h
// (stateless bit-trick kernels where available, the strength-reduced
// planned path otherwise), or seeded sampling over the same scalar kernels.
// All three feed ErrorAccumulator::add_block. Hardware cost is memoized in
// a content-keyed CostCache shared across the sweep. The sliced engine and
// the cache both produce results bit-identical to the scalar engine and the
// direct synthesize() path, so turning them off changes speed only (see
// EvalOptions::use_sliced and use_hw_cache).
#ifndef SDLC_DSE_EVALUATOR_H
#define SDLC_DSE_EVALUATOR_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dse/cost_cache.h"
#include "dse/pareto.h"
#include "dse/sweep.h"
#include "error/metrics.h"
#include "obs/trace.h"
#include "tech/cell_library.h"
#include "tech/synthesis.h"

namespace sdlc {

class ThreadPool;
struct DesignPoint;

/// Operand distribution for Monte-Carlo error sampling. Exhaustive
/// evaluation always covers the full uniform operand space.
enum class OperandDistribution {
    kUniform,   ///< i.i.d. uniform over [0, 2^N)
    kGaussian,  ///< mean of four uniforms (central-limit bell around mid-range)
    kSparse,    ///< AND of two uniforms: few set bits, models sparse data
};

/// Short lowercase name ("uniform", "gaussian", "sparse").
[[nodiscard]] const char* operand_distribution_name(OperandDistribution d) noexcept;

/// Evaluation knobs.
struct EvalOptions {
    unsigned threads = 0;           ///< worker threads; 0 = hardware concurrency
    int exhaustive_max_width = 10;  ///< exhaustive error sweep at or below this width
    uint64_t samples = uint64_t{1} << 18;  ///< Monte-Carlo samples above it
    /// Evaluate exhaustive sweeps with the sliced (lane-table block)
    /// engine whenever the configuration is planned-path eligible (non-accurate, depth >= 2,
    /// width <= 16). Bit-identical to the scalar engine — this knob changes
    /// speed only (the `dse_tool --no-sliced` escape hatch; a serve request
    /// sends "eval": {"sliced": false}).
    bool use_sliced = true;
    /// Per-kernel-path exhaustive cutoff widths, 0 = use
    /// exhaustive_max_width. Set by the auto time-budget resolution
    /// (error/calibrate.h) at the tool/service edge; resolved integers —
    /// never the machine-dependent calibration — travel on the serve wire
    /// so replicas agree. Auto resolution only promotes above the fixed
    /// cutoff, never demotes below it.
    int exhaustive_width_accurate = 0;
    int exhaustive_width_fast2 = 0;
    int exhaustive_width_planned = 0;
    int exhaustive_width_sliced = 0;
    uint64_t seed = 0x5d1c5eed;     ///< base seed; per-function seeds derive from it
    OperandDistribution distribution = OperandDistribution::kUniform;
    bool evaluate_hardware = true;  ///< synthesize netlists for cost metrics
    SynthesisOptions synthesis;     ///< virtual-synthesis knobs
    CellLibrary library = CellLibrary::generic_90nm();
    /// Memoize synthesis by netlist content key for the duration of a sweep.
    /// Results are identical either way; off means every point re-runs the
    /// full flow (the `dse_tool --no-hw-cache` escape hatch).
    bool use_hw_cache = true;
    /// Optional externally owned cache to share across sweeps (service
    /// loops, repeated runs). When null and use_hw_cache is set,
    /// evaluate_sweep creates a sweep-local cache. The cache returns
    /// reports bit-identical to synthesize(), so this knob changes speed
    /// only.
    CostCache* hw_cache = nullptr;
    /// Optional externally owned worker pool. When null, evaluate_sweep
    /// spins up a sweep-local pool of `threads` workers; a long-lived
    /// service passes its own pool so every request reuses one set of
    /// threads (`threads` is then ignored).
    ThreadPool* pool = nullptr;
    /// Streaming hook: called once per design point, in enumeration order
    /// (point i is reported only once every point j < i has been reported),
    /// from whichever worker thread completes the emission frontier. Calls
    /// are serialized under an internal lock. An exception thrown by the
    /// hook aborts the sweep and propagates out of evaluate_sweep.
    std::function<void(size_t index, const DesignPoint& point)> on_point;
    /// Cooperative cancellation: when non-null and set, workers stop
    /// claiming points and evaluate_sweep throws SweepCancelled.
    const std::atomic<bool>* cancel = nullptr;
    /// Cooperative wall-clock budget: when set (non-epoch), workers stop
    /// claiming points once the deadline passes and evaluate_sweep throws
    /// SweepDeadlineExceeded. Checked at the same granularity as `cancel`
    /// — between design points, never inside one — so a single very
    /// expensive point can overshoot the budget by its own cost. Points
    /// already reported through on_point stay reported: the partial stream
    /// is always a strict prefix of the full enumeration-order stream.
    std::chrono::steady_clock::time_point deadline{};
    /// Optional enumeration-index restriction: evaluate only the points at
    /// indices [shard_lo, shard_hi) of SweepSpec::enumerate() order — the
    /// unit a distributed sweep hands one worker. Both zero (the default)
    /// means the whole space. Indices reported through on_point stay
    /// *global* enumeration indices and the returned vector holds exactly
    /// the shard's points, so sharding changes which points are evaluated,
    /// never what any point's value or index is. A range with
    /// shard_lo >= shard_hi or shard_hi > count() throws
    /// std::invalid_argument.
    size_t shard_lo = 0;
    size_t shard_hi = 0;
    /// Optional tracing (see obs/trace.h): with a non-null recorder and a
    /// valid trace context, evaluate_sweep records `enumerate` and
    /// per-point `kernel_eval` spans under `trace`, plus one `error_eval`
    /// span (args: engine, pairs) per function evaluation under the first
    /// `kernel_eval` of its group. It binds the context on each eval worker
    /// so the synthesis cache records its lookup/synthesize spans for the
    /// right request. Untraced sweeps pay one branch per point; results are
    /// bit-identical either way.
    obs::SpanRecorder* recorder = nullptr;
    obs::TraceContext trace;
};

/// Thrown by evaluate_sweep when EvalOptions::cancel fires mid-sweep.
struct SweepCancelled : std::runtime_error {
    SweepCancelled() : std::runtime_error("sweep cancelled") {}
};

/// Thrown by evaluate_sweep when EvalOptions::deadline passes mid-sweep.
struct SweepDeadlineExceeded : std::runtime_error {
    SweepDeadlineExceeded() : std::runtime_error("sweep deadline exceeded") {}
};

/// Which error engine evaluate_point runs for one configuration.
enum class ErrorEngine {
    kExhaustiveSliced,  ///< lane-table block exhaustive (core/kernels_sliced.h)
    kExhaustiveScalar,  ///< scalar-kernel exhaustive (error/evaluate.h)
    kSampled,           ///< seeded Monte-Carlo (width above every cutoff)
};

/// "sliced", "scalar", or "sampled".
[[nodiscard]] const char* error_engine_name(ErrorEngine e) noexcept;

/// Pure engine choice for one configuration: the sliced engine when
/// enabled, eligible, and the width fits the sliced (or scalar-path)
/// cutoff; otherwise scalar exhaustive under the config's own kernel-path
/// cutoff; otherwise sampling. Deterministic given (config, opts) — the
/// coordinator replays it to reproduce replica engine tallies.
[[nodiscard]] ErrorEngine select_error_engine(const MultiplierConfig& config,
                                              const EvalOptions& opts) noexcept;

/// Human-readable cutoff summary for logs and the export summary:
/// "fixed(10)" when no per-path widths are set, otherwise
/// "auto(accurate=14,fast2=13,planned=12,sliced=14)".
[[nodiscard]] std::string describe_exhaustive_cutoffs(const EvalOptions& opts);

/// Auto cutoff resolution (the time-budget heuristic): when the sweep
/// reaches widths above the fixed exhaustive_max_width cutoff, fill the
/// per-path cutoff widths from the process's measured engine calibration
/// (error/calibrate.h) so each path runs exhaustive up to the largest
/// width whose full sweep fits `budget_ms`. No-op — and no calibration
/// cost — when every swept width already sits at or below the fixed
/// cutoff, or when per-path widths are already set (a pinned request).
/// Resolution never demotes below the fixed cutoff. Call once at the
/// tool/service edge; the resolved integers, not the machine-dependent
/// calibration, then travel with the options.
void apply_auto_exhaustive(EvalOptions& opts, const SweepSpec& spec, double budget_ms);

/// The per-point budget dse_tool and serve_tool pass to
/// apply_auto_exhaustive.
inline constexpr double kAutoExhaustiveBudgetMs = 2000.0;

/// Per-engine point counts for a config list — a pure replay of
/// select_error_engine, so every replica and the coordinator derive the
/// same tallies from the same wire-level options.
struct ErrorEngineTally {
    size_t sliced = 0;
    size_t scalar = 0;
    size_t sampled = 0;
};
[[nodiscard]] ErrorEngineTally tally_error_engines(const std::vector<MultiplierConfig>& configs,
                                                   const EvalOptions& opts) noexcept;

/// Per-sweep bookkeeping reported by evaluate_sweep. The cache counts are
/// derived in enumeration order against a pre-sweep snapshot, so they are
/// identical for every thread count (unlike CostCache's raw counters,
/// which can split a racing miss two ways).
struct SweepStats {
    size_t points = 0;              ///< evaluated design points
    double wall_seconds = 0.0;      ///< end-to-end sweep wall time
    bool hw_cache_enabled = false;  ///< cache active for this sweep
    uint64_t hw_cache_hits = 0;     ///< points served from the cache
    uint64_t hw_cache_misses = 0;   ///< points that ran the synthesis flow
    /// Error evaluations this process actually ran: one per function group
    /// (scheme siblings share one). Counted as the sweep evaluates, not
    /// replayed; a distributed sweep counts only its local fallback shards.
    size_t error_evals = 0;
    /// How many *points* each error engine's result covers, and the cutoff
    /// policy that decided it — not how many evaluations ran (see
    /// error_evals). Pure replay of select_error_engine over the sweep's
    /// configs (deterministic; safe for the JSON export summary).
    ErrorEngineTally engines;
    std::string cutoff_desc;
};

/// One fully evaluated configuration.
struct DesignPoint {
    MultiplierConfig config;
    ErrorMetrics error;
    SynthesisReport hw;

    /// The value of one objective axis.
    [[nodiscard]] double objective(Objective o) const noexcept {
        switch (o) {
            case Objective::kError: return error.nmed;
            case Objective::kArea: return hw.area_um2;
            case Objective::kPower: return hw.dynamic_power_uw;
            case Objective::kDelay: return hw.delay_ps;
            case Objective::kEnergy: return hw.energy_fj;
            case Objective::kMaxRed: return error.max_red;
        }
        return 0.0;
    }

    /// Objective values for `set`, in set order (default: NMED, area, power,
    /// delay).
    [[nodiscard]] ObjectiveVector objectives(const ObjectiveSet& set = default_objectives()) const {
        ObjectiveVector v;
        v.reserve(set.size());
        for (const Objective o : set) v.push_back(objective(o));
        return v;
    }

    /// e.g. "sdlc 8x8 d2 / row-ripple".
    [[nodiscard]] std::string describe() const;
};

/// True when two configurations compute the same multiplier function: same
/// width and variant, and the same cluster depth unless the variant is
/// accurate. The accumulation scheme only changes the adder tree, so such
/// configurations have bit-equal error metrics.
[[nodiscard]] bool same_function(const MultiplierConfig& a, const MultiplierConfig& b) noexcept;

/// Function-group boundaries of configs[lo, hi): ascending indices
/// lo = b[0] < b[1] < ... < b[k] = hi, where each [b[j], b[j+1]) is a
/// maximal run of configurations computing the same function. In
/// SweepSpec::enumerate() order a run is one function's scheme siblings (a
/// range that cuts a run keeps the cut part as its own group). Empty when
/// lo >= hi.
[[nodiscard]] std::vector<size_t> function_group_bounds(
    const std::vector<MultiplierConfig>& configs, size_t lo, size_t hi);

/// Evaluates one configuration (single-threaded; deterministic for a given
/// EvalOptions regardless of the caller's threading, and bit-equal to the
/// same point of any evaluate_sweep).
[[nodiscard]] DesignPoint evaluate_point(const MultiplierConfig& config,
                                         const EvalOptions& opts = {});

/// Evaluates every point of the sweep in parallel, one task per function
/// group: the group's error is evaluated once, then each sibling is
/// synthesized and emitted in enumeration order. The result order matches
/// SweepSpec::enumerate() and the values are bit-identical for any
/// opts.threads (and for the hardware cache on or off). When `stats` is
/// non-null it receives the sweep's wall time, cache counters and
/// evaluation count.
[[nodiscard]] std::vector<DesignPoint> evaluate_sweep(const SweepSpec& spec,
                                                      const EvalOptions& opts = {},
                                                      SweepStats* stats = nullptr);

/// The enumeration range [lo, hi) a sweep of `count` points covers under
/// opts.shard_lo/shard_hi: the whole sweep when both are zero. Throws
/// std::invalid_argument for an empty or out-of-bounds range.
[[nodiscard]] std::pair<size_t, size_t> sweep_range(const EvalOptions& opts, size_t count);

/// Objective vectors of `points`, in order (input to pareto_analysis()).
/// Every row uses the same objective `set`, so ranks computed from the
/// matrix are ranks over exactly those axes.
[[nodiscard]] std::vector<ObjectiveVector> objective_matrix(
    const std::vector<DesignPoint>& points, const ObjectiveSet& set = default_objectives());

}  // namespace sdlc

#endif  // SDLC_DSE_EVALUATOR_H
