#include "dse/evaluator.h"

#include <atomic>
#include <chrono>
#include <optional>
#include <unordered_set>

#include <algorithm>
#include <cstring>

#include "api/approx_multiplier.h"
#include "core/kernels.h"
#include "core/kernels_sliced.h"
#include "dse/shard_merge.h"
#include "error/calibrate.h"
#include "error/evaluate.h"
#include "error/evaluate_sliced.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sdlc {

namespace {

/// Folds the configuration's function (width, depth, variant) into the base
/// seed so every function gets its own reproducible random stream,
/// independent of evaluation order. The scheme stays out: scheme siblings
/// compute the same function, so they draw the same samples and report
/// bit-equal metrics.
uint64_t function_seed(uint64_t base, const MultiplierConfig& c) {
    SplitMix64 sm(base);
    uint64_t s = sm.next() ^ (static_cast<uint64_t>(c.width) << 40);
    s ^= static_cast<uint64_t>(c.depth) << 24;
    s ^= static_cast<uint64_t>(static_cast<int>(c.variant)) << 16;
    return SplitMix64(s).next();
}

uint64_t draw_operand(Xoshiro256& rng, uint64_t mask, OperandDistribution dist) {
    switch (dist) {
        case OperandDistribution::kUniform:
            return rng.next() & mask;
        case OperandDistribution::kGaussian: {
            uint64_t sum = 0;
            for (int i = 0; i < 4; ++i) sum += rng.next() & mask;
            return sum >> 2;
        }
        case OperandDistribution::kSparse:
            return rng.next() & rng.next() & mask;
    }
    return rng.next() & mask;
}

}  // namespace

const char* error_engine_name(ErrorEngine e) noexcept {
    switch (e) {
        case ErrorEngine::kExhaustiveSliced: return "sliced";
        case ErrorEngine::kExhaustiveScalar: return "scalar";
        case ErrorEngine::kSampled: return "sampled";
    }
    return "?";
}

ErrorEngine select_error_engine(const MultiplierConfig& config,
                                const EvalOptions& opts) noexcept {
    const auto cutoff = [&](int per_path) {
        return per_path > 0 ? per_path : opts.exhaustive_max_width;
    };
    const char* path = multiply_kernel_name(config);
    int scalar_cut = cutoff(opts.exhaustive_width_planned);
    if (std::strcmp(path, "accurate") == 0) {
        scalar_cut = cutoff(opts.exhaustive_width_accurate);
    } else if (std::strcmp(path, "sdlc-fast2") == 0) {
        scalar_cut = cutoff(opts.exhaustive_width_fast2);
    }
    if (opts.use_sliced && SlicedMultiplyKernel::eligible(config) &&
        config.width <= std::max(cutoff(opts.exhaustive_width_sliced), scalar_cut)) {
        return ErrorEngine::kExhaustiveSliced;
    }
    if (config.width <= scalar_cut) return ErrorEngine::kExhaustiveScalar;
    return ErrorEngine::kSampled;
}

std::string describe_exhaustive_cutoffs(const EvalOptions& opts) {
    if (opts.exhaustive_width_accurate == 0 && opts.exhaustive_width_fast2 == 0 &&
        opts.exhaustive_width_planned == 0 && opts.exhaustive_width_sliced == 0) {
        return "fixed(" + std::to_string(opts.exhaustive_max_width) + ")";
    }
    const auto cutoff = [&](int per_path) {
        return per_path > 0 ? per_path : opts.exhaustive_max_width;
    };
    return "auto(accurate=" + std::to_string(cutoff(opts.exhaustive_width_accurate)) +
           ",fast2=" + std::to_string(cutoff(opts.exhaustive_width_fast2)) +
           ",planned=" + std::to_string(cutoff(opts.exhaustive_width_planned)) +
           ",sliced=" + std::to_string(cutoff(opts.exhaustive_width_sliced)) + ")";
}

void apply_auto_exhaustive(EvalOptions& opts, const SweepSpec& spec, double budget_ms) {
    if (opts.exhaustive_width_accurate != 0 || opts.exhaustive_width_fast2 != 0 ||
        opts.exhaustive_width_planned != 0 || opts.exhaustive_width_sliced != 0) {
        return;  // pinned: the submitter already resolved or fixed the cutoffs
    }
    int max_width = 0;
    for (const int w : spec.widths) max_width = std::max(max_width, w);
    if (max_width <= opts.exhaustive_max_width) return;  // promotion can't matter
    const ExhaustiveCutoffs cut =
        resolve_exhaustive_cutoffs(engine_calibration(), opts.exhaustive_max_width, budget_ms);
    opts.exhaustive_width_accurate = cut.accurate;
    opts.exhaustive_width_fast2 = cut.fast2;
    opts.exhaustive_width_planned = cut.planned;
    opts.exhaustive_width_sliced = cut.sliced;
}

ErrorEngineTally tally_error_engines(const std::vector<MultiplierConfig>& configs,
                                     const EvalOptions& opts) noexcept {
    ErrorEngineTally t;
    for (const MultiplierConfig& c : configs) {
        switch (select_error_engine(c, opts)) {
            case ErrorEngine::kExhaustiveSliced: ++t.sliced; break;
            case ErrorEngine::kExhaustiveScalar: ++t.scalar; break;
            case ErrorEngine::kSampled: ++t.sampled; break;
        }
    }
    return t;
}

const char* operand_distribution_name(OperandDistribution d) noexcept {
    switch (d) {
        case OperandDistribution::kUniform: return "uniform";
        case OperandDistribution::kGaussian: return "gaussian";
        case OperandDistribution::kSparse: return "sparse";
    }
    return "?";
}

std::string DesignPoint::describe() const {
    return ApproxMultiplier(config).describe();
}

bool same_function(const MultiplierConfig& a, const MultiplierConfig& b) noexcept {
    return a.width == b.width && a.variant == b.variant &&
           (a.variant == MultiplierVariant::kAccurate || a.depth == b.depth);
}

std::vector<size_t> function_group_bounds(const std::vector<MultiplierConfig>& configs,
                                          size_t lo, size_t hi) {
    std::vector<size_t> bounds;
    if (lo >= hi) return bounds;
    bounds.push_back(lo);
    for (size_t i = lo + 1; i < hi; ++i) {
        if (!same_function(configs[i - 1], configs[i])) bounds.push_back(i);
    }
    bounds.push_back(hi);
    return bounds;
}

namespace {

/// Error metrics of one configuration's function, recorded as an
/// `error_eval` span (args: engine, pairs) under the thread's trace binding.
/// `shard_pool` (may be null) spreads the exhaustive shard grid over
/// existing workers; the grid is fixed, so the result is identical for
/// every pool size.
ErrorMetrics evaluate_error(const MultiplierConfig& config, const EvalOptions& opts,
                            ThreadPool* shard_pool) {
    const ErrorEngine engine = select_error_engine(config, opts);
    const obs::TraceBinding& tb = obs::current_binding();
    obs::ScopedSpan span(tb.recorder, tb.ctx, "error_eval");
    ErrorMetrics error;
    switch (engine) {
        case ErrorEngine::kExhaustiveSliced: {
            // 64-product blocks from per-lane tables; bit-identical to
            // the scalar engine below (enforced by exhaustive tests).
            const SlicedMultiplyKernel kernel(config);
            error = exhaustive_metrics_sliced(kernel, /*max_threads=*/0, shard_pool);
            break;
        }
        case ErrorEngine::kExhaustiveScalar: {
            // The kernel replaces the ApproxMultiplier software model on
            // the error path: bit-identical results, but the inner loop is
            // a bit-trick or a precomputed strength-reduced plan instead of
            // the ClusterPlan interpreter.
            const MultiplyKernel kernel(config);
            error = exhaustive_metrics(
                config.width, [&kernel](uint64_t a, uint64_t b) { return kernel(a, b); },
                /*max_threads=*/0, shard_pool);
            break;
        }
        case ErrorEngine::kSampled: {
            const MultiplyKernel kernel(config);
            error = sampled_metrics(
                config.width, opts.samples, function_seed(opts.seed, config),
                [&kernel](uint64_t a, uint64_t b) { return kernel(a, b); },
                [&opts](Xoshiro256& rng, uint64_t mask) {
                    return draw_operand(rng, mask, opts.distribution);
                });
            break;
        }
    }
    span.arg("engine", error_engine_name(engine));
    span.arg("pairs", error.samples);
    return error;
}

/// Hardware cost of one configuration (a default report when hardware
/// evaluation is off), synthesized through `cache` when non-null. Reports
/// the content key through `hw_key` (0 when no cache lookup happened) so
/// the sweep can derive deterministic cache statistics.
SynthesisReport evaluate_hardware(const MultiplierConfig& config, const EvalOptions& opts,
                                  CostCache* cache, uint64_t* hw_key) {
    if (hw_key != nullptr) *hw_key = 0;
    if (!opts.evaluate_hardware) return {};
    const Netlist net = ApproxMultiplier(config).build_netlist().net;
    if (cache == nullptr) {
        const obs::TraceBinding& tb = obs::current_binding();
        obs::ScopedSpan span(tb.recorder, tb.ctx, "synthesize");
        return synthesize(net, opts.library, opts.synthesis);
    }
    if (hw_key != nullptr) *hw_key = CostCache::content_key(net, opts.library, opts.synthesis);
    return cache->get_or_synthesize(net, opts.library, opts.synthesis);
}

}  // namespace

DesignPoint evaluate_point(const MultiplierConfig& config, const EvalOptions& opts) {
    DesignPoint point;
    point.config = config;
    point.error = evaluate_error(config, opts, nullptr);
    // use_hw_cache=false wins over a provided cache, matching evaluate_sweep
    // (the documented --no-hw-cache escape hatch).
    point.hw = evaluate_hardware(config, opts, opts.use_hw_cache ? opts.hw_cache : nullptr,
                                 nullptr);
    return point;
}

std::pair<size_t, size_t> sweep_range(const EvalOptions& opts, size_t count) {
    if (opts.shard_lo == 0 && opts.shard_hi == 0) return {0, count};
    if (opts.shard_lo >= opts.shard_hi || opts.shard_hi > count) {
        throw std::invalid_argument("sweep shard range [" + std::to_string(opts.shard_lo) +
                                    ", " + std::to_string(opts.shard_hi) +
                                    ") is invalid for " + std::to_string(count) + " points");
    }
    return {opts.shard_lo, opts.shard_hi};
}

std::vector<DesignPoint> evaluate_sweep(const SweepSpec& spec, const EvalOptions& opts,
                                        SweepStats* stats) {
    const auto t0 = std::chrono::steady_clock::now();
    obs::ScopedSpan enumerate_span(opts.recorder, opts.trace, "enumerate");
    std::vector<MultiplierConfig> configs = spec.enumerate();
    enumerate_span.stop();
    // Shard restriction: keep only [lo, hi); the merger below still reports
    // global enumeration indices to on_point.
    const auto [lo, hi] = sweep_range(opts, configs.size());
    configs = std::vector<MultiplierConfig>(configs.begin() + static_cast<ptrdiff_t>(lo),
                                            configs.begin() + static_cast<ptrdiff_t>(hi));

    // Resolve the cache: caller-provided, sweep-local, or none.
    CostCache local_cache;
    EvalOptions point_opts = opts;
    if (point_opts.hw_cache == nullptr && point_opts.use_hw_cache) {
        point_opts.hw_cache = &local_cache;
    }
    if (!point_opts.use_hw_cache) point_opts.hw_cache = nullptr;

    // Keys memoized before this sweep started (for shared warm caches).
    std::unordered_set<uint64_t> warm_keys;
    if (point_opts.hw_cache != nullptr) {
        for (const uint64_t k : point_opts.hw_cache->keys()) warm_keys.insert(k);
    }

    // Run on the caller's pool when provided (service loops reuse one pool
    // across requests); otherwise spin up a sweep-local one.
    std::optional<ThreadPool> local_pool;
    ThreadPool* pool = opts.pool;
    if (pool == nullptr) {
        local_pool.emplace(opts.threads);
        pool = &*local_pool;
    }

    // One task per function group: the scheme siblings of one function are
    // a contiguous run (enumerate() puts the scheme innermost), so the task
    // evaluates the error once and copies it to every sibling.
    const std::vector<size_t> bounds = function_group_bounds(configs, 0, configs.size());
    const size_t groups = bounds.empty() ? 0 : bounds.size() - 1;
    // A one-group sweep runs inline on the caller (parallel_for's n == 1
    // fast path), leaving the pool idle — hand it to the exhaustive engine
    // so the shard grid parallelizes instead. With more groups the pool is
    // busy with groups; an inner parallel_for from a pool worker would
    // deadlock, so the engine then runs its shards inline.
    ThreadPool* shard_pool = groups == 1 ? pool : nullptr;

    // Ordered streaming: the merger emits the contiguous prefix of finished
    // points under its lock, so on_point sees them strictly in enumeration
    // order regardless of completion order.
    ShardMerger merger(lo, hi, opts.on_point);

    const bool has_deadline = opts.deadline != std::chrono::steady_clock::time_point{};
    std::vector<uint64_t> hw_keys(configs.size(), 0);
    std::atomic<size_t> error_evals{0};
    parallel_for(*pool, groups, [&](size_t g) {
        ErrorMetrics error;
        for (size_t i = bounds[g]; i < bounds[g + 1]; ++i) {
            if (opts.cancel != nullptr && opts.cancel->load(std::memory_order_relaxed)) {
                throw SweepCancelled();
            }
            if (has_deadline && std::chrono::steady_clock::now() >= opts.deadline) {
                throw SweepDeadlineExceeded();
            }
            obs::ScopedSpan eval_span(opts.recorder, opts.trace, "kernel_eval");
            obs::ScopedBinding binding(opts.recorder, eval_span.context());
            if (i == bounds[g]) {
                error = evaluate_error(configs[i], point_opts, shard_pool);
                error_evals.fetch_add(1, std::memory_order_relaxed);
            }
            DesignPoint point;
            point.config = configs[i];
            point.error = error;
            point.hw = evaluate_hardware(configs[i], point_opts, point_opts.hw_cache, &hw_keys[i]);
            merger.add(lo + i, point);
        }
    });

    if (stats != nullptr) {
        *stats = SweepStats{};
        stats->points = configs.size();
        stats->error_evals = error_evals.load();
        stats->hw_cache_enabled = point_opts.hw_cache != nullptr;
        stats->engines = tally_error_engines(configs, point_opts);
        stats->cutoff_desc = describe_exhaustive_cutoffs(point_opts);
        // Replay the keys in enumeration order: the first sight of a key not
        // already warm is the miss, every later sight a hit. This is what a
        // sequential run would count, independent of scheduling.
        std::unordered_set<uint64_t> seen;
        for (const uint64_t key : hw_keys) {
            if (key == 0) continue;
            if (warm_keys.count(key) != 0 || !seen.insert(key).second) {
                ++stats->hw_cache_hits;
            } else {
                ++stats->hw_cache_misses;
            }
        }
        stats->wall_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    }
    return merger.take();
}

std::vector<ObjectiveVector> objective_matrix(const std::vector<DesignPoint>& points,
                                              const ObjectiveSet& set) {
    std::vector<ObjectiveVector> m;
    m.reserve(points.size());
    for (const DesignPoint& p : points) m.push_back(p.objectives(set));
    return m;
}

}  // namespace sdlc
