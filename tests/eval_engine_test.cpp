// Error-engine policy and threading-contract tests.
//
// Two regressions pinned here, both fixed in the same change as the
// bit-sliced engine:
//
//   1. Thread explosion: exhaustive_metrics() used to spawn
//      hardware_concurrency() raw std::threads on EVERY call. A resident
//      service evaluating hundreds of exhaustive points per request
//      multiplied that into hundreds of short-lived threads, all fighting
//      the service's own ThreadPool. The contract now: default calls run
//      inline, a provided ThreadPool is sharded over, and dedicated
//      threads appear only for an explicit max_threads > 1.
//
//   2. The exhaustive-vs-sampled cutoff: one pair budget per function
//      evaluation, charged 4^width x a static per-path weight, so the
//      choice is a pure function of (config, options) and never of the
//      machine that evaluates it.
//
// The policy functions (select_error_engine, describe_exhaustive_cutoffs,
// tally_error_engines) are pure, so they are tested at their exact
// boundaries with no timing dependence.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/approx_multiplier.h"
#include "core/kernels.h"
#include "core/kernels_sliced.h"
#include "dse/evaluator.h"
#include "dse/sweep.h"
#include "error/evaluate.h"
#include "error/evaluate_sliced.h"
#include "serve/service.h"
#include "serve/sink.h"
#include "util/thread_pool.h"

namespace sdlc {
namespace {

// ---------------------------------------------------- threading contract ----

/// Current thread count of this process (Linux: /proc/self/status).
unsigned count_threads() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("Threads:", 0) == 0) {
            return static_cast<unsigned>(std::stoul(line.substr(8)));
        }
    }
    ADD_FAILURE() << "could not read Threads: from /proc/self/status";
    return 0;
}

MultiplierConfig sdlc_config(int width, int depth) {
    MultiplierConfig cfg;
    cfg.width = width;
    cfg.depth = depth;
    cfg.variant = MultiplierVariant::kSdlc;
    return cfg;
}

TEST(EvalThreading, DefaultCallsSpawnNoThreads) {
    // The regression: a default (max_threads = 0) exhaustive evaluation
    // must run inline. Run a batch of them on a single pool worker while
    // the main thread samples the process thread count — under the old
    // per-call std::thread spawning the count visibly exceeds the
    // baseline; under the contract it can never move.
    const MultiplierConfig config = sdlc_config(8, 3);
    const MultiplyKernel scalar(config);
    const SlicedMultiplyKernel sliced(config);

    ThreadPool pool(1);
    const unsigned baseline = count_threads();
    std::atomic<bool> running{true};
    pool.submit([&] {
        for (int i = 0; i < 50; ++i) {
            (void)exhaustive_metrics(config.width,
                                     [&](uint64_t a, uint64_t b) { return scalar(a, b); });
            (void)exhaustive_metrics_sliced(sliced);
        }
        running.store(false);
    });
    unsigned max_seen = 0;
    while (running.load()) max_seen = std::max(max_seen, count_threads());
    pool.wait_idle();
    EXPECT_LE(max_seen, baseline) << "default exhaustive evaluation spawned threads";
    EXPECT_EQ(count_threads(), baseline);
}

TEST(EvalThreading, PoolShardingIdenticalAndExplicitThreadsStillWork) {
    const MultiplierConfig config = sdlc_config(7, 2);
    const MultiplyKernel kernel(config);
    const auto f = [&kernel](uint64_t a, uint64_t b) { return kernel(a, b); };

    const ErrorMetrics inline_m = exhaustive_metrics(config.width, f);
    ThreadPool pool(3);
    EXPECT_EQ(exhaustive_metrics(config.width, f, 0, &pool), inline_m);
    // Explicit worker counts are the CLI escape hatch; still bit-identical.
    EXPECT_EQ(exhaustive_metrics(config.width, f, 4), inline_m);
    EXPECT_EQ(exhaustive_metrics(config.width, f, 1), inline_m);
}

TEST(EvalThreading, ServiceThreadCountBoundedUnderConcurrentRequests) {
    // Service level: total threads = request workers + pool workers, fixed
    // at construction; concurrent exhaustive sweep requests must not grow
    // it. With the old per-call spawning, every one of the ~30 exhaustive
    // points below would briefly add threads.
    using serve::ResponseSink;
    class DoneSink final : public ResponseSink {
    public:
        void write_line(const std::string& line) override {
            if (line.find("\"event\": \"done\"") != std::string::npos) done.store(true);
        }
        std::atomic<bool> done{false};
    };

    serve::ServiceOptions opts;
    opts.eval_threads = 2;
    opts.request_workers = 2;
    serve::SweepService service(opts);
    const unsigned baseline = count_threads();

    std::vector<std::shared_ptr<DoneSink>> sinks;
    for (int i = 0; i < 6; ++i) {
        auto sink = std::make_shared<DoneSink>();
        std::ostringstream line;
        line << "{\"id\": \"t" << i
             << "\", \"spec\": {\"width\": 6, \"variants\": [\"sdlc\"], "
                "\"schemes\": [\"ripple\"]}}";
        ASSERT_TRUE(service.submit_line(line.str(), sink));
        sinks.push_back(std::move(sink));
    }
    unsigned max_seen = 0;
    auto all_done = [&] {
        for (const auto& sink : sinks) {
            if (!sink->done.load()) return false;
        }
        return true;
    };
    while (!all_done()) max_seen = std::max(max_seen, count_threads());
    EXPECT_LE(max_seen, baseline) << "service spawned per-request threads";
    service.shutdown();
}

// -------------------------------------------------------- engine selection ----

MultiplierConfig make_config(int width, int depth, MultiplierVariant variant) {
    MultiplierConfig cfg;
    cfg.width = width;
    cfg.depth = depth;
    cfg.variant = variant;
    return cfg;
}

TEST(EngineSelection, DefaultsFollowTheBudget) {
    const EvalOptions opts;  // exhaustive_budget = 2^28, use_sliced = true
    EXPECT_EQ(select_error_engine(make_config(8, 3, MultiplierVariant::kSdlc), opts),
              ErrorEngine::kExhaustiveSliced);
    EXPECT_EQ(select_error_engine(make_config(14, 2, MultiplierVariant::kCompensated), opts),
              ErrorEngine::kExhaustiveSliced);
    // Not sliced-eligible: exact config runs the scalar accurate kernel.
    EXPECT_EQ(select_error_engine(make_config(14, 2, MultiplierVariant::kAccurate), opts),
              ErrorEngine::kExhaustiveScalar);
    // 4^15 pairs exceed the budget on every path.
    EXPECT_EQ(select_error_engine(make_config(15, 3, MultiplierVariant::kSdlc), opts),
              ErrorEngine::kSampled);
    EXPECT_EQ(select_error_engine(make_config(15, 2, MultiplierVariant::kAccurate), opts),
              ErrorEngine::kSampled);
}

TEST(EngineSelection, NoSlicedFallsBackToScalar) {
    EvalOptions opts;
    opts.use_sliced = false;
    EXPECT_EQ(select_error_engine(make_config(8, 3, MultiplierVariant::kSdlc), opts),
              ErrorEngine::kExhaustiveScalar);
    // The planned path's weight (4) puts width 14 over the default budget,
    // where the sliced engine's weight (1) fits it.
    EXPECT_EQ(select_error_engine(make_config(14, 3, MultiplierVariant::kSdlc), opts),
              ErrorEngine::kSampled);
}

TEST(EngineSelection, BudgetBoundaries) {
    const uint64_t pairs10 = uint64_t{1} << 20;  // 4^10
    const auto engine = [](int width, int depth, MultiplierVariant variant, uint64_t budget,
                           bool use_sliced = true) {
        EvalOptions opts;
        opts.exhaustive_budget = budget;
        opts.use_sliced = use_sliced;
        return select_error_engine(make_config(width, depth, variant), opts);
    };
    const auto sdlc = MultiplierVariant::kSdlc;
    const auto accurate = MultiplierVariant::kAccurate;

    // Weight 1 (sliced, accurate): exhaustive exactly at 4^w, sampled one below.
    EXPECT_EQ(engine(10, 3, sdlc, pairs10), ErrorEngine::kExhaustiveSliced);
    EXPECT_EQ(engine(10, 3, sdlc, pairs10 - 1), ErrorEngine::kSampled);
    EXPECT_EQ(engine(10, 2, accurate, pairs10), ErrorEngine::kExhaustiveScalar);
    EXPECT_EQ(engine(10, 2, accurate, pairs10 - 1), ErrorEngine::kSampled);

    // use_sliced = false charges the config's scalar path: fast2 (sdlc
    // depth 2) and planned (deeper) weigh 4.
    EXPECT_EQ(engine(10, 2, sdlc, 4 * pairs10, false), ErrorEngine::kExhaustiveScalar);
    EXPECT_EQ(engine(10, 2, sdlc, 4 * pairs10 - 1, false), ErrorEngine::kSampled);
    EXPECT_EQ(engine(10, 3, sdlc, 4 * pairs10, false), ErrorEngine::kExhaustiveScalar);
    EXPECT_EQ(engine(10, 3, sdlc, 4 * pairs10 - 1, false), ErrorEngine::kSampled);
    EXPECT_EQ(engine(10, 3, sdlc, pairs10, false), ErrorEngine::kSampled);
    // The same fast2 config with the sliced engine on is charged weight 1.
    EXPECT_EQ(engine(10, 2, sdlc, pairs10), ErrorEngine::kExhaustiveSliced);

    // Budget 0 always samples, even the smallest width.
    EXPECT_EQ(engine(2, 2, sdlc, 0), ErrorEngine::kSampled);
    EXPECT_EQ(engine(2, 1, accurate, 0), ErrorEngine::kSampled);

    // Width 16 is the cap: inclusive, and no budget lifts width 17.
    const uint64_t huge = UINT64_MAX;
    EXPECT_EQ(engine(16, 3, sdlc, huge), ErrorEngine::kExhaustiveSliced);
    EXPECT_EQ(engine(16, 3, sdlc, huge, false), ErrorEngine::kExhaustiveScalar);
    EXPECT_EQ(engine(17, 3, sdlc, huge), ErrorEngine::kSampled);
    EXPECT_EQ(engine(17, 2, accurate, huge), ErrorEngine::kSampled);

    EvalOptions opts;
    opts.exhaustive_budget = 0;
    EXPECT_EQ(describe_exhaustive_cutoffs(opts), "budget(accurate=0,fast2=0,planned=0,sliced=0)");
    opts.exhaustive_budget = huge;
    EXPECT_EQ(describe_exhaustive_cutoffs(opts),
              "budget(accurate=16,fast2=16,planned=16,sliced=16)");
    opts.exhaustive_budget = 4 * pairs10 - 1;
    EXPECT_EQ(describe_exhaustive_cutoffs(opts),
              "budget(accurate=10,fast2=9,planned=9,sliced=10)");
}

TEST(EngineSelection, DefaultBudgetIsMachineIndependent) {
    // The default options alone decide every engine: the default width-8
    // and width-12 sweeps run exhaustive, the width-16 sweep samples.
    const EvalOptions opts;
    const struct {
        int width;
        size_t sliced, scalar, sampled;
    } expected[] = {{8, 56, 4, 0}, {12, 88, 4, 0}, {16, 0, 0, 124}};
    for (const auto& e : expected) {
        SCOPED_TRACE(e.width);
        const ErrorEngineTally t =
            tally_error_engines(SweepSpec::for_width(e.width).enumerate(), opts);
        EXPECT_EQ(t.sliced, e.sliced);
        EXPECT_EQ(t.scalar, e.scalar);
        EXPECT_EQ(t.sampled, e.sampled);
    }
    EXPECT_EQ(describe_exhaustive_cutoffs(opts),
              "budget(accurate=14,fast2=13,planned=13,sliced=14)");
}

TEST(EngineSelection, TallyMatchesSelection) {
    SweepSpec spec;
    spec.widths = {6};
    const std::vector<MultiplierConfig> configs = spec.enumerate();
    const EvalOptions opts;
    const ErrorEngineTally tally = tally_error_engines(configs, opts);
    size_t sliced = 0, scalar = 0, sampled = 0;
    for (const MultiplierConfig& c : configs) {
        switch (select_error_engine(c, opts)) {
            case ErrorEngine::kExhaustiveSliced: ++sliced; break;
            case ErrorEngine::kExhaustiveScalar: ++scalar; break;
            case ErrorEngine::kSampled: ++sampled; break;
        }
    }
    EXPECT_EQ(tally.sliced, sliced);
    EXPECT_EQ(tally.scalar, scalar);
    EXPECT_EQ(tally.sampled, sampled);
    EXPECT_EQ(tally.sliced + tally.scalar + tally.sampled, configs.size());
    // Width-6 grid: every approximate config is sliced, every accurate
    // one scalar, nothing sampled.
    EXPECT_EQ(tally.sampled, 0u);
    EXPECT_EQ(tally.scalar, 4u);  // accurate x 4 schemes

    EXPECT_STREQ(error_engine_name(ErrorEngine::kExhaustiveSliced), "sliced");
    EXPECT_STREQ(error_engine_name(ErrorEngine::kExhaustiveScalar), "scalar");
    EXPECT_STREQ(error_engine_name(ErrorEngine::kSampled), "sampled");
}

TEST(EngineSelection, SweepResultsIdenticalWithAndWithoutSliced) {
    // End to end through evaluate_sweep: the engine knob changes speed
    // only. Hardware evaluation off keeps this a pure error-path test.
    SweepSpec spec;
    spec.widths = {5};
    EvalOptions opts;
    opts.threads = 2;
    opts.evaluate_hardware = false;
    SweepStats with_stats;
    const std::vector<DesignPoint> with_sliced = evaluate_sweep(spec, opts, &with_stats);
    opts.use_sliced = false;
    SweepStats without_stats;
    const std::vector<DesignPoint> without_sliced = evaluate_sweep(spec, opts, &without_stats);

    ASSERT_EQ(with_sliced.size(), without_sliced.size());
    for (size_t i = 0; i < with_sliced.size(); ++i) {
        EXPECT_EQ(with_sliced[i].error, without_sliced[i].error) << i;
    }
    EXPECT_GT(with_stats.engines.sliced, 0u);
    EXPECT_EQ(without_stats.engines.sliced, 0u);
    EXPECT_EQ(with_stats.engines.sliced + with_stats.engines.scalar,
              without_stats.engines.scalar);
    EXPECT_EQ(with_stats.cutoff_desc, "budget(accurate=14,fast2=13,planned=13,sliced=14)");
}

}  // namespace
}  // namespace sdlc
