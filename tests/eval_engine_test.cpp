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
//      inline, a provided ThreadPool is sharded over, and the engines
//      never start threads of their own.
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
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
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
    // The regression: a default (pool-less) exhaustive evaluation must run
    // inline. Run a batch of them on a single pool worker while
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
            (void)exhaustive_metrics(config.width, scalar);
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

TEST(EvalThreading, PoolShardingIsBitIdenticalAtEveryPoolSize) {
    const MultiplierConfig config = sdlc_config(7, 2);
    const MultiplyKernel kernel(config);
    const ErrorMetrics inline_m = exhaustive_metrics(config.width, kernel);
    for (const unsigned threads : {1u, 3u, 4u}) {
        ThreadPool pool(threads);
        EXPECT_EQ(exhaustive_metrics(config.width, kernel, &pool), inline_m) << threads;
    }
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

// ------------------------------------------------------ sampled engine pins ----

TEST(SampledPins, DefaultOptionsWidth16) {
    // The sampled ErrorMetrics of default EvalOptions (2^18 samples, the
    // default seed) at width 16, recorded before the block kernel existed:
    // the block engine draws the same pairs in the same order, so every
    // metric is bit-equal. Covers the depth-2 path, deep groups and
    // compensation tables across one and two chunks, under every draw.
    const struct {
        int depth;
        MultiplierVariant variant;
        OperandDistribution dist;
        ErrorMetrics m;
    } pins[] = {
    {2, MultiplierVariant::kSdlc, OperandDistribution::kUniform,
     {0x1.7a4effa34531ap-9, 0x1.fcf952779p+19, 0x1.fcfd4c702be31p-13, 0x1.ad808p-1, 0x1.539c374bdb302p-2, 15405186u, 262144u, -0x1.fcf952779p+19, 0x1.04f68d559a708p+21}},
    {5, MultiplierVariant::kSdlc, OperandDistribution::kUniform,
     {0x1.9222cb5480c0bp-6, 0x1.45132dc1dbp+23, 0x1.4515b7ec05c25p-9, 0x1.f8e38p-1, 0x1.eb12ab75ab79cp-2, 85042388u, 262144u, -0x1.45132dc1dbp+23, 0x1.d618bc05e345ap+23}},
    {12, MultiplierVariant::kSdlc, OperandDistribution::kUniform,
     {0x1.04a15abefabccp-3, 0x1.54dd31c643p+27, 0x1.54dfdb84a5297p-5, 0x1.feafp-1, 0x1.fd7e5e96a4a83p-2, 1998345032u, 262144u, -0x1.54dd31c643p+27, 0x1.4e5e89684228p+28}},
    {3, MultiplierVariant::kCompensated, OperandDistribution::kUniform,
     {0x1.690a9be27d73dp-7, 0x1.ded4c2e06p+19, 0x1.ded8808f82468p-13, 0x1.ee588p-1, 0x1.bc09c6c2bd60ep+6, 9397396u, 262144u, 0x1.ea6da1bap+16, 0x1.549580988729ap+20}},
    {10, MultiplierVariant::kCompensated, OperandDistribution::kUniform,
     {0x1.281b1570a01b6p+0, 0x1.446c7b43d65p+27, 0x1.446f04209a223p-5, 0x1.ff64p-1, 0x1.22b9236685134p+13, 1154426708u, 262144u, 0x1.2a6441a1a2cp+25, 0x1.faf0c65ab116p+27}},
    {16, MultiplierVariant::kCompensated, OperandDistribution::kUniform,
     {0x1.36e9653037cd9p+0, 0x1.5347795c208p+27, 0x1.534a1fef0d14p-5, 0x1.ffddp-1, 0x1.43e23339b24f6p+13, 1138420180u, 262144u, 0x1.98fc4d55d68p+25, 0x1.0384e19948c2ap+28}},
    {2, MultiplierVariant::kSdlc, OperandDistribution::kGaussian,
     {0x1.58930bc9397a2p-11, 0x1.2919b133p+19, 0x1.291c0369ddb7cp-13, 0x1.a258p-1, 0x1.08eeb818a32dcp-4, 12558200u, 262144u, -0x1.2919b133p+19, 0x1.37cefdc416d92p+20}},
    {5, MultiplierVariant::kSdlc, OperandDistribution::kGaussian,
     {0x1.9229c8b5ede7cp-7, 0x1.406672a9a3p+23, 0x1.4068f37a498bap-9, 0x1.f882p-1, 0x1.5a820a8701aaap-2, 83035178u, 262144u, -0x1.406672a9a3p+23, 0x1.d627b884335aap+23}},
    {12, MultiplierVariant::kSdlc, OperandDistribution::kGaussian,
     {0x1.73240b07a8807p-4, 0x1.6dd71a30214p+26, 0x1.6dd9f5e29f2b5p-6, 0x1.fef6p-1, 0x1.d95ce0ef7f08bp-2, 1063605760u, 262144u, -0x1.6dd71a30214p+26, 0x1.2537c591076b6p+27}},
    {3, MultiplierVariant::kCompensated, OperandDistribution::kGaussian,
     {0x1.38e12c08dd0fcp-10, 0x1.ed08c2f3cp+19, 0x1.ed0c9d0b0d098p-13, 0x1.ee1a8p-1, 0x1.b7c07e7fd1589p-5, 8520268u, 262144u, 0x1.3d0e3355p+17, 0x1.617f4bb178498p+20}},
    {10, MultiplierVariant::kCompensated, OperandDistribution::kGaussian,
     {0x1.a528de1c2e16cp-4, 0x1.6c982c5abcep+26, 0x1.6c9b058f5b63bp-6, 0x1.ffa6p-1, 0x1.0954208b8ff23p+2, 869957936u, 262144u, 0x1.c3060e1ce8cp+25, 0x1.fab95ed1122cp+26}},
    {16, MultiplierVariant::kCompensated, OperandDistribution::kGaussian,
     {0x1.d1dc3c1613c81p-4, 0x1.8a6f012fb6cp+26, 0x1.8a7216125872ap-6, 0x1.fff08p-1, 0x1.b1b88b2d51dafp+1, 833100476u, 262144u, 0x1.1434f439a18p+26, 0x1.0ffbae7e85952p+27}},
    {2, MultiplierVariant::kSdlc, OperandDistribution::kSparse,
     {0x1.5a573a59cc84cp-9, 0x1.fdcb37a4p+15, 0x1.fdcf334068b1ap-17, 0x1.84dcp-3, 0x1.4a4844f6ed21fp-2, 12255232u, 262144u, -0x1.fdcb37a4p+15, 0x1.98c16f7a69007p+18}},
    {5, MultiplierVariant::kSdlc, OperandDistribution::kSparse,
     {0x1.af315ec37a28dp-7, 0x1.80be50c1ap+19, 0x1.80c15242c3c43p-13, 0x1.e444p-2, 0x1.da1a9b9da1a9cp-2, 63569920u, 262144u, -0x1.80be50c1ap+19, 0x1.44cf66a1f601p+21}},
    {12, MultiplierVariant::kSdlc, OperandDistribution::kSparse,
     {0x1.e373b59d85ae3p-6, 0x1.7720724b16p+23, 0x1.772360905ffd6p-9, 0x1.4cd98p-1, 0x1.df786659744d2p-2, 1813381120u, 262144u, -0x1.7720724b16p+23, 0x1.fbd6c6c8a5bfep+25}},
    {3, MultiplierVariant::kCompensated, OperandDistribution::kSparse,
     {0x1.3c02a80cb1533p+0, 0x1.3ee6bad18p+18, 0x1.3ee938a2b25c3p-14, 0x1.1fbep-1, 0x1.a7b9611a7b961p+12, 5423104u, 262144u, 0x1.1200c26a4p+18, 0x1.34d0849a873dcp+19}},
    {10, MultiplierVariant::kCompensated, OperandDistribution::kSparse,
     {0x1.991cfcf748ae8p+4, 0x1.937f19674a8p+25, 0x1.9382406a37d23p-7, 0x1.ba298p-1, 0x1.ad54b87deb0c7p+13, 1055883776u, 262144u, 0x1.5dbb95f8a68p+25, 0x1.c2515437c5d58p+26}},
    {16, MultiplierVariant::kCompensated, OperandDistribution::kSparse,
     {0x1.ea2495d56ec94p+4, 0x1.b93c3b8065cp+25, 0x1.b93fadfe087c6p-7, 0x1.dcda8p-1, 0x1.db15dee0c639ep+13, 1049064208u, 262144u, 0x1.846cbcb1facp+25, 0x1.d5d5512b7ecedp+26}},
    };
    for (const auto& pin : pins) {
        EvalOptions opts;
        opts.evaluate_hardware = false;
        opts.distribution = pin.dist;
        const MultiplierConfig config = make_config(16, pin.depth, pin.variant);
        ASSERT_EQ(select_error_engine(config, opts), ErrorEngine::kSampled);
        const ErrorMetrics m = evaluate_point(config, opts).error;
        EXPECT_EQ(m, pin.m) << ApproxMultiplier(config).describe() << " "
                            << operand_distribution_name(pin.dist) << ": nmed " << m.nmed;
    }
}

// ------------------------------------------------------- engine interruption ----

TEST(EngineStop, CheckedOncePerShardAndEvery4096Samples) {
    const MultiplierConfig config = sdlc_config(8, 3);
    const MultiplyKernel kernel(config);
    const SlicedMultiplyKernel sliced(config);
    std::atomic<unsigned> calls{0};
    const StopCheck count = [&calls] { calls.fetch_add(1); };

    const ErrorMetrics plain = exhaustive_metrics(config.width, kernel);
    EXPECT_EQ(exhaustive_metrics(config.width, kernel, nullptr, count), plain);
    EXPECT_EQ(calls.exchange(0), kExhaustiveShards);
    ThreadPool pool(3);
    EXPECT_EQ(exhaustive_metrics(config.width, kernel, &pool, count), plain);
    EXPECT_EQ(calls.exchange(0), kExhaustiveShards);
    EXPECT_EQ(exhaustive_metrics_sliced(sliced, nullptr, count), plain);
    EXPECT_EQ(calls.exchange(0), kExhaustiveShards);

    const auto uniform = [](Xoshiro256& rng, uint64_t mask) { return rng.next() & mask; };
    const ErrorMetrics sampled = sampled_metrics(config.width, 10000, 7, kernel, uniform);
    EXPECT_EQ(sampled_metrics(config.width, 10000, 7, kernel, uniform, count), sampled);
    EXPECT_EQ(calls.exchange(0), 3u);  // before samples 0, 4096 and 8192
}

TEST(EngineStop, AThrowingCheckAbandonsEveryEngine) {
    const MultiplierConfig config = sdlc_config(8, 3);
    const MultiplyKernel kernel(config);
    const SlicedMultiplyKernel sliced(config);
    struct Stopped {};
    std::atomic<unsigned> calls{0};
    // Lets the first 5 checks pass, then stops.
    const StopCheck stop = [&calls] {
        if (calls.fetch_add(1) >= 5) throw Stopped{};
    };
    ThreadPool pool(3);
    EXPECT_THROW((void)exhaustive_metrics(config.width, kernel, nullptr, stop), Stopped);
    EXPECT_EQ(calls.exchange(0), 6u);
    EXPECT_THROW((void)exhaustive_metrics(config.width, kernel, &pool, stop), Stopped);
    calls = 0;
    EXPECT_THROW((void)exhaustive_metrics_sliced(sliced, &pool, stop), Stopped);
    calls = 0;
    EXPECT_THROW((void)sampled_metrics(
                     config.width, 100000, 7, kernel,
                     [](Xoshiro256& rng, uint64_t mask) { return rng.next() & mask; }, stop),
                 Stopped);
    EXPECT_EQ(calls.load(), 6u);
}

TEST(EngineStop, DeadlineAndCancelStopAPointInsideTheEngine) {
    // One width-14 exhaustive point: 2^28 pairs, far longer than 20 ms on
    // any machine. The engine must notice at a shard boundary and the
    // point must not be emitted; checked only between points, the sweep
    // would finish the point and return normally.
    SweepSpec spec;
    spec.widths = {14};
    spec.min_depth = spec.max_depth = 2;
    spec.variants = {MultiplierVariant::kSdlc};
    spec.schemes = {AccumulationScheme::kRowRipple};
    EvalOptions opts;
    opts.threads = 2;
    opts.evaluate_hardware = false;
    ASSERT_EQ(select_error_engine(spec.enumerate()[0], opts), ErrorEngine::kExhaustiveSliced);
    size_t emitted = 0;
    opts.on_point = [&emitted](size_t, const DesignPoint&) { ++emitted; };
    const auto start = std::chrono::steady_clock::now();
    opts.deadline = start + std::chrono::milliseconds(20);
    EXPECT_THROW((void)evaluate_sweep(spec, opts), SweepDeadlineExceeded);
    EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
    EXPECT_EQ(emitted, 0u);

    // The same for cancel, raised while the engine runs.
    opts.deadline = {};
    std::atomic<bool> cancel{false};
    opts.cancel = &cancel;
    std::thread canceller([&cancel] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        cancel.store(true);
    });
    EXPECT_THROW((void)evaluate_sweep(spec, opts), SweepCancelled);
    canceller.join();
    EXPECT_EQ(emitted, 0u);
}

}  // namespace
}  // namespace sdlc
