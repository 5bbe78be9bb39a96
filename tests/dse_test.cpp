// Tests for the design-space exploration subsystem: dominance logic, sweep
// enumeration, evaluator determinism under threading, and result export.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "dse/evaluator.h"
#include "dse/export.h"
#include "dse/pareto.h"
#include "dse/sweep.h"
#include "dse/thread_pool.h"
#include "obs/trace.h"

namespace sdlc {
namespace {

// ---------------------------------------------------------------- pareto ----

TEST(Pareto, DominatesRequiresStrictImprovement) {
    const ObjectiveVector a{1.0, 2.0, 3.0, 4.0};
    const ObjectiveVector better{1.0, 2.0, 3.0, 3.5};
    const ObjectiveVector worse{1.0, 2.5, 3.0, 4.0};
    const ObjectiveVector mixed{0.5, 2.0, 3.0, 4.5};

    EXPECT_TRUE(dominates(better, a));
    EXPECT_FALSE(dominates(a, better));
    EXPECT_TRUE(dominates(a, worse));
    EXPECT_FALSE(dominates(a, a)) << "identical points must not dominate";
    EXPECT_FALSE(dominates(mixed, a)) << "trade-offs are incomparable";
    EXPECT_FALSE(dominates(a, mixed));
}

TEST(Pareto, FrontierOfHandCraftedSet) {
    // Points 0 and 1 trade off; 2 is dominated by 0; 3 duplicates 1.
    const std::vector<ObjectiveVector> pts = {
        {0.0, 10.0, 10.0, 10.0},
        {1.0, 1.0, 1.0, 1.0},
        {0.0, 11.0, 10.0, 10.0},
        {1.0, 1.0, 1.0, 1.0},
    };
    const std::vector<size_t> frontier = pareto_frontier(pts);
    EXPECT_EQ(frontier, (std::vector<size_t>{0, 1, 3}));
}

TEST(Pareto, RanksPeelLayers) {
    // A chain: each point strictly dominated by the previous one.
    const std::vector<ObjectiveVector> pts = {
        {3.0, 3.0, 3.0, 3.0},
        {1.0, 1.0, 1.0, 1.0},
        {2.0, 2.0, 2.0, 2.0},
    };
    const ParetoResult r = pareto_analysis(pts);
    EXPECT_EQ(r.rank, (std::vector<int>{2, 0, 1}));
    EXPECT_EQ(r.frontier, (std::vector<size_t>{1}));
}

TEST(Pareto, EmptyAndSingleton) {
    EXPECT_TRUE(pareto_analysis({}).frontier.empty());
    const ParetoResult r = pareto_analysis({{1.0, 1.0, 1.0, 1.0}});
    EXPECT_EQ(r.frontier, (std::vector<size_t>{0}));
    EXPECT_EQ(r.rank, (std::vector<int>{0}));
}

TEST(Pareto, ObjectiveNames) {
    EXPECT_STREQ(objective_name(Objective::kError), "error");
    EXPECT_STREQ(objective_name(Objective::kDelay), "delay");
    EXPECT_STREQ(objective_name(Objective::kEnergy), "energy");
    EXPECT_STREQ(objective_name(Objective::kMaxRed), "maxred");
}

TEST(Pareto, ObjectiveParserRoundTripsAndRejectsUnknown) {
    for (int i = 0; i < kAllObjectiveCount; ++i) {
        const Objective o = static_cast<Objective>(i);
        Objective parsed = Objective::kDelay;
        ASSERT_TRUE(parse_objective(objective_name(o), parsed));
        EXPECT_EQ(parsed, o);
    }
    Objective o = Objective::kArea;
    EXPECT_FALSE(parse_objective("bogus", o));
    EXPECT_EQ(o, Objective::kArea) << "failed parse must not modify out";
}

TEST(Pareto, ObjectiveSetParsing) {
    ObjectiveSet set;
    ASSERT_TRUE(parse_objective_set({"error", "energy", "maxred"}, set));
    EXPECT_EQ(set, (ObjectiveSet{Objective::kError, Objective::kEnergy, Objective::kMaxRed}));
    EXPECT_EQ(objective_set_name(set), "error,energy,maxred");

    std::string error;
    EXPECT_FALSE(parse_objective_set({}, set, &error)) << "empty set";
    EXPECT_FALSE(parse_objective_set({"error", "error"}, set, &error));
    EXPECT_NE(error.find("duplicate"), std::string::npos);
    EXPECT_FALSE(parse_objective_set({"watts"}, set, &error));
    EXPECT_EQ(default_objectives(),
              (ObjectiveSet{Objective::kError, Objective::kArea, Objective::kPower,
                            Objective::kDelay}));
}

TEST(Pareto, DominanceOverSelectedAxesOnly) {
    // b is worse on energy; over {error, area} the points tie exactly, so
    // neither dominates — but adding the energy axis separates them.
    const ObjectiveVector a{1.0, 2.0};
    const ObjectiveVector b{1.0, 2.0};
    EXPECT_FALSE(dominates(a, b));
    const ObjectiveVector a3{1.0, 2.0, 5.0};
    const ObjectiveVector b3{1.0, 2.0, 7.0};
    EXPECT_TRUE(dominates(a3, b3));
    EXPECT_FALSE(dominates(b3, a3));
}

// ----------------------------------------------------------------- sweep ----

TEST(SweepSpec, CountMatchesEnumerate) {
    for (const SweepSpec spec :
         {SweepSpec{}, SweepSpec::for_width(4), SweepSpec::for_width(16), SweepSpec::full()}) {
        EXPECT_EQ(spec.count(), spec.enumerate().size()) << spec.describe();
    }
}

TEST(SweepSpec, Width8DefaultCount) {
    // Per scheme: 1 accurate + 7 sdlc depths (2..8) + 7 compensated depths.
    const SweepSpec spec = SweepSpec::for_width(8);
    EXPECT_EQ(spec.count(), 4u * (1 + 7 + 7));
}

TEST(SweepSpec, AccurateIgnoresDepthRange) {
    SweepSpec spec = SweepSpec::for_width(8);
    spec.variants = {MultiplierVariant::kAccurate};
    EXPECT_EQ(spec.count(), spec.schemes.size());
    for (const MultiplierConfig& c : spec.enumerate()) EXPECT_EQ(c.depth, 1);
}

TEST(SweepSpec, DepthRangeClampsToWidth) {
    SweepSpec spec = SweepSpec::for_width(4);
    spec.variants = {MultiplierVariant::kSdlc};
    spec.schemes = {AccumulationScheme::kRowRipple};
    spec.max_depth = 100;  // clamped to the width
    const std::vector<MultiplierConfig> configs = spec.enumerate();
    ASSERT_EQ(configs.size(), 3u);  // depths 2, 3, 4
    EXPECT_EQ(configs.back().depth, 4);
}

TEST(SweepSpec, EnumerationOrderIsDeterministic) {
    const SweepSpec spec = SweepSpec::full();
    const auto a = spec.enumerate();
    const auto b = spec.enumerate();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].width, b[i].width);
        EXPECT_EQ(a[i].depth, b[i].depth);
        EXPECT_EQ(a[i].variant, b[i].variant);
        EXPECT_EQ(a[i].scheme, b[i].scheme);
    }
}

TEST(SweepSpec, EveryEnumeratedConfigIsBuildable) {
    for (const MultiplierConfig& c : SweepSpec::for_width(6).enumerate()) {
        EXPECT_NO_THROW({ (void)ApproxMultiplier(c); });
    }
}

TEST(SweepSpec, RejectsBadAxes) {
    SweepSpec spec;
    spec.widths.clear();
    EXPECT_THROW((void)spec.count(), std::invalid_argument);
    spec = SweepSpec{};
    spec.widths = {40};
    EXPECT_THROW((void)spec.enumerate(), std::invalid_argument);
    spec = SweepSpec{};
    spec.min_depth = 0;
    EXPECT_THROW((void)spec.enumerate(), std::invalid_argument);
    spec = SweepSpec{};
    spec.min_depth = 5;
    spec.max_depth = 3;
    EXPECT_THROW((void)spec.enumerate(), std::invalid_argument);
}

TEST(SweepSpec, VariantNames) {
    EXPECT_STREQ(multiplier_variant_name(MultiplierVariant::kAccurate), "accurate");
    EXPECT_STREQ(multiplier_variant_name(MultiplierVariant::kSdlc), "sdlc");
    EXPECT_STREQ(multiplier_variant_name(MultiplierVariant::kCompensated), "compensated");
}

TEST(SweepSpec, NameParsersRoundTripAndRejectUnknown) {
    for (MultiplierVariant v : {MultiplierVariant::kAccurate, MultiplierVariant::kSdlc,
                                MultiplierVariant::kCompensated}) {
        MultiplierVariant parsed = MultiplierVariant::kAccurate;
        ASSERT_TRUE(parse_multiplier_variant(multiplier_variant_name(v), parsed));
        EXPECT_EQ(parsed, v);
    }
    MultiplierVariant v = MultiplierVariant::kSdlc;
    EXPECT_FALSE(parse_multiplier_variant("bogus", v));
    EXPECT_EQ(v, MultiplierVariant::kSdlc) << "failed parse must not modify out";

    for (AccumulationScheme s : {AccumulationScheme::kRowRipple, AccumulationScheme::kWallace,
                                 AccumulationScheme::kDadda, AccumulationScheme::kRowFastCpa}) {
        AccumulationScheme parsed = AccumulationScheme::kDadda;
        ASSERT_TRUE(parse_accumulation_scheme(accumulation_scheme_name(s), parsed));
        EXPECT_EQ(parsed, s);
    }
    AccumulationScheme s = AccumulationScheme::kDadda;
    EXPECT_TRUE(parse_accumulation_scheme("ripple", s));  // CLI alias
    EXPECT_EQ(s, AccumulationScheme::kRowRipple);
    EXPECT_TRUE(parse_accumulation_scheme("fastcpa", s));
    EXPECT_EQ(s, AccumulationScheme::kRowFastCpa);
    EXPECT_FALSE(parse_accumulation_scheme("bogus", s));
}

// ------------------------------------------------------------- evaluator ----

SweepSpec small_spec() {
    SweepSpec spec = SweepSpec::for_width(5);
    spec.schemes = {AccumulationScheme::kRowRipple, AccumulationScheme::kDadda};
    return spec;
}

void expect_identical(const std::vector<DesignPoint>& a, const std::vector<DesignPoint>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].config.width, b[i].config.width);
        EXPECT_EQ(a[i].config.depth, b[i].config.depth);
        // Bit-exact double equality is intentional: the engine promises
        // results independent of the thread count.
        EXPECT_EQ(a[i].error.nmed, b[i].error.nmed) << i;
        EXPECT_EQ(a[i].error.mred, b[i].error.mred) << i;
        EXPECT_EQ(a[i].error.max_ed, b[i].error.max_ed) << i;
        EXPECT_EQ(a[i].hw.cells, b[i].hw.cells) << i;
        EXPECT_EQ(a[i].hw.area_um2, b[i].hw.area_um2) << i;
        EXPECT_EQ(a[i].hw.delay_ps, b[i].hw.delay_ps) << i;
        EXPECT_EQ(a[i].hw.dynamic_power_uw, b[i].hw.dynamic_power_uw) << i;
    }
}

TEST(Evaluator, DeterministicAcrossThreadCounts) {
    EvalOptions one;
    one.threads = 1;
    EvalOptions many;
    many.threads = 4;
    expect_identical(evaluate_sweep(small_spec(), one), evaluate_sweep(small_spec(), many));
}

TEST(Evaluator, SampledPathIsSeededAndDeterministic) {
    // Force the Monte-Carlo path by lowering the exhaustive cutoff.
    SweepSpec spec = SweepSpec::for_width(6);
    spec.variants = {MultiplierVariant::kSdlc};
    spec.schemes = {AccumulationScheme::kRowRipple};
    spec.min_depth = 2;
    spec.max_depth = 3;

    EvalOptions opts;
    opts.exhaustive_max_width = 4;
    opts.samples = 2000;
    opts.evaluate_hardware = false;
    opts.threads = 1;
    EvalOptions threaded = opts;
    threaded.threads = 4;
    expect_identical(evaluate_sweep(spec, opts), evaluate_sweep(spec, threaded));

    EvalOptions reseeded = opts;
    reseeded.seed = opts.seed + 1;
    const auto a = evaluate_sweep(spec, opts);
    const auto b = evaluate_sweep(spec, reseeded);
    EXPECT_NE(a[0].error.med, b[0].error.med) << "different seeds should draw new samples";
}

TEST(Evaluator, DistributionsChangeSampledMetrics) {
    MultiplierConfig cfg{12, 2, MultiplierVariant::kSdlc, AccumulationScheme::kRowRipple};
    EvalOptions opts;
    opts.samples = 4000;
    opts.evaluate_hardware = false;
    const DesignPoint uniform = evaluate_point(cfg, opts);
    opts.distribution = OperandDistribution::kSparse;
    const DesignPoint sparse = evaluate_point(cfg, opts);
    EXPECT_NE(uniform.error.med, sparse.error.med);
    // Sparse operands rarely place two bits in one compressed column, so
    // SDLC errs less often.
    EXPECT_LT(sparse.error.error_rate, uniform.error.error_rate);
}

TEST(Evaluator, AccurateIsZeroErrorExtremeOfFrontier) {
    const std::vector<DesignPoint> points = evaluate_sweep(small_spec());
    const ParetoResult pareto = pareto_analysis(objective_matrix(points));
    ASSERT_FALSE(pareto.frontier.empty());
    bool accurate_on_frontier = false;
    double min_nmed_on_frontier = 1.0;
    for (size_t i : pareto.frontier) {
        min_nmed_on_frontier = std::min(min_nmed_on_frontier, points[i].error.nmed);
        if (points[i].config.variant == MultiplierVariant::kAccurate) {
            accurate_on_frontier = true;
            EXPECT_EQ(points[i].error.nmed, 0.0);
            EXPECT_EQ(points[i].error.max_ed, 0u);
        }
    }
    EXPECT_TRUE(accurate_on_frontier);
    EXPECT_EQ(min_nmed_on_frontier, 0.0);
}

TEST(Evaluator, StreamsPointsInEnumerationOrder) {
    // The streaming hook must see every point exactly once, in enumeration
    // order, even though workers complete points out of order.
    const SweepSpec spec = small_spec();
    EvalOptions opts;
    opts.threads = 4;
    std::vector<size_t> order;
    std::vector<DesignPoint> streamed;
    opts.on_point = [&](size_t i, const DesignPoint& p) {
        order.push_back(i);
        streamed.push_back(p);
    };
    const std::vector<DesignPoint> points = evaluate_sweep(spec, opts);
    ASSERT_EQ(order.size(), points.size());
    for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
    expect_identical(streamed, points);
}

TEST(Evaluator, ExternalPoolIsReusedAcrossSweeps) {
    ThreadPool pool(2);
    EvalOptions opts;
    opts.pool = &pool;
    opts.evaluate_hardware = false;
    EvalOptions fresh;  // sweep-local pool
    fresh.evaluate_hardware = false;
    expect_identical(evaluate_sweep(small_spec(), opts), evaluate_sweep(small_spec(), fresh));
    // Second sweep on the same pool: still fine, still identical.
    expect_identical(evaluate_sweep(small_spec(), opts), evaluate_sweep(small_spec(), fresh));
}

TEST(Evaluator, CancelThrowsSweepCancelled) {
    std::atomic<bool> cancel{true};  // pre-set: first claimed point trips it
    EvalOptions opts;
    opts.cancel = &cancel;
    opts.evaluate_hardware = false;
    EXPECT_THROW((void)evaluate_sweep(small_spec(), opts), SweepCancelled);
    cancel.store(false);
    EXPECT_NO_THROW((void)evaluate_sweep(small_spec(), opts));
}

TEST(Evaluator, ObjectiveMatrixSelectsAxes) {
    const std::vector<DesignPoint> points = evaluate_sweep(small_spec());
    const auto m = objective_matrix(points, {Objective::kEnergy, Objective::kMaxRed});
    ASSERT_EQ(m.size(), points.size());
    for (size_t i = 0; i < m.size(); ++i) {
        ASSERT_EQ(m[i].size(), 2u);
        EXPECT_EQ(m[i][0], points[i].hw.energy_fj);
        EXPECT_EQ(m[i][1], points[i].error.max_red);
    }
    // The default matrix still carries the paper's four axes.
    EXPECT_EQ(objective_matrix(points)[0].size(), 4u);
}

TEST(Evaluator, ErrorOnlyModeSkipsSynthesis) {
    EvalOptions opts;
    opts.evaluate_hardware = false;
    const DesignPoint p = evaluate_point({6, 2}, opts);
    EXPECT_EQ(p.hw.cells, 0u);
    EXPECT_GT(p.error.samples, 0u);
}

TEST(Evaluator, DescribeMentionsConfig) {
    const DesignPoint p = evaluate_point({6, 3}, [] {
        EvalOptions o;
        o.evaluate_hardware = false;
        return o;
    }());
    EXPECT_NE(p.describe().find("6x6"), std::string::npos);
    EXPECT_NE(p.describe().find("d3"), std::string::npos);
}

// ------------------------------------------------ function-group fan-out ----

/// Every sweep point equals its own evaluate_point bit for bit, and every
/// scheme sibling carries exactly its group's error metrics.
void expect_matches_point_evaluation(const std::vector<DesignPoint>& points,
                                     const EvalOptions& opts) {
    for (size_t i = 0; i < points.size(); ++i) {
        const DesignPoint single = evaluate_point(points[i].config, opts);
        EXPECT_TRUE(points[i].error == single.error) << points[i].describe();
        EXPECT_TRUE(points[i].hw == single.hw) << points[i].describe();
        if (i > 0 && same_function(points[i - 1].config, points[i].config)) {
            EXPECT_TRUE(points[i].error == points[i - 1].error) << points[i].describe();
        }
    }
}

TEST(FunctionGroups, BoundsFollowSchemeSiblings) {
    const std::vector<MultiplierConfig> configs = SweepSpec::for_width(4).enumerate();
    // accurate + sdlc d2..4 + compensated d2..4, four schemes each.
    const std::vector<size_t> bounds = function_group_bounds(configs, 0, configs.size());
    ASSERT_EQ(bounds.size(), 8u);
    for (size_t g = 0; g + 1 < bounds.size(); ++g) EXPECT_EQ(bounds[g + 1] - bounds[g], 4u);
    // A range cutting groups keeps each cut part as its own group.
    EXPECT_EQ(function_group_bounds(configs, 2, 7), (std::vector<size_t>{2, 4, 7}));
    EXPECT_TRUE(function_group_bounds(configs, 3, 3).empty());

    MultiplierConfig a{8, 1, MultiplierVariant::kAccurate, AccumulationScheme::kRowRipple};
    MultiplierConfig b{8, 5, MultiplierVariant::kAccurate, AccumulationScheme::kDadda};
    EXPECT_TRUE(same_function(a, b));  // accurate ignores depth
    a.variant = b.variant = MultiplierVariant::kSdlc;
    EXPECT_FALSE(same_function(a, b));
}

TEST(Evaluator, EachFunctionEvaluatedOnceAboveTheFixedCutoff) {
    SweepSpec spec = SweepSpec::for_width(12);
    spec.min_depth = 2;
    spec.max_depth = 4;
    EvalOptions opts;
    apply_auto_exhaustive(opts, spec, 2000.0);
    opts.threads = 1;
    SweepStats one_stats;
    const std::vector<DesignPoint> one = evaluate_sweep(spec, opts, &one_stats);
    opts.threads = 4;
    SweepStats four_stats;
    const std::vector<DesignPoint> four = evaluate_sweep(spec, opts, &four_stats);
    ASSERT_EQ(four.size(), 28u);
    expect_identical(one, four);
    expect_matches_point_evaluation(four, opts);
    // accurate + sdlc d2..4 + compensated d2..4.
    EXPECT_EQ(one_stats.error_evals, 7u);
    EXPECT_EQ(four_stats.error_evals, 7u);
}

TEST(Evaluator, SampledSchemeSiblingsDrawTheSameSamples) {
    const SweepSpec spec = SweepSpec::for_width(16);
    EvalOptions opts;
    opts.samples = 4096;
    opts.evaluate_hardware = false;
    opts.threads = 4;
    SweepStats stats;
    const std::vector<DesignPoint> points = evaluate_sweep(spec, opts, &stats);
    ASSERT_EQ(points.size(), 124u);
    EXPECT_EQ(stats.engines.sampled, 124u);
    EXPECT_EQ(stats.error_evals, 31u);
    expect_matches_point_evaluation(points, opts);
}

TEST(Evaluator, ShardRangeCuttingFunctionGroupsMatchesFullSweep) {
    const SweepSpec spec = SweepSpec::for_width(12);
    EvalOptions opts;
    opts.samples = 4096;
    opts.threads = 4;
    const std::vector<DesignPoint> full = evaluate_sweep(spec, opts);
    opts.shard_lo = 2;  // mid-way through the accurate group ...
    opts.shard_hi = 7;  // ... to mid-way through sdlc d2
    SweepStats stats;
    const std::vector<DesignPoint> slice = evaluate_sweep(spec, opts, &stats);
    ASSERT_EQ(slice.size(), 5u);
    for (size_t i = 0; i < slice.size(); ++i) {
        EXPECT_TRUE(slice[i].error == full[2 + i].error) << i;
        EXPECT_TRUE(slice[i].hw == full[2 + i].hw) << i;
    }
    EXPECT_EQ(stats.error_evals, 2u);
}

TEST(Evaluator, OneFunctionSweepIdenticalAcrossThreadCounts) {
    // One group: the sweep hands its pool to the exhaustive shard grid.
    SweepSpec spec;
    spec.widths = {12};
    spec.variants = {MultiplierVariant::kSdlc};
    spec.min_depth = 3;
    spec.max_depth = 3;
    EvalOptions opts;
    opts.exhaustive_max_width = 12;
    opts.threads = 1;
    SweepStats one_stats;
    const std::vector<DesignPoint> one = evaluate_sweep(spec, opts, &one_stats);
    opts.threads = 4;
    const std::vector<DesignPoint> four = evaluate_sweep(spec, opts);
    ASSERT_EQ(one.size(), 4u);
    expect_identical(one, four);
    for (size_t i = 0; i < four.size(); ++i) EXPECT_TRUE(one[i].error == four[i].error) << i;
    EXPECT_EQ(one_stats.error_evals, 1u);
    EXPECT_EQ(one_stats.engines.sliced, 4u);
}

TEST(Evaluator, TracesOneErrorEvalPerFunction) {
    obs::SpanRecorder recorder("client", 1);
    EvalOptions opts;
    opts.threads = 4;
    opts.recorder = &recorder;
    opts.trace.valid = true;
    (void)evaluate_sweep(SweepSpec::for_width(4), opts);
    std::set<uint64_t> kernel_spans;
    std::vector<obs::Span> error_spans;
    for (obs::Span& span : recorder.take()) {
        if (span.name == "kernel_eval") kernel_spans.insert(span.span_id);
        if (span.name == "error_eval") error_spans.push_back(std::move(span));
    }
    EXPECT_EQ(kernel_spans.size(), 28u);
    ASSERT_EQ(error_spans.size(), 7u);  // one per distinct function
    for (const obs::Span& span : error_spans) {
        EXPECT_EQ(kernel_spans.count(span.parent_id), 1u);
        ASSERT_EQ(span.args.size(), 2u);
        EXPECT_EQ(span.args[0].first, "engine");
        EXPECT_EQ(span.args[1], (std::pair<std::string, std::string>{"pairs", "256"}));
    }
}

// ---------------------------------------------------------------- export ----

std::vector<DesignPoint> export_fixture() {
    SweepSpec spec = SweepSpec::for_width(4);
    spec.variants = {MultiplierVariant::kAccurate, MultiplierVariant::kSdlc};
    spec.schemes = {AccumulationScheme::kRowRipple};
    EvalOptions opts;
    opts.evaluate_hardware = false;
    return evaluate_sweep(spec, opts);
}

TEST(Export, CsvRoundTrip) {
    const std::vector<DesignPoint> points = export_fixture();
    const ParetoResult pareto = pareto_analysis(objective_matrix(points));
    const std::string path = testing::TempDir() + "/dse_test.csv";
    write_dse_csv(path, points, pareto.rank);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    size_t lines = 0;
    while (std::getline(in, line)) ++lines;
    EXPECT_EQ(lines, points.size() + 1);  // header + one row per point
    std::remove(path.c_str());
}

TEST(Export, CsvRowMatchesHeaderWidth) {
    const std::vector<DesignPoint> points = export_fixture();
    EXPECT_EQ(dse_csv_row(points[0], 0).size(), dse_csv_header().size());
    EXPECT_EQ(dse_csv_row(points[0], -1)[4], "");  // unknown rank -> empty cell
}

TEST(Export, JsonContainsConfigAndMetrics) {
    const std::vector<DesignPoint> points = export_fixture();
    const std::string json = dse_to_json(points);
    EXPECT_NE(json.find("\"width\": 4"), std::string::npos);
    EXPECT_NE(json.find("\"variant\": \"accurate\""), std::string::npos);
    EXPECT_NE(json.find("\"nmed\""), std::string::npos);
    EXPECT_NE(json.find("\"rank\": null"), std::string::npos);
    // Array shape: one object per point.
    size_t objects = 0;
    for (size_t pos = 0; (pos = json.find("\"config\"", pos)) != std::string::npos; ++pos) {
        ++objects;
    }
    EXPECT_EQ(objects, points.size());
}

TEST(Export, PointJsonIsSingleLineAndMatchesArrayRows) {
    // The serve protocol embeds dse_point_json in streamed events and the
    // array export embeds it per row; byte-level streaming/export parity
    // depends on both using the same renderer.
    const std::vector<DesignPoint> points = export_fixture();
    const std::string row = dse_point_json(points[0], 2);
    EXPECT_EQ(row.find('\n'), std::string::npos);
    EXPECT_NE(row.find("\"rank\": 2"), std::string::npos);
    EXPECT_NE(dse_to_json(points, std::vector<int>(points.size(), 2)).find(row),
              std::string::npos);
}

TEST(Export, SummaryCarriesObjectiveSet) {
    const std::vector<DesignPoint> points = export_fixture();
    const SweepStats stats;
    EXPECT_NE(dse_to_json(points, {}, stats)
                  .find("\"objectives\": [\"error\", \"area\", \"power\", \"delay\"]"),
              std::string::npos);
    EXPECT_NE(dse_to_json(points, {}, stats, {Objective::kEnergy})
                  .find("\"objectives\": [\"energy\"]"),
              std::string::npos);
}

TEST(Export, RanksSizeMismatchThrows) {
    const std::vector<DesignPoint> points = export_fixture();
    EXPECT_THROW(dse_to_json(points, std::vector<int>{1}), std::invalid_argument);
}

}  // namespace
}  // namespace sdlc
