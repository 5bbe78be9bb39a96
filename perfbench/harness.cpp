// perfbench_harness — the in-process half of the repo benchmark (run.py
// drives it; README.md documents the workloads and metrics).
//
//   perfbench_harness setup    --width W
//   perfbench_harness sweep    --width W --seconds S --trace 0|1 --ref FILE --tmp DIR
//   perfbench_harness cluster  --workers unix:A,unix:B --seconds S --trace 0|1
//                              --ref FILE --tmp DIR
//   perfbench_harness make-ref --width W --out FILE
//
// `setup` does what dse_tool does before its first sweep (resolve the
// exhaustive cutoffs, which calibrates the error engines) and prints one
// line when ready; run.py times it from spawn to that line. `sweep` runs
// the path dse_tool takes at default settings (apply_auto_exhaustive ->
// evaluate_sweep -> pareto_analysis -> JSON export, fresh CostCache per
// sweep) back to back for --seconds, checking every sweep against the
// committed reference. `cluster` runs the same sweep through
// distributed_sweep over already-listening serve replicas. With --trace 1
// both instead run an untraced sweep, a traced one and a second untraced
// one. The traced in-process sweep is decomposed into each layer's public
// calls and timed per layer; the traced distributed sweep collects the
// production spans the replicas return. `make-ref` writes a reference file.
//
// Every mode prints one JSON object as its last stdout line.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <sys/resource.h>

#include "api/approx_multiplier.h"
#include "cluster/coordinator.h"
#include "dse/cost_cache.h"
#include "dse/evaluator.h"
#include "dse/export.h"
#include "dse/pareto.h"
#include "dse/point_wire.h"
#include "dse/remote_cache.h"
#include "dse/sweep.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace {

using namespace sdlc;
using Clock = std::chrono::steady_clock;

/// dse_tool's default --exhaustive-budget-ms.
constexpr double kExhaustiveBudgetMs = 2000.0;

/// Eval threads of each serve replica run.py starts for w12_cluster.
constexpr double kReplicaThreads = 2;

/// Traced-run check: time inside a point task that no layer span covers
/// must stay below this share of threads x wall.
constexpr double kMaxUnattributedShare = 0.02;

double since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Peak RSS of this process image (VmHWM). getrusage's ru_maxrss would also
/// carry the peak of the image before exec, i.e. of the spawning run.py.
double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            double kb = 0;
            status >> kb;
            return kb / 1024.0;
        }
        status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    }
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string num(double v) {
    if (!std::isfinite(v)) return "0";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string num_list(const std::vector<double>& v) {
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i) out += (i != 0 ? ", " : "") + num(v[i]);
    return out + "]";
}

/// Ordered "key": value pairs rendered as one JSON object.
class JsonObject {
public:
    JsonObject& raw(const std::string& key, const std::string& value) {
        fields_.emplace_back(key, value);
        return *this;
    }
    JsonObject& number(const std::string& key, double v) { return raw(key, num(v)); }
    JsonObject& str(const std::string& key, const std::string& v) {
        return raw(key, json_string(v));
    }
    JsonObject& boolean(const std::string& key, bool v) { return raw(key, v ? "true" : "false"); }
    [[nodiscard]] std::string render() const {
        std::string out = "{";
        for (size_t i = 0; i < fields_.size(); ++i) {
            if (i != 0) out += ", ";
            out += json_string(fields_[i].first) + ": " + fields_[i].second;
        }
        return out + "}";
    }

private:
    std::vector<std::pair<std::string, std::string>> fields_;
};

struct Args {
    std::map<std::string, std::string> values;

    Args(int argc, char** argv) {
        for (int i = 2; i + 1 < argc; i += 2) values[argv[i]] = argv[i + 1];
    }
    [[nodiscard]] std::string need(const std::string& key) const {
        const auto it = values.find(key);
        if (it == values.end()) throw std::invalid_argument("missing " + key);
        return it->second;
    }
};

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot read " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

// ------------------------------------------------------------ reference ----

/// A committed reference sweep: every point bit-exact, plus the
/// deterministic cache counts and engine tally of a fresh-cache run.
struct Reference {
    std::vector<DesignPoint> points;
    uint64_t hits = 0;
    uint64_t misses = 0;
    ErrorEngineTally engines;
};

Reference load_reference(const std::string& path) {
    Reference ref;
    std::istringstream in(read_file(path));
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::istringstream fields(line);
        std::string kind;
        fields >> kind;
        if (kind == "hits") fields >> ref.hits;
        else if (kind == "misses") fields >> ref.misses;
        else if (kind == "engines") fields >> ref.engines.sliced >> ref.engines.scalar >> ref.engines.sampled;
        else if (kind == "point") {
            std::string blob;
            std::string error;
            fields >> blob;
            DesignPoint p;
            if (!parse_design_point_bits(blob, p, &error)) {
                throw std::runtime_error(path + ": bad point blob: " + error);
            }
            ref.points.push_back(p);
        }
    }
    if (ref.points.empty()) throw std::runtime_error(path + ": no reference points");
    return ref;
}

bool same_config(const MultiplierConfig& a, const MultiplierConfig& b) {
    return a.width == b.width && a.depth == b.depth && a.variant == b.variant &&
           a.scheme == b.scheme;
}

/// Sampled-metric tolerance: two independent Monte-Carlo estimates of a
/// mean differ by less than kSigmas standard errors of their difference
/// (sqrt(2) x one estimate's SE), with each SE bounded from the
/// reference's own moments: sd(ED) <= rmse, sd(RED) <= max_red, and a
/// rate's SE is binomial. rmse gets a relative bound. The extremes
/// (max_red, max_ed) are not estimable from a sample and are not compared.
/// Measured on the seed's width-16 sweep, the four scheme siblings of each
/// function (independently seeded today) stay within 2.8 SE on MED and
/// 4.1 SE on the error rate, and within 1% on rmse.
constexpr double kSigmas = 6.0;
constexpr double kSampledRelTol = 0.05;

bool sampled_match(const ErrorMetrics& got, const ErrorMetrics& ref, int width) {
    if (got.samples != ref.samples) return false;
    if (ref.error_rate == 0.0) return got == ref;  // exact designs stay exactly zero
    const double k = kSigmas * std::sqrt(2.0 / static_cast<double>(ref.samples));
    const double pmax = std::pow(std::pow(2.0, width) - 1.0, 2.0);
    const double ed_tol = k * ref.rmse;
    const double red_tol = k * ref.max_red;
    const double rate_tol = k * std::sqrt(ref.error_rate * (1.0 - ref.error_rate));
    return std::fabs(got.med - ref.med) <= ed_tol &&
           std::fabs(got.nmed - ref.nmed) <= ed_tol / pmax &&
           std::fabs(got.bias - ref.bias) <= ed_tol &&
           std::fabs(got.mred - ref.mred) <= red_tol &&
           std::fabs(got.error_rate - ref.error_rate) <= rate_tol &&
           std::fabs(got.rmse - ref.rmse) <= kSampledRelTol * ref.rmse;
}

/// Checks one sweep's points against the reference; returns the number of
/// mismatching points and appends the first few to `why`.
size_t check_points(const std::vector<DesignPoint>& got, const Reference& ref, bool exact,
                    std::vector<std::string>& why) {
    if (got.size() != ref.points.size()) {
        why.push_back("point count " + std::to_string(got.size()) + " != reference " +
                      std::to_string(ref.points.size()));
        return std::max(got.size(), ref.points.size());
    }
    size_t bad = 0;
    for (size_t i = 0; i < got.size(); ++i) {
        const DesignPoint& g = got[i];
        const DesignPoint& r = ref.points[i];
        const bool ok = same_config(g.config, r.config) && g.hw == r.hw &&
                        (exact ? g.error == r.error
                               : sampled_match(g.error, r.error, g.config.width));
        if (!ok) {
            ++bad;
            if (why.size() < 4) why.push_back("point " + std::to_string(i) + " (" +
                                              g.describe() + ") differs from reference");
        }
    }
    return bad;
}

/// The export a local fresh-cache sweep writes for the reference points
/// under `opts` (cutoffs and tallies are pure functions of the options).
std::string expected_export(const Reference& ref, const SweepSpec& spec, const EvalOptions& opts) {
    SweepStats stats;
    stats.points = ref.points.size();
    stats.hw_cache_enabled = true;
    stats.hw_cache_hits = ref.hits;
    stats.hw_cache_misses = ref.misses;
    stats.engines = tally_error_engines(spec.enumerate(), opts);
    stats.cutoff_desc = describe_exhaustive_cutoffs(opts);
    const ObjectiveSet objectives = default_objectives();
    const ParetoResult pareto = pareto_analysis(objective_matrix(ref.points, objectives));
    return dse_to_json(ref.points, pareto.rank, stats, objectives);
}

// ---------------------------------------------------------------- setup ----

/// What dse_tool does before its first sweep: resolve the exhaustive
/// cutoffs, which calibrates the error engines once per process.
EvalOptions default_options(const SweepSpec& spec, double* calibrate_s = nullptr) {
    EvalOptions opts;
    const auto t0 = Clock::now();
    apply_auto_exhaustive(opts, spec, kExhaustiveBudgetMs);
    if (calibrate_s != nullptr) *calibrate_s = since(t0);
    return opts;
}

/// One set-up: prints its ready line as soon as the first sweep could
/// begin. run.py times the whole start-up from spawn to this line.
int run_setup_mode(const Args& args) {
    double calibrate_s = 0.0;
    (void)default_options(SweepSpec::for_width(std::stoi(args.need("--width"))), &calibrate_s);
    std::cout << JsonObject().number("calibrate_s", calibrate_s).render() << std::endl;
    return 0;
}

std::string transpose_path() {
#if defined(__x86_64__)
    const bool avx512 = __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
                        __builtin_cpu_supports("avx512vbmi") && __builtin_cpu_supports("gfni");
    return avx512 ? "avx512-gfni" : "scalar";
#else
    return "scalar";
#endif
}

std::string env_json(const SweepSpec& spec, const EvalOptions& opts, const Reference& ref) {
    const ErrorEngineTally t = tally_error_engines(spec.enumerate(), opts);
    const bool tally_ok = t.sliced == ref.engines.sliced && t.scalar == ref.engines.scalar &&
                          t.sampled == ref.engines.sampled;
    const auto tally = [](const ErrorEngineTally& x) {
        return JsonObject()
            .number("sliced", static_cast<double>(x.sliced))
            .number("scalar", static_cast<double>(x.scalar))
            .number("sampled", static_cast<double>(x.sampled))
            .render();
    };
    return JsonObject()
        .number("hardware_threads", std::thread::hardware_concurrency())
        .str("transpose", transpose_path())
        .str("cutoffs", describe_exhaustive_cutoffs(opts))
        .raw("engines", tally(t))
        .raw("reference_engines", tally(ref.engines))
        .boolean("flagged", !tally_ok)
        .render();
}

// ------------------------------------------------------------ one sweep ----

struct SweepRun {
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double pareto_s = 0.0;
    double export_s = 0.0;
    std::vector<DesignPoint> points;
    SweepStats stats;
    serve::ClusterCounters cluster;
};

/// Pareto ranking plus the JSON export dse_tool --json writes.
void finish_sweep(SweepRun& run, const std::string& export_path) {
    const ObjectiveSet objectives = default_objectives();
    const auto t0 = Clock::now();
    const ParetoResult pareto = pareto_analysis(objective_matrix(run.points, objectives));
    run.pareto_s = since(t0);
    const auto t1 = Clock::now();
    write_dse_json(export_path, run.points, pareto.rank, run.stats, objectives);
    run.export_s = since(t1);
}

/// One full sweep on the dse_tool path: fresh CostCache, sweep-local pool,
/// then Pareto + export. With `cluster` set the points come from
/// distributed_sweep instead (fresh warm-key set, so the export summary
/// matches a fresh local run).
SweepRun run_sweep(const SweepSpec& spec, const EvalOptions& base, const std::string& export_path,
                   const cluster::ClusterOptions* cluster = nullptr) {
    SweepRun run;
    const auto t0 = Clock::now();
    const double c0 = process_cpu_s();
    CostCache cache;
    EvalOptions opts = base;
    opts.hw_cache = &cache;
    if (cluster == nullptr) {
        run.points = evaluate_sweep(spec, opts, &run.stats);
    } else {
        std::unordered_set<uint64_t> warm;
        run.points =
            cluster::distributed_sweep(spec, opts, *cluster, &run.stats, &run.cluster, &warm);
    }
    finish_sweep(run, export_path);
    run.cpu_s = process_cpu_s() - c0;
    run.wall_s = since(t0);
    return run;
}

// ----------------------------------------------------- decomposed sweep ----

/// Per-layer self times of one decomposed sweep.
struct LayerTimes {
    double wall_s = 0.0;        ///< parallel evaluation phase
    double busy_s = 0.0;        ///< summed point-task time
    double error_s[3] = {};     ///< error_eval by engine (sliced, scalar, sampled)
    double pairs[3] = {};       ///< operand pairs by engine
    double netlist_s = 0.0;     ///< ApproxMultiplier::build_netlist
    double synth_s = 0.0;       ///< CostCache::get_or_synthesize
    uint64_t synth_calls = 0;   ///< cache misses (synthesis actually ran)
    uint64_t cache_lookups = 0;
    uint64_t cache_hits = 0;
    size_t evals = 0;
    unsigned threads = 0;

    [[nodiscard]] double span_s() const {
        return error_s[0] + error_s[1] + error_s[2] + netlist_s + synth_s;
    }
};

/// evaluate_sweep decomposed into its layers' public calls, on the same
/// pool size and enumeration order: evaluate_point without hardware (the
/// `error_eval` span), build_netlist, then get_or_synthesize (the
/// `synthesize` span). The points must come out bit-equal to
/// evaluate_sweep's.
std::vector<DesignPoint> decomposed_sweep(const SweepSpec& spec, const EvalOptions& opts,
                                          ThreadPool& pool, CostCache& cache, LayerTimes& lt) {
    const std::vector<MultiplierConfig> configs = spec.enumerate();
    std::vector<DesignPoint> points(configs.size());
    struct PointTimes {
        double error = 0, netlist = 0, synth = 0, busy = 0;
    };
    std::vector<PointTimes> times(configs.size());
    EvalOptions error_opts = opts;
    error_opts.evaluate_hardware = false;
    error_opts.hw_cache = nullptr;
    const CostCache::Stats before = cache.stats();
    const auto t0 = Clock::now();
    parallel_for(pool, configs.size(), [&](size_t i) {
        const auto a = Clock::now();
        DesignPoint p = evaluate_point(configs[i], error_opts);
        const auto b = Clock::now();
        const Netlist net = ApproxMultiplier(configs[i]).build_netlist().net;
        const auto c = Clock::now();
        p.hw = cache.get_or_synthesize(net, opts.library, opts.synthesis);
        const auto d = Clock::now();
        points[i] = p;
        times[i] = {std::chrono::duration<double>(b - a).count(),
                    std::chrono::duration<double>(c - b).count(),
                    std::chrono::duration<double>(d - c).count(), since(a)};
    });
    lt.wall_s = since(t0);
    lt.threads = std::min<unsigned>(pool.thread_count(), static_cast<unsigned>(configs.size()));
    for (size_t i = 0; i < configs.size(); ++i) {
        const int e = static_cast<int>(select_error_engine(configs[i], opts));
        lt.error_s[e] += times[i].error;
        lt.pairs[e] += static_cast<double>(points[i].error.samples);
        lt.netlist_s += times[i].netlist;
        lt.synth_s += times[i].synth;
        lt.busy_s += times[i].busy;
    }
    const CostCache::Stats after = cache.stats();
    lt.synth_calls = after.misses - before.misses;
    lt.cache_hits = after.hits - before.hits;
    lt.cache_lookups = lt.synth_calls + lt.cache_hits;
    lt.evals = configs.size();
    return points;
}

/// Per-layer metrics by BENCHMARK.json name. run.py reports 0 for the
/// names a workload does not set (its layer does no work there).
struct LayerMetrics {
    std::map<std::string, double> v;

    void from_layers(const LayerTimes& lt) {
        const auto per = [](double s, double n) { return n > 0 ? s * 1e9 / n : 0.0; };
        v["error.sliced_ns_per_pair"] = per(lt.error_s[0], lt.pairs[0]);
        v["error.scalar_ns_per_pair"] = per(lt.error_s[1], lt.pairs[1]);
        v["error.sampled_ns_per_sample"] = per(lt.error_s[2], lt.pairs[2]);
        v["error.evals"] = static_cast<double>(lt.evals);
        v["error.pairs"] = lt.pairs[0] + lt.pairs[1] + lt.pairs[2];
        v["netlist.build_s"] = lt.netlist_s;
        v["tech.synth_calls"] = static_cast<double>(lt.synth_calls);
        v["tech.synth_s"] = lt.synth_s;
        v["dse.hw_cache_hit_ratio"] =
            lt.cache_lookups > 0 ? static_cast<double>(lt.cache_hits) / lt.cache_lookups : 0.0;
        const double capacity = lt.threads * lt.wall_s;
        v["dse.idle_frac"] = capacity > 0 ? 1.0 - lt.busy_s / capacity : 0.0;
        v["obs.unattributed_share"] = capacity > 0 ? (lt.busy_s - lt.span_s()) / capacity : 0.0;
    }

    [[nodiscard]] std::string render() const {
        JsonObject o;
        for (const auto& [k, x] : v) o.number(k, x);
        return o.render();
    }
};

// ---------------------------------------------------------- sweep modes ----

struct Outcome {
    size_t attempted = 0;
    size_t failed = 0;
    std::vector<std::string> why;

    void record(size_t bad, const std::string& what) {
        ++attempted;
        if (bad != 0) {
            ++failed;
            if (why.size() < 8) why.push_back(what);
        }
    }
};

std::string failures_json(const std::vector<std::string>& why) {
    std::string out = "[";
    for (size_t i = 0; i < why.size(); ++i) out += (i != 0 ? ", " : "") + json_string(why[i]);
    return out + "]";
}

/// Checks one finished sweep: points against the reference and, for exact
/// references, the export bytes against the local fresh-cache export.
size_t check_sweep(const SweepRun& run, const Reference& ref, bool exact,
                   const std::string& want_export, const std::string& export_path,
                   std::vector<std::string>& why) {
    size_t bad = check_points(run.points, ref, exact, why);
    if (run.stats.hw_cache_hits != ref.hits || run.stats.hw_cache_misses != ref.misses) {
        why.push_back("sweep cache counts differ from reference");
        ++bad;
    }
    if (exact && read_file(export_path) != want_export) {
        why.push_back("export bytes differ from the local fresh-cache export");
        ++bad;
    }
    return bad;
}

/// Traced in-process sweep: the decomposition on a pool of the same size,
/// then Pareto and export. Its points must be bit-equal to the untraced
/// `plain` sweep and to the reference, and its layer spans must cover the
/// point tasks. Returns the number of failed checks.
size_t traced_local_sweep(const SweepSpec& spec, const EvalOptions& opts, const SweepRun& plain,
                          const Reference& ref, bool exact, const std::string& export_path,
                          LayerMetrics& lm, double& wall_s, std::vector<std::string>& why) {
    SweepRun run;
    const auto t0 = Clock::now();
    ThreadPool pool(opts.threads);
    CostCache cache;
    LayerTimes lt;
    run.points = decomposed_sweep(spec, opts, pool, cache, lt);
    run.stats = plain.stats;  // deterministic counts; the points are compared below
    finish_sweep(run, export_path);
    wall_s = since(t0);
    lm.from_layers(lt);
    lm.v["dse.pareto_s"] = run.pareto_s;
    lm.v["dse.export_s"] = run.export_s;
    lm.v["dse.export_bytes"] = static_cast<double>(read_file(export_path).size());

    size_t bad = check_points(run.points, ref, exact, why);
    if (run.points.size() != plain.points.size()) ++bad;
    for (size_t i = 0; i < run.points.size() && i < plain.points.size(); ++i) {
        if (run.points[i].error != plain.points[i].error || run.points[i].hw != plain.points[i].hw) {
            ++bad;
        }
    }
    if (lm.v["obs.unattributed_share"] > kMaxUnattributedShare) {
        why.push_back("layer spans leave " + num(lm.v["obs.unattributed_share"]) +
                      " of threads x wall unattributed");
        ++bad;
    }
    return bad;
}

/// Traced distributed sweep: the production spans of the coordinator
/// (shard_dispatch, merge) and of every replica, harvested off the shard
/// done events. Returns the number of failed checks.
size_t traced_cluster_sweep(const SweepSpec& spec, const EvalOptions& base,
                            const cluster::ClusterOptions& cluster, const Reference& ref, const std::string& want_export,
                            const std::string& export_path, LayerMetrics& lm, double& wall_s,
                            std::vector<std::string>& why) {
    obs::SpanRecorder recorder("client", 0x5eed);
    EvalOptions opts = base;
    opts.recorder = &recorder;
    opts.trace.trace_hi = recorder.new_span_id();
    opts.trace.trace_lo = recorder.new_span_id();
    opts.trace.valid = true;
    const SweepRun run = run_sweep(spec, opts, export_path, &cluster);
    wall_s = run.wall_s;
    const size_t bad = check_sweep(run, ref, true, want_export, export_path, why);

    std::map<std::string, double> span_s;
    std::map<std::string, double> span_n;
    for (const obs::Span& span : recorder.take()) {
        span_s[span.name] += span.dur_s;
        span_n[span.name] += 1;
    }
    const auto mean_ms = [&](const char* name) {
        return span_n[name] > 0 ? span_s[name] * 1e3 / span_n[name] : 0.0;
    };
    // The replicas' kernel_eval spans carry no engine and also wrap the
    // netlist build, so no per-engine error time is reported here; error
    // time per engine comes from the in-process sweeps.
    const double eval_threads = static_cast<double>(cluster.workers.size()) * kReplicaThreads;
    double pairs = 0;
    for (const DesignPoint& p : run.points) pairs += static_cast<double>(p.error.samples);
    const uint64_t lookups = run.stats.hw_cache_hits + run.stats.hw_cache_misses;
    double dispatched = 0, retried = 0, busy = 0, busiest = 0;
    for (const serve::ClusterWorkerCounters& w : run.cluster.workers) {
        dispatched += static_cast<double>(w.dispatched);
        retried += static_cast<double>(w.retried);
        busy += w.busy_seconds;
        busiest = std::max(busiest, w.busy_seconds);
    }
    lm.v["error.evals"] = span_n["kernel_eval"];
    lm.v["error.pairs"] = pairs;
    lm.v["tech.synth_calls"] = span_n["synthesize"];
    lm.v["tech.synth_s"] = span_s["synthesize"];
    lm.v["dse.hw_cache_hit_ratio"] =
        lookups > 0 ? static_cast<double>(run.stats.hw_cache_hits) / lookups : 0.0;
    lm.v["dse.idle_frac"] = 1.0 - span_s["kernel_eval"] / (eval_threads * run.wall_s);
    lm.v["dse.pareto_s"] = run.pareto_s;
    lm.v["dse.export_s"] = run.export_s;
    lm.v["dse.export_bytes"] = static_cast<double>(read_file(export_path).size());
    lm.v["serve.queue_wait_ms"] = mean_ms("queue_wait");
    lm.v["serve.parse_ms"] = mean_ms("parse");
    lm.v["serve.serialize_ms"] = mean_ms("serialize");
    lm.v["cluster.shards_dispatched"] = dispatched;
    lm.v["cluster.shards_retried"] = retried;
    lm.v["cluster.worker_busy_s"] = busy;
    // Sweep wall the busiest replica spent with no shard in flight:
    // dispatch gaps, the final merge, Pareto and export in the coordinator.
    lm.v["cluster.merge_wait_s"] = run.wall_s - busiest;
    return bad;
}

int run_sweep_mode(const Args& args, bool clustered) {
    const int width = clustered ? 12 : std::stoi(args.need("--width"));
    const double seconds = std::stod(args.need("--seconds"));
    const bool traced = args.need("--trace") == "1";
    const std::string export_path = args.need("--tmp") + "/export.json";

    const SweepSpec spec = SweepSpec::for_width(width);
    const EvalOptions opts = default_options(spec);
    const Reference ref = load_reference(args.need("--ref"));
    // Exhaustive references are checked bit for bit, sampled ones within
    // their statistical tolerance.
    const bool exact = ref.engines.sampled == 0;
    const std::string want_export = exact ? expected_export(ref, spec, opts) : "";

    cluster::ClusterOptions cluster;
    if (clustered) {
        std::string error;
        if (!parse_cache_peer_list(args.need("--workers"), cluster.workers, &error)) {
            throw std::invalid_argument("--workers: " + error);
        }
    }

    Outcome outcome;
    std::vector<double> walls, cpus;
    double local_shards = 0;
    const auto plain_sweep = [&] {
        SweepRun run = run_sweep(spec, opts, export_path, clustered ? &cluster : nullptr);
        walls.push_back(run.wall_s);
        cpus.push_back(run.cpu_s);
        local_shards += static_cast<double>(run.cluster.local_shards);
        outcome.record(check_sweep(run, ref, exact, want_export, export_path, outcome.why),
                       "sweep " + std::to_string(walls.size()) + " failed its checks");
        return run;
    };

    std::string layers = "{}";
    if (!traced) {
        // Stop once the next sweep, as long as the last one, would end
        // past the measuring window.
        const auto t0 = Clock::now();
        do {
            plain_sweep();
        } while (since(t0) + walls.back() <= seconds);
    } else {
        // Untraced sweeps before and after the traced one: the end-to-end
        // time the overhead is measured against (their mean, so drift and
        // order cancel), and the points the decomposition must equal.
        LayerMetrics lm;
        double traced_wall = 0.0;
        const SweepRun plain = plain_sweep();
        const size_t bad =
            clustered ? traced_cluster_sweep(spec, opts, cluster, ref, want_export, export_path, lm,
                                             traced_wall, outcome.why)
                      : traced_local_sweep(spec, opts, plain, ref, exact, export_path, lm,
                                           traced_wall, outcome.why);
        outcome.record(bad, "traced sweep failed its checks");
        plain_sweep();
        lm.v["obs.trace_overhead_pct"] = 100.0 * (traced_wall / (0.5 * (walls[0] + walls[1])) - 1.0);
        layers = lm.render();
    }

    std::cout << JsonObject()
                     .raw("env", env_json(spec, opts, ref))
                     .raw("sweep_s", num_list(walls))
                     .raw("cpu_s", num_list(cpus))
                     .number("rss_mb", peak_rss_mb())
                     .number("local_shards", local_shards)
                     .number("attempted", static_cast<double>(outcome.attempted))
                     .number("failed", static_cast<double>(outcome.failed))
                     .raw("failures", failures_json(outcome.why))
                     .raw("layers", layers)
                     .render()
              << std::endl;
    return 0;
}

// ------------------------------------------------------------- make-ref ----

/// Writes a reference file for the default sweep of one width. Exhaustive
/// points are evaluated by both the bit-sliced and the scalar engine and
/// must agree bit for bit before anything is written.
int run_make_ref(const Args& args) {
    const int width = std::stoi(args.need("--width"));
    const SweepSpec spec = SweepSpec::for_width(width);
    EvalOptions opts = default_options(spec);
    CostCache cache;
    opts.hw_cache = &cache;
    SweepStats stats;
    const std::vector<DesignPoint> points = evaluate_sweep(spec, opts, &stats);
    EvalOptions scalar = opts;
    scalar.use_sliced = false;
    scalar.hw_cache = nullptr;
    const std::vector<DesignPoint> check = evaluate_sweep(spec, scalar);
    for (size_t i = 0; i < points.size(); ++i) {
        if (points[i].error != check[i].error || points[i].hw != check[i].hw) {
            std::cerr << "make-ref: engines disagree on " << points[i].describe() << "\n";
            return 1;
        }
    }
    std::ofstream out(args.need("--out"), std::ios::binary | std::ios::trunc);
    out << "# perfbench reference: default width-" << width
        << " sweep, default EvalOptions, fresh CostCache\n"
        << "# cutoffs " << stats.cutoff_desc << "\n"
        << "hits " << stats.hw_cache_hits << "\n"
        << "misses " << stats.hw_cache_misses << "\n"
        << "engines " << stats.engines.sliced << ' ' << stats.engines.scalar << ' '
        << stats.engines.sampled << "\n";
    for (const DesignPoint& p : points) {
        out << "point " << design_point_bits(p) << " # " << p.describe() << "\n";
    }
    if (!out.flush()) return 1;
    std::cout << JsonObject().number("points", static_cast<double>(points.size())).render()
              << std::endl;
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        std::cerr << "usage: perfbench_harness setup|sweep|cluster|make-ref [--key value ...]\n";
        return 2;
    }
    try {
        const std::string mode = argv[1];
        const Args args(argc, argv);
        if (mode == "sweep") return run_sweep_mode(args, false);
        if (mode == "cluster") return run_sweep_mode(args, true);
        if (mode == "setup") return run_setup_mode(args);
        if (mode == "make-ref") return run_make_ref(args);
        std::cerr << "unknown mode " << mode << "\n";
        return 2;
    } catch (const std::exception& e) {
        std::cerr << "perfbench_harness: " << e.what() << "\n";
        return 1;
    }
}
