#include "cluster/coordinator.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <optional>
#include <stdexcept>
#include <thread>

#include "api/approx_multiplier.h"
#include "cluster/shard_plan.h"
#include "dse/cost_cache.h"
#include "dse/point_wire.h"
#include "dse/remote_cache.h"
#include "dse/shard_merge.h"
#include "dse/thread_pool.h"
#include "obs/trace.h"
#include "serve/socket.h"
#include "util/json_parse.h"

namespace sdlc::cluster {

namespace {

using Clock = std::chrono::steady_clock;

/// Poll granularity while waiting on a worker: bounds how long a cancel or
/// deadline can go unnoticed mid-shard.
constexpr int kTickMs = 200;

/// Hard cap on one buffered event line from a worker. Point events with
/// bits run ~700 bytes; anything near this cap is a protocol violation.
constexpr size_t kMaxEventBytes = size_t{1} << 20;

int connect_worker(const CachePeerAddress& addr, int timeout_ms) {
    try {
        return addr.is_unix
                   ? serve::unix_socket_connect(addr.path_or_host, timeout_ms)
                   : serve::tcp_connect(addr.path_or_host.empty() ? "127.0.0.1"
                                                                  : addr.path_or_host,
                                        addr.port, timeout_ms);
    } catch (const std::exception&) {
        return -1;
    }
}

/// One coordinator->worker connection with a buffered, abort-aware line
/// reader. Reads tick at kTickMs so the owning thread notices an abort
/// promptly, and give up after `silence_ms` without a single byte — the
/// slow-worker detector (a worker streaming points is never "silent").
struct WorkerLink {
    int fd = -1;
    std::string buffer;
    size_t scanned = 0;       ///< prefix of buffer already known newline-free
    uint64_t received = 0;    ///< raw bytes read, for the per-worker counter

    ~WorkerLink() { close_link(); }

    void close_link() {
        if (fd >= 0) ::close(fd);
        fd = -1;
        buffer.clear();
        scanned = 0;
    }

    enum class Read { kLine, kFailed, kAborted };

    template <typename AbortFn>
    Read next_line(std::string& line, int silence_ms, const AbortFn& aborted) {
        Clock::time_point last_data = Clock::now();
        for (;;) {
            const size_t nl = buffer.find('\n', scanned);
            if (nl != std::string::npos) {
                line.assign(buffer, 0, nl);
                buffer.erase(0, nl + 1);
                scanned = 0;
                return Read::kLine;
            }
            scanned = buffer.size();
            if (buffer.size() > kMaxEventBytes) return Read::kFailed;
            if (aborted()) return Read::kAborted;
            if (silence_ms > 0 &&
                Clock::now() - last_data >= std::chrono::milliseconds(silence_ms)) {
                return Read::kFailed;
            }
            pollfd p{fd, POLLIN, 0};
            const int r = ::poll(&p, 1, kTickMs);
            if (r < 0) {
                if (errno == EINTR) continue;
                return Read::kFailed;
            }
            if (r == 0) continue;
            char chunk[16384];
            const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
            if (n <= 0) return Read::kFailed;
            buffer.append(chunk, static_cast<size_t>(n));
            received += static_cast<uint64_t>(n);
            last_data = Clock::now();
        }
    }
};

}  // namespace

RetryPolicy ClusterOptions::shard_policy() const noexcept {
    RetryPolicy policy;
    // shard_retries counts re-dispatches after the first failure, so the
    // total attempt budget is one higher; exhausted(failures) then flips
    // exactly where the historical `failures > shard_retries` check did.
    policy.max_attempts = shard_retries < 0 ? 1 : shard_retries + 1;
    policy.base_delay_ms = shard_backoff_ms;
    policy.max_delay_ms = shard_backoff_ms > 0 ? int64_t{shard_backoff_ms} * 8 : 0;
    policy.multiplier = 2.0;
    policy.jitter = 0.25;
    policy.seed = RetryPolicy::seed_from("cluster-shard");
    return policy;
}

std::vector<DesignPoint> distributed_sweep(const SweepSpec& spec, const EvalOptions& eval,
                                           const ClusterOptions& opts, SweepStats* stats,
                                           serve::ClusterCounters* counters,
                                           std::unordered_set<uint64_t>* warm_keys) {
    const Clock::time_point t0 = Clock::now();
    if (opts.workers.empty()) {
        throw std::invalid_argument("cluster: at least one worker is required");
    }
    if (opts.shards == 0) throw std::invalid_argument("cluster: shard count must be >= 1");

    std::vector<CachePeerAddress> addresses(opts.workers.size());
    for (size_t i = 0; i < opts.workers.size(); ++i) {
        std::string err;
        if (!parse_cache_peer(opts.workers[i], addresses[i], &err)) {
            throw std::invalid_argument("cluster: bad worker spec \"" + opts.workers[i] +
                                        "\": " + err);
        }
    }

    const std::vector<MultiplierConfig> configs = spec.enumerate();  // validates the spec
    size_t lo = 0;
    size_t hi = configs.size();
    if (eval.shard_lo != 0 || eval.shard_hi != 0) {
        if (eval.shard_lo >= eval.shard_hi || eval.shard_hi > configs.size()) {
            throw std::invalid_argument(
                "sweep shard range [" + std::to_string(eval.shard_lo) + ", " +
                std::to_string(eval.shard_hi) + ") is invalid for " +
                std::to_string(configs.size()) + " points");
        }
        lo = eval.shard_lo;
        hi = eval.shard_hi;
    }

    // Fleet-warm key set *before* this sweep runs: the caller-tracked keys
    // plus whatever the resident cache already holds. Snapshotted now so a
    // local fallback filling the cache mid-sweep cannot skew the replay.
    CostCache* const cache = eval.use_hw_cache ? eval.hw_cache : nullptr;
    std::unordered_set<uint64_t> warm;
    const bool want_cache_stats = stats != nullptr && eval.use_hw_cache && eval.evaluate_hardware;
    if (want_cache_stats) {
        if (warm_keys != nullptr) warm = *warm_keys;
        if (cache != nullptr) {
            for (const uint64_t k : cache->keys()) warm.insert(k);
        }
    }

    // Cut on function-group boundaries: a function never spans two
    // replicas, so each evaluates every function it holds exactly once.
    const std::vector<IndexRange> plan =
        plan_group_shards(function_group_bounds(configs, lo, hi), opts.shards);

    serve::ClusterCounters run_counters;
    run_counters.enabled = true;
    run_counters.shards = opts.shards;
    run_counters.sweeps = 1;
    run_counters.workers.resize(opts.workers.size());
    for (size_t i = 0; i < opts.workers.size(); ++i) {
        run_counters.workers[i].spec = opts.workers[i];
    }

    ShardMerger merger(lo, hi, eval.on_point);

    // Shard re-dispatch schedule: exhaustion (run locally) and backoff
    // delays come from the shared RetryPolicy vocabulary. With the default
    // shard_backoff_ms of 0 every requeue is immediate.
    const RetryPolicy retry = opts.shard_policy();

    // Shared dispatch state. `queue` holds plan indices awaiting a worker;
    // a shard leaves it either remotely completed or demoted to `local`.
    struct Dispatch {
        std::mutex m;
        std::condition_variable cv;
        std::deque<size_t> queue;
        std::vector<size_t> local;   ///< shards the coordinator runs itself
        std::vector<int> failures;   ///< per-shard failed remote attempts
        /// Earliest re-dispatch time per shard (RetryPolicy backoff); a
        /// queued shard before its time is skipped, not dropped.
        std::vector<Clock::time_point> ready;
        size_t in_flight = 0;
        size_t live = 0;
        bool abort = false;
        bool cancel_hit = false;
        bool deadline_hit = false;
    } d;
    for (size_t i = 0; i < plan.size(); ++i) d.queue.push_back(i);
    d.failures.assign(plan.size(), 0);
    d.ready.assign(plan.size(), Clock::time_point{});
    d.live = opts.workers.size();

    const bool has_deadline = eval.deadline != Clock::time_point{};
    const auto aborted = [&d] {
        std::lock_guard<std::mutex> lock(d.m);
        return d.abort;
    };

    // Traced sweeps record shard_dispatch/shard_retry_backoff/merge spans
    // here and harvest worker-side spans off shard done events; untraced
    // sweeps pay one null check per site. rec is thread-safe (sharded) and
    // outlives the dispatch threads, which join before we return.
    obs::SpanRecorder* const rec = eval.trace.valid ? eval.recorder : nullptr;

    // The sub-request every shard derives from: same sweep, same
    // serializable eval knobs, bit-exact streamed points, no export.
    serve::SweepRequest proto;
    proto.spec = spec;
    proto.eval.seed = eval.seed;
    proto.eval.samples = eval.samples;
    proto.eval.exhaustive_max_width = eval.exhaustive_max_width;
    proto.eval.distribution = eval.distribution;
    proto.eval.evaluate_hardware = eval.evaluate_hardware;
    proto.eval.use_hw_cache = eval.use_hw_cache;
    proto.eval.use_sliced = eval.use_sliced;
    // The wire always carries resolved per-path cutoffs, so every replica
    // runs the coordinator's engine per point. All-zero widths mean
    // "unpinned" on the wire and a replica would resolve them from its own
    // calibration; an unpinned coordinator therefore sends its fixed
    // cutoff on every path, which selects exactly the engines it would. A
    // non-positive fixed cutoff travels as -1: still pinned, and like 0 it
    // falls back to exhaustive_max_width in select_error_engine.
    const bool unpinned = eval.exhaustive_width_accurate == 0 && eval.exhaustive_width_fast2 == 0 &&
                          eval.exhaustive_width_planned == 0 && eval.exhaustive_width_sliced == 0;
    const int fixed_cutoff = eval.exhaustive_max_width > 0 ? eval.exhaustive_max_width : -1;
    const auto resolved = [&](int per_path) { return unpinned ? fixed_cutoff : per_path; };
    proto.eval.exhaustive_width_accurate = resolved(eval.exhaustive_width_accurate);
    proto.eval.exhaustive_width_fast2 = resolved(eval.exhaustive_width_fast2);
    proto.eval.exhaustive_width_planned = resolved(eval.exhaustive_width_planned);
    proto.eval.exhaustive_width_sliced = resolved(eval.exhaustive_width_sliced);
    proto.stream_points = true;
    proto.export_json = false;
    proto.point_bits = true;

    // Runs one shard request over an established link. True only for a
    // clean protocol run: accepted, every point of the range in order with
    // parseable bits, done ok. Anything else fails the attempt (and the
    // worker): a half-streamed shard is harmless because the merger takes
    // the first write per index and a retry re-sends the same bytes.
    const auto run_shard = [&](WorkerLink& link, size_t shard_index,
                               const obs::TraceContext& shard_trace) -> WorkerLink::Read {
        const IndexRange range = plan[shard_index];
        serve::SweepRequest req = proto;
        req.id = "s" + std::to_string(shard_index);
        req.shard_lo = range.lo;
        req.shard_hi = range.hi;
        req.trace = shard_trace;
        if (has_deadline) {
            const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
                                       eval.deadline - Clock::now())
                                       .count();
            if (remaining <= 0) return WorkerLink::Read::kAborted;
            req.deadline_ms = static_cast<uint64_t>(remaining);
        }
        if (!serve::write_all(link.fd, serve::sweep_request_json(req) + "\n")) {
            return WorkerLink::Read::kFailed;
        }
        size_t expected = range.lo;
        std::string line;
        for (;;) {
            const WorkerLink::Read r = link.next_line(line, opts.shard_timeout_ms, aborted);
            if (r != WorkerLink::Read::kLine) return r;
            JsonValue event;
            if (!json_parse(line, event) || !event.is_object()) return WorkerLink::Read::kFailed;
            const JsonValue* id = event.find("id");
            const JsonValue* kind = event.find("event");
            if (id == nullptr || !id->is_string() || id->string != req.id ||
                kind == nullptr || !kind->is_string()) {
                return WorkerLink::Read::kFailed;
            }
            if (kind->string == "point") {
                const JsonValue* index = event.find("index");
                const JsonValue* bits = event.find("bits");
                if (index == nullptr || !index->is_number() || bits == nullptr ||
                    !bits->is_string()) {
                    return WorkerLink::Read::kFailed;
                }
                // Strict in-order delivery: the worker streams global
                // indices in enumeration order, so anything else is a
                // corrupt stream, and `expected` alone proves completeness.
                if (index->number != static_cast<double>(expected) || expected >= range.hi) {
                    return WorkerLink::Read::kFailed;
                }
                DesignPoint point;
                if (!parse_design_point_bits(bits->string, point)) {
                    return WorkerLink::Read::kFailed;
                }
                merger.add(expected, point);
                ++expected;
            } else if (kind->string == "done") {
                const JsonValue* ok = event.find("ok");
                const bool clean = ok != nullptr && ok->is_bool() && ok->boolean &&
                                   expected == range.hi;
                if (clean && rec != nullptr) {
                    // Harvest the worker's spans off its done event. A
                    // worker runs the plain serve stack, so its own spans
                    // say "serve"; relabel those as "worker" (cache-daemon
                    // spans it forwarded keep their tier).
                    const JsonValue* spans = event.find("spans");
                    std::vector<obs::Span> harvested;
                    if (spans != nullptr && obs::parse_spans_wire(*spans, harvested)) {
                        for (obs::Span& span : harvested) {
                            if (span.tier == "serve") span.tier = "worker";
                            rec->record(std::move(span));
                        }
                    }
                }
                return clean ? WorkerLink::Read::kLine : WorkerLink::Read::kFailed;
            }
            // accepted / summary / error are part of a normal stream; error
            // outcomes surface through done ok=false.
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(opts.workers.size());
    for (size_t wi = 0; wi < opts.workers.size(); ++wi) {
        threads.emplace_back([&, wi] {
            WorkerLink link;
            serve::ClusterWorkerCounters& wc = run_counters.workers[wi];
            bool dead = false;
            while (!dead) {
                size_t shard_index = 0;
                {
                    std::unique_lock<std::mutex> lock(d.m);
                    bool claimed = false;
                    while (!claimed) {
                        d.cv.wait(lock, [&d] {
                            return d.abort || !d.queue.empty() || d.in_flight == 0;
                        });
                        if (d.abort || d.queue.empty()) break;
                        // Claim the first shard whose backoff has elapsed;
                        // if every queued shard is still cooling down, sleep
                        // until the earliest becomes eligible.
                        const Clock::time_point now = Clock::now();
                        Clock::time_point earliest = Clock::time_point::max();
                        for (size_t qi = 0; qi < d.queue.size(); ++qi) {
                            const size_t candidate = d.queue[qi];
                            if (d.ready[candidate] <= now) {
                                shard_index = candidate;
                                d.queue.erase(d.queue.begin() +
                                              static_cast<std::ptrdiff_t>(qi));
                                ++d.in_flight;
                                claimed = true;
                                break;
                            }
                            earliest = std::min(earliest, d.ready[candidate]);
                        }
                        if (!claimed) {
                            obs::ScopedSpan backoff_span(rec, eval.trace,
                                                         "shard_retry_backoff");
                            d.cv.wait_until(lock, earliest);
                        }
                    }
                    if (!claimed) break;
                }
                bool dispatched = false;
                WorkerLink::Read outcome = WorkerLink::Read::kFailed;
                const Clock::time_point s0 = Clock::now();
                if (link.fd < 0) link.fd = connect_worker(addresses[wi], opts.connect_timeout_ms);
                if (link.fd >= 0) {
                    dispatched = true;
                    obs::ScopedSpan dispatch_span(rec, eval.trace, "shard_dispatch");
                    outcome = run_shard(link, shard_index, dispatch_span.context());
                }
                const double busy =
                    std::chrono::duration<double>(Clock::now() - s0).count();
                {
                    std::lock_guard<std::mutex> lock(d.m);
                    --d.in_flight;
                    if (dispatched) ++wc.dispatched;
                    wc.busy_seconds += busy;
                    wc.bytes = link.received;
                    if (outcome == WorkerLink::Read::kLine) {
                        ++wc.completed;
                    } else if (outcome == WorkerLink::Read::kAborted) {
                        // Cancel/deadline mid-shard: hand the shard back
                        // uncharged so the supervise loop still sees it
                        // outstanding and reports the right abort cause.
                        d.queue.push_back(shard_index);
                        dead = true;
                    } else {
                        // This worker is out for the rest of the sweep. The
                        // shard goes back to the surviving peers unless it
                        // has exhausted its remote attempt budget.
                        if (dispatched) ++wc.retried;
                        const int failures = ++d.failures[shard_index];
                        if (retry.exhausted(failures)) {
                            d.local.push_back(shard_index);
                        } else {
                            RetryPolicy per_shard = retry;
                            per_shard.seed += shard_index;  // desync shards
                            d.ready[shard_index] =
                                Clock::now() +
                                std::chrono::milliseconds(per_shard.delay_ms(failures));
                            d.queue.push_back(shard_index);
                        }
                        dead = true;
                    }
                }
                if (dead) link.close_link();
                d.cv.notify_all();
            }
            std::lock_guard<std::mutex> lock(d.m);
            {
                serve::ClusterWorkerCounters& w = run_counters.workers[wi];
                w.bytes = link.received;
            }
            if (--d.live == 0 && !d.abort) {
                // Last worker gone: everything still queued runs locally.
                while (!d.queue.empty()) {
                    d.local.push_back(d.queue.front());
                    d.queue.pop_front();
                }
            }
            d.cv.notify_all();
        });
    }

    // Supervise: watch for cancel/deadline while the fleet drains the queue.
    {
        std::unique_lock<std::mutex> lock(d.m);
        for (;;) {
            if (d.abort) break;
            if (d.queue.empty() && d.in_flight == 0) break;
            if (eval.cancel != nullptr && eval.cancel->load(std::memory_order_relaxed)) {
                d.abort = true;
                d.cancel_hit = true;
                break;
            }
            if (has_deadline && Clock::now() >= eval.deadline) {
                d.abort = true;
                d.deadline_hit = true;
                break;
            }
            d.cv.wait_for(lock, std::chrono::milliseconds(50));
        }
        d.cv.notify_all();
    }
    for (std::thread& t : threads) t.join();

    const auto publish_counters = [&] {
        run_counters.local_shards = d.local.size();
        if (counters != nullptr) *counters = run_counters;
    };
    if (d.cancel_hit) {
        publish_counters();
        throw SweepCancelled();
    }
    if (d.deadline_hit) {
        publish_counters();
        throw SweepDeadlineExceeded();
    }

    // Local fallback, ascending so the merger keeps streaming a contiguous
    // prefix. Runs through the same evaluate_sweep as any worker — same
    // bytes no matter who computes a point — on the caller's pool and the
    // resident cache, honoring cancel/deadline like the dispatch did.
    std::sort(d.local.begin(), d.local.end());
    std::optional<ThreadPool> fallback_pool;
    ThreadPool* pool = eval.pool;
    if (pool == nullptr && (!d.local.empty() || want_cache_stats)) {
        fallback_pool.emplace(eval.threads);
        pool = &*fallback_pool;
    }
    size_t local_error_evals = 0;
    for (const size_t shard_index : d.local) {
        EvalOptions local = eval;
        local.pool = pool;
        local.shard_lo = plan[shard_index].lo;
        local.shard_hi = plan[shard_index].hi;
        local.on_point = [&merger](size_t index, const DesignPoint& point) {
            merger.add(index, point);
        };
        try {
            SweepStats local_stats;
            (void)evaluate_sweep(spec, local, &local_stats);
            local_error_evals += local_stats.error_evals;
        } catch (...) {
            publish_counters();
            throw;
        }
    }
    publish_counters();

    // The merger did its interleaving work while shards streamed; this span
    // covers the final completeness check and hand-off.
    obs::ScopedSpan merge_span(rec, eval.trace, "merge");
    if (!merger.complete()) {
        // Unreachable by construction (every shard completes remotely or
        // locally); a violation must fail loudly, not export short.
        throw std::runtime_error("cluster: merged sweep is missing points");
    }
    merge_span.stop();

    if (stats != nullptr) {
        *stats = SweepStats{};
        stats->points = hi - lo;
        stats->error_evals = local_error_evals;
        stats->hw_cache_enabled = eval.use_hw_cache;
        // Engine tallies are a pure replay of select_error_engine over the
        // shard range with the wire-level options, so the coordinator's
        // summary matches what a single node evaluating the same range
        // would report — byte-identical exports either way.
        stats->engines = tally_error_engines(
            std::vector<MultiplierConfig>(configs.begin() + static_cast<ptrdiff_t>(lo),
                                          configs.begin() + static_cast<ptrdiff_t>(hi)),
            eval);
        stats->cutoff_desc = describe_exhaustive_cutoffs(eval);
        if (want_cache_stats) {
            // Deterministic cache counters, fleet edition: replay the
            // shard range's content keys in enumeration order against the
            // pre-sweep fleet-warm set — exactly what a single-node run
            // with a cache holding `warm` would have counted.
            std::vector<uint64_t> keys(hi - lo, 0);
            parallel_for(*pool, hi - lo, [&](size_t i) {
                const Netlist net = ApproxMultiplier(configs[lo + i]).build_netlist().net;
                keys[i] = CostCache::content_key(net, eval.library, eval.synthesis);
            });
            std::unordered_set<uint64_t> seen;
            for (const uint64_t key : keys) {
                if (warm.count(key) != 0 || !seen.insert(key).second) {
                    ++stats->hw_cache_hits;
                } else {
                    ++stats->hw_cache_misses;
                }
            }
            if (warm_keys != nullptr) {
                for (const uint64_t key : keys) warm_keys->insert(key);
            }
        }
        stats->wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    }
    return merger.take();
}

CoordinatorService::CoordinatorService(const serve::ServiceOptions& opts, ClusterOptions cluster)
    : SweepService(opts), cluster_(std::move(cluster)) {
    if (cluster_.workers.empty()) {
        throw std::invalid_argument("cluster: at least one worker is required");
    }
    if (cluster_.shards == 0) throw std::invalid_argument("cluster: shard count must be >= 1");
    for (const std::string& spec : cluster_.workers) {
        CachePeerAddress addr;
        std::string err;
        if (!parse_cache_peer(spec, addr, &err)) {
            throw std::invalid_argument("cluster: bad worker spec \"" + spec + "\": " + err);
        }
    }
    totals_.enabled = true;
    totals_.shards = cluster_.shards;
    totals_.workers.resize(cluster_.workers.size());
    for (size_t i = 0; i < cluster_.workers.size(); ++i) {
        totals_.workers[i].spec = cluster_.workers[i];
    }
}

CoordinatorService::~CoordinatorService() { shutdown(); }

serve::ServiceStats CoordinatorService::stats() const {
    serve::ServiceStats out = SweepService::stats();
    std::lock_guard<std::mutex> lock(cluster_mutex_);
    out.cluster = totals_;
    return out;
}

std::vector<DesignPoint> CoordinatorService::evaluate(const serve::SweepRequest& request,
                                                      EvalOptions& eval, SweepStats& stats) {
    serve::ClusterCounters delta;
    std::unordered_set<uint64_t> warm;
    {
        std::lock_guard<std::mutex> lock(cluster_mutex_);
        warm = fleet_keys_;
    }
    const auto merge = [&] {
        std::lock_guard<std::mutex> lock(cluster_mutex_);
        totals_.add(delta);
        fleet_keys_.insert(warm.begin(), warm.end());
    };
    try {
        std::vector<DesignPoint> points =
            distributed_sweep(request.spec, eval, cluster_, &stats, &delta, &warm);
        merge();
        return points;
    } catch (...) {
        merge();  // dispatch/retry counts of a failed sweep stay visible
        throw;
    }
}

}  // namespace sdlc::cluster
