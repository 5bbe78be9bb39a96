// Exhaustive and Monte-Carlo error evaluation engines.
//
// Both take the approximate multiplier as an inlineable callable
// `uint64_t f(uint64_t a, uint64_t b)` so that exhaustive sweeps (2^32
// operand pairs at 16-bit) run at bit-trick speed — pass a
// core/kernels.h MultiplyKernel (or a stateless kernel from the registry)
// rather than a virtual ApproxMultiplier wrapper. The exhaustive engine
// splits the operand space into a fixed grid of shards and distributes the
// shards across workers; because each shard accumulates the same pairs in
// the same order and shards merge in index order, the result is
// bit-identical for every worker count (and every machine's core count).
//
// Threading contract: by default (max_threads == 0, no pool) the shards run
// inline on the calling thread. A caller that owns a ThreadPool passes it
// to spread shards over existing workers; only an explicit max_threads > 1
// spawns dedicated threads. (The engine used to default to
// hardware_concurrency() raw std::threads on every call, which
// oversubscribed N*M threads when invoked from resident pool workers.)
//
// Both engines hand their pairs to ErrorAccumulator::add_block in chunks
// of kPairChunk, in visit order, so the metrics are bit-identical to adding
// each pair on its own. In the exhaustive engine the exact product a*b
// advances by adding `a` as `b` steps through a chunk, re-seeded from one
// true multiply per chunk.
#ifndef SDLC_ERROR_EVALUATE_H
#define SDLC_ERROR_EVALUATE_H

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "error/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sdlc {
namespace detail {

/// Runs `run_shard(s)` for every shard in [0, shards). Inline when no
/// parallelism was requested, over `pool` when one is provided, and on
/// dedicated threads only for an explicit max_threads > 1. Shard results
/// must be accumulated into per-shard state so the caller's merge order —
/// not the scheduling — decides the result.
template <typename RunShard>
void run_sharded(unsigned shards, unsigned max_threads, ThreadPool* pool,
                 RunShard&& run_shard) {
    if (pool != nullptr) {
        parallel_for(*pool, shards, [&](size_t s) { run_shard(static_cast<unsigned>(s)); });
        return;
    }
    const unsigned threads = std::min(max_threads, shards);
    if (threads <= 1) {
        for (unsigned s = 0; s < shards; ++s) run_shard(s);
        return;
    }
    std::atomic<unsigned> next{0};
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&] {
            for (unsigned s = next.fetch_add(1); s < shards; s = next.fetch_add(1)) {
                run_shard(s);
            }
        });
    }
    for (auto& th : workers) th.join();
}

}  // namespace detail

/// Pairs per ErrorAccumulator::add_block call in every error engine.
inline constexpr unsigned kPairChunk = 64;

/// Fixed shard-grid size of the exhaustive engines. The shard count (not
/// the worker count) decides the floating-point accumulation order, so the
/// result never depends on how many workers ran.
inline constexpr unsigned kExhaustiveShards = 64;

/// Evaluates `approx(a,b)` for every operand pair of the given width
/// (width <= 16 recommended: 2^(2*width) pairs) and returns the metrics.
/// Runs inline by default; pass a pool to shard over existing workers, or
/// an explicit max_threads > 1 to spawn dedicated threads.
template <typename ApproxFn>
[[nodiscard]] ErrorMetrics exhaustive_metrics(int width, ApproxFn approx,
                                              unsigned max_threads = 0,
                                              ThreadPool* pool = nullptr) {
    const uint64_t side = uint64_t{1} << width;
    // Shard by operand stripes a ≡ s (mod shards).
    const unsigned shards =
        static_cast<unsigned>(std::min<uint64_t>(kExhaustiveShards, side));
    std::vector<ErrorAccumulator> accs(shards, ErrorAccumulator(width));
    detail::run_sharded(shards, max_threads, pool, [&](unsigned s) {
        ErrorAccumulator& acc = accs[s];
        uint64_t exact[kPairChunk], out[kPairChunk];
        for (uint64_t a = s; a < side; a += shards) {
            for (uint64_t b0 = 0; b0 < side; b0 += kPairChunk) {
                const unsigned n = static_cast<unsigned>(std::min<uint64_t>(kPairChunk, side - b0));
                uint64_t p = a * b0;  // re-seed the running product
                for (unsigned i = 0; i < n; ++i, p += a) {
                    exact[i] = p;
                    out[i] = approx(a, b0 + i);
                }
                acc.add_block(exact, out, n);
            }
        }
    });
    for (unsigned s = 1; s < shards; ++s) accs[0].merge(accs[s]);
    return accs[0].finalize();
}

/// Evaluates `approx` on `samples` random operand pairs; `draw(rng, mask)`
/// returns one width-masked operand (a, then b, per sample).
template <typename ApproxFn, typename DrawFn>
[[nodiscard]] ErrorMetrics sampled_metrics(int width, uint64_t samples, uint64_t seed,
                                           ApproxFn approx, DrawFn draw) {
    ErrorAccumulator acc(width);
    Xoshiro256 rng(seed);
    const uint64_t mask = (uint64_t{1} << width) - 1;
    uint64_t exact[kPairChunk], out[kPairChunk];
    for (uint64_t done = 0; done < samples;) {
        const unsigned n = static_cast<unsigned>(std::min<uint64_t>(kPairChunk, samples - done));
        for (unsigned i = 0; i < n; ++i) {
            const uint64_t a = draw(rng, mask);
            const uint64_t b = draw(rng, mask);
            exact[i] = a * b;
            out[i] = approx(a, b);
        }
        acc.add_block(exact, out, n);
        done += n;
    }
    return acc.finalize();
}

/// Evaluates `approx` on `samples` uniformly random operand pairs.
template <typename ApproxFn>
[[nodiscard]] ErrorMetrics sampled_metrics(int width, uint64_t samples, uint64_t seed,
                                           ApproxFn approx) {
    return sampled_metrics(width, samples, seed, approx,
                           [](Xoshiro256& rng, uint64_t mask) { return rng.next() & mask; });
}

}  // namespace sdlc

#endif  // SDLC_ERROR_EVALUATE_H
