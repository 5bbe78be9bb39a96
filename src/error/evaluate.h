// Exhaustive and Monte-Carlo error evaluation engines.
//
// Both evaluate the approximate multiplier a block of operand pairs at a
// time. `approx` is either a block evaluator — an object with a
// `multiply_block(a[], b[], out[], n)` member, such as core/kernels.h
// MultiplyKernel, which the engines pass up to kPairChunk pairs per call —
// or an inlineable per-pair callable `uint64_t f(uint64_t a, uint64_t b)`,
// which a thin adapter (detail::approx_block) calls once per pair of the
// block. Pass a MultiplyKernel itself, not a lambda around it, so that the
// branch-free block path runs. The exhaustive engine splits the operand
// space into a fixed grid of shards and distributes the shards across
// workers; because each shard accumulates the same pairs in the same
// order and shards merge in index order, the result is bit-identical for
// every worker count (and every machine's core count).
//
// Threading contract: without a pool the shards run inline on the calling
// thread; a caller that owns a ThreadPool passes it to spread shards over
// existing workers. The engines never start threads of their own. (They
// used to default to hardware_concurrency() raw std::threads on every
// call, which oversubscribed N*M threads when invoked from resident pool
// workers.)
//
// Interruption: an optional StopCheck is called at the start of every
// shard of both exhaustive engines (this one and evaluate_sliced.h) and
// before every kSampleCheckInterval samples of the sampled engine. It
// abandons the evaluation by throwing; the exception leaves the engine on
// the calling thread, once the shards already running have finished, and
// no partial metrics are returned.
//
// Both engines hand their pairs to ErrorAccumulator::add_block in chunks
// of kPairChunk, in visit order, so the metrics are bit-identical to adding
// each pair on its own. (The sliced engine, evaluate_sliced.h, reduces its
// blocks through ErrorAccumulator::LaneBlocks to the same bits.) In the
// exhaustive engine the exact product a*b advances by adding `a` as `b`
// steps through a chunk, re-seeded from one true multiply per chunk. The
// sampled engine draws a then b per sample into the chunk, so the pairs
// and their order do not depend on how the products are evaluated.
#ifndef SDLC_ERROR_EVALUATE_H
#define SDLC_ERROR_EVALUATE_H

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "error/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sdlc {

/// Pairs per ErrorAccumulator::add_block call in the scalar exhaustive and
/// sampled engines, and per block handed to the approximate multiplier.
inline constexpr unsigned kPairChunk = 64;

/// Samples between two StopCheck calls in the sampled engine.
inline constexpr uint64_t kSampleCheckInterval = 4096;

/// Cooperative interruption hook of the error engines (see the header
/// comment): called at each check point, it throws to abandon the
/// evaluation. An empty StopCheck is never called.
using StopCheck = std::function<void()>;

namespace detail {

/// out[i] = approx(a[i], b[i]) for i < n: one multiply_block call for a
/// block evaluator, one call per pair for a per-pair callable.
template <typename ApproxFn>
void approx_block(ApproxFn& approx, const uint64_t* a, const uint64_t* b, uint64_t* out,
                  unsigned n) {
    if constexpr (requires { approx.multiply_block(a, b, out, n); }) {
        approx.multiply_block(a, b, out, n);
    } else {
        for (unsigned i = 0; i < n; ++i) out[i] = approx(a[i], b[i]);
    }
}

/// Runs `run_shard(s)` for every shard in [0, shards): over `pool` when
/// one is provided, inline otherwise. Shard results must be accumulated
/// into per-shard state so the caller's merge order — not the scheduling —
/// decides the result. `stop` (when set) runs before each shard; the first
/// exception a shard or `stop` throws is rethrown on the calling thread
/// once the running shards finish, and no further shard starts.
template <typename RunShard>
void run_sharded(unsigned shards, ThreadPool* pool, const StopCheck& stop,
                 RunShard&& run_shard) {
    auto shard = [&](unsigned s) {
        if (stop) stop();
        run_shard(s);
    };
    if (pool != nullptr) {
        parallel_for(*pool, shards, [&](size_t s) { shard(static_cast<unsigned>(s)); });
    } else {
        for (unsigned s = 0; s < shards; ++s) shard(s);
    }
}

/// Runs `run_shard(s, acc)` for every shard through run_sharded(), each
/// into its own fresh accumulator, and returns the accumulators merged in
/// shard order. Each accumulator sits on its own cache line, so workers
/// writing neighbouring shards do not share one.
template <typename RunShard>
ErrorMetrics sharded_metrics(int width, unsigned shards, ThreadPool* pool, const StopCheck& stop,
                             RunShard&& run_shard) {
    struct alignas(64) Slot {
        ErrorAccumulator acc;
    };
    std::vector<Slot> slots(shards, Slot{ErrorAccumulator(width)});
    run_sharded(shards, pool, stop, [&](unsigned s) { run_shard(s, slots[s].acc); });
    for (unsigned s = 1; s < shards; ++s) slots[0].acc.merge(slots[s].acc);
    return slots[0].acc.finalize();
}

}  // namespace detail

/// Fixed shard-grid size of the exhaustive engines. The shard count (not
/// the worker count) decides the floating-point accumulation order, so the
/// result never depends on how many workers ran.
inline constexpr unsigned kExhaustiveShards = 64;

/// Evaluates `approx` on every operand pair of the given width
/// (width <= 16 recommended: 2^(2*width) pairs) and returns the metrics.
/// Runs inline by default; pass a pool to shard over existing workers.
/// `stop` runs before each shard.
template <typename ApproxFn>
[[nodiscard]] ErrorMetrics exhaustive_metrics(int width, ApproxFn&& approx,
                                              ThreadPool* pool = nullptr,
                                              const StopCheck& stop = {}) {
    const uint64_t side = uint64_t{1} << width;
    // Shard by operand stripes a ≡ s (mod shards).
    const unsigned shards =
        static_cast<unsigned>(std::min<uint64_t>(kExhaustiveShards, side));
    return detail::sharded_metrics(width, shards, pool, stop, [&](unsigned s,
                                                                  ErrorAccumulator& acc) {
        uint64_t as[kPairChunk], bs[kPairChunk], exact[kPairChunk], out[kPairChunk];
        for (uint64_t a = s; a < side; a += shards) {
            for (unsigned i = 0; i < kPairChunk; ++i) as[i] = a;
            for (uint64_t b0 = 0; b0 < side; b0 += kPairChunk) {
                const unsigned n = static_cast<unsigned>(std::min<uint64_t>(kPairChunk, side - b0));
                uint64_t p = a * b0;  // re-seed the running product
                for (unsigned i = 0; i < n; ++i, p += a) {
                    exact[i] = p;
                    bs[i] = b0 + i;
                }
                detail::approx_block(approx, as, bs, out, n);
                acc.add_block(exact, out, n);
            }
        }
    });
}

/// Evaluates `approx` on `samples` random operand pairs; `draw(rng, mask)`
/// returns one width-masked operand (a, then b, per sample). `stop` runs
/// before every kSampleCheckInterval samples.
template <typename ApproxFn, typename DrawFn>
[[nodiscard]] ErrorMetrics sampled_metrics(int width, uint64_t samples, uint64_t seed,
                                           ApproxFn&& approx, DrawFn draw,
                                           const StopCheck& stop = {}) {
    static_assert(kSampleCheckInterval % kPairChunk == 0);
    ErrorAccumulator acc(width);
    Xoshiro256 rng(seed);
    const uint64_t mask = (uint64_t{1} << width) - 1;
    uint64_t as[kPairChunk], bs[kPairChunk], exact[kPairChunk], out[kPairChunk];
    for (uint64_t done = 0; done < samples;) {
        if (stop && done % kSampleCheckInterval == 0) stop();
        const unsigned n = static_cast<unsigned>(std::min<uint64_t>(kPairChunk, samples - done));
        for (unsigned i = 0; i < n; ++i) {
            as[i] = draw(rng, mask);
            bs[i] = draw(rng, mask);
            exact[i] = as[i] * bs[i];
        }
        detail::approx_block(approx, as, bs, out, n);
        acc.add_block(exact, out, n);
        done += n;
    }
    return acc.finalize();
}

/// Evaluates `approx` on `samples` uniformly random operand pairs.
template <typename ApproxFn>
[[nodiscard]] ErrorMetrics sampled_metrics(int width, uint64_t samples, uint64_t seed,
                                           ApproxFn&& approx) {
    return sampled_metrics(width, samples, seed, approx,
                           [](Xoshiro256& rng, uint64_t mask) { return rng.next() & mask; });
}

}  // namespace sdlc

#endif  // SDLC_ERROR_EVALUATE_H
