#include "error/evaluate_sliced.h"

namespace sdlc {

ErrorMetrics exhaustive_metrics_sliced(const SlicedMultiplyKernel& kernel, ThreadPool* pool,
                                       const StopCheck& stop) {
    const int width = kernel.config().width;
    const uint64_t side = uint64_t{1} << width;
    const unsigned shards =
        static_cast<unsigned>(std::min<uint64_t>(kExhaustiveShards, side));
    const unsigned lanes = kernel.natural_lanes();
    std::vector<ErrorAccumulator> accs(shards, ErrorAccumulator(width));
    detail::run_sharded(shards, pool, stop, [&](unsigned s) {
        ErrorAccumulator& acc = accs[s];
        SlicedMultiplyKernel::Prepared prep;
        uint64_t exact[64], out[64];
        for (uint64_t a = s; a < side; a += shards) {
            kernel.prepare(a, prep);
            // side is a power of two >= lanes, so every block is aligned
            // and full; b still ascends 0..side-1 exactly as the scalar
            // engine visits it.
            for (uint64_t b0 = 0; b0 < side; b0 += lanes) {
                kernel.multiply_block_prepared(prep, b0, out);
                uint64_t p = a * b0;
                for (unsigned l = 0; l < lanes; ++l, p += a) exact[l] = p;
                acc.add_block(exact, out, lanes);
            }
        }
    });
    for (unsigned s = 1; s < shards; ++s) accs[0].merge(accs[s]);
    return accs[0].finalize();
}

}  // namespace sdlc
