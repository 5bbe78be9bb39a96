#include "error/evaluate_sliced.h"

namespace sdlc {

ErrorMetrics exhaustive_metrics_sliced(const SlicedMultiplyKernel& kernel, ThreadPool* pool,
                                       const StopCheck& stop) {
    const int width = kernel.config().width;
    const uint64_t side = uint64_t{1} << width;
    const unsigned shards =
        static_cast<unsigned>(std::min<uint64_t>(kExhaustiveShards, side));
    const unsigned lanes = kernel.natural_lanes();
    return detail::sharded_metrics(width, shards, pool, stop, [&](unsigned s,
                                                                  ErrorAccumulator& acc) {
        SlicedMultiplyKernel::Prepared prep;
        alignas(16) uint64_t out[64];
        ErrorAccumulator::LaneBlocks blocks(acc, lanes);
        for (uint64_t a = s; a < side; a += shards) {
            kernel.prepare(a, prep);
            blocks.set_a(a);
            // side is a power of two >= lanes, so every block is aligned
            // and full; b still ascends 0..side-1 exactly as the scalar
            // engine visits it.
            for (uint64_t b0 = 0; b0 < side; b0 += lanes) {
                kernel.multiply_block_prepared(prep, b0, out);
                blocks.add(b0, out);
            }
        }
        blocks.finish();
    });
}

}  // namespace sdlc
