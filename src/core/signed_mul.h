// Signed (two's-complement) SDLC multiplication (library extension).
//
// The paper treats unsigned operands only. Signed support here uses the
// sign-magnitude decomposition: |a| and |b| go through the unsigned SDLC
// core and the sign is re-applied to the result. This preserves the SDLC
// error profile exactly (the error magnitude of a*b equals that of
// |a|*|b|), which is the property DSP kernels care about; a Baugh-Wooley
// restructuring would change the partial-product matrix and therefore the
// validated error behaviour.
//
// The hardware wrapper adds two conditional negators (XOR rows + increment)
// on the operands and one on the product, plus the sign XOR.
#ifndef SDLC_CORE_SIGNED_MUL_H
#define SDLC_CORE_SIGNED_MUL_H

#include <cstdint>

#include "arith/mul_netlist.h"
#include "core/cluster_plan.h"
#include "core/generator.h"

namespace sdlc {

/// Functional model: signed SDLC product of two `plan.width()`-bit
/// two's-complement operands (width <= 31; the result is exact-width
/// 2N-bit signed). INT_MIN-style operands (-2^(N-1)) are supported.
[[nodiscard]] int64_t sdlc_multiply_signed(const ClusterPlan& plan, int64_t a, int64_t b);

/// Signed error distance |a*b - P'|.
[[nodiscard]] uint64_t sdlc_signed_error_distance(const ClusterPlan& plan, int64_t a,
                                                  int64_t b);

/// Builds a signed N x N SDLC multiplier netlist (operands and product in
/// two's complement; product has 2N bits).
[[nodiscard]] MultiplierNetlist build_sdlc_signed_multiplier(int width,
                                                             const SdlcOptions& opts = {});

}  // namespace sdlc

#endif  // SDLC_CORE_SIGNED_MUL_H
