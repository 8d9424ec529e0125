// The stream_pipeline kernel, shared with the traced run's launch probe so
// that Device::launch and the cupp::kernel call are timed on one grid.
#pragma once

#include <cstdint>

#include "cupp/cupp.hpp"

namespace wallbench {

inline constexpr unsigned kPipelineChunk = 512;  ///< floats per stream chunk
inline constexpr unsigned kPipelineBlock = 128;  ///< threads per block

/// The host reference of the kernel's math.
[[nodiscard]] inline float affine(float x, float a, float b) { return x * a + b; }

/// v[i] = v[i] * a + b, in place.
inline cusim::KernelTask affine_kernel(cusim::ThreadCtx& ctx,
                                       cupp::deviceT::vector<float>& v, float a, float b) {
    const std::uint64_t gid = ctx.global_id();
    if (gid < v.size()) {
        ctx.charge(cusim::Op::FMad);
        v.write(ctx, gid, affine(v.read(ctx, gid), a, b));
    }
    co_return;
}
using PipelineKernel = cusim::KernelTask (*)(cusim::ThreadCtx&,
                                             cupp::deviceT::vector<float>&, float, float);

}  // namespace wallbench
