// Launch configuration (grid/block geometry + per-block resources).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "cusim/error.hpp"
#include "cusim/kernel_task.hpp"
#include "cusim/types.hpp"

namespace cusim {

class ThreadCtx;

/// Geometry and resource demand of a kernel launch. Mirrors
/// cudaConfigureCall plus the implicit per-kernel resource usage that nvcc
/// would report (registers per thread, static shared memory).
struct LaunchConfig {
    dim3 grid;
    dim3 block;
    std::uint32_t shared_bytes = 0;       ///< static __shared__ usage per block
    std::uint32_t regs_per_thread = 16;   ///< occupancy input (G80 default-ish)

    /// Validates the geometry against the software model (§2.2): <= 512
    /// threads per block, grids of <= 2^16 blocks per dimension, 3-dim
    /// blocks. Grids may use all three dimensions; the engine linearises
    /// blocks x-fastest (then y, then z), so a 3-D grid runs every
    /// grid.count() block — it is never silently truncated to one z-slice.
    void validate() const {
        if (block.count() == 0 || block.count() > kMaxThreadsPerBlock) {
            throw Error(ErrorCode::InvalidConfiguration,
                        "block has " + std::to_string(block.count()) +
                            " threads (max " + std::to_string(kMaxThreadsPerBlock) + ")");
        }
        if (grid.count() == 0) {
            throw Error(ErrorCode::InvalidConfiguration, "empty grid");
        }
        if (grid.x > kMaxGridDim || grid.y > kMaxGridDim || grid.z > kMaxGridDim) {
            throw Error(ErrorCode::InvalidConfiguration,
                        "grid dimension exceeds 2^16 blocks");
        }
    }

    [[nodiscard]] std::uint64_t total_threads() const { return grid.count() * block.count(); }
    [[nodiscard]] unsigned warps_per_block() const {
        return static_cast<unsigned>((block.count() + kWarpSize - 1) / kWarpSize);
    }
};

/// Type-erased per-thread kernel entry: the engine calls it once per device
/// thread with that thread's context. Higher layers (cupp::kernel) bind the
/// user's typed arguments into this.
using KernelEntry = std::function<KernelTask(ThreadCtx&)>;

class WarpCtx;

/// Type-erased warp-native kernel entry: the warp-vectorized engine calls it
/// once per *warp* — one coroutine frame and one resume per 32 lanes — with
/// the warp's lane-batched context (warp_ctx.hpp).
using WarpKernelEntry = std::function<KernelTask(WarpCtx&)>;

/// A kernel in up to two executable forms. `thread` is mandatory and is the
/// differential oracle: the classic one-coroutine-per-thread interpretation.
/// `warp`, when provided, is the same kernel written against WarpCtx; the
/// engine runs it when CUPP_SIM_ENGINE selects the warp engine. The two
/// forms must charge identically (same ops per lane in the same per-lane
/// occurrence order) — the differential harness holds them to bit-identical
/// LaunchStats/memcheck/trace/timeline.
struct KernelSpec {
    KernelEntry thread;
    WarpKernelEntry warp;

    KernelSpec() = default;
    KernelSpec(KernelEntry t) : thread(std::move(t)) {}  // NOLINT(google-explicit-constructor)
    KernelSpec(KernelEntry t, WarpKernelEntry w)
        : thread(std::move(t)), warp(std::move(w)) {}
};

/// Both forms of a kernel written once over the execution context (see
/// warp_ctx.hpp): `k` is a generic callable, e.g.
/// `dual_form([&](auto& ctx) { return my_kernel(ctx, out, n); })`.
template <typename K>
KernelSpec dual_form(K k) {
    return KernelSpec([k](ThreadCtx& ctx) { return k(ctx); },
                      [k](WarpCtx& w) { return k(w); });
}

}  // namespace cusim
