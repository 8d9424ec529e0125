// The block execution engine.
//
// Executes one thread block functionally: every device thread is a coroutine
// that runs until it either finishes or suspends at __syncthreads(). The
// engine drives threads in rounds ("epochs"): one epoch ends when every live
// thread sits at the barrier, which is then released collectively. A block
// whose threads disagree about the barrier (some finished, some waiting) is
// the CUDA-undefined divergent-__syncthreads case; the engine turns it into
// a LaunchFailure instead of hanging.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cusim/accounting.hpp"
#include "cusim/launch.hpp"
#include "cusim/memcheck.hpp"
#include "cusim/types.hpp"

namespace cusim {

/// Which interpreter executes a block when a kernel provides both forms of
/// a KernelSpec. Selected by CUPP_SIM_ENGINE=warp|thread (default: warp;
/// anything else falls back to warp) with a programmatic override for
/// differential tests. Kernels that only have a per-thread form run the
/// classic coroutine-per-thread engine in either mode — the thread path is
/// retained verbatim as the differential oracle.
enum class EngineMode { Thread, Warp };

/// The effective engine mode: the override when set, else CUPP_SIM_ENGINE.
[[nodiscard]] EngineMode engine_mode();
/// Overrides the environment selection (differential tests/benches).
void set_engine_mode(EngineMode mode);
/// Drops the override; engine_mode() reads the environment again.
void clear_engine_mode();

/// Everything the timing model needs to know about one executed block.
struct BlockResult {
    std::vector<WarpAcct> warps;
    std::uint64_t sync_episodes = 0;
};

/// Reusable per-host-thread storage for run_block: the block's result, the
/// thread and warp contexts, the coroutine handles and the shared-memory
/// arena. Device::launch keeps one per host thread (thread_local, on the
/// serial path and on every pool worker) and passes it to every block that
/// thread runs, so steady-state execution allocates nothing per block or
/// per launch: contexts are re-constructed in place, vectors and the arena
/// keep their capacity, and no coroutine frame outlives its block. Opaque;
/// run_block owns the layout.
struct BlockScratch {
    BlockScratch();
    ~BlockScratch();
    BlockScratch(const BlockScratch&) = delete;
    BlockScratch& operator=(const BlockScratch&) = delete;

    struct State;
    std::unique_ptr<State> state;
};

/// Runs all threads of block `block_idx` to completion in `scratch` and
/// returns the block's result, which lives in the scratch until its next
/// block (the caller may move it out). Throws Error(LaunchFailure) wrapping
/// any exception escaping a kernel body and on divergent barrier use.
/// `exec` (optional) gives the threads their memcheck execution context —
/// kernel name, global-memory shadow, device ordinal — for attributed
/// diagnostics. When `violation_sink` is non-null, memcheck violations are
/// buffered there in program order instead of being reported through
/// memcheck::record() immediately (strict mode still throws at the faulting
/// access); the sink is caller-owned so buffered violations survive a
/// mid-block exception, and the parallel launch path flushes them in launch
/// order.
///
/// Dual-form dispatch: runs the warp-vectorized interpreter (one coroutine
/// per warp, lane-batched state, active-mask divergence — see warp_ctx.hpp)
/// when the spec carries a warp form and engine_mode() is Warp; otherwise
/// the classic coroutine-per-thread engine. Both produce bit-identical
/// observables for charge-equal kernel forms.
BlockResult& run_block(const CostModel& cm, const LaunchConfig& cfg, const KernelSpec& spec,
                       uint3 block_idx, BlockScratch& scratch,
                       const memcheck::ExecContext* exec = nullptr,
                       std::vector<memcheck::Violation>* violation_sink = nullptr);

}  // namespace cusim
