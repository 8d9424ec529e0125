#include "cusim/engine.hpp"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <utility>

#include "cupp/trace.hpp"
#include "cusim/error.hpp"
#include "cusim/thread_ctx.hpp"
#include "cusim/warp_ctx.hpp"

namespace cusim {

namespace detail {

void FrameCache::flush_metrics() {
    ops_since_flush = 0;
    if (hits == 0 && misses == 0 && evicts == 0) return;
    auto& m = cupp::trace::metrics();
    if (hits > 0) m.add("cusim.framecache.hit", hits);
    if (misses > 0) m.add("cusim.framecache.miss", misses);
    if (evicts > 0) m.add("cusim.framecache.evict", evicts);
    hits = misses = evicts = 0;
}

}  // namespace detail

// Declaration order matters for teardown: tasks are destroyed before the
// contexts (members die in reverse order), so a suspended coroutine frame
// never outlives the context it references. Between blocks the tasks are
// empty anyway. Either engine's block uses `tasks`, one per thread or warp.
struct BlockScratch::State {
    BlockResult result;
    BlockState block;
    std::vector<std::unique_ptr<ThreadCtx>> ctxs;
    std::vector<std::unique_ptr<WarpCtx>> wctxs;
    std::vector<KernelTask> tasks;
};

BlockScratch::BlockScratch() : state(std::make_unique<State>()) {}
BlockScratch::~BlockScratch() = default;

namespace {

uint3 unlinearize_thread(unsigned tid, const dim3& bd) {
    uint3 t;
    t.x = tid % bd.x;
    t.y = (tid / bd.x) % bd.y;
    t.z = tid / (bd.x * bd.y);
    return t;
}

[[noreturn]] void rethrow_as_launch_failure(std::exception_ptr ep) {
    try {
        std::rethrow_exception(ep);
    } catch (const Error& e) {
        throw Error(ErrorCode::LaunchFailure, std::string("kernel threw: ") + e.what());
    } catch (const std::exception& e) {
        throw Error(ErrorCode::LaunchFailure, std::string("kernel threw: ") + e.what());
    } catch (...) {
        throw Error(ErrorCode::LaunchFailure, "kernel threw a non-standard exception");
    }
}

/// Readies the scratch for the next block: fresh warp accounting, a zeroed
/// shared arena, no memcheck shadow. Every vector keeps its capacity.
BlockResult& begin_block(BlockScratch::State& s, const LaunchConfig& cfg,
                         std::vector<memcheck::Violation>* violation_sink) {
    s.result.warps.assign(cfg.warps_per_block(), WarpAcct{});
    s.result.sync_episodes = 0;
    s.block.shared_arena.assign(cfg.shared_bytes, std::byte{0});
    s.block.sync_episodes = 0;
    s.block.shared_shadow.reset();
    s.block.violation_sink = violation_sink;
    return s.result;
}

/// Ends a block on every exit path, a throw included: the frames still
/// suspended at a barrier are destroyed, so none outlives its launch inside
/// reused scratch, and the caller-owned violation sink is dropped.
class EndOfBlock {
public:
    EndOfBlock(std::vector<KernelTask>& tasks, BlockState& block)
        : tasks_(tasks), block_(block) {}
    ~EndOfBlock() {
        tasks_.clear();
        block_.violation_sink = nullptr;
    }
    EndOfBlock(const EndOfBlock&) = delete;
    EndOfBlock& operator=(const EndOfBlock&) = delete;

private:
    std::vector<KernelTask>& tasks_;
    BlockState& block_;
};

/// Context `i` of a grow-only vector: rebuilt in place (contexts are not
/// assignable) or appended on first use. Slots fill in order, so i <= size.
template <typename Ctx, typename... Args>
Ctx& place(std::vector<std::unique_ptr<Ctx>>& ctxs, unsigned i, Args&&... args) {
    if (i == ctxs.size()) {
        ctxs.push_back(std::make_unique<Ctx>(std::forward<Args>(args)...));
    } else {
        ctxs[i]->~Ctx();
        new (ctxs[i].get()) Ctx(std::forward<Args>(args)...);
    }
    return *ctxs[i];
}

/// Closes an epoch. __syncthreads() must be reached by every thread of the
/// block; a thread finishing (or not arriving) while others wait is the
/// CUDA-undefined divergent barrier, diagnosed instead of hung. Both engines
/// count lanes, so the message is the same under either.
void check_barrier(unsigned at_barrier, unsigned live, unsigned finished_this_epoch) {
    if (at_barrier > 0 && (finished_this_epoch > 0 || at_barrier != live)) {
        throw Error(ErrorCode::LaunchFailure,
                    "__syncthreads() reached by " + std::to_string(at_barrier) + " of " +
                        std::to_string(live + finished_this_epoch) +
                        " threads (divergent barrier)");
    }
}

// -1 = no override (read the environment), else the EngineMode value.
std::atomic<int> g_engine_override{-1};

EngineMode engine_mode_from_env() {
    const char* v = std::getenv("CUPP_SIM_ENGINE");
    if (v != nullptr && std::string_view(v) == "thread") return EngineMode::Thread;
    return EngineMode::Warp;
}

}  // namespace

EngineMode engine_mode() {
    const int o = g_engine_override.load(std::memory_order_relaxed);
    if (o >= 0) return static_cast<EngineMode>(o);
    // The environment is process-wide and stable during a run; cache it.
    static const EngineMode env_mode = engine_mode_from_env();
    return env_mode;
}

void set_engine_mode(EngineMode mode) {
    g_engine_override.store(static_cast<int>(mode), std::memory_order_relaxed);
}

void clear_engine_mode() { g_engine_override.store(-1, std::memory_order_relaxed); }

namespace {

/// The per-thread block loop. The first epoch is fused with construction:
/// in tid order each thread's context is rebuilt, its coroutine created and
/// resumed, and a thread that finishes is folded and its frame released at
/// once, so a barrier-free block recycles one hot frame through the
/// FrameCache. Only threads suspended at a barrier keep a task; a valid
/// task is a live thread. Creating a coroutine later changes nothing
/// observable: its parameters are copies from the immutable kernel stack.
BlockResult& run_block_thread(const CostModel& cm, const LaunchConfig& cfg,
                              const KernelEntry& entry, uint3 block_idx,
                              const memcheck::ExecContext* exec, BlockScratch::State& s,
                              std::vector<memcheck::Violation>* violation_sink) {
    const unsigned nthreads = static_cast<unsigned>(cfg.block.count());
    BlockResult& result = begin_block(s, cfg, violation_sink);
    std::vector<KernelTask>& tasks = s.tasks;
    tasks.resize(nthreads);
    const EndOfBlock end(tasks, s.block);
    unsigned live = nthreads;
    unsigned at_barrier = 0;
    unsigned finished_this_epoch = 0;

    auto step = [&](unsigned tid) {
        KernelTask& task = tasks[tid];
        task.resume();
        if (auto ep = task.exception()) rethrow_as_launch_failure(ep);
        if (!task.done()) {
            ++at_barrier;
            return;
        }
        // SIMD fold into the warp: cycles at the pace of the slowest lane,
        // traffic summed over lanes.
        WarpAcct& w = s.ctxs[tid]->warp();
        const ThreadAcct& a = s.ctxs[tid]->acct();
        if (a.compute_cycles > w.compute_cycles) w.compute_cycles = a.compute_cycles;
        if (a.stall_cycles > w.stall_cycles) w.stall_cycles = a.stall_cycles;
        w.bytes_read += a.bytes_read;
        w.bytes_written += a.bytes_written;
        w.useful_bytes_read += a.useful_bytes_read;
        w.useful_bytes_written += a.useful_bytes_written;
        task = KernelTask{};  // the next thread's coroutine reuses this frame
        --live;
        ++finished_this_epoch;
    };

    for (unsigned tid = 0; tid < nthreads; ++tid) {
        tasks[tid] = entry(place(s.ctxs, tid, unlinearize_thread(tid, cfg.block), block_idx,
                                 cfg.block, cfg.grid, &cm, &s.block,
                                 &result.warps[tid / kWarpSize], exec));
        step(tid);
    }
    for (;;) {
        check_barrier(at_barrier, live, finished_this_epoch);
        if (live == 0) break;
        for (unsigned tid = 0; tid < nthreads; ++tid) s.ctxs[tid]->clear_barrier();
        ++s.block.sync_episodes;
        at_barrier = finished_this_epoch = 0;
        for (unsigned tid = 0; tid < nthreads; ++tid) {
            if (tasks[tid].valid()) step(tid);
        }
    }
    result.sync_episodes = s.block.sync_episodes;
    return result;
}

/// The warp-vectorized block loop: one coroutine per warp, resumed once per
/// epoch, its first epoch fused with construction as above. Lane
/// bookkeeping is popcount arithmetic over the warps' live and at-barrier
/// masks, arranged so the divergent-barrier diagnostic carries the exact
/// thread counts the per-thread loop produces.
BlockResult& run_block_warp(const CostModel& cm, const LaunchConfig& cfg,
                            const WarpKernelEntry& entry, uint3 block_idx,
                            const memcheck::ExecContext* exec, BlockScratch::State& s,
                            std::vector<memcheck::Violation>* violation_sink) {
    const unsigned nthreads = static_cast<unsigned>(cfg.block.count());
    const unsigned nwarps = cfg.warps_per_block();
    BlockResult& result = begin_block(s, cfg, violation_sink);
    std::vector<KernelTask>& tasks = s.tasks;
    tasks.resize(nwarps);
    const EndOfBlock end(tasks, s.block);
    unsigned live = nthreads;  // lanes not yet finished, across all warps
    unsigned at_barrier = 0;
    unsigned finished_this_epoch = 0;

    auto step = [&](unsigned w) {
        WarpCtx& wc = *s.wctxs[w];
        KernelTask& task = tasks[w];
        const auto lanes_before = static_cast<unsigned>(std::popcount(wc.live()));
        task.resume();
        if (auto ep = task.exception()) rethrow_as_launch_failure(ep);
        if (task.done() || wc.live() == 0) {
            // The warp retired: either the body ran to completion or every
            // lane exited via exit_lanes(). All lanes that were still live
            // when this epoch started finish here.
            wc.fold_into_warp_acct();
            task = KernelTask{};
            finished_this_epoch += lanes_before;
            live -= lanes_before;
            return;
        }
        // Suspended at a barrier. Lanes that exited mid-epoch via
        // exit_lanes() finished without arriving at it.
        const auto lanes_now = static_cast<unsigned>(std::popcount(wc.live()));
        finished_this_epoch += lanes_before - lanes_now;
        live -= lanes_before - lanes_now;
        at_barrier += static_cast<unsigned>(std::popcount(wc.at_barrier_mask()));
    };

    for (unsigned w = 0; w < nwarps; ++w) {
        const unsigned base = w * kWarpSize;
        const unsigned nlanes = nthreads - base < kWarpSize ? nthreads - base : kWarpSize;
        tasks[w] = entry(place(s.wctxs, w, base, nlanes, block_idx, cfg.block, cfg.grid,
                               &cm, &s.block, &result.warps[w], exec));
        step(w);
    }
    for (;;) {
        check_barrier(at_barrier, live, finished_this_epoch);
        if (live == 0) break;
        for (unsigned w = 0; w < nwarps; ++w) s.wctxs[w]->clear_barrier();
        ++s.block.sync_episodes;
        at_barrier = finished_this_epoch = 0;
        for (unsigned w = 0; w < nwarps; ++w) {
            if (tasks[w].valid()) step(w);
        }
    }
    result.sync_episodes = s.block.sync_episodes;
    return result;
}

}  // namespace

BlockResult& run_block(const CostModel& cm, const LaunchConfig& cfg, const KernelSpec& spec,
                       uint3 block_idx, BlockScratch& scratch,
                       const memcheck::ExecContext* exec,
                       std::vector<memcheck::Violation>* violation_sink) {
    if (spec.warp && engine_mode() == EngineMode::Warp) {
        return run_block_warp(cm, cfg, spec.warp, block_idx, exec, *scratch.state,
                              violation_sink);
    }
    return run_block_thread(cm, cfg, spec.thread, block_idx, exec, *scratch.state,
                            violation_sink);
}

}  // namespace cusim
