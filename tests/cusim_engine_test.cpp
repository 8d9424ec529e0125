// Engine tests: SPMD execution, built-in variables, __syncthreads semantics,
// shared memory, divergence accounting, async launch timeline, and block
// scratch reuse across launches.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "cusim/cusim.hpp"

namespace {

// Every heap allocation in this binary, counted by the replacement
// operator new below (the scratch tests compare launches by it).
std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size != 0 ? size : 1)) return p;
    throw std::bad_alloc();
}
// Out of line, so the compiler does not pair the free() with the operator
// new it inlined at a call site and warn about a mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace cusim;

// Every thread writes its global id; checks the thread/block index plumbing.
KernelTask iota_kernel(ThreadCtx& ctx, DevicePtr<std::uint32_t> out) {
    const std::uint64_t gid = ctx.global_id();
    if (gid < out.size()) {
        out.write(ctx, gid, static_cast<std::uint32_t>(gid));
    }
    co_return;
}

TEST(Engine, SpmdIotaCoversGrid) {
    Device dev(tiny_properties());
    auto out = dev.malloc_n<std::uint32_t>(1000);
    LaunchConfig cfg{dim3{8}, dim3{128}};
    auto stats = dev.launch(cfg, [&](ThreadCtx& ctx) { return iota_kernel(ctx, out); });
    EXPECT_EQ(stats.blocks, 8u);
    EXPECT_EQ(stats.threads, 1024u);
    EXPECT_EQ(stats.warps, 8u * 4u);

    std::vector<std::uint32_t> host(1000);
    dev.download(std::span<std::uint32_t>(host), out);
    for (std::uint32_t i = 0; i < 1000; ++i) EXPECT_EQ(host[i], i) << i;
}

// 2-dimensional block indexing as in the thesis' kernel example (§4.3).
KernelTask dim2_kernel(ThreadCtx& ctx, DevicePtr<std::uint32_t> out) {
    const unsigned bid = ctx.block_idx().x + ctx.grid_dim().x * ctx.block_idx().y;
    const unsigned tid = ctx.thread_idx().x + ctx.block_dim().x * ctx.thread_idx().y;
    const std::uint64_t gid = std::uint64_t{bid} * ctx.block_dim().count() + tid;
    out.write(ctx, gid, static_cast<std::uint32_t>(gid * 3));
    co_return;
}

TEST(Engine, TwoDimensionalIndexing) {
    Device dev(tiny_properties());
    // 10x10 blocks of 8x8 threads: the geometry of listing 4.3.
    LaunchConfig cfg{make_dim3(10, 10), make_dim3(8, 8)};
    auto out = dev.malloc_n<std::uint32_t>(cfg.total_threads());
    dev.launch(cfg, [&](ThreadCtx& ctx) { return dim2_kernel(ctx, out); });
    std::vector<std::uint32_t> host(cfg.total_threads());
    dev.download(std::span<std::uint32_t>(host), out);
    for (std::uint64_t i = 0; i < host.size(); ++i) EXPECT_EQ(host[i], i * 3);
}

// Block-wide reduction through shared memory exercises __syncthreads.
KernelTask reduce_kernel(ThreadCtx& ctx, DevicePtr<std::uint32_t> in,
                         DevicePtr<std::uint32_t> out) {
    auto scratch = ctx.shared_array<std::uint32_t>(ctx.block_dim().x);
    const unsigned tid = ctx.thread_idx().x;
    const std::uint64_t gid = ctx.global_id();
    scratch.write(ctx, tid, in.read(ctx, gid));
    co_await ctx.syncthreads();
    for (unsigned stride = ctx.block_dim().x / 2; stride > 0; stride /= 2) {
        if (tid < stride) {
            const auto a = scratch.read(ctx, tid);
            const auto b = scratch.read(ctx, tid + stride);
            ctx.charge(Op::IAdd);
            scratch.write(ctx, tid, a + b);
        }
        co_await ctx.syncthreads();
    }
    if (tid == 0) out.write(ctx, ctx.block_idx().x, scratch.read(ctx, 0));
    co_return;
}

TEST(Engine, SharedMemoryReduction) {
    Device dev(tiny_properties());
    constexpr unsigned kBlocks = 4, kThreads = 64;
    std::vector<std::uint32_t> input(kBlocks * kThreads);
    std::iota(input.begin(), input.end(), 0);
    auto in = dev.malloc_n<std::uint32_t>(input.size());
    auto out = dev.malloc_n<std::uint32_t>(kBlocks);
    dev.upload(in, std::span<const std::uint32_t>(input));

    LaunchConfig cfg{dim3{kBlocks}, dim3{kThreads}};
    cfg.shared_bytes = kThreads * sizeof(std::uint32_t);
    auto stats =
        dev.launch(cfg, [&](ThreadCtx& ctx) { return reduce_kernel(ctx, in, out); });
    // log2(64) sync rounds plus the initial one.
    EXPECT_EQ(stats.syncthreads_count, kBlocks * 7u);

    std::vector<std::uint32_t> result(kBlocks);
    dev.download(std::span<std::uint32_t>(result), out);
    for (unsigned b = 0; b < kBlocks; ++b) {
        std::uint32_t expect = 0;
        for (unsigned t = 0; t < kThreads; ++t) expect += input[b * kThreads + t];
        EXPECT_EQ(result[b], expect) << "block " << b;
    }
}

// A barrier reached by only part of the block must be diagnosed, not hang.
KernelTask divergent_barrier_kernel(ThreadCtx& ctx) {
    if (ctx.thread_idx().x < 16) {
        co_await ctx.syncthreads();
    }
    co_return;
}

TEST(Engine, DivergentBarrierThrows) {
    Device dev(tiny_properties());
    LaunchConfig cfg{dim3{1}, dim3{32}};
    try {
        dev.launch(cfg, [](ThreadCtx& ctx) { return divergent_barrier_kernel(ctx); });
        FAIL() << "expected LaunchFailure";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::LaunchFailure);
    }
}

// Exceptions thrown in a kernel body surface as LaunchFailure.
KernelTask throwing_kernel(ThreadCtx& ctx) {
    if (ctx.global_id() == 3) throw std::runtime_error("boom");
    co_return;
}

TEST(Engine, KernelExceptionSurfaces) {
    Device dev(tiny_properties());
    LaunchConfig cfg{dim3{1}, dim3{8}};
    try {
        dev.launch(cfg, [](ThreadCtx& ctx) { return throwing_kernel(ctx); });
        FAIL() << "expected LaunchFailure";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::LaunchFailure);
        EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
    }
}

// Out-of-bounds device access is caught per element.
KernelTask oob_kernel(ThreadCtx& ctx, DevicePtr<int> p) {
    p.write(ctx, p.size(), 1);
    co_return;
}

TEST(Engine, OutOfBoundsAccessThrows) {
    Device dev(tiny_properties());
    auto p = dev.malloc_n<int>(4);
    LaunchConfig cfg{dim3{1}, dim3{1}};
    EXPECT_THROW(dev.launch(cfg, [&](ThreadCtx& ctx) { return oob_kernel(ctx, p); }), Error);
}

// Divergence accounting: a branch taken by exactly one lane per warp-step.
KernelTask divergent_branch_kernel(ThreadCtx& ctx, int rounds) {
    for (int r = 0; r < rounds; ++r) {
        if (ctx.branch(ctx.thread_idx().x % kWarpSize == static_cast<unsigned>(r) % kWarpSize)) {
            ctx.charge(Op::FAdd, 4);
        }
    }
    co_return;
}

TEST(Engine, DivergenceEstimatorCountsMixedBranches) {
    Device dev(tiny_properties());
    LaunchConfig cfg{dim3{1}, dim3{64}};
    auto stats = dev.launch(
        cfg, [&](ThreadCtx& ctx) { return divergent_branch_kernel(ctx, 32); });
    // Each of the 32 rounds has exactly one taken lane per warp -> one
    // divergent warp-step per round per warp.
    EXPECT_EQ(stats.divergent_events, 2u * 32u);
    EXPECT_EQ(stats.branch_evaluations, 64u * 32u);
}

KernelTask uniform_branch_kernel(ThreadCtx& ctx, int rounds) {
    for (int r = 0; r < rounds; ++r) {
        if (ctx.branch(r % 2 == 0)) ctx.charge(Op::FAdd);
    }
    co_return;
}

TEST(Engine, UniformBranchesDoNotDiverge) {
    Device dev(tiny_properties());
    LaunchConfig cfg{dim3{2}, dim3{64}};
    auto stats =
        dev.launch(cfg, [&](ThreadCtx& ctx) { return uniform_branch_kernel(ctx, 10); });
    EXPECT_EQ(stats.divergent_events, 0u);
}

// Asynchronous launch semantics (§2.2): the launch itself only costs the
// host the launch overhead; touching device memory afterwards blocks until
// the kernel is done.
KernelTask busy_kernel(ThreadCtx& ctx, DevicePtr<float> data) {
    for (int i = 0; i < 1000; ++i) {
        (void)data.read(ctx, ctx.global_id() % data.size());
    }
    co_return;
}

TEST(Engine, LaunchIsAsynchronousOnTheTimeline) {
    Device dev(tiny_properties());
    auto data = dev.malloc_n<float>(256);
    LaunchConfig cfg{dim3{4}, dim3{64}};
    const double host_before = dev.host_time();
    dev.launch(cfg, [&](ThreadCtx& ctx) { return busy_kernel(ctx, data); });
    const double host_after = dev.host_time();
    EXPECT_NEAR(host_after - host_before, dev.properties().cost.launch_overhead_s, 1e-12);
    EXPECT_TRUE(dev.kernel_active());

    // Reading device memory synchronises first.
    float sink;
    dev.copy_to_host(&sink, data.addr(), sizeof(float));
    EXPECT_FALSE(dev.kernel_active());
    EXPECT_GE(dev.host_time(), dev.device_free_at());
}

TEST(Engine, LaunchGeometryValidation) {
    Device dev(tiny_properties());
    auto noop = [](ThreadCtx&) -> KernelTask { co_return; };
    EXPECT_THROW(dev.launch(LaunchConfig{dim3{1}, dim3{513}}, noop), Error);
    EXPECT_THROW(dev.launch(LaunchConfig{dim3{1u << 17}, dim3{1}}, noop), Error);
    EXPECT_THROW(dev.launch(LaunchConfig{dim3{1, 1, 1u << 17}, dim3{1}}, noop), Error);
    LaunchConfig too_much_shared{dim3{1}, dim3{32}};
    too_much_shared.shared_bytes = 17 * 1024;
    EXPECT_THROW(dev.launch(too_much_shared, noop), Error);
}

// 3-D grids run every block, not just one z-slice: each block increments its
// own linear-bid slot exactly once, covering all of grid.count().
KernelTask count_block_kernel(ThreadCtx& ctx, DevicePtr<int> slots) {
    if (ctx.linear_tid() == 0) {
        slots.write(ctx, ctx.linear_bid(), slots.read(ctx, ctx.linear_bid()) + 1);
    }
    co_return;
}

TEST(Engine, ThreeDimensionalGridRunsEveryBlock) {
    Device dev(tiny_properties());
    LaunchConfig cfg{dim3{3, 2, 4}, dim3{8}};
    auto slots = dev.malloc_n<int>(cfg.grid.count());
    const std::vector<int> zeros(cfg.grid.count(), 0);
    dev.upload(slots, std::span<const int>(zeros));
    auto stats =
        dev.launch(cfg, [&](ThreadCtx& ctx) { return count_block_kernel(ctx, slots); });
    EXPECT_EQ(stats.blocks, 24u);
    std::vector<int> host(cfg.grid.count());
    dev.copy_to_host(host.data(), slots.addr(), host.size() * sizeof(int));
    for (std::size_t i = 0; i < host.size(); ++i) {
        EXPECT_EQ(host[i], 1) << "block slot " << i;
    }
}

// --- block scratch reuse ---------------------------------------------------

DeviceProperties serial_properties() {
    DeviceProperties props = tiny_properties();
    props.sim_threads = 1;
    return props;
}

void expect_same_stats(const LaunchStats& a, const LaunchStats& b) {
    EXPECT_EQ(a.blocks, b.blocks);
    EXPECT_EQ(a.compute_cycles, b.compute_cycles);
    EXPECT_EQ(a.stall_cycles, b.stall_cycles);
    EXPECT_EQ(a.bytes_read, b.bytes_read);
    EXPECT_EQ(a.bytes_written, b.bytes_written);
    EXPECT_EQ(a.syncthreads_count, b.syncthreads_count);
    EXPECT_EQ(a.device_seconds, b.device_seconds);
}

KernelTask affine_kernel(ThreadCtx& ctx, DevicePtr<float> in, DevicePtr<float> out) {
    const std::uint64_t gid = ctx.global_id();
    const float x = in.read(ctx, gid);
    ctx.charge(Op::FMad);
    out.write(ctx, gid, 2.0f * x + 1.0f);
    co_return;
}

// A barrier-free block recycles one hot coroutine frame, and a serial
// launch keeps its block scratch: after warm-up, a 4x128 launch takes every
// frame from the cache and makes exactly as many heap allocations as a 1x32
// launch does.
TEST(EngineScratch, SerialLaunchAllocationsDoNotGrowWithBlockSize) {
    Device dev(serial_properties());
    auto in = dev.malloc_n<float>(512);
    auto out = dev.malloc_n<float>(512);
    const LaunchConfig big{dim3{4}, dim3{128}};
    const LaunchConfig small{dim3{1}, dim3{32}};
    auto launch = [&](const LaunchConfig& cfg) {
        dev.launch(cfg, [&](ThreadCtx& ctx) { return affine_kernel(ctx, in, out); });
    };
    // Fills the device's launch history too, which grows up to 64 records.
    for (int i = 0; i < 80; ++i) launch(i % 2 == 0 ? big : small);

    detail::FrameCache& cache = detail::FrameCache::local();
    cache.flush_metrics();  // zeroes the local counts; 512 takes stay below a flush
    std::uint64_t before = g_allocations.load();
    launch(big);
    const std::uint64_t big_allocations = g_allocations.load() - before;
    EXPECT_EQ(cache.hits, 512u);
    EXPECT_EQ(cache.misses, 0u);

    before = g_allocations.load();
    launch(small);
    const std::uint64_t small_allocations = g_allocations.load() - before;
    EXPECT_EQ(big_allocations, small_allocations);
}

// Counts the coroutine frames alive (one instance per frame).
struct FrameCount {
    static inline int live = 0;
    FrameCount() { ++live; }
    ~FrameCount() { --live; }
    FrameCount(const FrameCount&) = delete;
    FrameCount& operator=(const FrameCount&) = delete;
};

// Thread `thrower` throws after the first barrier, while the threads before
// it wait at the second barrier and those after it still sit at the first.
template <typename Ctx>
KernelTask throw_between_barriers_kernel(Ctx& ctx, unsigned thrower) {
    const FrameCount frame;
    co_await ctx.syncthreads();
    if (ctx.lanes_where([&](unsigned l) { return ctx.lane_tid(l) == thrower; }) != 0) {
        throw std::runtime_error("thread gave up");
    }
    co_await ctx.syncthreads();
    co_return;
}

// No suspended frame outlives its launch inside the reused scratch, under
// either engine, and the next launch on the same host thread is unaffected.
TEST(EngineScratch, NoFrameOutlivesAFailedLaunch) {
    for (const EngineMode mode : {EngineMode::Thread, EngineMode::Warp}) {
        set_engine_mode(mode);
        Device dev(serial_properties());
        const LaunchConfig cfg{dim3{2}, dim3{128}};
        try {
            dev.launch(cfg, dual_form([](auto& ctx) {
                           return throw_between_barriers_kernel(ctx, 70);
                       }));
            ADD_FAILURE() << "expected LaunchFailure";
        } catch (const Error& e) {
            EXPECT_EQ(e.code(), ErrorCode::LaunchFailure);
            EXPECT_EQ(FrameCount::live, 0) << "frames left alive after the throw";
        }

        auto out = dev.malloc_n<std::uint32_t>(1024);
        const LaunchConfig next{dim3{8}, dim3{128}};
        const LaunchStats stats =
            dev.launch(next, [&](ThreadCtx& ctx) { return iota_kernel(ctx, out); });
        std::vector<std::uint32_t> host(1024);
        dev.download(std::span<std::uint32_t>(host), out);
        for (std::uint32_t i = 0; i < host.size(); ++i) ASSERT_EQ(host[i], i) << i;

        Device fresh(serial_properties());
        auto fresh_out = fresh.malloc_n<std::uint32_t>(1024);
        expect_same_stats(stats, fresh.launch(next, [&](ThreadCtx& ctx) {
            return iota_kernel(ctx, fresh_out);
        }));
    }
    clear_engine_mode();
}

// Thread 0 of each block launches `nested` (when set) while the rest of its
// block waits at a barrier.
KernelTask nesting_kernel(ThreadCtx& ctx, DevicePtr<std::uint32_t> out,
                          const std::function<void()>* nested) {
    const unsigned tid = ctx.linear_tid();
    const unsigned n = ctx.block_dim().x;
    auto tile = ctx.shared_array<std::uint32_t>(n);
    tile.write(ctx, tid, static_cast<std::uint32_t>(ctx.global_id() * 7));
    co_await ctx.syncthreads();
    if (tid == 0 && nested != nullptr) (*nested)();
    co_await ctx.syncthreads();
    out.write(ctx, ctx.global_id(), tile.read(ctx, (tid + 1) % n) + 1);
    co_return;
}

// A kernel body that launches a grid of its own on a second device nests
// run_grid on one host thread. The inner launch runs in its own scratch, so
// both results equal standalone runs.
TEST(EngineScratch, NestedLaunchFromAKernelBodyMatchesStandaloneRuns) {
    const LaunchConfig outer_cfg{dim3{2}, dim3{64}, 64 * sizeof(std::uint32_t)};
    const LaunchConfig inner_cfg{dim3{1}, dim3{96}};
    auto run_outer = [&](Device& dev, const std::function<void()>* nested) {
        auto out = dev.malloc_n<std::uint32_t>(128);
        const LaunchStats stats = dev.launch(outer_cfg, [&](ThreadCtx& ctx) {
            return nesting_kernel(ctx, out, nested);
        });
        std::vector<std::uint32_t> host(128);
        dev.download(std::span<std::uint32_t>(host), out);
        return std::make_pair(stats, host);
    };
    auto run_inner = [&](Device& dev, DevicePtr<std::uint32_t> out) {
        return dev.launch(inner_cfg, [&](ThreadCtx& ctx) { return iota_kernel(ctx, out); });
    };

    Device outer_dev(serial_properties());
    Device inner_dev(serial_properties());
    auto inner_out = inner_dev.malloc_n<std::uint32_t>(96);
    std::vector<LaunchStats> inner_stats;
    const std::function<void()> nested = [&] {
        inner_stats.push_back(run_inner(inner_dev, inner_out));
    };
    const auto [outer_stats, outer_host] = run_outer(outer_dev, &nested);
    ASSERT_EQ(inner_stats.size(), 2u);
    std::vector<std::uint32_t> inner_host(96);
    inner_dev.download(std::span<std::uint32_t>(inner_host), inner_out);

    Device alone(serial_properties());
    const auto [alone_outer_stats, alone_outer_host] = run_outer(alone, nullptr);
    expect_same_stats(outer_stats, alone_outer_stats);
    EXPECT_EQ(outer_host, alone_outer_host);
    for (unsigned i = 0; i < 128; ++i) {
        ASSERT_EQ(outer_host[i], (i / 64 * 64 + (i + 1) % 64) * 7 + 1) << i;
    }

    auto alone_out = alone.malloc_n<std::uint32_t>(96);
    const LaunchStats alone_inner_stats = run_inner(alone, alone_out);
    std::vector<std::uint32_t> alone_inner_host(96);
    alone.download(std::span<std::uint32_t>(alone_inner_host), alone_out);
    for (const LaunchStats& s : inner_stats) expect_same_stats(s, alone_inner_stats);
    EXPECT_EQ(inner_host, alone_inner_host);
}

}  // namespace
