// Perf trajectory of the block engines (wall-clock).
//
// Unlike the figure harnesses, which report *simulated* time, this binary
// measures how fast the host pushes multi-block grids through cusim — for
// both execution engines (the classic coroutine-per-thread interpreter and
// the warp-vectorized one) across BlockPool thread counts — verifies every
// cell's LaunchStats stay bit-identical to the serial thread-engine run,
// and writes the results as JSON — the repo's perf trajectory artifact
// (BENCH_parallel_engine.json).
//
// Three kernel variants stress different engine paths:
//   crunch    — shared tile, two barrier episodes, 64 FMADs/thread: the
//               balanced workload the artifact has always tracked;
//   diverge   — 24 data-dependent branch rounds per thread (collatz-style),
//               asymmetric cost per side: the active-mask/reconvergence
//               machinery under heavy divergence;
//   nobarrier — 96 FMADs and a write, no __syncthreads: pure per-resume
//               interpreter overhead, where warp batching helps most.
//
// Usage: bench_parallel_engine [output.json] [--prof <prefix>]
//   --prof additionally runs a fixed profiled sequence under each engine
//   and writes <prefix>.thread.json / <prefix>.warp.json — cupp_prof --diff
//   must report identical modelled device time across them (host wall
//   seconds are real time and are excluded from the diffable slice).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "cusim/block_pool.hpp"
#include "cusim/cusim.hpp"

namespace {

using cusim::DevicePtr;
using cusim::KernelSpec;
using cusim::KernelTask;
using cusim::lanes;
using cusim::Op;

constexpr unsigned kGridX = 64;
constexpr unsigned kBlockX = 128;
constexpr std::uint32_t kN = kGridX * kBlockX;

// Each kernel is written once over the execution context (ThreadCtx or
// WarpCtx, cusim/warp_ctx.hpp); dual_form() instantiates both forms. Lane
// loops run Ctx::kLanes slots, a compile-time bound the host compiler can
// vectorize; the active mask decides which lanes commit.

// --- crunch: shared tile, 2 barriers, 64 FMADs/thread ----------------------

template <typename Ctx>
KernelTask crunch(Ctx& ctx, DevicePtr<float> out, std::uint32_t n) {
    auto tile = ctx.template shared_array<float>(ctx.block_dim().x);
    lanes<Ctx, std::uint64_t> idx{};
    lanes<Ctx, float> acc{};
    for (unsigned l = 0; l < Ctx::kLanes; ++l) {
        idx[l] = ctx.lane_tid(l);
        acc[l] = static_cast<float>(ctx.global_id(l));
    }
    ctx.write(tile, idx.data(), acc.data());
    co_await ctx.syncthreads();
    for (unsigned l = 0; l < Ctx::kLanes; ++l) idx[l] = (ctx.lane_tid(l) + 1) % ctx.block_dim().x;
    ctx.read(tile, idx.data(), acc.data());
    ctx.charge(Op::FMad, 64);  // == 64 per-iteration charges
    for (int i = 0; i < 64; ++i) {
        for (unsigned l = 0; l < Ctx::kLanes; ++l) acc[l] = acc[l] * 1.000001f + 0.5f;
    }
    co_await ctx.syncthreads();
    for (unsigned l = 0; l < Ctx::kLanes; ++l) idx[l] = ctx.global_id(l);
    ctx.if_(ctx.lanes_where([&](unsigned l) { return idx[l] < n; }),
            [&] { ctx.write(out, idx.data(), acc.data()); });
    co_return;
}

// --- diverge: 24 data-dependent branch rounds ------------------------------

template <typename Ctx>
KernelTask diverge(Ctx& ctx, DevicePtr<std::uint32_t> data, std::uint32_t salt) {
    lanes<Ctx, std::uint64_t> idx{};
    lanes<Ctx, std::uint32_t> v{};
    for (unsigned l = 0; l < Ctx::kLanes; ++l) idx[l] = ctx.global_id(l);
    ctx.read(data, idx.data(), v.data());
    for (unsigned l = 0; l < Ctx::kLanes; ++l) v[l] ^= salt;
    for (int i = 0; i < 24; ++i) {
        ctx.if_else(
            ctx.ballot(ctx.lanes_where([&](unsigned l) { return (v[l] & 1u) != 0; })),
            [&] {
                ctx.charge(Op::FMad);  // the taken side costs extra
                ctx.each_lane([&](unsigned l) { v[l] = v[l] * 3 + 1; });
            },
            [&] { ctx.each_lane([&](unsigned l) { v[l] >>= 1; }); });
    }
    for (unsigned l = 0; l < Ctx::kLanes; ++l) v[l] += static_cast<std::uint32_t>(idx[l]);
    ctx.write(data, idx.data(), v.data());
    co_return;
}

// --- nobarrier: 96 FMADs + one write, no __syncthreads ---------------------

template <typename Ctx>
KernelTask nobarrier(Ctx& ctx, DevicePtr<float> out, std::uint32_t n) {
    lanes<Ctx, std::uint64_t> idx{};
    lanes<Ctx, float> acc{};
    for (unsigned l = 0; l < Ctx::kLanes; ++l) {
        idx[l] = ctx.global_id(l);
        acc[l] = static_cast<float>(idx[l] & 0xffu);
    }
    ctx.charge(Op::FMad, 96);  // == 96 per-iteration charges
    for (int i = 0; i < 96; ++i) {
        for (unsigned l = 0; l < Ctx::kLanes; ++l) acc[l] = acc[l] * 1.0000005f + 0.25f;
    }
    ctx.if_(ctx.lanes_where([&](unsigned l) { return idx[l] < n; }),
            [&] { ctx.write(out, idx.data(), acc.data()); });
    co_return;
}

// --- harness ----------------------------------------------------------------

struct Sample {
    const char* engine = "";
    unsigned threads = 0;
    double steps_per_s = 0.0;
    double speedup = 0.0;  ///< vs the thread engine at 1 thread, same variant
    bool stats_identical = false;
};

struct Variant {
    const char* name = "";
    const char* note = "";
    std::vector<Sample> samples;
};

bool same_stats(const cusim::LaunchStats& a, const cusim::LaunchStats& b) {
    return a.blocks == b.blocks && a.threads == b.threads && a.warps == b.warps &&
           a.compute_cycles == b.compute_cycles && a.stall_cycles == b.stall_cycles &&
           a.bytes_read == b.bytes_read && a.bytes_written == b.bytes_written &&
           a.useful_bytes_read == b.useful_bytes_read &&
           a.useful_bytes_written == b.useful_bytes_written &&
           a.divergent_events == b.divergent_events &&
           a.branch_evaluations == b.branch_evaluations &&
           a.syncthreads_count == b.syncthreads_count &&
           a.device_seconds == b.device_seconds;
}

constexpr int kWarmupSteps = 2;
constexpr int kSteps = 20;

/// Runs warmup + kSteps of `spec` after `reset()`, so every cell of the
/// (engine, threads) matrix sees the identical launch sequence and the
/// final step's stats are comparable bit-for-bit.
template <typename Reset>
Sample measure(cusim::Device& dev, const cusim::LaunchConfig& cfg,
               const KernelSpec& spec, const char* name, Reset&& reset,
               cusim::EngineMode mode, unsigned threads,
               const cusim::LaunchStats* reference, cusim::LaunchStats* out_stats) {
    reset();
    cusim::set_engine_mode(mode);
    cusim::BlockPool::set_threads(threads);
    for (int i = 0; i < kWarmupSteps; ++i) (void)dev.launch(cfg, spec, name);
    cusim::LaunchStats stats{};
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kSteps; ++i) stats = dev.launch(cfg, spec, name);
    const auto t1 = std::chrono::steady_clock::now();
    cusim::BlockPool::set_threads(0);
    cusim::clear_engine_mode();

    Sample s;
    s.engine = mode == cusim::EngineMode::Warp ? "warp" : "thread";
    s.threads = threads;
    s.steps_per_s = kSteps / std::chrono::duration<double>(t1 - t0).count();
    s.stats_identical = reference == nullptr || same_stats(stats, *reference);
    if (out_stats != nullptr) *out_stats = stats;
    return s;
}

}  // namespace

int main(int argc, char** argv) {
    const char* out_path = "BENCH_parallel_engine.json";
    std::string prof_prefix;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--prof") == 0 && i + 1 < argc) {
            prof_prefix = argv[++i];
        } else {
            out_path = argv[i];
        }
    }

    cusim::Device dev(cusim::g80_properties());
    const DevicePtr<float> fout = dev.malloc_n<float>(kN);
    const DevicePtr<std::uint32_t> ubuf = dev.malloc_n<std::uint32_t>(kN);
    std::vector<std::uint32_t> useed(kN);
    for (std::uint32_t i = 0; i < kN; ++i) useed[i] = i * 2654435761u + 12345u;

    const cusim::LaunchConfig shared_cfg{cusim::dim3{kGridX}, cusim::dim3{kBlockX},
                                         kBlockX * sizeof(float)};
    const cusim::LaunchConfig plain_cfg{cusim::dim3{kGridX}, cusim::dim3{kBlockX}};

    const KernelSpec crunch_spec =
        cusim::dual_form([&](auto& ctx) { return crunch(ctx, fout, kN); });
    const KernelSpec diverge_spec =
        cusim::dual_form([&](auto& ctx) { return diverge(ctx, ubuf, 0x9e3779b9u); });
    const KernelSpec nobarrier_spec =
        cusim::dual_form([&](auto& ctx) { return nobarrier(ctx, fout, kN); });

    const auto no_reset = [] {};
    const auto reseed = [&] {
        dev.upload(ubuf, std::span<const std::uint32_t>(useed));
    };

    struct Case {
        const char* name;
        const char* note;
        const cusim::LaunchConfig* cfg;
        const KernelSpec* spec;
        const std::function<void()> reset;
    };
    const std::vector<Case> cases = {
        {"crunch", "shared tile, 2 barriers, 64 FMADs/thread", &shared_cfg,
         &crunch_spec, no_reset},
        {"diverge", "24 data-dependent branch rounds, asymmetric sides", &plain_cfg,
         &diverge_spec, reseed},
        {"nobarrier", "96 FMADs + 1 write, no __syncthreads", &plain_cfg,
         &nobarrier_spec, no_reset},
    };

    const std::vector<unsigned> thread_counts = {1, 2, 4, 8};
    std::vector<Variant> variants;
    bool all_identical = true;

    for (const Case& c : cases) {
        Variant var;
        var.name = c.name;
        var.note = c.note;

        // Serial thread-engine reference: the oracle every other cell of
        // this variant's matrix must reproduce bit-for-bit.
        cusim::LaunchStats reference{};
        (void)measure(dev, *c.cfg, *c.spec, c.name, c.reset,
                      cusim::EngineMode::Thread, 1, nullptr, &reference);

        double base_rate = 0.0;
        for (const cusim::EngineMode mode :
             {cusim::EngineMode::Thread, cusim::EngineMode::Warp}) {
            for (const unsigned t : thread_counts) {
                Sample s = measure(dev, *c.cfg, *c.spec, c.name, c.reset, mode, t,
                                   &reference, nullptr);
                if (mode == cusim::EngineMode::Thread && t == 1) {
                    base_rate = s.steps_per_s;
                }
                s.speedup = s.steps_per_s / base_rate;
                all_identical = all_identical && s.stats_identical;
                var.samples.push_back(s);
                std::printf("%-9s %-6s threads=%u  %9.1f steps/s  speedup %5.2fx  stats %s\n",
                            c.name, s.engine, t, s.steps_per_s, s.speedup,
                            s.stats_identical ? "bit-identical" : "MISMATCH");
            }
        }
        variants.push_back(std::move(var));
    }

    // Optional profiled pass: a fixed serial crunch sequence under each
    // engine. The reports' modelled device times must diff clean; host wall
    // seconds are real time and excluded from cupp_prof's diffable slice.
    if (!prof_prefix.empty()) {
        for (const cusim::EngineMode mode :
             {cusim::EngineMode::Thread, cusim::EngineMode::Warp}) {
            const std::string path =
                prof_prefix +
                (mode == cusim::EngineMode::Warp ? ".warp.json" : ".thread.json");
            cusim::set_engine_mode(mode);
            cusim::BlockPool::set_threads(1);
            cusim::prof::reset();
            cusim::prof::enable(path);
            for (int i = 0; i < 5; ++i) (void)dev.launch(shared_cfg, crunch_spec, "crunch");
            cusim::prof::disable();
            if (!cusim::prof::write_report(path)) {
                std::fprintf(stderr, "cannot write %s\n", path.c_str());
                return 1;
            }
            cusim::prof::reset();
            cusim::BlockPool::set_threads(0);
            cusim::clear_engine_mode();
            std::printf("wrote %s\n", path.c_str());
        }
    }

    std::FILE* f = std::fopen(out_path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", out_path);
        return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"parallel_engine\",\n");
    std::fprintf(f, "  \"grid\": [%u, 1, 1],\n", kGridX);
    std::fprintf(f, "  \"block\": [%u, 1, 1],\n", kBlockX);
    std::fprintf(f, "  \"steps_per_measurement\": %d,\n", kSteps);
    std::fprintf(f, "  \"host_hardware_concurrency\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"speedup_baseline\": \"thread engine at 1 sim thread, per variant\",\n");
    std::fprintf(f, "  \"variants\": [\n");
    for (std::size_t vi = 0; vi < variants.size(); ++vi) {
        const Variant& var = variants[vi];
        std::fprintf(f, "    {\"kernel\": \"%s\", \"note\": \"%s\", \"results\": [\n",
                     var.name, var.note);
        for (std::size_t i = 0; i < var.samples.size(); ++i) {
            const Sample& s = var.samples[i];
            std::fprintf(f,
                         "      {\"engine\": \"%s\", \"sim_threads\": %u, "
                         "\"steps_per_s\": %.1f, \"speedup_vs_serial_thread\": %.2f, "
                         "\"stats_bit_identical\": %s}%s\n",
                         s.engine, s.threads, s.steps_per_s, s.speedup,
                         s.stats_identical ? "true" : "false",
                         i + 1 < var.samples.size() ? "," : "");
        }
        std::fprintf(f, "    ]}%s\n", vi + 1 < variants.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path);

    if (!all_identical) {
        std::fprintf(stderr, "FAIL: stats diverged from the serial thread engine\n");
        return 1;
    }
    return 0;
}
