// Wall-clock performance of the simulator itself (google-benchmark).
//
// Unlike the figure harnesses, which report *simulated* time, this binary
// measures how fast the host machine pushes simulated work through cusim —
// useful for tracking regressions in the engine (coroutine scheduling,
// accounting hooks, allocator).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "cupp/cupp.hpp"
#include "cusim/prof.hpp"
#include "gpusteer/plugin.hpp"
#include "steer/steer.hpp"

namespace {

using cusim::KernelTask;
using cusim::ThreadCtx;

KernelTask empty_kernel(ThreadCtx&) { co_return; }

KernelTask saxpy_kernel(ThreadCtx& ctx, cupp::deviceT::vector<float>& y,
                        const cupp::deviceT::vector<float>& x, float a) {
    const std::uint64_t gid = ctx.global_id();
    if (gid < y.size()) {
        ctx.charge(cusim::Op::FMad);
        y.write(ctx, gid, a * x.read(ctx, gid) + y.read(ctx, gid));
    }
    co_return;
}

// The simulated workloads, each stepped both by its benchmark and by the
// fixed profiled sequence behind --prof.

/// An empty kernel over `blocks` blocks of 128 threads.
struct EmptyLaunch {
    explicit EmptyLaunch(unsigned blocks) : cfg{cusim::dim3{blocks}, cusim::dim3{128}} {}
    cusim::LaunchStats step() {
        return dev.launch(cfg, [](ThreadCtx& ctx) { return empty_kernel(ctx); });
    }
    cusim::Device dev{cusim::tiny_properties()};
    cusim::LaunchConfig cfg;
};

/// y = 2x + y over `n` floats, through the cupp::kernel call protocol.
struct Saxpy {
    using K = KernelTask (*)(ThreadCtx&, cupp::deviceT::vector<float>&,
                             const cupp::deviceT::vector<float>&, float);
    explicit Saxpy(std::uint32_t n)
        : x(n, 1.0f),
          y(n, 2.0f),
          k(static_cast<K>(saxpy_kernel), cusim::dim3{(n + 255) / 256}, cusim::dim3{256}) {}
    void step() { k(d, y, x, 2.0f); }
    cupp::device d;
    cupp::vector<float> x, y;
    cupp::kernel<K> k;
};

/// One GpuBoidsPlugin V5 flock of `agents`.
struct BoidsFlock {
    explicit BoidsFlock(std::uint32_t agents) : gpu(gpusteer::Version::V5_FullUpdateOnDevice) {
        steer::WorldSpec spec;
        spec.agents = agents;
        gpu.open(spec);
    }
    ~BoidsFlock() { gpu.close(); }
    BoidsFlock(const BoidsFlock&) = delete;
    BoidsFlock& operator=(const BoidsFlock&) = delete;
    auto step() { return gpu.step(); }
    gpusteer::GpuBoidsPlugin gpu;
};

void BM_LaunchOverhead(benchmark::State& state) {
    EmptyLaunch w(static_cast<unsigned>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(w.step());
    }
    state.SetItemsProcessed(state.iterations() * w.cfg.total_threads());
}
BENCHMARK(BM_LaunchOverhead)->Arg(1)->Arg(16)->Arg(64);

void BM_SaxpyThroughput(benchmark::State& state) {
    const auto n = static_cast<std::uint32_t>(state.range(0));
    Saxpy w(n);
    for (auto _ : state) {
        w.step();
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SaxpyThroughput)->Arg(1 << 12)->Arg(1 << 16);

void BM_BoidsStep(benchmark::State& state) {
    const auto agents = static_cast<std::uint32_t>(state.range(0));
    BoidsFlock w(agents);
    for (auto _ : state) {
        benchmark::DoNotOptimize(w.step());
    }
    state.SetItemsProcessed(state.iterations() * agents * agents);  // pair tests
}
BENCHMARK(BM_BoidsStep)->Arg(512)->Arg(2048)->Unit(benchmark::kMillisecond);

void BM_CpuBoidsStep(benchmark::State& state) {
    const auto agents = static_cast<std::uint32_t>(state.range(0));
    steer::WorldSpec spec;
    spec.agents = agents;
    steer::CpuBoidsPlugin cpu;
    cpu.open(spec);
    for (auto _ : state) {
        benchmark::DoNotOptimize(cpu.step());
    }
    state.SetItemsProcessed(state.iterations() * agents * agents);
    cpu.close();
}
BENCHMARK(BM_CpuBoidsStep)->Arg(512)->Arg(2048)->Unit(benchmark::kMillisecond);

void BM_GlobalMemoryAllocator(benchmark::State& state) {
    cusim::GlobalMemory mem(64 * 1024 * 1024);
    std::vector<cusim::DeviceAddr> addrs;
    addrs.reserve(256);
    for (auto _ : state) {
        for (int i = 0; i < 256; ++i) addrs.push_back(mem.allocate(1024));
        for (const auto a : addrs) mem.free(a);
        addrs.clear();
    }
    state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_GlobalMemoryAllocator);

/// The launches of the three simulated benchmarks above at fixed counts.
/// google-benchmark picks its iteration counts from the host's speed, so a
/// profile of the timed loops would count more launches on a faster host;
/// this sequence's modelled totals depend on the code alone.
void run_profiled_sequence() {
    for (const unsigned blocks : {1u, 16u, 64u}) {
        EmptyLaunch w(blocks);
        for (int i = 0; i < 10; ++i) (void)w.step();
    }
    for (const std::uint32_t n : {1u << 12, 1u << 16}) {
        Saxpy w(n);
        for (int i = 0; i < 5; ++i) w.step();
    }
    for (const std::uint32_t agents : {512u, 2048u}) {
        BoidsFlock w(agents);
        for (int i = 0; i < 3; ++i) (void)w.step();
    }
}

}  // namespace

// Usage: bench_simulator_throughput [--prof <report.json>] [google-benchmark flags]
//   --prof runs the fixed profiled sequence before the timed benchmarks and
//   writes its cusim::prof report; reports of two runs (any host, any
//   CUPP_SIM_THREADS, any benchmark filter) are equal but for host time.
int main(int argc, char** argv) {
    std::string prof_path;
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--prof") == 0 && i + 1 < argc) {
            prof_path = argv[++i];
        } else {
            argv[kept++] = argv[i];
        }
    }
    argc = kept;
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

    // First, so the devices it creates get the same ordinals (and report
    // lanes) in every run: the timed benchmarks create a device per run of
    // the benchmark function, as many as the host's speed asks for.
    if (!prof_path.empty()) {
        cusim::prof::reset();
        cusim::prof::enable(prof_path);
        run_profiled_sequence();
        cusim::prof::disable();
        if (!cusim::prof::write_report(prof_path)) {
            std::fprintf(stderr, "cannot write %s\n", prof_path.c_str());
            return 1;
        }
        cusim::prof::reset();
        std::printf("wrote %s\n", prof_path.c_str());
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
