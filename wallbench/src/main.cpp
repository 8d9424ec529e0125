// wallbench — host wall-clock benchmark of cusim + cupp.
//
// One process runs one role for one workload (boids_step, serve_soak,
// stream_pipeline) and prints one JSON object as its last stdout line:
//
//   --role main     set up, run the closed loop for --seconds, check every
//                   output; with --trace 1, split the loop into an untraced
//                   and a traced half and run the layer probes
//   --role setup    set up and note when the first op is ready; with
//                   --fingerprint 1, then run and check the units the
//                   fingerprint covers
//   --role bringup  time one cusim::Device(g80_properties()) construction
//                   in this fresh process
//
// `ready_ns` is CLOCK_MONOTONIC when the first op is ready; the caller
// subtracts its own spawn time to get setup_s. wallbench/run.py drives the
// roles and assembles the benchmark's result.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "cupp/cupp.hpp"
#include "cusim/block_pool.hpp"
#include "cusim/engine.hpp"
#include "cusim/prof.hpp"
#include "cusim/registry.hpp"
#include "gpusteer/plugin.hpp"
#include "pipeline_kernel.hpp"
#include "serve/boids_service.hpp"
#include "steer/simulation.hpp"
#include "steer/vec3.hpp"

#ifndef WALLBENCH_BUILD_TYPE
#define WALLBENCH_BUILD_TYPE "unknown"
#endif

namespace wallbench {

double host_probe() {
    constexpr std::size_t kFloats = 16384;  // 64 KiB
    constexpr int kSweeps = 4;
    static std::vector<float> buf(kFloats);
    std::fill(buf.begin(), buf.end(), 1.0f);  // the same work every run
    const auto t0 = Clock::now();
    float acc = 0.0f;
    for (int sweep = 0; sweep < kSweeps; ++sweep) {
        for (float& x : buf) {
            acc += x * 1.0001f;  // grows to about 1e16: finite, never denormal
            x = acc * 0.5f;
        }
    }
    const double wall = seconds_since(t0);
    if (!(acc > 0.0f)) std::abort();  // keeps the chain observable
    return wall;
}

std::string Fingerprint::hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
}

bool SpanLog::write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record& r = records_[i];
        std::fprintf(f, "{\"name\": \"%.*s\", \"start_ns\": %lld, \"end_ns\": %lld, \"parent\": %d}%s\n",
                     static_cast<int>(r.name.size()), r.name.data(),
                     static_cast<long long>(r.start_ns), static_cast<long long>(r.end_ns),
                     r.parent, i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
}

namespace {

struct Args {
    std::string workload;
    std::string role = "main";
    std::string spans;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    bool fingerprint = false;
};

std::int64_t monotonic_ns() {
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

rusage self_usage() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
    if (name == "boids_step") return make_boids_step();
    if (name == "serve_soak") return make_serve_soak();
    if (name == "stream_pipeline") return make_stream_pipeline();
    return nullptr;
}

/// Minimal JSON object writer: keys in insertion order, numbers with all
/// their digits.
class JsonObject {
public:
    JsonObject& num(const std::string& key, double v) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return raw(key, buf);
    }
    JsonObject& integer(const std::string& key, std::uint64_t v) {
        return raw(key, std::to_string(v));
    }
    JsonObject& boolean(const std::string& key, bool v) { return raw(key, v ? "true" : "false"); }
    JsonObject& str(const std::string& key, const std::string& v) {
        std::string quoted = "\"";
        for (const char c : v) {
            if (c == '"' || c == '\\') quoted += '\\';
            quoted += (c == '\n') ? ' ' : c;
        }
        return raw(key, quoted + "\"");
    }
    JsonObject& raw(const std::string& key, const std::string& json) {
        body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + json;
        return *this;
    }
    [[nodiscard]] std::string dump() const { return "{" + body_ + "}"; }

private:
    std::string body_;
};

/// Closed loop in wall time: the next op starts when the previous one
/// ends. Runs at least `seconds` and at least one window's ops, stops early
/// on the first failure (the run is wrong either way), and closes a window
/// once a second of op wall time, Tally::kWindowOps ops and a whole number
/// of the workload's window units have passed.
void closed_loop(Workload& w, double seconds, Tally& t) {
    const auto t0 = Clock::now();
    Tally::Window open{t.op_s.size(), 0, t.completed, t.busy_s};
    int units = 0;
    while (t.failed == 0 && (seconds_since(t0) < seconds || t.attempted < Tally::kWindowOps)) {
        w.unit(t);
        ++units;
        if (units % w.window_units() == 0 && t.busy_s - open.busy_s >= 1.0 &&
            t.op_s.size() - open.first_op >= Tally::kWindowOps) {
            t.windows.push_back(
                {open.first_op, t.op_s.size(), t.completed - open.completed, t.busy_s - open.busy_s});
            open = {t.op_s.size(), 0, t.completed, t.busy_s};
        }
    }
}

JsonObject host_record() {
    JsonObject h;
    h.integer("nproc", static_cast<std::uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
    h.integer("hardware_concurrency", std::thread::hardware_concurrency());
    h.integer("sim_threads", cusim::BlockPool::configured_threads());
    h.str("engine", cusim::engine_mode() == cusim::EngineMode::Warp ? "warp" : "thread");
    h.str("compiler", std::string("g++ ") + __VERSION__);
    h.str("build_type", WALLBENCH_BUILD_TYPE);
    return h;
}

// --- layer probes of the traced run -------------------------------------------
// Each calls one layer's public functions directly, at the shape of the
// workload that reaches that layer only through a higher one.

/// Device::malloc_bytes + free_bytes, copy_to_device and copy_to_host at
/// the serve flock sizes (128 and 256 agents of Vec3).
void probe_memory() {
    cusim::Device& sim = cusim::Registry::instance().device(0);
    std::vector<std::byte> host(256 * sizeof(steer::Vec3));
    const cusim::DeviceAddr buf = sim.malloc_bytes(host.size());
    for (int rep = 0; rep < 200; ++rep) {
        for (const std::uint64_t agents : {128u, 256u}) {
            const std::uint64_t bytes = agents * sizeof(steer::Vec3);
            {
                Span span("cusim.memory.alloc_free");
                sim.free_bytes(sim.malloc_bytes(bytes));
            }
            {
                Span span("cusim.memory.h2d");
                sim.copy_to_device(buf, host.data(), bytes);
            }
            {
                Span span("cusim.memory.d2h");
                sim.copy_to_host(host.data(), buf, bytes);
            }
        }
    }
    sim.free_bytes(buf);
}

/// Device::launch against a cupp::kernel call with one by-reference vector,
/// on the stream_pipeline grid. The difference is the call protocol:
/// argument transform, the runtime-API stack and copy-back.
void probe_launch() {
    constexpr float kA = 0.5f;  // converges to 2: no overflow, no denormals
    constexpr float kB = 1.0f;
    cupp::device d(0);
    cusim::Device& sim = d.sim();
    cupp::vector<float> v(kPipelineChunk, 1.0f);
    cupp::kernel k(static_cast<PipelineKernel>(affine_kernel),
                   cusim::dim3{kPipelineChunk / kPipelineBlock}, cusim::dim3{kPipelineBlock});
    k.set_name("affine");

    const std::vector<float> ones(kPipelineChunk, 1.0f);
    const auto ptr = sim.malloc_n<float>(kPipelineChunk);
    sim.upload(ptr, std::span<const float>(ones));
    cupp::deviceT::vector<float> handle;
    handle.data = ptr;
    handle.count = kPipelineChunk;
    const cusim::LaunchConfig cfg{cusim::dim3{kPipelineChunk / kPipelineBlock},
                                  cusim::dim3{kPipelineBlock}};
    const cusim::KernelEntry entry = [&handle](cusim::ThreadCtx& ctx) {
        return affine_kernel(ctx, handle, kA, kB);
    };

    k(d, v, kA, kB);  // warm: allocation, upload, cached handle
    (void)sim.launch(cfg, entry, "affine");
    for (int rep = 0; rep < 200; ++rep) {
        {
            Span span("cusim.device.launch");
            (void)sim.launch(cfg, entry, "affine");
        }
        {
            Span span("cupp.kernel.call");
            k(d, v, kA, kB);
        }
    }
    sim.free(ptr);
}

/// Boids at the boids_step shape: open, steps at the pinned count and at
/// kPoolProbeThreads sim threads (the block-pool speedup), and the native
/// CPU plugin step as the reference no cusim/cupp change should move.
/// Returns the flock check.
bool probe_boids(std::uint64_t seed) {
    steer::WorldSpec spec;
    spec.agents = 1024;
    spec.seed = seed;
    gpusteer::GpuBoidsPlugin gpu(gpusteer::Version::V5_FullUpdateOnDevice,
                                 /*double_buffering=*/true);
    for (int i = 0; i < 3; ++i) {
        if (i > 0) gpu.close();
        Span span("gpusteer.open");
        gpu.open(spec);
    }
    int steps = 1;
    (void)gpu.step();
    for (int i = 0; i < 10; ++i, steps += 2) {
        cusim::BlockPool::set_threads(kSimThreads);
        {
            Span span("gpusteer.step");
            (void)gpu.step();
        }
        cusim::BlockPool::set_threads(kPoolProbeThreads);
        {
            Span span("gpusteer.step_pool");
            (void)gpu.step();
        }
    }
    cusim::BlockPool::set_threads(kSimThreads);

    steer::CpuBoidsPlugin cpu;
    cpu.open(spec);
    for (int i = 0; i < steps; ++i) {
        Span span("steer.cpu_step");
        (void)cpu.step();
    }
    return cupp::serve::flock_digest(cpu.snapshot()) ==
           cupp::serve::flock_digest(gpu.snapshot());
}

double median_of(const char* span, double scale) {
    return median(SpanLog::get().durations(span)) * scale;
}

/// The traced half of the main loop: spans on, the cusim::prof collector on
/// for the interpreter's own wall time per kernel. `untraced` is the first
/// half's tally.
void traced_loop(Workload& w, double seconds, const Tally& untraced, Tally& traced,
                 std::map<std::string, double>& m) {
    SpanLog::get().set_enabled(true);
    cusim::prof::enable();
    closed_loop(w, seconds, traced);
    double interp_s = 0.0;
    double simulated_threads = 0.0;
    for (const auto& k : cusim::prof::kernel_activities()) {
        interp_s += k.host_seconds;
        simulated_threads += static_cast<double>(k.totals.threads);
    }
    cusim::prof::reset();

    const double done = static_cast<double>(traced.completed);
    m["cusim.engine.grid_ms"] = done > 0 ? interp_s / done * 1e3 : 0.0;
    m["cusim.engine.ns_per_sim_thread"] =
        simulated_threads > 0 ? interp_s / simulated_threads * 1e9 : 0.0;
    const double untraced_rate = untraced.ops_per_s(true);
    m["trace.overhead"] = untraced_rate > 0 ? traced.ops_per_s(true) / untraced_rate : 0.0;
}

/// Every layer probe, then the per-layer metrics from the span log. Runs
/// after the main workload's final checks: the serve pass resets devices
/// after its injected device losses, which wipes what lives on them.
bool probe_layers(const Workload& w, const Args& a, Tally& total,
                  std::map<std::string, double>& m) {
    SpanLog::get().set_enabled(true);
    cusim::Registry::instance().set_device(0);
    probe_memory();
    probe_launch();
    bool correct = probe_boids(a.seed);

    // The other two workloads, briefly, for the layers only they reach.
    Workload::Figures serve_figures = a.workload == "serve_soak" ? w.figures() : Workload::Figures{};
    for (const char* other : {"serve_soak", "stream_pipeline"}) {
        if (a.workload == other) continue;
        auto probe = make_workload(other);
        probe->setup(a.seed);
        Tally t;
        const bool is_serve = std::string(other) == "serve_soak";
        for (int i = 0; i < (is_serve ? 1 : 20) && t.failed == 0; ++i) {
            probe->unit(t);
        }
        correct = probe->finish(t) && correct;
        total.attempted += t.attempted;
        total.failed += t.failed;
        if (is_serve) serve_figures = probe->figures();
        cusim::Registry::instance().set_device(0);
    }
    SpanLog::get().set_enabled(false);

    m["cusim.memory.alloc_free_us"] = median_of("cusim.memory.alloc_free", 1e6);
    m["cusim.memory.h2d_us"] = median_of("cusim.memory.h2d", 1e6);
    m["cusim.memory.d2h_us"] = median_of("cusim.memory.d2h", 1e6);
    m["cusim.device.launch_us"] = median_of("cusim.device.launch", 1e6);
    m["cupp.kernel.call_us"] = median_of("cupp.kernel.call", 1e6);
    m["cupp.kernel.protocol_us"] = m["cupp.kernel.call_us"] - m["cusim.device.launch_us"];
    m["cusim.block_pool.speedup"] =
        median_of("gpusteer.step", 1.0) / median_of("gpusteer.step_pool", 1.0);
    m["cusim.stream.enqueue_us"] = median_of("cusim.stream.enqueue", 1e6);
    m["cusim.stream.drain_ms"] = median_of("cusim.stream.drain", 1e3);
    m["cusim.graph.instantiate_ms"] = median_of("cusim.graph.instantiate", 1e3);
    m["cusim.graph.replay_us"] = median_of("cusim.graph.replay", 1e6);
    m["cusim.graph.replay_drain_ms"] = median_of("cusim.graph.replay_drain", 1e3);
    m["gpusteer.open_ms"] = median_of("gpusteer.open", 1e3);
    m["steer.cpu_step_ms"] = median_of("steer.cpu_step", 1e3);
    m["gpusteer.step_vs_cpu"] = median_of("gpusteer.step", 1.0) / median_of("steer.cpu_step", 1.0);
    m["serve.handler_ms"] = median_of("serve.handler", 1e3);

    std::map<std::string, double> sf(serve_figures.begin(), serve_figures.end());
    const auto& log = SpanLog::get();
    const double run_s = sum(log.durations("serve.run"));
    const double handler_s = sum(log.durations("serve.handler"));
    const double passes = static_cast<double>(log.durations("serve.run").size());
    m["serve.broker_ms"] = passes > 0 ? (run_s - handler_s) / passes * 1e3 : 0.0;
    m["serve.attempts_per_completed"] = sf["completed"] > 0 ? sf["attempts"] / sf["completed"] : 0.0;
    m["cusim.faults.injected"] = sf["passes"] > 0 ? sf["faults_injected"] / sf["passes"] : 0.0;
    return correct;
}

int run_main(Workload& w, const Args& a, std::int64_t ready_ns) {
    // The untraced loop: the end-to-end metrics. In the traced run it is
    // the first half, and the base of trace.overhead.
    SpanLog::get().set_enabled(false);
    Tally t;
    closed_loop(w, a.trace ? a.seconds / 2 : a.seconds, t);
    const std::string fingerprint = w.fingerprint();
    std::map<std::string, double> layers;
    Tally traced;
    if (a.trace && t.failed == 0) traced_loop(w, a.seconds / 2, t, traced, layers);
    bool correct = w.finish(t) && t.failed == 0 && traced.failed == 0;

    Tally total;
    total.attempted = t.attempted + traced.attempted;
    total.failed = t.failed + traced.failed;
    if (a.trace && correct) correct = probe_layers(w, a, total, layers) && total.failed == 0;
    if (!a.spans.empty() && !SpanLog::get().write(a.spans)) {
        std::fprintf(stderr, "wallbench: cannot write spans to %s\n", a.spans.c_str());
    }

    JsonObject out;
    out.str("role", "main").integer("ready_ns", static_cast<std::uint64_t>(ready_ns));
    out.boolean("correct", correct).str("fingerprint", fingerprint);
    out.integer("attempted", total.attempted).integer("failed", total.failed);
    out.integer("op_samples", t.op_s.size());
    const auto p50 = [](std::vector<double> v) { return median(std::move(v)); };
    const auto p90 = [](std::vector<double> v) { return percentile(std::move(v), 0.90); };
    out.num("ops_per_s", t.ops_per_s(true));
    out.num("op_p50_ms", t.op_stat(p50, true) * 1e3);
    out.num("op_p90_ms", t.op_stat(p90, true) * 1e3);
    // The same figures in plain wall time, and the host speed they were
    // taken at: printed, not gated.
    JsonObject wall;
    wall.num("ops_per_s", t.ops_per_s(false));
    wall.num("op_p50_ms", t.op_stat(p50, false) * 1e3);
    wall.num("op_p90_ms", t.op_stat(p90, false) * 1e3);
    wall.num("host_speed", t.host_speed(0, t.op_s.size()));
    out.raw("wall", wall.dump());
    out.num("peak_rss_mb", static_cast<double>(self_usage().ru_maxrss) / 1024.0);
    JsonObject fig;
    for (const auto& [k, v] : w.figures()) fig.num(k, v);
    out.raw("figures", fig.dump());
    JsonObject lay;
    for (const auto& [k, v] : layers) lay.num(k, v);
    out.raw("layers", lay.dump());
    out.raw("host", host_record().dump());
    std::printf("%s\n", out.dump().c_str());
    return correct ? 0 : 1;
}

int run_bringup() {
    const rusage before = self_usage();
    const auto t0 = Clock::now();
    cusim::Device dev(cusim::g80_properties());
    const double construct_s = seconds_since(t0);
    const rusage after = self_usage();
    JsonObject out;
    out.str("role", "bringup").num("construct_s", construct_s);
    out.integer("minflt", static_cast<std::uint64_t>(after.ru_minflt - before.ru_minflt));
    std::printf("%s\n", out.dump().c_str());
    return 0;
}

bool parse(int argc, char** argv, Args& a) {
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        if (key == "--workload") a.workload = val;
        else if (key == "--role") a.role = val;
        else if (key == "--spans") a.spans = val;
        else if (key == "--seed") a.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (key == "--seconds") a.seconds = std::strtod(val.c_str(), nullptr);
        else if (key == "--trace") a.trace = val == "1";
        else if (key == "--fingerprint") a.fingerprint = val == "1";
        else return false;
    }
    if (a.role == "bringup") return argc % 2 == 1;
    return argc % 2 == 1 && a.seconds > 0 && (a.role == "main" || a.role == "setup") &&
           make_workload(a.workload) != nullptr;
}

}  // namespace
}  // namespace wallbench

int main(int argc, char** argv) {
    using namespace wallbench;
#ifndef __OPTIMIZE__
    std::fprintf(stderr, "wallbench: refusing to record from an unoptimised build\n");
    return 3;
#endif
    Args a;
    if (!parse(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: wallbench --workload boids_step|serve_soak|stream_pipeline "
                     "--seed N [--seconds S] [--trace 0|1] [--role main|setup|bringup] "
                     "[--fingerprint 0|1] [--spans PATH]\n");
        return 2;
    }
    cusim::BlockPool::set_threads(kSimThreads);
    if (a.role == "bringup") return run_bringup();
    try {
        auto w = make_workload(a.workload);
        SpanLog::get().set_enabled(a.trace);  // setup spans: open, instantiate
        w->setup(a.seed);
        const std::int64_t ready_ns = monotonic_ns();
        if (a.role == "main") return run_main(*w, a, ready_ns);

        SpanLog::get().set_enabled(false);
        Tally t;
        const int units = a.fingerprint ? w->fingerprint_units() : 0;
        for (int i = 0; i < units && t.failed == 0; ++i) w->unit(t);
        const bool correct = (units == 0 || w->finish(t)) && t.failed == 0;
        JsonObject out;
        out.str("role", "setup").integer("ready_ns", static_cast<std::uint64_t>(ready_ns));
        out.boolean("correct", correct).str("fingerprint", units > 0 ? w->fingerprint() : "");
        std::printf("%s\n", out.dump().c_str());
        return correct ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "wallbench: %s\n", e.what());
        return 1;
    }
}
