// Differential stream determinism harness: seeded random DAGs of kernel
// launches, async copies and event waits across 1-4 streams, each DAG run
// with the block engine pinned to 1, 2 and 8 worker threads. Every
// observable — final device memory, LaunchStats, memcheck reports, fault
// counters, trace event sequences, the normalized timeline report — must
// be bit-identical to the serial run: the drain order is a pure function
// of the enqueue sequence, and only the blocks *inside* one grid
// parallelize (under run_grid's launch-order reduction).
#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "cupp/trace.hpp"
#include "cusim/block_pool.hpp"
#include "cusim/cusim.hpp"
#include "cusim/faults.hpp"
#include "cusim/timeline.hpp"
#include "gpusteer/plugin.hpp"

namespace {

using namespace cusim;

/// Masks the process-global device ordinal ("dev3.stream1" -> "dev#.stream1",
/// '"device": 3' -> '"device": #'): each run constructs a fresh Device, so
/// the ordinal is the one legitimately run-dependent token in the report.
std::string mask_device_ordinals(std::string text) {
    for (std::size_t pos = 0; (pos = text.find("dev", pos)) != std::string::npos;) {
        std::size_t i = pos + 3;
        while (i < text.size() && std::isdigit(static_cast<unsigned char>(text[i]))) {
            text.erase(i, 1);
        }
        if (i > pos + 3) text.insert(pos + 3, "#");
        pos += 4;
    }
    const std::string key = "\"device\": ";
    for (std::size_t pos = 0; (pos = text.find(key, pos)) != std::string::npos;) {
        std::size_t i = pos + key.size();
        while (i < text.size() && std::isdigit(static_cast<unsigned char>(text[i]))) {
            text.erase(i, 1);
        }
        text.insert(pos + key.size(), "#");
        pos += key.size();
    }
    return text;
}

struct ThreadsGuard {
    explicit ThreadsGuard(unsigned n) { BlockPool::set_threads(n); }
    ~ThreadsGuard() { BlockPool::set_threads(0); }
};

struct EngineGuard {
    explicit EngineGuard(EngineMode m) { set_engine_mode(m); }
    ~EngineGuard() { clear_engine_mode(); }
};

/// Deterministic 64-bit mixer (splitmix64): the DAG shape, op parameters
/// and kernel payloads all derive from it, so a (seed, op-index) pair
/// fully determines the workload on every run and thread count.
struct Rng {
    std::uint64_t state;
    explicit Rng(std::uint64_t seed) : state(seed) {}
    std::uint64_t next() {
        state += 0x9e3779b97f4a7c15ull;
        std::uint64_t z = state;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    std::uint32_t below(std::uint32_t n) {
        return static_cast<std::uint32_t>(next() % n);
    }
};

/// Written once over the execution context: the thread form is the oracle,
/// and every digest below must be bit-identical whichever engine interprets
/// it. memcheck is always on in this harness, which keeps the warp form on
/// its lane-facade (exact-diagnostics) path throughout.
template <typename Ctx>
KernelTask mix_kernel(Ctx& ctx, DevicePtr<std::uint32_t> data, std::uint32_t salt) {
    lanes<Ctx, std::uint64_t> idx{};
    lanes<Ctx, std::uint32_t> acc{};
    for (unsigned l = 0; l < Ctx::kLanes; ++l) idx[l] = ctx.global_id(l);
    ctx.read(data, idx.data(), acc.data());
    for (unsigned l = 0; l < Ctx::kLanes; ++l) acc[l] = acc[l] * 2654435761u + salt;
    ctx.if_(ctx.ballot(ctx.lanes_where([&](unsigned l) { return (idx[l] & 1) == 0; })),
            [&] { ctx.each_lane([&](unsigned l) { acc[l] ^= acc[l] >> 7; }); });
    for (unsigned l = 0; l < Ctx::kLanes; ++l) acc[l] += static_cast<std::uint32_t>(idx[l]);
    ctx.write(data, idx.data(), acc.data());
    co_return;
}

KernelSpec mix_spec(DevicePtr<std::uint32_t> buf, std::uint32_t salt) {
    return dual_form([=](auto& ctx) { return mix_kernel(ctx, buf, salt); });
}

constexpr std::uint32_t kElems = 64;  // per-buffer elements (2 blocks of 32)

/// One recorded non-sync op of the replay batch. H2D sources and D2H
/// destinations live in the harness (sources re-staged per eager enqueue,
/// destinations shared by both replays so final contents are comparable).
struct LoggedOp {
    enum class Kind { Launch, H2D, D2H, Record, Wait } kind;
    StreamId stream = 0;
    unsigned buf = 0;
    std::uint32_t salt = 0;     // Launch
    std::size_t payload = 0;    // H2D: source index; D2H: destination index
    std::size_t event = 0;      // Record/Wait: event index
};

/// The seeded DAG both harnesses run, executed on construction: a fresh
/// device with 1-4 streams and 2-4 seeded buffers, then 12-31 random ops
/// (launches, async copies, event records/waits, mid-DAG syncs) under a
/// transient fault every fifth launch/copy, then a full synchronize. With
/// `logging`, every successfully enqueued non-sync op is appended to `log`
/// and its H2D payload kept for re-enqueueing.
struct Dag {
    Device dev{tiny_properties()};
    const LaunchConfig cfg{dim3{2}, dim3{32}};
    std::vector<StreamId> streams;
    std::vector<DevicePtr<std::uint32_t>> buffers;
    std::vector<std::vector<std::uint32_t>> downloads;  // D2H destinations, kept alive
    std::vector<EventId> events;
    std::vector<LoggedOp> log;
    std::vector<std::vector<std::uint32_t>> h2d_sources;
    unsigned n_ops = 0;
    unsigned faults_caught = 0;

    Dag(std::uint64_t seed, bool logging) {
        Rng rng(seed);
        const unsigned n_streams = 1 + rng.below(4);
        for (unsigned i = 0; i < n_streams; ++i) streams.push_back(dev.stream_create());

        const unsigned n_buffers = 2 + rng.below(3);
        for (unsigned i = 0; i < n_buffers; ++i) {
            buffers.push_back(dev.malloc_n<std::uint32_t>(kElems));
            std::vector<std::uint32_t> init(kElems);
            for (std::uint32_t j = 0; j < kElems; ++j) {
                init[j] = static_cast<std::uint32_t>(rng.next());
            }
            dev.upload(buffers.back(), std::span<const std::uint32_t>(init));
        }

        // One transient fault every few ops at the async launch/copy sites:
        // the injection counters (host-side, at enqueue) must tick
        // identically for every thread count, and every throw is caught and
        // counted. Armed only for the DAG itself — setup uploads above and
        // the result downloads stay fault-free.
        std::vector<faults::Rule> rules;
        for (faults::Site site :
             {faults::Site::Launch, faults::Site::MemcpyH2D, faults::Site::MemcpyD2H}) {
            faults::Rule r;
            r.site = site;
            r.code = site == faults::Site::Launch ? ErrorCode::LaunchFailure
                                                  : ErrorCode::TransferFailure;
            r.every = 5;
            rules.push_back(r);
        }
        faults::configure(rules);

        std::vector<bool> recorded;
        n_ops = 12 + rng.below(20);
        const auto note = [&](LoggedOp op) {
            if (logging) log.push_back(op);
        };
        for (unsigned i = 0; i < n_ops; ++i) {
            const StreamId s = streams[rng.below(n_streams)];
            const auto buf = rng.below(n_buffers);
            try {
                switch (rng.below(8)) {
                    case 0:
                    case 1:
                    case 2: {  // kernel launch (most common)
                        const auto salt = static_cast<std::uint32_t>(rng.next());
                        dev.launch_async(cfg, mix_spec(buffers[buf], salt), "mix", s);
                        note({LoggedOp::Kind::Launch, s, buf, salt, 0, 0});
                        break;
                    }
                    case 3: {  // async H2D of a fresh pattern
                        std::vector<std::uint32_t> src(kElems);
                        for (auto& v : src) v = static_cast<std::uint32_t>(rng.next());
                        // Staged at enqueue: unless logged, the source dies
                        // right here.
                        dev.memcpy_to_device_async(buffers[buf].addr(), src.data(),
                                                   kElems * sizeof(std::uint32_t), s);
                        if (logging) h2d_sources.push_back(std::move(src));
                        note({LoggedOp::Kind::H2D, s, buf, 0, h2d_sources.size() - 1, 0});
                        break;
                    }
                    case 4: {  // async D2H into a kept-alive destination
                        downloads.emplace_back(kElems, 0u);
                        dev.memcpy_to_host_async(downloads.back().data(),
                                                 buffers[buf].addr(),
                                                 kElems * sizeof(std::uint32_t), s);
                        note({LoggedOp::Kind::D2H, s, buf, 0, 0, 0});
                        break;
                    }
                    case 5: {  // record a (possibly new) event
                        if (events.empty() || rng.below(2) == 0) {
                            events.push_back(dev.event_create());
                            recorded.push_back(false);
                        }
                        const auto e = rng.below(static_cast<std::uint32_t>(events.size()));
                        dev.event_record(events[e], s);
                        recorded[e] = true;
                        note({LoggedOp::Kind::Record, s, 0, 0, 0, e});
                        break;
                    }
                    case 6: {  // cross-stream wait on a previously seen event
                        if (!events.empty()) {
                            const auto e =
                                rng.below(static_cast<std::uint32_t>(events.size()));
                            dev.stream_wait_event(s, events[e]);
                            note({LoggedOp::Kind::Wait, s, 0, 0, 0, e});
                        }
                        break;
                    }
                    case 7: {  // occasional mid-DAG synchronization, never logged
                        switch (rng.below(3)) {
                            case 0: dev.stream_synchronize(s); break;
                            case 1:
                                if (!events.empty() && recorded[0]) {
                                    dev.event_synchronize(events[0]);
                                }
                                break;
                            default: dev.synchronize(); break;
                        }
                        break;
                    }
                }
            } catch (const Error&) {
                ++faults_caught;  // injected transient: counted, not retried
            }
        }
        dev.synchronize();
    }

    ~Dag() {
        for (EventId e : events) dev.event_destroy(e);
        for (StreamId s : streams) dev.stream_destroy(s);
    }

    /// "bufN=..." lines with every buffer's final contents, then the D2H
    /// destinations as "dlN=...".
    void dump_memory(std::ostringstream& out) {
        for (std::size_t i = 0; i < buffers.size(); ++i) {
            std::vector<std::uint32_t> host(kElems);
            dev.download(std::span<std::uint32_t>(host), buffers[i]);
            out << "buf" << i << "=";
            for (std::uint32_t v : host) out << v << ",";
            out << "\n";
        }
        for (std::size_t i = 0; i < downloads.size(); ++i) {
            out << "dl" << i << "=";
            for (std::uint32_t v : downloads[i]) out << v << ",";
            out << "\n";
        }
    }
};

/// Everything observable about one DAG execution, serialised for an exact
/// string comparison (memory bytes, launch stats, memcheck, faults, and a
/// trace signature for a subset of seeds).
std::string run_dag(std::uint64_t seed, unsigned threads, bool with_trace,
                    EngineMode engine = EngineMode::Thread) {
    ThreadsGuard guard(threads);
    EngineGuard engine_guard(engine);
    memcheck::enable();
    memcheck::reset();
    // Timeline recording runs on every DAG: the normalized report (all
    // modelled times, no wall clocks) must be part of the bit-identical
    // observable set. reset() also restarts the shared correlation counter.
    timeline::reset();
    timeline::enable();
    if (with_trace) {
        cupp::trace::enable();
        cupp::trace::clear();
        cupp::trace::metrics().reset();
    }

    std::ostringstream out;
    {
        Dag dag(seed, /*logging=*/false);
        Device& dev = dag.dev;
        out << "seed=" << seed << " streams=" << dag.streams.size() << " ops=" << dag.n_ops
            << " faults_caught=" << dag.faults_caught << "\n";
        out << "launches=" << dev.launches() << " h2d=" << dev.bytes_to_device()
            << " d2h=" << dev.bytes_to_host() << "\n";
        out << "stats=" << describe_json(dev.last_launch(), dev.properties().cost)
            << "\n";
        out << "injected=" << faults::injections(faults::Site::Launch) << ","
            << faults::injections(faults::Site::MemcpyH2D) << ","
            << faults::injections(faults::Site::MemcpyD2H) << "\n";
        faults::disable();  // result downloads below must not fault
        dag.dump_memory(out);
        out << "memcheck=" << memcheck::report_json() << "\n";
        out << "timeline=" << mask_device_ordinals(timeline::report_json());

        if (with_trace) {
            // Everything except wall-clock timestamps. Each run constructs a
            // fresh Device, so the process-global ordinal in "devN..." track
            // names is masked before comparing.
            for (const auto& e : cupp::trace::events()) {
                out << static_cast<char>(e.phase) << "|" << mask_device_ordinals(e.track)
                    << "|" << e.name;
                for (const auto& a : e.args) out << "|" << a.key << "=" << a.json;
                out << "\n";
            }
        }
    }

    faults::disable();
    faults::reset();
    memcheck::disable();
    memcheck::reset();
    timeline::reset();
    if (with_trace) {
        cupp::trace::disable();
        cupp::trace::clear();
        cupp::trace::metrics().reset();
    }
    return out.str();
}

TEST(StreamDiff, FiftyRandomDagsAreBitIdenticalAcrossThreadCounts) {
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        // Trace comparison is heavyweight; sample it on every fifth seed.
        const bool with_trace = seed % 5 == 0;
        const std::string serial = run_dag(seed, 1, with_trace);
        for (unsigned threads : {2u, 8u}) {
            const std::string par = run_dag(seed, threads, with_trace);
            ASSERT_EQ(par, serial)
                << "seed " << seed << ", " << threads << " threads";
        }
        // The warp-vectorized engine against the serial per-thread oracle:
        // one coroutine per warp must leave every observable bit-identical,
        // at any worker count.
        for (unsigned threads : {1u, 2u, 8u}) {
            const std::string warp =
                run_dag(seed, threads, with_trace, EngineMode::Warp);
            ASSERT_EQ(warp, serial)
                << "seed " << seed << ", " << threads << " threads, warp engine";
        }
    }
}

// The same DAG re-run under the same seed and thread count must also be
// identical to itself (no hidden global state leaks between runs).
TEST(StreamDiff, RunsAreReproducibleUnderOneSeed) {
    const std::string a = run_dag(99, 2, true);
    const std::string b = run_dag(99, 2, true);
    EXPECT_EQ(a, b);
}

// --- captured-vs-eager differential ----------------------------------------

/// Runs the seeded DAG eagerly (identical RNG consumption in both modes),
/// logging every successfully enqueued non-sync op, then replays the log
/// twice — either by plain re-enqueue (`captured == false`, the oracle) or
/// through capture -> instantiate -> graph_launch. Digested observables are
/// the time-independent set: final device memory, download contents,
/// launch/transfer totals, the launch history (kernel, grid), fault
/// counters and the memcheck report. Host-side *times* legitimately differ
/// — replay charges one launch overhead for the whole DAG, which is the
/// point of the graph path — so modelled clocks stay out of this digest
/// (the timeline parity gate for a fixed workload lives in
/// bench_graph_replay + cupp_timeline --diff).
std::string run_replay_dag(std::uint64_t seed, unsigned threads, EngineMode engine,
                           bool captured) {
    ThreadsGuard guard(threads);
    EngineGuard engine_guard(engine);
    memcheck::enable();
    memcheck::reset();

    std::ostringstream out;
    {
        Dag dag(seed, /*logging=*/true);
        Device& dev = dag.dev;
        std::vector<LoggedOp>& log = dag.log;
        faults::disable();  // the replay phase itself runs fault-free

        // Replay D2H ops land in buffers shared by both replays (a captured
        // op re-targets the same host pointer on every launch, so the eager
        // oracle re-enqueues into the same destination too).
        std::vector<std::vector<std::uint32_t>> replay_dst;
        for (auto& op : log) {
            if (op.kind == LoggedOp::Kind::D2H) {
                replay_dst.emplace_back(kElems, 0u);
                op.payload = replay_dst.size() - 1;
            }
        }

        const auto enqueue_log = [&] {
            for (const LoggedOp& op : log) {
                switch (op.kind) {
                    case LoggedOp::Kind::Launch: {
                        dev.launch_async(dag.cfg, mix_spec(dag.buffers[op.buf], op.salt), "mix",
                                         op.stream);
                        break;
                    }
                    case LoggedOp::Kind::H2D:
                        dev.memcpy_to_device_async(dag.buffers[op.buf].addr(),
                                                   dag.h2d_sources[op.payload].data(),
                                                   kElems * sizeof(std::uint32_t),
                                                   op.stream);
                        break;
                    case LoggedOp::Kind::D2H:
                        dev.memcpy_to_host_async(replay_dst[op.payload].data(),
                                                 dag.buffers[op.buf].addr(),
                                                 kElems * sizeof(std::uint32_t),
                                                 op.stream);
                        break;
                    case LoggedOp::Kind::Record:
                        dev.event_record(dag.events[op.event], op.stream);
                        break;
                    case LoggedOp::Kind::Wait:
                        dev.stream_wait_event(op.stream, dag.events[op.event]);
                        break;
                }
            }
        };

        if (captured) {
            // AllStreams: the logged DAG spans streams that need not be
            // event-connected to the origin.
            dev.stream_begin_capture(dag.streams[0], CaptureMode::AllStreams);
            enqueue_log();
            Graph g = dev.stream_end_capture(dag.streams[0]);
            GraphExec exec = dev.graph_instantiate(g);
            dev.graph_launch(exec);
            dev.synchronize();
            dev.graph_launch(exec);
            dev.synchronize();
        } else {
            enqueue_log();
            dev.synchronize();
            enqueue_log();
            dev.synchronize();
        }

        out << "seed=" << seed << " streams=" << dag.streams.size() << " ops=" << dag.n_ops
            << " logged=" << log.size() << " faults_caught=" << dag.faults_caught << "\n";
        out << "launches=" << dev.launches() << " h2d=" << dev.bytes_to_device()
            << " d2h=" << dev.bytes_to_host() << "\n";
        out << "injected=" << faults::injections(faults::Site::Launch) << ","
            << faults::injections(faults::Site::MemcpyH2D) << ","
            << faults::injections(faults::Site::MemcpyD2H) << "\n";
        for (const LaunchRecord& rec : dev.recent_launches()) {
            out << "launch=" << rec.kernel_name << "/" << rec.stats.blocks << "/"
                << rec.stats.threads << "\n";
        }
        dag.dump_memory(out);
        for (std::size_t i = 0; i < replay_dst.size(); ++i) {
            out << "replay_dl" << i << "=";
            for (std::uint32_t v : replay_dst[i]) out << v << ",";
            out << "\n";
        }
        out << "memcheck=" << memcheck::report_json() << "\n";
    }

    faults::disable();
    faults::reset();
    memcheck::disable();
    memcheck::reset();
    return out.str();
}

// Every seeded DAG, captured and replayed twice, must leave exactly the
// observables of the eagerly re-enqueued oracle — at every engine thread
// count and under both execution engines. This is the differential proof
// that replay's skipped per-op work (argument re-validation, per-launch
// overhead charges) was pure overhead, never semantics.
TEST(StreamDiff, CapturedReplayIsBitIdenticalToEagerReEnqueue) {
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        const std::string eager = run_replay_dag(seed, 1, EngineMode::Thread, false);
        for (unsigned threads : {1u, 2u, 8u}) {
            for (EngineMode engine : {EngineMode::Thread, EngineMode::Warp}) {
                const std::string replayed = run_replay_dag(seed, threads, engine, true);
                ASSERT_EQ(replayed, eager)
                    << "seed " << seed << ", " << threads << " threads, "
                    << (engine == EngineMode::Warp ? "warp" : "thread") << " engine";
            }
        }
    }
}

// --- Boids V2-V5: the single-source kernels under both engines --------------

/// Every modelled field of `s`, doubles in hexfloat: equal strings mean
/// bit-identical stats (shared accesses and bank conflicts included, which
/// are populated while the profiler collects).
std::string stats_line(const LaunchStats& s) {
    std::ostringstream out;
    out << s.blocks << ' ' << s.warps << ' ' << s.threads << ' ' << s.compute_cycles << ' '
        << s.stall_cycles << ' ' << s.bytes_read << ' ' << s.bytes_written << ' '
        << s.useful_bytes_read << ' ' << s.useful_bytes_written << ' ' << s.divergent_events
        << ' ' << s.branch_evaluations << ' ' << s.shared_accesses << ' '
        << s.shared_bank_conflicts << ' ' << s.syncthreads_count << ' '
        << s.resident_blocks_per_mp << ' ' << std::hexfloat << s.device_seconds;
    return out.str();
}

/// The launch history of `dev` (kernel, stats, device-clock span).
std::string history(const Device& dev) {
    std::ostringstream out;
    for (const LaunchRecord& r : dev.recent_launches()) {
        out << r.kernel_name << ' ' << stats_line(r.stats) << ' ' << std::hexfloat
            << r.start_seconds << ' ' << r.end_seconds << std::defaultfloat << '\n';
    }
    return out.str();
}

/// Three steps of a 256-agent GpuBoidsPlugin on a fresh device: its launch
/// history, divergence counters and the flock's bytes.
std::string run_boids(gpusteer::Version v, bool double_buffering, std::uint32_t think,
                      EngineMode engine, unsigned threads) {
    Registry::instance().reset();
    ThreadsGuard guard(threads);
    EngineGuard engine_guard(engine);
    gpusteer::GpuBoidsPlugin gpu(v, double_buffering);
    gpu.open(steer::WorldSpec{}.with_agents(256).with_think(think));
    for (int i = 0; i < 3; ++i) (void)gpu.step();
    std::ostringstream out;
    out << history(gpu.device_handle().sim()) << "divergent=" << gpu.divergent_warp_steps()
        << " branches=" << gpu.branch_evaluations() << "\n";
    const std::vector<steer::Agent> flock = gpu.snapshot();
    std::uint64_t digest = 1469598103934665603ull;
    for (const std::byte b : std::as_bytes(std::span(flock))) {
        digest = (digest ^ static_cast<std::uint64_t>(b)) * 1099511628211ull;
    }
    out << "flock=" << digest << "\n";
    return out.str();
}

constexpr gpusteer::Version kSingleSource[] = {
    gpusteer::Version::V2_NeighborSearchShared, gpusteer::Version::V3_SimSubstageCached,
    gpusteer::Version::V4_SimSubstageRecompute, gpusteer::Version::V5_FullUpdateOnDevice};

// Think period 3 leaves a third of each grid's lanes without an agent: the
// partial-mask paths of the warp form.
TEST(StreamDiff, BoidsV2ToV5AreBitIdenticalAcrossEnginesAndThreads) {
    for (const gpusteer::Version v : kSingleSource) {
        for (const bool db : {false, true}) {
            for (const std::uint32_t think : {1u, 3u}) {
                const std::string oracle = run_boids(v, db, think, EngineMode::Thread, 1);
                for (const EngineMode engine : {EngineMode::Thread, EngineMode::Warp}) {
                    for (const unsigned threads : {1u, 4u}) {
                        ASSERT_EQ(run_boids(v, db, think, engine, threads), oracle)
                            << "v" << static_cast<int>(v) << " db=" << db
                            << " think=" << think << " threads=" << threads
                            << (engine == EngineMode::Warp ? " warp" : " thread");
                    }
                }
            }
        }
    }
    Registry::instance().reset();
}

// memcheck routes the warp form through the lanes' ThreadCtx facades; the
// profiler counts bank conflicts through the broadcast tile read.
TEST(StreamDiff, BoidsUnderMemcheckAndProfAreBitIdenticalAcrossEngines) {
    const auto run = [](EngineMode engine) {
        memcheck::reset();
        return run_boids(gpusteer::Version::V5_FullUpdateOnDevice, true, 3, engine, 1) +
               memcheck::report_json();
    };
    const std::string plain = run(EngineMode::Thread);
    prof::enable();
    const std::string profiled = run(EngineMode::Thread);
    EXPECT_NE(profiled, plain) << "prof counts no shared accesses";
    EXPECT_EQ(run(EngineMode::Warp), profiled) << "prof";
    prof::disable();
    prof::reset();
    memcheck::enable();
    EXPECT_EQ(run(EngineMode::Warp), run(EngineMode::Thread)) << "memcheck";
    memcheck::disable();
    memcheck::reset();
    Registry::instance().reset();
}

// Textured positions take the per-lane texture path (each lane keeps its
// own texture-cache counter), as bench_ablation_texture drives it.
TEST(StreamDiff, TexturedBoidsKernelsAreBitIdenticalAcrossEngines) {
    const steer::WorldSpec spec = steer::WorldSpec{}.with_agents(256);
    std::string digest[2];
    for (const EngineMode engine : {EngineMode::Thread, EngineMode::Warp}) {
        Registry::instance().reset();
        EngineGuard engine_guard(engine);
        cupp::device d;
        cupp::vector<steer::Vec3> positions;
        cupp::vector<steer::Vec3> forwards;
        for (const steer::Agent& a : steer::make_flock(spec)) {
            positions.push_back(a.position);
            forwards.push_back(a.forward);
        }
        positions.set_texture_fetches(true);
        cupp::vector<std::uint32_t> result(std::uint64_t{spec.agents} *
                                            steer::NeighborList::kCapacity);
        cupp::vector<std::uint32_t> counts(spec.agents);
        cupp::vector<steer::Vec3> steerings(spec.agents);
        const dim3 grid{spec.agents / gpusteer::kThreadsPerBlock};
        const dim3 block{gpusteer::kThreadsPerBlock};
        cupp::kernel ns(&gpusteer::ns_shared_kernel<ThreadCtx>,
                        &gpusteer::ns_shared_kernel<WarpCtx>, grid, block);
        cupp::kernel sim(&gpusteer::sim_kernel<ThreadCtx>, &gpusteer::sim_kernel<WarpCtx>,
                         grid, block);
        ns.set_shared_bytes(gpusteer::kThreadsPerBlock * sizeof(steer::Vec3));
        sim.set_shared_bytes(gpusteer::kThreadsPerBlock * sizeof(steer::Vec3));
        const gpusteer::FlockParams fp{spec.search_radius, spec.weight_separation,
                                       spec.weight_alignment, spec.weight_cohesion,
                                       spec.max_neighbors};
        ns(d, positions, spec.search_radius, result, counts, gpusteer::ThinkMap{});
        sim(d, positions, forwards, steerings, fp, gpusteer::ThinkMap{},
            gpusteer::NeighborData::CacheLocal);
        std::ostringstream out;
        out << history(d.sim());
        for (const std::uint32_t c : counts) out << c << ',';
        for (const steer::Vec3& s : steerings) out << std::hexfloat << s.x << s.y << s.z << ',';
        digest[engine == EngineMode::Warp] = out.str();
    }
    EXPECT_EQ(digest[1], digest[0]);
    Registry::instance().reset();
}

}  // namespace
