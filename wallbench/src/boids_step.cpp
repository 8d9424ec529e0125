// boids_step: one GpuBoidsPlugin (V5, double buffering) at 1024 agents,
// opened once and stepped. One op is one step(). Eight blocks of 128
// per-thread coroutines per kernel, so cusim block execution does nearly
// all of the work; bring-up shows only in setup_s.
#include <memory>

#include "common.hpp"
#include "cusim/device.hpp"
#include "gpusteer/plugin.hpp"
#include "serve/boids_service.hpp"
#include "steer/simulation.hpp"

namespace wallbench {
namespace {

constexpr std::uint32_t kAgents = 1024;
constexpr int kFingerprintSteps = 8;

class BoidsStep final : public Workload {
public:
    void setup(std::uint64_t seed) override {
        spec_.agents = kAgents;
        spec_.seed = seed;
        gpu_ = std::make_unique<gpusteer::GpuBoidsPlugin>(
            gpusteer::Version::V5_FullUpdateOnDevice, /*double_buffering=*/true);
        Span span("gpusteer.open");
        gpu_->open(spec_);
    }

    void unit(Tally& t) override {
        cusim::Device& sim = gpu_->device_handle().sim();
        const std::uint64_t launches_before = sim.launches();
        ++t.attempted;
        const auto t0 = Clock::now();
        steer::StageTimes st;
        {
            Span span("gpusteer.step");
            st = gpu_->step();
        }
        const double wall = seconds_since(t0);
        ++steps_;
        t.add_op(wall, host_probe());
        t.busy_s += wall;
        if (steps_ <= kFingerprintSteps) {
            fp_.add(st.simulation);
            fp_.add(st.modification);
            fp_.add(st.transfer);
            fp_.add(st.draw);
            const auto history = sim.recent_launches();
            const std::uint64_t fresh = sim.launches() - launches_before;
            for (std::size_t i = history.size() - fresh; i < history.size(); ++i) {
                add_launch(history[i]);
            }
        }
    }

    // The boids_demo contract: the simulated flock equals a serial CPU run
    // of the same spec for the same number of steps, bit for bit.
    bool finish(Tally& t) override {
        steer::CpuBoidsPlugin cpu;
        cpu.open(spec_);
        for (std::uint64_t i = 0; i < steps_; ++i) (void)cpu.step();
        const bool ok = cupp::serve::flock_digest(cpu.snapshot()) ==
                        cupp::serve::flock_digest(gpu_->snapshot());
        if (!ok) t.failed = t.attempted;  // every step fed the diverged flock
        return ok;
    }

    [[nodiscard]] int fingerprint_units() const override { return kFingerprintSteps; }
    [[nodiscard]] std::string fingerprint() const override { return fp_.hex(); }

private:
    // LaunchStats minus the shared-memory counters, which are populated
    // only while the profiler collects (the traced run turns it on).
    void add_launch(const cusim::LaunchRecord& r) {
        const cusim::LaunchStats& s = r.stats;
        fp_.add(std::string_view(r.kernel_name));
        for (const std::uint64_t v :
             {s.blocks, s.warps, s.threads, s.threads_per_block, s.compute_cycles,
              s.stall_cycles, s.bytes_read, s.bytes_written, s.useful_bytes_read,
              s.useful_bytes_written, s.divergent_events, s.branch_evaluations,
              s.syncthreads_count}) {
            fp_.add(v);
        }
        fp_.add(s.resident_blocks_per_mp);
        fp_.add(s.device_seconds);
        fp_.add(r.start_seconds);
        fp_.add(r.end_seconds);
    }

    steer::WorldSpec spec_{};
    std::unique_ptr<gpusteer::GpuBoidsPlugin> gpu_;
    std::uint64_t steps_ = 0;
    Fingerprint fp_;
};

}  // namespace

std::unique_ptr<Workload> make_boids_step() { return std::make_unique<BoidsStep>(); }

}  // namespace wallbench
