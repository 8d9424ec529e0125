// stream_pipeline: vectors chunked across four cupp::streams. Each chunk
// is prefetched to the device, transformed by a stream-bound cupp::kernel
// call of four blocks, and prefetched back; device::synchronize() ends the
// pass. One pass runs the pipeline once eagerly and once as launch() of
// the cupp::graph captured from it at setup; one op is kPassesPerOp passes.
// Every pass's results are checked against host math and against each
// other, bit for bit.
//
// This uses the launch and transfer layers asynchronously where serve_soak
// uses them synchronously: stream enqueue/drain and graph replay do most
// of the work here and almost none in the other two workloads.
#include <array>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "common.hpp"
#include "cupp/cupp.hpp"
#include "cupp/graph.hpp"
#include "pipeline_kernel.hpp"

namespace wallbench {
namespace {

constexpr unsigned kStreams = 4;
/// Pipeline passes per op. One pass takes a few hundred microseconds, less
/// than the stretches in which other guests of a shared host slow or
/// release its cores; at that size the op times split into a fast and a
/// slow mode, and their median flips between the two. Sixteen passes
/// average over those stretches.
constexpr int kPassesPerOp = 16;

class StreamPipeline final : public Workload {
public:
    void setup(std::uint64_t seed) override {
        std::uint64_t state = seed;
        const auto uniform = [&state](float lo, float hi) {
            return lo + (hi - lo) * static_cast<float>(splitmix64(state) >> 40) * 0x1p-24f;
        };
        a_ = uniform(0.5f, 2.0f);
        b_ = uniform(-8.0f, 8.0f);
        for (auto& in : inputs_) {
            in.resize(kPipelineChunk);
            for (float& x : in) x = uniform(-1000.0f, 1000.0f);
        }

        dev_ = std::make_unique<cupp::device>();
        kernel_.emplace(static_cast<PipelineKernel>(affine_kernel),
                        cusim::dim3{kPipelineChunk / kPipelineBlock},
                        cusim::dim3{kPipelineBlock});
        kernel_->set_name("affine");
        for (unsigned c = 0; c < kStreams; ++c) {
            streams_.push_back(std::make_unique<cupp::stream>(*dev_));
            eager_.emplace_back(inputs_[c].begin(), inputs_[c].end());
            captured_.emplace_back(inputs_[c].begin(), inputs_[c].end());
        }
        // Warm-up outside any capture: allocates the device buffers and
        // caches each vector's device handle, whose blocking upload inside
        // a capture would be an implicit sync and invalidate it.
        enqueue(eager_, /*timed=*/false);
        enqueue(captured_, /*timed=*/false);
        dev_->synchronize();
        for (unsigned c = 0; c < kStreams; ++c) refill(captured_[c], c);
        const cupp::graph g = cupp::graph::capture(
            *streams_[0], [&] { enqueue(captured_, /*timed=*/false); },
            cusim::CaptureMode::AllStreams);
        Span span("cusim.graph.instantiate");
        exec_ = g.instantiate();
    }

    void unit(Tally& t) override {
        ++t.attempted;
        double wall = 0.0;
        bool ok = true;
        for (int p = 0; p < kPassesPerOp && ok; ++p) ok = pass(wall);
        if (ok) {
            t.add_op(wall, host_probe());
        } else {
            ++t.failed;
        }
        t.busy_s += wall;
    }

    bool finish(Tally& t) override { return t.failed == 0; }

    [[nodiscard]] int fingerprint_units() const override { return 1; }
    [[nodiscard]] std::string fingerprint() const override { return fp_.hex(); }

private:
    // One eager pass and one replay; adds their wall time to `wall` and
    // returns whether both match host math and each other. The first pass
    // of the run makes the fingerprint.
    bool pass(double& wall) {
        cusim::Device& sim = dev_->sim();
        const std::uint64_t launches_before = sim.launches();
        const double h0 = sim.host_time();
        const auto t0 = Clock::now();
        for (unsigned c = 0; c < kStreams; ++c) refill(eager_[c], c);
        enqueue(eager_, /*timed=*/true);
        {
            Span span("cusim.stream.drain");
            dev_->synchronize();
        }
        const double h1 = sim.host_time();
        {
            Span span("cusim.graph.replay");
            exec_.launch();
        }
        {
            Span span("cusim.graph.replay_drain");
            dev_->synchronize();
        }
        wall += seconds_since(t0);
        const double h2 = sim.host_time();

        bool ok = true;
        std::array<std::vector<float>, kStreams> eager_out, replay_out;
        for (unsigned c = 0; c < kStreams; ++c) {
            eager_out[c] = eager_[c].snapshot();
            replay_out[c] = captured_[c].snapshot();
            for (unsigned i = 0; i < kPipelineChunk; ++i) {
                ok = ok && eager_out[c][i] == affine(inputs_[c][i], a_, b_);
            }
            ok = ok && std::memcmp(eager_out[c].data(), replay_out[c].data(),
                                   kPipelineChunk * sizeof(float)) == 0;
        }

        if (!hashed_) {
            hashed_ = true;
            fp_.add(h1 - h0);  // modelled host time of the eager pass
            fp_.add(h2 - h1);  // ... and of the replay
            const auto history = sim.recent_launches();
            const std::uint64_t fresh = sim.launches() - launches_before;
            for (std::size_t i = history.size() - fresh; i < history.size(); ++i) {
                const cusim::LaunchStats& s = history[i].stats;
                for (const std::uint64_t v : {s.blocks, s.threads, s.compute_cycles,
                                              s.stall_cycles, s.bytes_read, s.bytes_written}) {
                    fp_.add(v);
                }
                fp_.add(s.device_seconds);
                fp_.add(history[i].start_seconds);
                fp_.add(history[i].end_seconds);
            }
            for (const auto& out : replay_out) {
                for (const float x : out) fp_.add(x);
            }
        }
        return ok;
    }

    // A fresh host write per pass, so the eager prefetch really uploads.
    void refill(cupp::vector<float>& v, unsigned chunk) {
        std::vector<float>& host = v.mutate();
        std::copy(inputs_[chunk].begin(), inputs_[chunk].end(), host.begin());
    }

    // `timed`: record a span per async op (the eager pass of an op only).
    void enqueue(std::vector<cupp::vector<float>>& vs, bool timed) {
        const auto op = [timed](auto&& call) {
            std::optional<Span> span;
            if (timed) span.emplace("cusim.stream.enqueue");
            call();
        };
        for (unsigned c = 0; c < kStreams; ++c) {
            const cupp::stream& s = *streams_[c];
            op([&] { vs[c].prefetch_to_device(*dev_, s); });
            op([&] { (*kernel_)(*dev_, s, vs[c], a_, b_); });
            op([&] { vs[c].prefetch_to_host(s); });
        }
    }

    float a_ = 1.0f;
    float b_ = 0.0f;
    std::array<std::vector<float>, kStreams> inputs_;
    std::unique_ptr<cupp::device> dev_;
    std::optional<cupp::kernel<PipelineKernel>> kernel_;
    std::vector<std::unique_ptr<cupp::stream>> streams_;
    std::vector<cupp::vector<float>> eager_;     ///< re-enqueued every op
    std::vector<cupp::vector<float>> captured_;  ///< written by graph replay
    cupp::graph_exec exec_;
    bool hashed_ = false;
    Fingerprint fp_;
};

}  // namespace

std::unique_ptr<Workload> make_stream_pipeline() {
    return std::make_unique<StreamPipeline>();
}

}  // namespace wallbench
