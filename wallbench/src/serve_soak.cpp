// serve_soak: cupp::serve::server::run(), the virtual-time closed loop, over
// the chaos scenario of bench_serve_soak — 200 requests, 8 tenants, 4
// worker lanes, 20k req/s offered on the modelled clock, and the
// h2d/13 launch/11 d2h/17 malloc-device-lost/301x2 fault plan. The seed
// picks the fault seed and kOrders payload orders; passes cycle through the
// orders, so which requests get shed weighs about the same in every run.
// One op is one request; its wall time is the wall time of its handler
// attempts, measured by wrapping make_boids_handler() in a timing handler.
// One unit is one run() pass on a fresh server over the same devices.
//
// Catalog requests are 128 or 256 agents for 2-4 steps (grids of 1-2
// blocks), so four-device bring-up, the call protocol, blocking transfers,
// fault retries and the broker dominate; block execution does little.
#include <array>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "cusim/faults.hpp"
#include "serve/boids_service.hpp"
#include "serve/serve.hpp"

namespace wallbench {
namespace {

namespace serve = cupp::serve;
namespace faults = cusim::faults;

constexpr int kRequests = 200;
constexpr int kTenants = 8;
constexpr std::uint64_t kCatalogSize = 16;
constexpr double kArrivalSpacingS = 50e-6;  ///< modelled inter-arrival gap
constexpr std::size_t kOrders = 32;
/// Each order completes a fixed set of requests, whose times fall into a
/// few far-apart classes (128 or 256 agents, 2-4 steps, retried or not), so
/// the median and p90 of a stretch of passes depend on which orders it
/// holds. A window holds eight passes (window_units()), about three seconds,
/// so that each mixes eight orders; the median over windows then comes near
/// the figure of all 32.
constexpr int kPassesPerWindow = 8;

class ServeSoak final : public Workload {
public:
    void setup(std::uint64_t seed) override {
        seed_ = seed;
        cfg_.workers = 4;
        cfg_.queue_capacity = 16;
        cfg_.default_quota = {/*max_queued=*/4, /*max_in_flight=*/2};
        cfg_.breaker_threshold = 1;
        cfg_.retry.initial_backoff_s = 10e-6;

        rules_.resize(4);
        rules_[0].site = faults::Site::MemcpyH2D;
        rules_[0].code = cusim::ErrorCode::TransferFailure;
        rules_[0].every = 13;
        rules_[1].site = faults::Site::Launch;
        rules_[1].code = cusim::ErrorCode::LaunchFailure;
        rules_[1].every = 11;
        rules_[2].site = faults::Site::MemcpyD2H;
        rules_[2].code = cusim::ErrorCode::TransferFailure;
        rules_[2].every = 17;
        rules_[3].site = faults::Site::Malloc;
        rules_[3].code = cusim::ErrorCode::DeviceLost;
        rules_[3].every = 301;
        rules_[3].max_injections = 2;

        // The payload mix of bench_serve_soak (i % 16), in seeded orders.
        std::vector<std::uint64_t> payloads(kRequests);
        for (int i = 0; i < kRequests; ++i) {
            payloads[static_cast<std::size_t>(i)] = static_cast<std::uint64_t>(i) % kCatalogSize;
        }
        std::uint64_t state = seed;
        for (auto& reqs : orders_) {
            for (std::size_t i = payloads.size() - 1; i > 0; --i) {
                std::swap(payloads[i], payloads[splitmix64(state) % (i + 1)]);
            }
            for (int i = 0; i < kRequests; ++i) {
                serve::request r;
                r.tenant = "tenant-" + std::to_string(i % kTenants);
                r.arrival_s = static_cast<double>(i) * kArrivalSpacingS;
                r.payload = payloads[static_cast<std::size_t>(i)];
                if (i % 5 == 4) r.deadline_s = 1e-3;  // the tight-SLA request class
                reqs.push_back(std::move(r));
            }
        }
        // Registers the four worker devices: the bring-up users pay.
        srv_ = std::make_unique<serve::server>(cfg_, timed_handler());
    }

    void unit(Tally& t) override {
        if (oracle_.empty()) {
            for (std::uint64_t p = 0; p < kCatalogSize; ++p) {
                oracle_[p] = serve::boids_oracle_digest(serve::boids_catalog_entry(p));
            }
        }
        if (!srv_) srv_ = std::make_unique<serve::server>(cfg_, timed_handler());
        const std::size_t order = passes_ % kOrders;
        const std::vector<serve::request>& reqs = orders_[order];
        attempt_s_.assign(reqs.size(), 0.0);
        probe_s_.assign(reqs.size(), 0.0);
        pass_probe_s_ = 0.0;

        faults::configure(rules_, seed_);
        const auto t0 = Clock::now();
        std::vector<serve::response> out;
        {
            Span span("serve.run");
            out = srv_->run(reqs);
        }
        t.busy_s += seconds_since(t0) - pass_probe_s_;
        const std::uint64_t injected = faults::injections();
        faults::disable();
        const serve::stats_snapshot stats = srv_->stats();
        srv_.reset();

        ++passes_;
        injected_ += injected;
        attempts_ += stats.attempts;
        for (std::size_t i = 0; i < out.size(); ++i) {
            const serve::response& r = out[i];
            ++t.attempted;
            // Outcomes are not compared across passes over the same order:
            // the devices outlive the passes, and deadlines are checked on
            // their absolute modelled clock, whose rounding grows with it,
            // so a request that meets its deadline exactly can be shed on a
            // later pass. The first pass's outcomes are in the fingerprint.
            bool ok = true;
            if (r.result == serve::outcome::completed) {
                ok = r.value == oracle_[reqs[i].payload];
                ++completed_;
                if (ok) t.add_op(attempt_s_[i], probe_s_[i]);
            } else if (r.result == serve::outcome::admission_rejected) {
                ++shed_;
            } else {
                ++expired_;
            }
            if (!ok) {
                ++t.failed;
                std::fprintf(stderr, "serve_soak: pass %llu, request %zu: wrong digest\n",
                             static_cast<unsigned long long>(passes_), i);
            }
        }
        if (passes_ == 1) hash_first_pass(reqs, out, stats, injected);
    }

    bool finish(Tally& t) override { return t.failed == 0; }

    [[nodiscard]] int fingerprint_units() const override { return 1; }
    [[nodiscard]] std::string fingerprint() const override { return fp_.hex(); }
    [[nodiscard]] int window_units() const override { return kPassesPerWindow; }

    [[nodiscard]] Figures figures() const override {
        return {{"passes", static_cast<double>(passes_)},
                {"attempts", static_cast<double>(attempts_)},
                {"completed", static_cast<double>(completed_)},
                {"shed", static_cast<double>(shed_)},
                {"expired", static_cast<double>(expired_)},
                {"faults_injected", static_cast<double>(injected_)}};
    }

private:
    serve::handler_fn timed_handler() {
        return [this, inner = serve::make_boids_handler()](serve::worker_context& ctx,
                                                           const serve::request& r) {
            // arrival_s = index * spacing identifies the request.
            const auto i = static_cast<std::size_t>(std::lround(r.arrival_s / kArrivalSpacingS));
            // The host speed next to the request's last attempt; run()'s
            // wall time, the pass's busy time, leaves the probes out.
            probe_s_.at(i) = host_probe();
            pass_probe_s_ += probe_s_[i];
            struct Timer {
                double& slot;
                Clock::time_point t0 = Clock::now();
                ~Timer() { slot += seconds_since(t0); }
            } timer{attempt_s_.at(i)};
            Span span("serve.handler");
            return inner(ctx, r);
        };
    }

    // Modelled outputs: per-request outcome, digest, latency, service time,
    // attempts and lane; the broker's counters; the fault count; and the
    // req/s, p50/p99 and outcome counts bench_serve_soak reports.
    void hash_first_pass(const std::vector<serve::request>& reqs,
                         const std::vector<serve::response>& out,
                         const serve::stats_snapshot& s, std::uint64_t injected) {
        std::vector<double> latencies;
        double makespan_end = 0.0;
        std::uint64_t counts[3] = {0, 0, 0};
        for (std::size_t i = 0; i < out.size(); ++i) {
            const serve::response& r = out[i];
            fp_.add(static_cast<int>(r.result));
            fp_.add(r.value);
            fp_.add(r.latency_s);
            fp_.add(r.service_s);
            fp_.add(r.attempts);
            fp_.add(r.worker);
            ++counts[static_cast<int>(r.result)];
            if (r.result == serve::outcome::completed) {
                latencies.push_back(r.latency_s);
                makespan_end = std::max(makespan_end, reqs[i].arrival_s + r.latency_s);
            }
        }
        for (const std::uint64_t v :
             {s.submitted, s.admitted, s.completed, s.rejected_queue_full,
              s.rejected_tenant_queued, s.rejected_tenant_in_flight, s.deadline_expired,
              s.deadline_expired_queued, s.attempts, s.sticky_failures, s.transient_escapes,
              s.breaker_trips, s.breaker_probes, s.breaker_recoveries, s.device_resets,
              injected, counts[0], counts[1], counts[2]}) {
            fp_.add(v);
        }
        const double sustained =
            makespan_end > 0.0 ? static_cast<double>(latencies.size()) / makespan_end : 0.0;
        fp_.add(sustained);
        fp_.add(percentile(latencies, 0.50));
        fp_.add(percentile(latencies, 0.99));
    }

    std::uint64_t seed_ = 0;
    serve::config cfg_;
    std::vector<faults::Rule> rules_;
    std::array<std::vector<serve::request>, kOrders> orders_;
    std::unique_ptr<serve::server> srv_;
    std::map<std::uint64_t, std::uint64_t> oracle_;
    std::vector<double> attempt_s_;
    std::vector<double> probe_s_;
    double pass_probe_s_ = 0.0;
    std::uint64_t passes_ = 0;
    std::uint64_t attempts_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t shed_ = 0;
    std::uint64_t expired_ = 0;
    std::uint64_t injected_ = 0;
    Fingerprint fp_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_soak() { return std::make_unique<ServeSoak>(); }

}  // namespace wallbench
