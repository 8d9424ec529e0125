// cupp::trace tests: formatting, the metrics registry, span recording and
// nesting, the §4.6 lazy-copy counters, Chrome-trace JSON export (parsed
// and round-tripped with the in-repo minijson), and the launch-history
// ring buffer.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cupp/cupp.hpp"
#include "cupp/detail/minijson.hpp"

namespace {

namespace tr = cupp::trace;
using cusim::KernelTask;
using cusim::ThreadCtx;

/// Every test starts from a clean, in-memory-recording tracer and a fresh
/// device 0, so launch history never carries over from an earlier test.
class TraceTest : public ::testing::Test {
protected:
    void SetUp() override {
        cusim::Registry::instance().reset();
        tr::clear();
        tr::metrics().reset();
        tr::enable();
    }
    void TearDown() override {
        tr::disable();
        tr::clear();
        tr::metrics().reset();
    }
};

// --- formatting -----------------------------------------------------------

TEST(TraceFormat, NeverTruncates) {
    const std::string big(4096, 'x');
    const std::string s = tr::format("<%s>", big.c_str());
    EXPECT_EQ(s.size(), big.size() + 2);
    EXPECT_EQ(s.front(), '<');
    EXPECT_EQ(s.back(), '>');
}

TEST(TraceFormat, FormatsLikePrintf) {
    EXPECT_EQ(tr::format("%d blocks x %d threads", 48, 128), "48 blocks x 128 threads");
    EXPECT_EQ(tr::format("%.2f", 1.0 / 3.0), "0.33");
}

TEST(TraceFormat, JsonQuoteEscapes) {
    EXPECT_EQ(tr::json_quote("plain"), "\"plain\"");
    EXPECT_EQ(tr::json_quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
    EXPECT_EQ(tr::json_quote("line\nbreak"), "\"line\\nbreak\"");
}

// --- metrics registry -----------------------------------------------------

TEST_F(TraceTest, CountersAccumulate) {
    auto& m = tr::metrics();
    m.add("test.counter", 3);
    m.add("test.counter");
    EXPECT_EQ(m.counter("test.counter"), 4u);
    EXPECT_EQ(m.counter("never.touched"), 0u);

    // A cached handle hits the same slot as the by-name path.
    const tr::counter_handle h("test.counter");
    h.add(6);
    EXPECT_EQ(m.counter("test.counter"), 10u);
}

TEST_F(TraceTest, GaugesHoldTheLatestSample) {
    auto& m = tr::metrics();
    EXPECT_FALSE(m.gauge("rate").has_value());
    m.set_gauge("rate", 10.0);
    m.set_gauge("rate", 42.5);
    ASSERT_TRUE(m.gauge("rate").has_value());
    EXPECT_DOUBLE_EQ(*m.gauge("rate"), 42.5);
}

TEST_F(TraceTest, HistogramPercentiles) {
    auto& m = tr::metrics();
    for (int i = 1; i <= 100; ++i) m.record("lat", static_cast<double>(i));
    const auto h = m.histogram("lat");
    ASSERT_TRUE(h.has_value());
    EXPECT_EQ(h->count, 100u);
    EXPECT_DOUBLE_EQ(h->min, 1.0);
    EXPECT_DOUBLE_EQ(h->max, 100.0);
    EXPECT_DOUBLE_EQ(h->mean, 50.5);
    EXPECT_NEAR(h->p50, 50.5, 1.0);
    EXPECT_NEAR(h->p90, 90.0, 1.5);
    EXPECT_NEAR(h->p99, 99.0, 1.5);
}

TEST_F(TraceTest, FlushedMetricsJsonCarriesHistogramSummaries) {
    auto& m = tr::metrics();
    m.record("flush.lat", 2.0);
    m.record("flush.lat", 6.0);
    m.record("flush.lat", 4.0);

    // The standalone summary and the trace export's "metrics" object must
    // both carry the full min/max/mean histogram summary.
    for (const std::string& doc : {m.summary_json(), tr::export_json()}) {
        const auto root = cupp::minijson::parse(doc);
        const auto* metrics = root.find("histograms") != nullptr
                                  ? &root
                                  : root.find("metrics");
        ASSERT_NE(metrics, nullptr);
        const auto* hists = metrics->find("histograms");
        ASSERT_NE(hists, nullptr);
        const auto* h = hists->find("flush.lat");
        ASSERT_NE(h, nullptr);
        EXPECT_EQ(h->find("count")->number(), 3.0);
        EXPECT_DOUBLE_EQ(h->find("min")->number(), 2.0);
        EXPECT_DOUBLE_EQ(h->find("max")->number(), 6.0);
        EXPECT_DOUBLE_EQ(h->find("mean")->number(), 4.0);
        EXPECT_NE(h->find("p50"), nullptr);
        EXPECT_NE(h->find("p90"), nullptr);
        EXPECT_NE(h->find("p99"), nullptr);
    }
}

TEST_F(TraceTest, ResetZeroesCountersButKeepsSlots) {
    auto& m = tr::metrics();
    const tr::counter_handle h("sticky");
    h.add(5);
    m.set_gauge("g", 1.0);
    m.record("h", 2.0);
    m.reset();
    EXPECT_EQ(m.counter("sticky"), 0u);
    EXPECT_FALSE(m.gauge("g").has_value());
    EXPECT_FALSE(m.histogram("h").has_value());
    // The cached slot must stay valid after reset().
    h.add(2);
    EXPECT_EQ(m.counter("sticky"), 2u);
}

// --- span recording and nesting ------------------------------------------

TEST_F(TraceTest, SpansNest) {
    tr::emit_complete("lane", "outer", 100.0, 50.0);
    tr::emit_complete("lane", "inner", 110.0, 20.0);
    tr::emit_complete("other", "elsewhere", 110.0, 20.0);

    const auto evs = tr::events();
    ASSERT_EQ(evs.size(), 3u);
    EXPECT_TRUE(evs[0].encloses(evs[1]));
    EXPECT_FALSE(evs[1].encloses(evs[0]));
    EXPECT_FALSE(evs[0].encloses(evs[2])) << "different track";
}

TEST_F(TraceTest, DisabledMeansNothingRecorded) {
    tr::disable();
    tr::emit_complete("lane", "dropped", 0.0, 1.0);
    EXPECT_TRUE(tr::events().empty());
    tr::enable();
    tr::emit_instant("lane", "kept", 1.0);
    EXPECT_EQ(tr::events().size(), 1u);
}

// --- §4.6 lazy-copy counters ----------------------------------------------

/// Doubles in unsigned arithmetic: LaunchHistoryIsBounded doubles its
/// element 70 times, far past INT_MAX, and an unsigned product wraps where
/// a signed one would overflow (C++20 defines the conversion back to int).
KernelTask double_all(ThreadCtx& ctx, cupp::deviceT::vector<int>& v) {
    const std::uint64_t gid = ctx.global_id();
    if (gid < v.size()) {
        v.write(ctx, gid, static_cast<int>(static_cast<unsigned>(v.read(ctx, gid)) * 2u));
    }
    co_return;
}
using MutK = KernelTask (*)(ThreadCtx&, cupp::deviceT::vector<int>&);

KernelTask read_only(ThreadCtx& ctx, const cupp::deviceT::vector<int>& v, int& out) {
    if (ctx.global_id() == 0) {
        int sum = 0;
        for (std::uint64_t i = 0; i < v.size(); ++i) sum += v.read(ctx, i);
        out = sum;
    }
    co_return;
}
using RoK = KernelTask (*)(ThreadCtx&, const cupp::deviceT::vector<int>&, int&);

TEST_F(TraceTest, Rule1UploadOnlyWhenDeviceStale) {
    cupp::device d;
    cupp::vector<int> v = {1, 2, 3, 4};
    cupp::kernel k(static_cast<RoK>(read_only), cusim::dim3{1}, cusim::dim3{32});
    int out = 0;

    k(d, v, out);  // first call: device copy stale -> upload
    auto& m = tr::metrics();
    EXPECT_EQ(m.counter("cupp.vector.lazy.upload"), 1u);
    EXPECT_EQ(out, 10);

    k(d, v, out);  // second call: device copy still valid -> avoided
    EXPECT_EQ(m.counter("cupp.vector.lazy.upload"), 1u);
    EXPECT_GE(m.counter("cupp.vector.lazy.upload_avoided"), 1u);
}

TEST_F(TraceTest, Rule2NonConstReferenceInvalidatesHost) {
    cupp::device d;
    cupp::vector<int> v = {1, 2, 3};
    cupp::kernel k(static_cast<MutK>(double_all), cusim::dim3{1}, cusim::dim3{32});
    k(d, v);
    EXPECT_GE(tr::metrics().counter("cupp.vector.lazy.host_invalidated"), 1u);
    EXPECT_FALSE(v.host_data_valid());
}

TEST_F(TraceTest, Rule3HostReadDownloadsOnceThenHits) {
    cupp::device d;
    cupp::vector<int> v = {1, 2, 3};
    cupp::kernel k(static_cast<MutK>(double_all), cusim::dim3{1}, cusim::dim3{32});
    k(d, v);  // host copy now stale

    auto& m = tr::metrics();
    EXPECT_EQ(m.counter("cupp.vector.lazy.download"), 0u);
    EXPECT_EQ(static_cast<int>(v[0]), 2);  // stale read -> download
    EXPECT_EQ(m.counter("cupp.vector.lazy.download"), 1u);
    const auto avoided = m.counter("cupp.vector.lazy.download_avoided");
    EXPECT_EQ(static_cast<int>(v[1]), 4);  // fresh read -> avoided
    EXPECT_EQ(m.counter("cupp.vector.lazy.download"), 1u);
    EXPECT_GT(m.counter("cupp.vector.lazy.download_avoided"), avoided);
}

TEST_F(TraceTest, Rule4HostWriteInvalidatesDevice) {
    cupp::device d;
    cupp::vector<int> v = {1, 2, 3};
    cupp::kernel k(static_cast<RoK>(read_only), cusim::dim3{1}, cusim::dim3{32});
    int out = 0;
    k(d, v, out);  // device copy becomes valid

    auto& m = tr::metrics();
    EXPECT_EQ(m.counter("cupp.vector.lazy.device_invalidated"), 0u);
    v.mutate()[0] = 7;  // host write -> device copy stale
    EXPECT_EQ(m.counter("cupp.vector.lazy.device_invalidated"), 1u);
    EXPECT_FALSE(v.device_data_valid());

    k(d, v, out);  // must re-upload
    EXPECT_EQ(m.counter("cupp.vector.lazy.upload"), 2u);
    EXPECT_EQ(out, 7 + 2 + 3);
}

// --- JSON export ----------------------------------------------------------

TEST_F(TraceTest, ExportParsesAndRoundTrips) {
    cupp::device d;
    cupp::vector<int> v = {1, 2, 3, 4};
    cupp::kernel k(static_cast<MutK>(double_all), cusim::dim3{2}, cusim::dim3{32});
    k.set_name("doubler");
    k(d, v);
    (void)v.snapshot();

    const std::string doc = tr::export_json();
    const auto root = cupp::minijson::parse(doc);
    ASSERT_TRUE(root.is_object());

    const auto* events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->is_array());
    EXPECT_FALSE(events->array().empty());

    bool saw_kernel_span = false, saw_thread_name = false, saw_counter = false;
    for (const auto& ev : events->array()) {
        ASSERT_TRUE(ev.is_object());
        const auto* ph = ev.find("ph");
        const auto* name = ev.find("name");
        ASSERT_NE(ph, nullptr);
        ASSERT_NE(name, nullptr);
        if (ph->str() == "X" && name->str() == "cupp::call doubler") saw_kernel_span = true;
        if (ph->str() == "M" && name->str() == "thread_name") saw_thread_name = true;
        if (ph->str() == "C") saw_counter = true;
    }
    EXPECT_TRUE(saw_kernel_span);
    EXPECT_TRUE(saw_thread_name);
    EXPECT_TRUE(saw_counter);

    const auto* metrics = root.find("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_TRUE(metrics->is_object());

    // Round trip: canonical serialisation is a fixed point.
    const std::string once = cupp::minijson::serialize(root);
    const std::string twice = cupp::minijson::serialize(cupp::minijson::parse(once));
    EXPECT_EQ(once, twice);
}

// --- retry backoffs on the timeline ----------------------------------------

TEST_F(TraceTest, RetryBackoffsAreSpansOnTheHostLane) {
    // One injected transient launch failure: the retry layer must leave a
    // visible backoff span on the device's host lane, the fault an instant
    // on the "faults" track, and the cupp.retry.* counters must add up.
    cusim::faults::Rule r;
    r.site = cusim::faults::Site::Launch;
    r.code = cusim::ErrorCode::LaunchFailure;
    r.nth = 1;
    cusim::faults::configure({r});

    cupp::device d;
    cupp::vector<int> v = {1, 2, 3};
    cupp::kernel k(static_cast<MutK>(double_all), cusim::dim3{1}, cusim::dim3{32});
    k.set_name("retried");
    k(d, v);
    EXPECT_EQ(v.snapshot(), (std::vector<int>{2, 4, 6}));

    auto& m = tr::metrics();
    EXPECT_EQ(m.counter("cupp.retry.attempts"), 1u);
    EXPECT_EQ(m.counter("cupp.retry.recovered"), 1u);
    EXPECT_EQ(m.counter("cupp.retry.exhausted"), 0u);
    EXPECT_EQ(m.counter("cusim.faults.injections"), 1u);

    bool saw_backoff = false, saw_fault = false;
    for (const auto& ev : tr::events()) {
        if (ev.phase == tr::Phase::Complete && ev.track == d.sim().host_track() &&
            ev.name.find("cupp::retry launch retried") != std::string::npos) {
            saw_backoff = true;
            EXPECT_GT(ev.dur_us, 0.0);
        }
        if (ev.phase == tr::Phase::Instant && ev.track == "faults" &&
            ev.name == "fault.launch") {
            saw_fault = true;
        }
    }
    EXPECT_TRUE(saw_backoff) << "no cupp::retry span on the host lane";
    EXPECT_TRUE(saw_fault) << "no fault instant on the faults track";

    cusim::faults::reset();
}

// --- launch-history ring buffer -------------------------------------------

TEST_F(TraceTest, RecentLaunchesKeepNamesAndOrder) {
    cupp::device d;
    cupp::vector<int> v = {1, 2, 3};
    cupp::kernel k(static_cast<MutK>(double_all), cusim::dim3{1}, cusim::dim3{32});
    k.set_name("first");
    k(d, v);
    k.set_name("second");
    k(d, v);

    const auto history = d.sim().recent_launches();
    ASSERT_EQ(history.size(), 2u);
    EXPECT_EQ(history[0].kernel_name, "first");
    EXPECT_EQ(history[1].kernel_name, "second");
    EXPECT_GT(history[0].stats.threads, 0u);
    EXPECT_EQ(history[0].stats.threads_per_block, 32u);
    EXPECT_LE(history[0].start_seconds, history[0].end_seconds);
    // Launches are issued back to back on one device: history is ordered.
    EXPECT_LE(history[0].start_seconds, history[1].start_seconds);
}

TEST_F(TraceTest, LaunchHistoryIsBounded) {
    cupp::device d;
    cupp::vector<int> v = {1};
    cupp::kernel k(static_cast<MutK>(double_all), cusim::dim3{1}, cusim::dim3{32});
    for (int i = 0; i < 70; ++i) {
        k.set_name(tr::format("k%d", i));
        k(d, v);
    }
    const auto history = d.sim().recent_launches();
    ASSERT_EQ(history.size(), cusim::Device::kLaunchHistoryCapacity);
    // Oldest entries were evicted: the window ends at the newest launch.
    EXPECT_EQ(history.back().kernel_name, "k69");
    EXPECT_EQ(history.front().kernel_name,
              tr::format("k%d", 70 - static_cast<int>(cusim::Device::kLaunchHistoryCapacity)));
}

}  // namespace
