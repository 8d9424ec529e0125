// cupp::trace — the profiler the thesis wished it had (§6.3.1: "no
// profiling tool is available offering this information").
//
// A process-wide, thread-safe event tracer plus a metrics registry:
//
//  * Spans and instants are recorded with explicit timestamps (the
//    simulator's modelled clocks, or the wall clock for host-side
//    harness work) and exported as Chrome trace-event JSON — load the
//    file in Perfetto or chrome://tracing. Each named track becomes its
//    own timeline lane, so the modelled device clock and the modelled
//    host clock render as separate tracks and asynchronous kernel
//    launches (§2.2) are visible as overlapping spans.
//  * The MetricsRegistry aggregates named counters, gauges and
//    histograms (with percentile summaries) that tests, benches and
//    describe()-style reports can query programmatically.
//
// Tracing is off by default and env-gated: setting CUPP_TRACE=<file.json>
// enables recording at startup and writes the file at process exit (or on
// an explicit flush()). The disabled fast path is a single relaxed atomic
// load, so instrumented hot paths cost nothing measurable when off.
//
// This header is deliberately free of cupp/cusim includes: the cusim
// substrate itself links against it, so it must sit below every other
// layer of the framework.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace cupp::trace {

// --- formatting -----------------------------------------------------------

/// printf-style formatting into a std::string. Unlike the fixed-buffer
/// snprintf pattern this can never silently truncate: the buffer is sized
/// by a measuring pass first.
[[nodiscard]] std::string format(const char* fmt, ...)
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((format(printf, 1, 2)))
#endif
    ;

/// Escapes a string for embedding in a JSON document (quotes included).
[[nodiscard]] std::string json_quote(std::string_view s);

// --- events ---------------------------------------------------------------

/// One key/value argument attached to an event. The value is stored as a
/// pre-rendered JSON literal so heterogeneous argument lists need no
/// variant machinery.
struct arg {
    std::string key;
    std::string json;  ///< a complete JSON value (number, string, bool)

    arg(std::string k, const char* v) : key(std::move(k)), json(json_quote(v ? v : "")) {}
    arg(std::string k, const std::string& v) : key(std::move(k)), json(json_quote(v)) {}
    arg(std::string k, std::string_view v) : key(std::move(k)), json(json_quote(v)) {}
    arg(std::string k, bool v) : key(std::move(k)), json(v ? "true" : "false") {}
    arg(std::string k, double v);
    template <typename I>
        requires(std::is_integral_v<I> && !std::is_same_v<I, bool>)
    arg(std::string k, I v) : key(std::move(k)), json(std::to_string(v)) {}
};

/// Chrome trace-event phases this tracer emits.
enum class Phase : char {
    Complete = 'X',  ///< a span: ts + dur
    Instant = 'i',   ///< a point in time
    Counter = 'C',   ///< a sampled counter value
};

/// One recorded event (also the programmatic query format for tests).
struct Event {
    Phase phase = Phase::Instant;
    std::string track;  ///< timeline lane; becomes a named Chrome tid
    std::string name;
    double ts_us = 0.0;
    double dur_us = 0.0;  ///< Complete events only
    double value = 0.0;   ///< Counter events only
    std::vector<arg> args;

    /// Containment test for span-nesting checks (same-track Complete events).
    [[nodiscard]] bool encloses(const Event& inner) const {
        return phase == Phase::Complete && inner.phase == Phase::Complete &&
               track == inner.track && ts_us <= inner.ts_us &&
               inner.ts_us + inner.dur_us <= ts_us + dur_us + 1e-9;
    }
};

// --- recording ------------------------------------------------------------

/// Bits of the process-wide recorder word. This tracer owns kTrace; the
/// simulator's recorders (cusim::prof, cusim::timeline, cusim::faults)
/// own the others. They share one word so that an instrumented runtime
/// call learns whether any recorder is on from a single relaxed load.
namespace recorder {
inline constexpr std::uint32_t kTrace = 1u << 0;
inline constexpr std::uint32_t kProfArmed = 1u << 1;       ///< prof::armed()
inline constexpr std::uint32_t kProfCollecting = 1u << 2;  ///< prof::collecting()
inline constexpr std::uint32_t kTimeline = 1u << 3;        ///< timeline::enabled()
inline constexpr std::uint32_t kFaultsArmed = 1u << 4;     ///< faults::armed()
}  // namespace recorder

namespace detail {
extern std::atomic<std::uint32_t> g_recorders;
}  // namespace detail

/// The recorder word: which recorders are on (recorder::k* bits).
[[nodiscard]] inline std::uint32_t recorders() {
    return detail::g_recorders.load(std::memory_order_relaxed);
}

/// Turns one recorder bit on or off (each recorder's enable/disable).
inline void set_recorder(std::uint32_t bit, bool on) {
    if (on) {
        detail::g_recorders.fetch_or(bit, std::memory_order_relaxed);
    } else {
        detail::g_recorders.fetch_and(~bit, std::memory_order_relaxed);
    }
}

/// True while recording. The only cost instrumentation pays when tracing
/// is off — keep instrumentation sites behind this check.
[[nodiscard]] inline bool enabled() { return (recorders() & recorder::kTrace) != 0; }

/// Starts in-memory recording (no output file).
void enable();
/// Starts recording and arranges for a Chrome trace-event JSON file to be
/// written to `path` at process exit (and on flush()).
void enable(std::string path);
/// Stops recording; already-recorded events are kept.
void disable();
/// Drops all recorded events (the metrics registry is separate — see
/// MetricsRegistry::reset()).
void clear();

void emit_complete(std::string_view track, std::string_view name, double ts_us,
                   double dur_us, std::vector<arg> args = {});
void emit_instant(std::string_view track, std::string_view name, double ts_us,
                  std::vector<arg> args = {});
void emit_counter(std::string_view track, std::string_view name, double ts_us,
                  double value);

/// Snapshot of everything recorded so far (tests and exporters).
[[nodiscard]] std::vector<Event> events();

// --- per-thread capture ----------------------------------------------------
//
// The cusim block engine runs independent thread blocks on a worker pool,
// but the exported trace must not depend on which worker finished first.
// A worker redirects its emit_* calls into a private buffer for the
// duration of one block, and the launch reducer replays the buffers in
// launch order — so the event stream is bit-identical to a serial run.

/// Redirects emit_complete/emit_instant/emit_counter on the *calling
/// thread* into `sink` instead of the global session. Nestable: returns
/// the previous sink (restore it via the same call).
std::vector<Event>* begin_thread_capture(std::vector<Event>* sink);
/// Stops capturing on the calling thread, restoring `previous` (from
/// begin_thread_capture). Pass nullptr to emit globally again.
void end_thread_capture(std::vector<Event>* previous);
/// Appends captured events to the global session in one locked batch,
/// preserving their order. No-op when recording is disabled.
void replay(std::vector<Event> events);

/// RAII wrapper for begin/end_thread_capture.
class ScopedCapture {
public:
    explicit ScopedCapture(std::vector<Event>* sink)
        : previous_(begin_thread_capture(sink)) {}
    ~ScopedCapture() { end_thread_capture(previous_); }
    ScopedCapture(const ScopedCapture&) = delete;
    ScopedCapture& operator=(const ScopedCapture&) = delete;

private:
    std::vector<Event>* previous_;
};

/// The configured output file ("" when recording in memory only).
[[nodiscard]] std::string output_path();

/// Renders the full Chrome trace-event JSON document: all events, named
/// track metadata, final counter samples from the metrics registry, and a
/// `metrics` summary object (chrome://tracing ignores unknown keys).
[[nodiscard]] std::string export_json();

/// Writes export_json() to `path` (or the configured output path when
/// omitted). Returns false when no path is known or the write failed.
bool flush(const std::string& path = {});

/// Microseconds on a process-wide steady clock (first call is 0). For
/// host-side spans that have no simulated clock, e.g. bench harness work.
[[nodiscard]] double wall_clock_us();

// --- metrics --------------------------------------------------------------

/// Percentile summary of a histogram.
struct HistogramSummary {
    std::uint64_t count = 0;
    double min = 0.0, max = 0.0, mean = 0.0;
    double p50 = 0.0, p90 = 0.0, p99 = 0.0;
};

/// Process-wide registry of named counters, gauges and histograms.
/// Counters are monotonically increasing (lazy-copy hits, launches,
/// bytes moved); gauges hold the latest sample of a level (rates);
/// histograms keep raw samples and summarise with percentiles.
class MetricsRegistry {
public:
    static MetricsRegistry& instance();

    // Counters. counter_ref() hands out a stable atomic slot so hot call
    // sites can cache the lookup (see counter_handle below).
    std::atomic<std::uint64_t>& counter_ref(std::string_view name);
    void add(std::string_view name, std::uint64_t delta = 1);
    [[nodiscard]] std::uint64_t counter(std::string_view name) const;

    // Gauges.
    void set_gauge(std::string_view name, double value);
    [[nodiscard]] std::optional<double> gauge(std::string_view name) const;

    // Histograms.
    void record(std::string_view name, double sample);
    [[nodiscard]] std::optional<HistogramSummary> histogram(std::string_view name) const;

    [[nodiscard]] std::vector<std::string> counter_names() const;
    [[nodiscard]] std::vector<std::string> gauge_names() const;
    [[nodiscard]] std::vector<std::string> histogram_names() const;

    /// Plain-text report, one metric per line (harness logs).
    [[nodiscard]] std::string summary_text() const;
    /// The same data as a JSON object (embedded in export_json()).
    [[nodiscard]] std::string summary_json() const;

    /// Zeroes everything (between test cases / bench configurations).
    void reset();

private:
    MetricsRegistry() = default;
};

[[nodiscard]] inline MetricsRegistry& metrics() { return MetricsRegistry::instance(); }

/// Call-site-cached counter: resolves the registry slot once, then each
/// add() is a single relaxed atomic increment.
///
///     static const trace::counter_handle hits("cupp.vector.lazy.upload_avoided");
///     if (trace::enabled()) hits.add();
class counter_handle {
public:
    explicit counter_handle(std::string_view name)
        : slot_(&MetricsRegistry::instance().counter_ref(name)) {}
    void add(std::uint64_t delta = 1) const {
        slot_->fetch_add(delta, std::memory_order_relaxed);
    }

private:
    std::atomic<std::uint64_t>* slot_;
};

}  // namespace cupp::trace
