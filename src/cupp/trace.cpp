#include "cupp/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>

namespace cupp::trace {

namespace detail {
std::atomic<std::uint32_t> g_recorders{0};
}  // namespace detail

// --- formatting -----------------------------------------------------------

std::string format(const char* fmt, ...) {
    std::va_list measure_args;
    va_start(measure_args, fmt);
    std::va_list render_args;
    va_copy(render_args, measure_args);
    const int needed = std::vsnprintf(nullptr, 0, fmt, measure_args);
    va_end(measure_args);
    if (needed < 0) {
        va_end(render_args);
        return {};
    }
    std::string out(static_cast<std::size_t>(needed), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, render_args);
    va_end(render_args);
    return out;
}

std::string json_quote(std::string_view s) {
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('"');
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    out += format("\\u%04x", c);
                } else {
                    out.push_back(c);
                }
        }
    }
    out.push_back('"');
    return out;
}

namespace {

/// Renders a double as a JSON number (JSON has no inf/nan).
std::string json_number(double v) {
    if (!std::isfinite(v)) return "0";
    // Shortest round-trippable-enough form without trailing-zero noise.
    std::string s = format("%.9g", v);
    return s;
}

}  // namespace

arg::arg(std::string k, double v) : key(std::move(k)), json(json_number(v)) {}

// --- the recording session ------------------------------------------------

namespace {

/// Hard cap on recorded events — a runaway loop must not eat the host's
/// memory. Overflow is counted and reported in the export.
constexpr std::size_t kMaxEvents = 1u << 22;

struct Session {
    std::mutex mu;
    std::vector<Event> events;
    std::uint64_t dropped = 0;
    std::string path;
    bool atexit_registered = false;
};

Session& session() {
    // Intentionally leaked: the atexit flush (and instrumented destructors
    // of other statics) may run after this TU's destructors would have.
    static Session* s = new Session;
    return *s;
}

void flush_at_exit() {
    const std::string path = output_path();
    if (path.empty()) return;
    if (!flush()) {
        std::fprintf(stderr, "cupp::trace: could not write trace file %s\n", path.c_str());
    }
}

/// Per-thread capture sink (begin_thread_capture). When set, events from
/// this thread bypass the session and land in the sink; the owner replays
/// them later in a deterministic order.
thread_local std::vector<Event>* t_capture = nullptr;

void push(Event&& e) {
    if (t_capture != nullptr) {
        t_capture->push_back(std::move(e));
        return;
    }
    Session& s = session();
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.events.size() >= kMaxEvents) {
        ++s.dropped;
        return;
    }
    s.events.push_back(std::move(e));
}

/// Reads CUPP_TRACE once at static-initialisation time. The object lives
/// in this translation unit, which every instrumented layer references, so
/// linking any cupp/cusim binary arms the env gate automatically.
struct EnvGate {
    EnvGate() {
        if (const char* p = std::getenv("CUPP_TRACE"); p != nullptr && p[0] != '\0') {
            enable(std::string(p));
        }
    }
};
const EnvGate g_env_gate;

}  // namespace

void enable() { set_recorder(recorder::kTrace, true); }

void enable(std::string path) {
    Session& s = session();
    {
        std::lock_guard<std::mutex> lock(s.mu);
        s.path = std::move(path);
        if (!s.atexit_registered) {
            s.atexit_registered = true;
            std::atexit(flush_at_exit);
        }
    }
    enable();
}

void disable() { set_recorder(recorder::kTrace, false); }

void clear() {
    Session& s = session();
    std::lock_guard<std::mutex> lock(s.mu);
    s.events.clear();
    s.dropped = 0;
}

void emit_complete(std::string_view track, std::string_view name, double ts_us,
                   double dur_us, std::vector<arg> args) {
    if (!enabled()) return;
    Event e;
    e.phase = Phase::Complete;
    e.track = std::string(track);
    e.name = std::string(name);
    e.ts_us = ts_us;
    e.dur_us = std::max(0.0, dur_us);
    e.args = std::move(args);
    push(std::move(e));
}

void emit_instant(std::string_view track, std::string_view name, double ts_us,
                  std::vector<arg> args) {
    if (!enabled()) return;
    Event e;
    e.phase = Phase::Instant;
    e.track = std::string(track);
    e.name = std::string(name);
    e.ts_us = ts_us;
    e.args = std::move(args);
    push(std::move(e));
}

void emit_counter(std::string_view track, std::string_view name, double ts_us,
                  double value) {
    if (!enabled()) return;
    Event e;
    e.phase = Phase::Counter;
    e.track = std::string(track);
    e.name = std::string(name);
    e.ts_us = ts_us;
    e.value = value;
    push(std::move(e));
}

std::vector<Event> events() {
    Session& s = session();
    std::lock_guard<std::mutex> lock(s.mu);
    return s.events;
}

std::vector<Event>* begin_thread_capture(std::vector<Event>* sink) {
    std::vector<Event>* previous = t_capture;
    t_capture = sink;
    return previous;
}

void end_thread_capture(std::vector<Event>* previous) { t_capture = previous; }

void replay(std::vector<Event> events) {
    if (!enabled() || events.empty()) return;
    // A replaying thread may itself be captured (nested launches); honour
    // the redirect so the events keep flowing toward the outer reducer.
    if (t_capture != nullptr) {
        for (Event& e : events) t_capture->push_back(std::move(e));
        return;
    }
    Session& s = session();
    std::lock_guard<std::mutex> lock(s.mu);
    for (Event& e : events) {
        if (s.events.size() >= kMaxEvents) {
            ++s.dropped;
            continue;
        }
        s.events.push_back(std::move(e));
    }
}

std::string output_path() {
    Session& s = session();
    std::lock_guard<std::mutex> lock(s.mu);
    return s.path;
}

double wall_clock_us() {
    using clock = std::chrono::steady_clock;
    static const clock::time_point epoch = clock::now();
    return std::chrono::duration<double, std::micro>(clock::now() - epoch).count();
}

// --- export ---------------------------------------------------------------

namespace {

void append_event_json(std::string& out, const Event& e, int tid) {
    out += format("{\"name\":%s,\"ph\":\"%c\",\"pid\":1,\"tid\":%d,\"ts\":%s",
                  json_quote(e.name).c_str(), static_cast<char>(e.phase), tid,
                  json_number(e.ts_us).c_str());
    if (e.phase == Phase::Complete) {
        out += ",\"dur\":" + json_number(e.dur_us);
    }
    if (e.phase == Phase::Counter) {
        out += ",\"args\":{\"value\":" + json_number(e.value) + "}";
    } else if (e.phase == Phase::Instant) {
        out += ",\"s\":\"t\"";
    }
    if (!e.args.empty()) {
        out += ",\"args\":{";
        bool first = true;
        for (const arg& a : e.args) {
            if (!first) out += ",";
            first = false;
            out += json_quote(a.key) + ":" + a.json;
        }
        out += "}";
    }
    out += "}";
}

}  // namespace

std::string export_json() {
    const std::vector<Event> evs = events();
    std::uint64_t dropped = 0;
    {
        Session& s = session();
        std::lock_guard<std::mutex> lock(s.mu);
        dropped = s.dropped;
    }

    // Assign tids per track in first-seen order; device tracks get their
    // own lanes next to host tracks in the viewer.
    std::map<std::string, int> tids;
    double max_ts = 0.0;
    for (const Event& e : evs) {
        tids.emplace(e.track, static_cast<int>(tids.size()) + 1);
        max_ts = std::max(max_ts, e.ts_us + e.dur_us);
    }

    std::string out;
    out.reserve(evs.size() * 96 + 4096);
    out += "{\"traceEvents\":[";
    bool first = true;
    for (const auto& [track, tid] : tids) {
        if (!first) out += ",";
        first = false;
        out += format(
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
            "\"args\":{\"name\":%s}}",
            tid, json_quote(track).c_str());
    }
    for (const Event& e : evs) {
        if (!first) out += ",";
        first = false;
        append_event_json(out, e, tids[e.track]);
    }
    // Final counter samples so the file carries the aggregate counters
    // (lazy-copy hits/misses, byte totals, launches) even when nothing
    // emitted periodic Counter events.
    int metrics_tid = static_cast<int>(tids.size()) + 1;
    bool wrote_metrics_thread = false;
    for (const std::string& name : metrics().counter_names()) {
        if (!wrote_metrics_thread) {
            wrote_metrics_thread = true;
            if (!first) out += ",";
            first = false;
            out += format(
                "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                "\"args\":{\"name\":\"metrics\"}}",
                metrics_tid);
        }
        Event e;
        e.phase = Phase::Counter;
        e.name = name;
        e.ts_us = max_ts;
        e.value = static_cast<double>(metrics().counter(name));
        if (!first) out += ",";
        first = false;
        append_event_json(out, e, metrics_tid);
    }
    out += "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"droppedEvents\":" +
           std::to_string(dropped) + "},\"metrics\":" + metrics().summary_json() + "}";
    return out;
}

bool flush(const std::string& path) {
    const std::string target = path.empty() ? output_path() : path;
    if (target.empty()) return false;
    std::ofstream out(target, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << export_json();
    return static_cast<bool>(out);
}

// --- metrics --------------------------------------------------------------

namespace {

struct MetricsState {
    mutable std::mutex mu;
    // Deques keep element addresses stable so counter_ref() can hand out
    // long-lived pointers.
    std::deque<std::pair<std::string, std::atomic<std::uint64_t>>> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, std::vector<double>> histograms;
};

MetricsState& state() {
    // Intentionally leaked, like session(): export_json() reads the
    // registry from an atexit handler, which runs before function-local
    // statics constructed after the handler's registration are destroyed.
    static MetricsState* s = new MetricsState;
    return *s;
}

double percentile(std::vector<double>& sorted, double p) {
    if (sorted.empty()) return 0.0;
    const double rank = p * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

MetricsRegistry& MetricsRegistry::instance() {
    static MetricsRegistry r;
    return r;
}

std::atomic<std::uint64_t>& MetricsRegistry::counter_ref(std::string_view name) {
    MetricsState& s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    for (auto& [n, slot] : s.counters) {
        if (n == name) return slot;
    }
    s.counters.emplace_back(std::piecewise_construct,
                            std::forward_as_tuple(std::string(name)),
                            std::forward_as_tuple(0));
    return s.counters.back().second;
}

void MetricsRegistry::add(std::string_view name, std::uint64_t delta) {
    counter_ref(name).fetch_add(delta, std::memory_order_relaxed);
}

std::uint64_t MetricsRegistry::counter(std::string_view name) const {
    MetricsState& s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    for (const auto& [n, slot] : s.counters) {
        if (n == name) return slot.load(std::memory_order_relaxed);
    }
    return 0;
}

void MetricsRegistry::set_gauge(std::string_view name, double value) {
    MetricsState& s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    s.gauges[std::string(name)] = value;
}

std::optional<double> MetricsRegistry::gauge(std::string_view name) const {
    MetricsState& s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    const auto it = s.gauges.find(std::string(name));
    if (it == s.gauges.end()) return std::nullopt;
    return it->second;
}

void MetricsRegistry::record(std::string_view name, double sample) {
    MetricsState& s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    auto& samples = s.histograms[std::string(name)];
    // Bound the raw sample store; beyond that the early shape is kept and
    // further samples only update through a coarse reservoir-free drop.
    if (samples.size() < (1u << 20)) samples.push_back(sample);
}

std::optional<HistogramSummary> MetricsRegistry::histogram(std::string_view name) const {
    MetricsState& s = state();
    std::vector<double> samples;
    {
        std::lock_guard<std::mutex> lock(s.mu);
        const auto it = s.histograms.find(std::string(name));
        if (it == s.histograms.end()) return std::nullopt;
        samples = it->second;
    }
    HistogramSummary h;
    h.count = samples.size();
    if (samples.empty()) return h;
    std::sort(samples.begin(), samples.end());
    h.min = samples.front();
    h.max = samples.back();
    double sum = 0.0;
    for (const double v : samples) sum += v;
    h.mean = sum / static_cast<double>(samples.size());
    h.p50 = percentile(samples, 0.50);
    h.p90 = percentile(samples, 0.90);
    h.p99 = percentile(samples, 0.99);
    return h;
}

std::vector<std::string> MetricsRegistry::counter_names() const {
    MetricsState& s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    std::vector<std::string> names;
    names.reserve(s.counters.size());
    for (const auto& [n, slot] : s.counters) names.push_back(n);
    std::sort(names.begin(), names.end());
    return names;
}

std::vector<std::string> MetricsRegistry::gauge_names() const {
    MetricsState& s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    std::vector<std::string> names;
    names.reserve(s.gauges.size());
    for (const auto& [n, v] : s.gauges) names.push_back(n);
    return names;
}

std::vector<std::string> MetricsRegistry::histogram_names() const {
    MetricsState& s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    std::vector<std::string> names;
    names.reserve(s.histograms.size());
    for (const auto& [n, v] : s.histograms) names.push_back(n);
    return names;
}

std::string MetricsRegistry::summary_text() const {
    std::string out;
    for (const std::string& n : counter_names()) {
        out += format("counter   %-44s %llu\n", n.c_str(),
                      static_cast<unsigned long long>(counter(n)));
    }
    for (const std::string& n : gauge_names()) {
        out += format("gauge     %-44s %.6g\n", n.c_str(), *gauge(n));
    }
    for (const std::string& n : histogram_names()) {
        const HistogramSummary h = *histogram(n);
        out += format(
            "histogram %-44s n=%llu min=%.6g mean=%.6g p50=%.6g p90=%.6g "
            "p99=%.6g max=%.6g\n",
            n.c_str(), static_cast<unsigned long long>(h.count), h.min, h.mean, h.p50,
            h.p90, h.p99, h.max);
    }
    return out;
}

std::string MetricsRegistry::summary_json() const {
    std::string out = "{\"counters\":{";
    bool first = true;
    for (const std::string& n : counter_names()) {
        if (!first) out += ",";
        first = false;
        out += json_quote(n) + ":" + std::to_string(counter(n));
    }
    out += "},\"gauges\":{";
    first = true;
    for (const std::string& n : gauge_names()) {
        if (!first) out += ",";
        first = false;
        out += json_quote(n) + ":" + json_number(*gauge(n));
    }
    out += "},\"histograms\":{";
    first = true;
    for (const std::string& n : histogram_names()) {
        const HistogramSummary h = *histogram(n);
        if (!first) out += ",";
        first = false;
        out += json_quote(n) +
               format(":{\"count\":%llu,\"min\":%s,\"max\":%s,\"mean\":%s,"
                      "\"p50\":%s,\"p90\":%s,\"p99\":%s}",
                      static_cast<unsigned long long>(h.count),
                      json_number(h.min).c_str(), json_number(h.max).c_str(),
                      json_number(h.mean).c_str(), json_number(h.p50).c_str(),
                      json_number(h.p90).c_str(), json_number(h.p99).c_str());
    }
    out += "}}";
    return out;
}

void MetricsRegistry::reset() {
    MetricsState& s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    // Counter slots must stay alive (counter_handle caches pointers), so
    // they are zeroed, not erased.
    for (auto& [n, slot] : s.counters) slot.store(0, std::memory_order_relaxed);
    s.gauges.clear();
    s.histograms.clear();
}

}  // namespace cupp::trace
