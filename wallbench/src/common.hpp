// Shared pieces of the wall-clock benchmark: the span log, the modelled-
// output fingerprint, the per-run tally and the workload interface.
//
// Everything here measures *host* wall time — what cusim + cupp cost to
// deliver the modelled answer. Modelled G80 numbers never become metrics;
// they are hashed into a fingerprint so that a change which moves the
// modelled clock cannot pass as a speed-up.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace wallbench {

using Clock = std::chrono::steady_clock;

/// Simulated host threads per grid, pinned in every workload. On a shared
/// 4-core host each core's speed rises and falls with the load of other
/// guests; an op spread over several cores waits for the slowest of them,
/// and at 2 sim threads boids_step op times spread too widely to gate on.
/// One thread (the serial engine path) keeps each op on one core.
inline constexpr unsigned kSimThreads = 1;

/// The thread count the traced run's block-pool probe compares against
/// kSimThreads (cusim.block_pool.speedup).
inline constexpr unsigned kPoolProbeThreads = 2;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// splitmix64: the benchmark's only source of seeded input.
[[nodiscard]] inline std::uint64_t splitmix64(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

// --- spans -------------------------------------------------------------------

/// In-memory span log of the traced run: name, start, end and parent of
/// every call the benchmark makes into a layer. Spans are recorded only on
/// the thread that runs the workload; the log is written out once, at exit.
class SpanLog {
public:
    struct Record {
        std::string_view name;  ///< always a string literal
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
        std::int32_t parent = -1;
    };

    static SpanLog& get() {
        static SpanLog log;
        return log;
    }

    void set_enabled(bool on) { enabled_ = on; }
    [[nodiscard]] bool enabled() const { return enabled_; }

    std::int32_t open(std::string_view name) {
        records_.push_back({name, now_ns(), 0, current_});
        current_ = static_cast<std::int32_t>(records_.size() - 1);
        return current_;
    }
    void close(std::int32_t id) {
        records_[static_cast<std::size_t>(id)].end_ns = now_ns();
        current_ = records_[static_cast<std::size_t>(id)].parent;
    }

    /// Durations in seconds of every closed span called `name`.
    [[nodiscard]] std::vector<double> durations(std::string_view name) const {
        std::vector<double> out;
        for (const Record& r : records_) {
            if (r.name == name && r.end_ns != 0) {
                out.push_back(static_cast<double>(r.end_ns - r.start_ns) * 1e-9);
            }
        }
        return out;
    }

    /// Writes the log as a JSON array; false when the file cannot be opened.
    bool write(const std::string& path) const;

private:
    static std::int64_t now_ns() {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now().time_since_epoch())
            .count();
    }

    bool enabled_ = false;
    std::int32_t current_ = -1;
    std::vector<Record> records_;
};

/// RAII span; free when the log is disabled.
class Span {
public:
    explicit Span(std::string_view name)
        : id_(SpanLog::get().enabled() ? SpanLog::get().open(name) : -1) {}
    ~Span() {
        if (id_ >= 0) SpanLog::get().close(id_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    std::int32_t id_;
};

// --- fingerprint ---------------------------------------------------------------

/// FNV-1a over the raw bytes of modelled outputs.
class Fingerprint {
public:
    template <typename T>
    void add(const T& value) {
        static_assert(std::is_trivially_copyable_v<T>);
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &value, sizeof(T));
        for (const unsigned char b : bytes) {
            h_ ^= b;
            h_ *= 1099511628211ull;
        }
    }
    void add(std::string_view s) {
        for (const char c : s) add(c);
        add(s.size());
    }
    [[nodiscard]] std::string hex() const;

private:
    std::uint64_t h_ = 1469598103934665603ull;
};

// --- statistics ----------------------------------------------------------------

[[nodiscard]] inline double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in (0, 1].
[[nodiscard]] inline double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

[[nodiscard]] inline double sum(const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return s;
}

// --- workloads -------------------------------------------------------------------

// --- host speed ----------------------------------------------------------------

/// Runs the host-speed probe once and returns its wall time in seconds.
/// The probe is a fixed chain of dependent floating-point adds that sweeps
/// a 64 KiB buffer, reading and writing it: it paces with the core's clock
/// and with whatever shares the core and its caches, and runs none of the
/// program's code, so no change to the program moves it.
[[nodiscard]] double host_probe();

/// Probe wall time that defines the reference host speed. End-to-end op
/// times are reported at this speed: a window's op times are multiplied by
/// kProbeRefSeconds over the mean wall time of the probes run next to them.
inline constexpr double kProbeRefSeconds = 60e-6;

// --- workloads -------------------------------------------------------------------

/// What the closed loop accumulates: op counts, each op's wall time and that
/// of a host-speed probe run next to it, the wall time the ops took in
/// total, and the windows the loop was cut into.
struct Tally {
    /// A stretch of at least a second of op wall time, kWindowOps ops and
    /// a whole number of the workload's window_units().
    struct Window {
        std::size_t first_op = 0;  ///< op_s index range [first_op, end_op)
        std::size_t end_op = 0;
        std::uint64_t completed = 0;
        double busy_s = 0.0;
    };
    static constexpr std::size_t kWindowOps = 100;  ///< ten samples beyond p90

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t completed = 0;
    std::vector<double> op_s;     ///< wall time of each completed op
    std::vector<double> probe_s;  ///< wall time of the probe next to each op
    double busy_s = 0.0;
    std::vector<Window> windows;

    void add_op(double wall_s, double probe) {
        ++completed;
        op_s.push_back(wall_s);
        probe_s.push_back(probe);
    }

    // Each end-to-end figure is the median over windows of that window's
    // figure, so load from other guests of the host, which comes in bursts,
    // spoils a few windows rather than the result. A loop too short to
    // close a window uses all of its ops.
    //
    // `at_ref` reports times at the reference host speed. A core of a
    // shared host runs slower by up to half for minutes at a time while
    // other guests load it, and switches between its fast and slow states
    // many times within one op; the mean of the probes over a window sees
    // the same mix of states as the window's ops do.

    /// Ops completed per second of op wall time.
    [[nodiscard]] double ops_per_s(bool at_ref) const {
        if (windows.empty()) return rate(0, op_s.size(), completed, busy_s, at_ref);
        std::vector<double> rates;
        for (const Window& w : windows) {
            rates.push_back(rate(w.first_op, w.end_op, w.completed, w.busy_s, at_ref));
        }
        return median(rates);
    }

    /// `stat` of the op times, per window.
    template <typename Stat>
    [[nodiscard]] double op_stat(Stat stat, bool at_ref) const {
        if (windows.empty()) return stat(times(0, op_s.size(), at_ref));
        std::vector<double> per_window;
        for (const Window& w : windows) per_window.push_back(stat(times(w.first_op, w.end_op, at_ref)));
        return median(per_window);
    }

    /// Host speed over ops [first, end) relative to the reference.
    [[nodiscard]] double host_speed(std::size_t first, std::size_t end) const {
        double probes = 0.0;
        for (std::size_t i = first; i < end; ++i) probes += probe_s[i];
        return probes > 0 ? kProbeRefSeconds * static_cast<double>(end - first) / probes : 1.0;
    }

private:
    [[nodiscard]] std::vector<double> times(std::size_t first, std::size_t end, bool at_ref) const {
        std::vector<double> v(op_s.begin() + static_cast<std::ptrdiff_t>(first),
                              op_s.begin() + static_cast<std::ptrdiff_t>(end));
        const double speed = at_ref ? host_speed(first, end) : 1.0;
        for (double& x : v) x *= speed;
        return v;
    }

    [[nodiscard]] double rate(std::size_t first, std::size_t end, std::uint64_t done,
                              double busy, bool at_ref) const {
        if (at_ref) busy *= host_speed(first, end);
        return busy > 0 ? static_cast<double>(done) / busy : 0.0;
    }
};

/// One workload, driven from a single thread. setup() brings the process
/// from nothing to "first op ready"; unit() runs one or more ops and checks
/// their outputs; finish() runs the checks that need the whole run.
class Workload {
public:
    virtual ~Workload() = default;
    virtual void setup(std::uint64_t seed) = 0;
    virtual void unit(Tally& t) = 0;
    /// Checks needing the whole run; false marks the run incorrect.
    virtual bool finish(Tally& t) = 0;
    /// Units whose modelled outputs make up the fingerprint.
    [[nodiscard]] virtual int fingerprint_units() const = 0;
    /// Hex digest of the modelled outputs of the first fingerprint_units().
    [[nodiscard]] virtual std::string fingerprint() const = 0;
    /// Consecutive units that make up the same population of ops wherever
    /// they start; a window of the closed loop holds a whole number of them.
    [[nodiscard]] virtual int window_units() const { return 1; }
    /// Named counts of the run so far, beyond the tally (serve outcomes).
    using Figures = std::vector<std::pair<std::string, double>>;
    [[nodiscard]] virtual Figures figures() const { return {}; }
};

[[nodiscard]] std::unique_ptr<Workload> make_boids_step();
[[nodiscard]] std::unique_ptr<Workload> make_serve_soak();
[[nodiscard]] std::unique_ptr<Workload> make_stream_pipeline();

}  // namespace wallbench
