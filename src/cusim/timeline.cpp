#include "cusim/timeline.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>

#include "cupp/trace.hpp"
#include "cusim/prof.hpp"

namespace cusim::timeline {

namespace {

using cupp::trace::format;
using cupp::trace::json_quote;

/// Per-device lane bookkeeping: the tail node of each lane (what the next
/// node on that lane FIFO-depends on) and the host cursor (how far the
/// gapless host lane has been materialized).
struct DeviceLanes {
    std::uint64_t host_tail = 0;
    double host_cursor = 0.0;
    std::uint64_t dev_tail = 0;
    std::map<std::uint32_t, std::uint64_t> stream_tails;
    std::map<std::uint64_t, std::uint64_t> event_records;  ///< event -> node
};

/// Process-wide recorder. Intentionally leaked (like the trace, memcheck,
/// faults and prof registries) so the atexit report still sees it.
class State {
public:
    static State& instance() {
        static State* s = new State();
        return *s;
    }

    void enable(std::string path) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!path.empty()) report_path_ = std::move(path);
        cupp::trace::set_recorder(cupp::trace::recorder::kTimeline, true);
    }

    void disable() {
        std::lock_guard<std::mutex> lock(mu_);
        cupp::trace::set_recorder(cupp::trace::recorder::kTimeline, false);
    }

    void clear() {
        std::lock_guard<std::mutex> lock(mu_);
        cupp::trace::set_recorder(cupp::trace::recorder::kTimeline, false);
        nodes_.clear();
        devices_.clear();
        report_path_.clear();
        prof::reset_correlation_ids();
    }

    std::string path() const {
        std::lock_guard<std::mutex> lock(mu_);
        return report_path_;
    }

    std::vector<Node> snapshot() const {
        std::lock_guard<std::mutex> lock(mu_);
        return nodes_;
    }

    // --- recording (host thread; the lock keeps TSan and any future
    // multi-threaded caller honest) ---

    std::uint64_t anchor_host(int device, double t) {
        std::lock_guard<std::mutex> lock(mu_);
        return anchor_host_locked(devices_[device], device, t);
    }

    std::uint64_t host_op(int device, Category cat, std::string_view name,
                          std::uint64_t bytes, std::uint64_t corr, double start,
                          double end, std::uint64_t extra) {
        std::lock_guard<std::mutex> lock(mu_);
        DeviceLanes& d = devices_[device];
        std::uint64_t fifo = d.host_tail;
        if (start > d.host_cursor && !ends_at(extra, start)) {
            // The gap is untracked host progress (advance_host), not a
            // device wait: fill it so the walk stays exact.
            fifo = anchor_host_locked(d, device, start);
        }
        const std::uint64_t id =
            push_locked(make(cat, Lane::Host, name, device, 0, corr, start, end,
                             bytes, {fifo, extra}));
        d.host_tail = id;
        d.host_cursor = std::max(d.host_cursor, end);
        return id;
    }

    std::uint64_t host_sync(int device, std::string_view name,
                            std::uint64_t corr, double t, std::uint64_t waited) {
        std::lock_guard<std::mutex> lock(mu_);
        DeviceLanes& d = devices_[device];
        std::uint64_t fifo = d.host_tail;
        if (t > d.host_cursor && !ends_at(waited, t)) {
            fifo = anchor_host_locked(d, device, t);
        }
        const std::uint64_t id = push_locked(make(Category::Sync, Lane::Host, name,
                                                  device, 0, corr, t, t, 0,
                                                  {fifo, waited}));
        d.host_tail = id;
        d.host_cursor = std::max(d.host_cursor, t);
        return id;
    }

    std::uint64_t device_op(int device, Category cat, std::string_view name,
                            std::uint64_t bytes, std::uint64_t corr, double start,
                            double end, std::uint64_t extra) {
        std::lock_guard<std::mutex> lock(mu_);
        DeviceLanes& d = devices_[device];
        const std::uint64_t id =
            push_locked(make(cat, Lane::Device, name, device, 0, corr, start, end,
                             bytes, {d.dev_tail, extra}));
        d.dev_tail = id;
        return id;
    }

    std::uint64_t stream_op(int device, std::uint32_t stream, Category cat,
                            std::string_view name, std::uint64_t bytes,
                            std::uint64_t corr, double start, double end,
                            std::uint64_t dep_a, std::uint64_t dep_b) {
        std::lock_guard<std::mutex> lock(mu_);
        DeviceLanes& d = devices_[device];
        const std::uint64_t id =
            push_locked(make(cat, Lane::Stream, name, device, stream, corr, start,
                             end, bytes, {d.stream_tails[stream], dep_a, dep_b}));
        d.stream_tails[stream] = id;
        return id;
    }

    void failed_op(int device, std::uint32_t stream, Category cat,
                   std::string_view name, std::uint64_t bytes,
                   std::uint64_t corr, double t) {
        std::lock_guard<std::mutex> lock(mu_);
        Node n = make(cat, stream == 0 ? Lane::Host : Lane::Stream, name, device,
                      stream, corr, t, t, bytes, {});
        n.failed = true;
        push_locked(std::move(n));  // never a tail: contributes no edges
    }

    std::uint64_t device_tail(int device) {
        std::lock_guard<std::mutex> lock(mu_);
        return devices_[device].dev_tail;
    }

    std::uint64_t stream_tail(int device, std::uint32_t stream) {
        std::lock_guard<std::mutex> lock(mu_);
        auto& tails = devices_[device].stream_tails;
        const auto it = tails.find(stream);
        return it == tails.end() ? 0 : it->second;
    }

    void set_device_tail(int device, std::uint64_t node) {
        std::lock_guard<std::mutex> lock(mu_);
        if (node != 0) devices_[device].dev_tail = node;
    }

    void register_event_record(int device, std::uint64_t event,
                               std::uint64_t node) {
        std::lock_guard<std::mutex> lock(mu_);
        devices_[device].event_records[event] = node;
    }

    std::uint64_t event_record_node(int device, std::uint64_t event) {
        std::lock_guard<std::mutex> lock(mu_);
        auto& recs = devices_[device].event_records;
        const auto it = recs.find(event);
        return it == recs.end() ? 0 : it->second;
    }

private:
    State() = default;

    [[nodiscard]] bool ends_at(std::uint64_t id, double t) const {
        return id != 0 && nodes_[id - 1].end == t;
    }

    std::uint64_t anchor_host_locked(DeviceLanes& d, int device, double t) {
        if (d.host_tail != 0 && nodes_[d.host_tail - 1].end == t) {
            return d.host_tail;
        }
        if (t <= d.host_cursor) {
            // Host already materialized past t (an async issue anchored at
            // enqueue always lands here-or-later, so this is best-effort).
            return d.host_tail;
        }
        const std::uint64_t id =
            push_locked(make(Category::Host, Lane::Host, "host", device, 0, 0,
                             d.host_cursor, t, 0, {d.host_tail}));
        d.host_tail = id;
        d.host_cursor = t;
        return id;
    }

    static Node make(Category cat, Lane lane, std::string_view name, int device,
                     std::uint32_t stream, std::uint64_t corr, double start,
                     double end, std::uint64_t bytes,
                     std::initializer_list<std::uint64_t> deps) {
        Node n;
        n.cat = cat;
        n.lane = lane;
        n.name = std::string(name);
        n.device = device;
        n.stream = stream;
        n.correlation = corr;
        n.start = start;
        n.end = end;
        n.bytes = bytes;
        for (std::uint64_t d : deps) {
            if (d == 0) continue;
            if (std::find(n.deps.begin(), n.deps.end(), d) == n.deps.end()) {
                n.deps.push_back(d);
            }
        }
        return n;
    }

    std::uint64_t push_locked(Node&& n) {
        n.id = nodes_.size() + 1;
        nodes_.push_back(std::move(n));
        cupp::trace::metrics().add("cusim.timeline.nodes");
        return nodes_.back().id;
    }

    mutable std::mutex mu_;
    std::vector<Node> nodes_;  ///< id == index + 1
    std::map<int, DeviceLanes> devices_;
    std::string report_path_;
};

void atexit_report() {
    if (!report_path().empty()) write_report();
}

void register_atexit_once() {
    static const bool registered = [] {
        std::atexit(atexit_report);
        return true;
    }();
    (void)registered;
}

/// Reads CUPP_TIMELINE once at static-init: its value is the report path,
/// and recording runs for the whole process.
struct EnvGate {
    EnvGate() {
        if (const char* env = std::getenv("CUPP_TIMELINE");
            env != nullptr && *env != '\0') {
            enable(std::string(env));
        }
    }
};
const EnvGate g_env_gate;

}  // namespace

const char* category_name(Category cat) {
    switch (cat) {
        case Category::Kernel: return "kernel";
        case Category::MemcpyH2D: return "h2d";
        case Category::MemcpyD2H: return "d2h";
        case Category::MemcpyD2D: return "d2d";
        case Category::EventRecord: return "record";
        case Category::EventWait: return "wait";
        case Category::Sync: return "sync";
        case Category::Host: return "host";
    }
    return "unknown";
}

std::string lane_name(const Node& n) {
    std::string out = "dev" + std::to_string(n.device);
    switch (n.lane) {
        case Lane::Host: return out + ".host";
        case Lane::Device: return out + ".device";
        case Lane::Stream: return out + ".stream" + std::to_string(n.stream);
    }
    return out;
}

void enable() {
    register_atexit_once();
    State::instance().enable({});
}

void enable(std::string path) {
    register_atexit_once();
    State::instance().enable(std::move(path));
}

void disable() { State::instance().disable(); }

void reset() { State::instance().clear(); }

std::uint64_t anchor_host(int device, double t) {
    return State::instance().anchor_host(device, t);
}

std::uint64_t host_op(int device, Category cat, std::string_view name,
                      std::uint64_t bytes, std::uint64_t correlation,
                      double start, double end, std::uint64_t extra_dep) {
    return State::instance().host_op(device, cat, name, bytes, correlation, start,
                                     end, extra_dep);
}

std::uint64_t host_sync(int device, std::string_view name,
                        std::uint64_t correlation, double t,
                        std::uint64_t waited) {
    return State::instance().host_sync(device, name, correlation, t, waited);
}

std::uint64_t device_op(int device, Category cat, std::string_view name,
                        std::uint64_t bytes, std::uint64_t correlation,
                        double start, double end, std::uint64_t extra_dep) {
    return State::instance().device_op(device, cat, name, bytes, correlation,
                                       start, end, extra_dep);
}

std::uint64_t stream_op(int device, std::uint32_t stream, Category cat,
                        std::string_view name, std::uint64_t bytes,
                        std::uint64_t correlation, double start, double end,
                        std::uint64_t dep_a, std::uint64_t dep_b) {
    return State::instance().stream_op(device, stream, cat, name, bytes,
                                       correlation, start, end, dep_a, dep_b);
}

void failed_op(int device, std::uint32_t stream, Category cat,
               std::string_view name, std::uint64_t bytes,
               std::uint64_t correlation, double t) {
    State::instance().failed_op(device, stream, cat, name, bytes, correlation, t);
}

std::uint64_t device_tail(int device) {
    return State::instance().device_tail(device);
}

std::uint64_t stream_tail(int device, std::uint32_t stream) {
    return State::instance().stream_tail(device, stream);
}

void set_device_tail(int device, std::uint64_t node) {
    State::instance().set_device_tail(device, node);
}

void register_event_record(int device, std::uint64_t event, std::uint64_t node) {
    State::instance().register_event_record(device, event, node);
}

std::uint64_t event_record_node(int device, std::uint64_t event) {
    return State::instance().event_record_node(device, event);
}

std::vector<Node> nodes() { return State::instance().snapshot(); }

// --- analysis ----------------------------------------------------------------

Report analyze() {
    const std::vector<Node> ns = nodes();
    Report r;
    r.total_nodes = ns.size();

    // Makespan: the latest successful completion. Ties break to the
    // earliest-recorded node for determinism.
    const Node* head = nullptr;
    for (const Node& n : ns) {
        if (n.failed) {
            ++r.failed_nodes;
            continue;
        }
        r.serialized_seconds += n.duration();
        r.category_seconds[static_cast<std::size_t>(n.cat)] += n.duration();
        r.edges += n.deps.size();
        if (head == nullptr || n.end > head->end) head = &n;
    }
    if (head == nullptr) return r;
    r.makespan_seconds = head->end;
    r.overlap_efficiency =
        r.makespan_seconds > 0.0 ? r.serialized_seconds / r.makespan_seconds : 0.0;

    // Walk backwards from the makespan node. Every constraint that can
    // determine a start time is an edge to a node ending at exactly that
    // time, so the walk follows exact end==start matches; any mismatch is
    // accounted as gap (0 in normal operation). Deps always point at
    // earlier-recorded nodes, so the walk terminates.
    const Node* cur = head;
    for (;;) {
        r.critical_path.push_back(cur->id);
        const double t = cur->start;
        const Node* pick = nullptr;
        const Node* latest = nullptr;
        for (const std::uint64_t dep : cur->deps) {
            const Node& dn = ns[dep - 1];
            if (dn.failed) continue;
            if (dn.end == t && (pick == nullptr || dn.id < pick->id)) pick = &dn;
            if (latest == nullptr || dn.end > latest->end) latest = &dn;
        }
        if (pick != nullptr) {
            cur = pick;
        } else if (latest != nullptr && t > 0.0) {
            r.gap_seconds += t - latest->end;
            cur = latest;
        } else {
            r.gap_seconds += t;
            break;
        }
    }
    std::reverse(r.critical_path.begin(), r.critical_path.end());
    // The path tiles [0, makespan] except for the accounted gap, so the
    // attributed time is exactly the makespan when the walk was gapless
    // (summing per-node durations instead would accumulate float rounding).
    r.critical_path_seconds = r.makespan_seconds - r.gap_seconds;

    // Per-lane utilization and bubbles. Nodes are recorded per lane in
    // nondecreasing start order (the FIFO contract), so one forward scan
    // with a running horizon finds every idle gap.
    std::vector<const Node*> order;
    order.reserve(ns.size());
    for (const Node& n : ns) {
        if (!n.failed) order.push_back(&n);
    }
    std::map<std::string, std::size_t> lane_index;
    std::vector<double> horizon;
    for (const Node* n : order) {
        const std::string lane = lane_name(*n);
        auto [it, fresh] = lane_index.emplace(lane, r.lanes.size());
        if (fresh) {
            LaneSummary s;
            s.lane = lane;
            s.first_start = n->start;
            s.last_end = n->end;
            r.lanes.push_back(std::move(s));
            horizon.push_back(n->end);
        }
        LaneSummary& s = r.lanes[it->second];
        double& h = horizon[it->second];
        if (s.nodes > 0 && n->start > h) {
            s.bubbles.emplace_back(h, n->start);
            s.bubble_seconds += n->start - h;
        }
        ++s.nodes;
        s.busy_seconds += n->duration();
        s.last_end = std::max(s.last_end, n->end);
        h = std::max(h, n->end);
    }
    return r;
}

std::string report_path() { return State::instance().path(); }

std::string report_json() {
    const std::vector<Node> ns = nodes();
    const Report r = analyze();

    std::string out = "{\n  \"timeline\": {\n    \"version\": 1,\n";
    out += format(
        "    \"makespan_seconds\": %.17g,\n"
        "    \"serialized_seconds\": %.17g,\n"
        "    \"overlap_efficiency\": %.6g,\n"
        "    \"critical_path_seconds\": %.17g,\n"
        "    \"critical_path_gap_seconds\": %.17g,\n",
        r.makespan_seconds, r.serialized_seconds, r.overlap_efficiency,
        r.critical_path_seconds, r.gap_seconds);
    out += format(
        "    \"counts\": {\"nodes\": %llu, \"failed\": %llu, \"edges\": %llu},\n",
        static_cast<unsigned long long>(r.total_nodes),
        static_cast<unsigned long long>(r.failed_nodes),
        static_cast<unsigned long long>(r.edges));

    out += "    \"categories\": [";
    bool first = true;
    for (std::size_t c = 0; c < kCategoryCount; ++c) {
        if (r.category_seconds[c] == 0.0) continue;
        out += format("%s\n      {\"category\": \"%s\", \"seconds\": %.17g, "
                      "\"share\": %.6g}",
                      first ? "" : ",", category_name(static_cast<Category>(c)),
                      r.category_seconds[c],
                      r.serialized_seconds > 0.0
                          ? r.category_seconds[c] / r.serialized_seconds
                          : 0.0);
        first = false;
    }
    out += first ? "],\n" : "\n    ],\n";

    out += "    \"lanes\": [";
    for (std::size_t i = 0; i < r.lanes.size(); ++i) {
        const LaneSummary& s = r.lanes[i];
        out += format(
            "%s\n      {\"lane\": %s, \"nodes\": %llu, \"busy_seconds\": %.17g, "
            "\"utilization\": %.6g, \"first_start\": %.17g, \"last_end\": %.17g, "
            "\"bubble_seconds\": %.17g, \"bubbles\": [",
            i == 0 ? "" : ",", json_quote(s.lane).c_str(),
            static_cast<unsigned long long>(s.nodes), s.busy_seconds,
            r.makespan_seconds > 0.0 ? s.busy_seconds / r.makespan_seconds : 0.0,
            s.first_start, s.last_end, s.bubble_seconds);
        for (std::size_t b = 0; b < s.bubbles.size(); ++b) {
            out += format("%s{\"start\": %.17g, \"end\": %.17g}",
                          b == 0 ? "" : ", ", s.bubbles[b].first,
                          s.bubbles[b].second);
        }
        out += "]}";
    }
    out += r.lanes.empty() ? "],\n" : "\n    ],\n";

    out += "    \"critical_path\": [";
    for (std::size_t i = 0; i < r.critical_path.size(); ++i) {
        const Node& n = ns[r.critical_path[i] - 1];
        out += format(
            "%s\n      {\"id\": %llu, \"category\": \"%s\", \"name\": %s, "
            "\"lane\": %s, \"start\": %.17g, \"end\": %.17g, "
            "\"duration\": %.17g, \"share\": %.6g}",
            i == 0 ? "" : ",", static_cast<unsigned long long>(n.id),
            category_name(n.cat), json_quote(n.name).c_str(),
            json_quote(lane_name(n)).c_str(), n.start, n.end, n.duration(),
            r.makespan_seconds > 0.0 ? n.duration() / r.makespan_seconds : 0.0);
    }
    out += r.critical_path.empty() ? "],\n" : "\n    ],\n";

    out += "    \"nodes\": [";
    for (std::size_t i = 0; i < ns.size(); ++i) {
        const Node& n = ns[i];
        out += format(
            "%s\n      {\"id\": %llu, \"correlation\": %llu, \"category\": "
            "\"%s\", \"name\": %s, \"lane\": %s, \"device\": %d, \"stream\": %u, "
            "\"start\": %.17g, \"end\": %.17g, \"duration\": %.17g, "
            "\"bytes\": %llu, \"failed\": %s, \"deps\": [",
            i == 0 ? "" : ",", static_cast<unsigned long long>(n.id),
            static_cast<unsigned long long>(n.correlation), category_name(n.cat),
            json_quote(n.name).c_str(), json_quote(lane_name(n)).c_str(),
            n.device, n.stream, n.start, n.end, n.duration(),
            static_cast<unsigned long long>(n.bytes),
            n.failed ? "true" : "false");
        for (std::size_t d = 0; d < n.deps.size(); ++d) {
            out += format("%s%llu", d == 0 ? "" : ", ",
                          static_cast<unsigned long long>(n.deps[d]));
        }
        out += "]}";
    }
    out += ns.empty() ? "]\n" : "\n    ]\n";
    out += "  }\n}\n";
    return out;
}

bool write_report(const std::string& path) {
    const std::string target = path.empty() ? report_path() : path;
    if (target.empty()) return false;
    std::ofstream out(target, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << report_json();
    return static_cast<bool>(out);
}

}  // namespace cusim::timeline
