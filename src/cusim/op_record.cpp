#include "cusim/op_record.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "cusim/report.hpp"
#include "cusim/stream_detail.hpp"

namespace cusim {

namespace {

using detail::Copy;
using detail::StreamOp;
namespace rec = cupp::trace::recorder;

/// The cusim.* trace counters. A counter enters the metrics registry on its
/// first count, so a report lists exactly the counters its run touched.
enum class Counter : std::uint8_t {
    KernelLaunches, StreamKernelLaunches, BytesH2D, BytesD2H, Transfers, StreamBytesH2D,
    StreamBytesD2H, StreamsCreated, OpsEnqueued, EventsRecorded, WaitEvents, GraphLaunches
};
constexpr const char* kCounterNames[] = {
    "cusim.kernel_launches",     "cusim.stream.kernel_launches", "cusim.bytes_h2d",
    "cusim.bytes_d2h",           "cusim.transfers",              "cusim.stream.bytes_h2d",
    "cusim.stream.bytes_d2h",    "cusim.stream.created",         "cusim.stream.ops_enqueued",
    "cusim.stream.events_recorded", "cusim.stream.wait_events",  "cusim.graph.launches"};

/// Adds to a counter; callers hold the trace gate.
void count(Counter c, std::uint64_t delta = 1) {
    static std::atomic<std::atomic<std::uint64_t>*> slots[std::size(kCounterNames)];
    const auto i = static_cast<std::size_t>(c);
    std::atomic<std::uint64_t>* slot = slots[i].load(std::memory_order_acquire);
    if (slot == nullptr) {
        slot = &cupp::trace::metrics().counter_ref(kCounterNames[i]);
        slots[i].store(slot, std::memory_order_release);
    }
    slot->fetch_add(delta, std::memory_order_relaxed);
}

/// One copy kind as every recorder sees it (indexed by detail::Copy).
struct CopyKindInfo {
    prof::Api api;        ///< blocking call
    prof::Api async_api;  ///< stream call (H2C has none)
    faults::Site site;
    timeline::Category cat;
    CopyKind prof_kind;      ///< HostToHost: not a profiled transfer
    const char* tag;         ///< trace "kind" argument
    const char* name;        ///< blocking copy: timeline node and trace span
    const char* async_name;  ///< the same for a stream copy
};
constexpr CopyKindInfo kCopies[] = {
    {prof::Api::MemcpyH2D, prof::Api::MemcpyH2DAsync, faults::Site::MemcpyH2D,
     timeline::Category::MemcpyH2D, CopyKind::HostToDevice, "H2D", "memcpy H2D",
     "memcpy H2D async"},
    {prof::Api::MemcpyD2H, prof::Api::MemcpyD2HAsync, faults::Site::MemcpyD2H,
     timeline::Category::MemcpyD2H, CopyKind::DeviceToHost, "D2H", "memcpy D2H",
     "memcpy D2H async"},
    {prof::Api::MemcpyD2D, prof::Api::MemcpyD2DAsync, faults::Site::MemcpyD2D,
     timeline::Category::MemcpyD2D, CopyKind::DeviceToDevice, "D2D", "memcpy D2D",
     "memcpy D2D async"},
    {prof::Api::MemcpyH2D, prof::Api::MemcpyH2D, faults::Site::MemcpyH2D,
     timeline::Category::MemcpyH2D, CopyKind::HostToHost, "H2C", "memcpy H2C", nullptr},
};

const CopyKindInfo& info(Copy kind) { return kCopies[static_cast<std::size_t>(kind)]; }

}  // namespace

namespace detail {

OpDesc copy_op(Copy kind, StreamId stream, std::uint64_t bytes) {
    const CopyKindInfo& c = info(kind);
    const bool async = stream != kDefaultStream;
    const std::string_view constant = kind == Copy::H2C ? "constant" : "";
    return OpDesc{.api = async ? c.async_api : c.api,
                  .stream = stream,
                  .bytes = bytes,
                  .label = constant,
                  .category = c.cat,
                  .node = async ? c.async_name : c.name,
                  .site = c.site,
                  .fault_label = async ? "async" : constant};
}

OpRecord::OpRecord(Device* dev, const OpDesc& desc)
    : dev_(dev), desc_(desc), gates_(cupp::trace::recorders()) {
    if (gates_ == 0) return;
    if (on(rec::kProfArmed | rec::kTimeline)) corr_ = prof::new_correlation_id();
    exceptions_ = std::uncaught_exceptions();
    if (on(rec::kProfArmed)) {
        prof::note_api_enter(desc_.api);
        prof::dispatch(prof::ApiRecord{desc_.api, prof::Phase::Enter,
                                       dev_ ? dev_->trace_ordinal_ : -1, desc_.stream,
                                       desc_.bytes, desc_.label, false, corr_});
    }
    if (dev_ != nullptr) t_ = dev_->tl_abs(dev_->host_time_);
    if (!desc_.site) return;
    try {
        preflight(*desc_.site, desc_.fault_label);
    } catch (...) {
        close(true);  // no destructor runs for a record whose constructor throws
        throw;
    }
}

OpRecord::~OpRecord() { close(std::uncaught_exceptions() > exceptions_); }

void OpRecord::close(bool failed) const {
    if (!on(rec::kProfArmed | rec::kTimeline)) return;
    if (failed && on(rec::kTimeline) && desc_.category) {
        // Only copies carry bytes on a timeline node.
        const timeline::Category cat = *desc_.category;
        const bool copy = cat == timeline::Category::MemcpyH2D ||
                          cat == timeline::Category::MemcpyD2H ||
                          cat == timeline::Category::MemcpyD2D;
        timeline::failed_op(dev_->trace_ordinal_, desc_.stream, cat, desc_.node,
                            copy ? desc_.bytes : 0, corr_, t_);
    }
    if (on(rec::kProfArmed)) {
        prof::dispatch(prof::ApiRecord{desc_.api, prof::Phase::Exit,
                                       dev_ ? dev_->trace_ordinal_ : -1, desc_.stream,
                                       desc_.bytes, desc_.label, failed, corr_});
    }
}

void OpRecord::preflight(faults::Site site, std::string_view label,
                         std::string_view prefix) const {
    if (!on(rec::kFaultsArmed)) return;
    if (prefix.empty()) {
        faults::preflight(site, label, dev_);
    } else {
        faults::preflight(site, std::string(prefix) + std::string(label), dev_);
    }
}

void OpRecord::issued(double t0) const {
    if (!on(rec::kTimeline | rec::kTrace)) return;
    const Device& d = *dev_;
    const bool graph = desc_.api == prof::Api::GraphLaunch;
    std::string name = graph ? std::string("graph launch")
                             : "launch " + std::string(kernel_label(desc_.label));
    if (desc_.api == prof::Api::LaunchAsync) {
        name += " (s" + std::to_string(desc_.stream) + ")";
    }
    if (on(rec::kTimeline)) {
        timeline::host_op(d.trace_ordinal_, timeline::Category::Host, name, 0, corr_,
                          d.tl_abs(t0), d.tl_abs(d.host_time_));
    }
    if (on(rec::kTrace)) {
        std::vector<cupp::trace::arg> args;
        if (graph) {
            args.emplace_back("nodes", desc_.bytes);
            count(Counter::GraphLaunches);
        } else if (desc_.stream != kDefaultStream) {
            args.emplace_back("stream", desc_.stream);
        }
        cupp::trace::emit_complete(d.host_track(), name, d.trace_time_us(t0),
                                   d.props_.cost.launch_overhead_s * 1e6, std::move(args));
    }
}

void OpRecord::synced(EventId event) const {
    if (!on(rec::kTimeline)) return;
    const Device& d = *dev_;
    const int dev = d.trace_ordinal_;
    std::uint64_t waited = 0;
    switch (desc_.api) {
        case prof::Api::Sync: waited = timeline::device_tail(dev); break;
        case prof::Api::StreamSynchronize:
            waited = timeline::stream_tail(dev, desc_.stream);
            break;
        default: waited = timeline::event_record_node(dev, event); break;
    }
    timeline::host_sync(dev, desc_.node, corr_, d.tl_abs(d.host_time_), waited);
}

void OpRecord::instant(std::string_view name, const char* key,
                       std::uint64_t value) const {
    if (!on(rec::kTrace)) return;
    if (desc_.api == prof::Api::StreamCreate) count(Counter::StreamsCreated);
    const Device& d = *dev_;
    cupp::trace::emit_instant(d.host_track(), name, d.trace_time_us(d.host_time_),
                              {{key, value}});
}

std::uint64_t OpRecord::anchor() const {
    if (!on(rec::kTimeline)) return 0;
    return timeline::anchor_host(dev_->trace_ordinal_, dev_->tl_abs(dev_->host_time_));
}

void OpRecord::enqueued(const StreamOp& op) const {
    if (!on(rec::kTrace)) return;
    const Device& d = *dev_;
    if (op.kind == StreamOp::Kind::CopyH2D || op.kind == StreamOp::Kind::CopyD2H) {
        const char* dir = op.kind == StreamOp::Kind::CopyH2D ? "H2D" : "D2H";
        cupp::trace::emit_instant(
            d.host_track(),
            std::string("enqueue ") + dir + " (s" + std::to_string(desc_.stream) + ")",
            d.trace_time_us(d.host_time_), {{"bytes", op.bytes}, {"stream", desc_.stream}});
    } else if (op.kind == StreamOp::Kind::Record) {
        count(Counter::EventsRecorded);
    } else if (op.kind == StreamOp::Kind::Wait) {
        count(Counter::WaitEvents);
    }
    count(Counter::OpsEnqueued);
}

}  // namespace detail

// --- the device side of every call ----------------------------------------------

std::uint64_t Device::tl_device_node(StreamId sid, timeline::Category cat,
                                     std::string_view name, std::uint64_t bytes,
                                     std::uint64_t corr, double start, double end,
                                     std::uint64_t dep) {
    if (sid != kDefaultStream) {
        return timeline::stream_op(trace_ordinal_, sid, cat, name, bytes, corr,
                                   tl_abs(start), tl_abs(end), dep);
    }
    // A legacy grid, copy or record that starts the moment the host reaches
    // it is bound by the host lane's point there; when the device was still
    // busy, the lane's FIFO tail already ends at its start. (A wait is bound
    // by its event's record, passed in `dep`.)
    if (cat != timeline::Category::EventWait && start == host_time_) {
        dep = timeline::anchor_host(trace_ordinal_, tl_abs(start));
    }
    return timeline::device_op(trace_ordinal_, cat, name, bytes, corr, tl_abs(start),
                               tl_abs(end), dep);
}

LaunchStats Device::complete_kernel(const LaunchConfig& cfg, const KernelSpec& spec,
                                    std::string_view name, StreamId sid, double& free_at,
                                    double issue, std::uint64_t corr,
                                    std::uint64_t anchor) {
    const std::uint32_t on = cupp::trace::recorders();
    // Host interpreter wall time is the one profiler field that is real
    // (and thus non-deterministic) rather than modelled; only measured
    // while a profiling session is collecting.
    const bool profiling = (on & rec::kProfCollecting) != 0;
    const double wall0 = profiling ? cupp::trace::wall_clock_us() : 0.0;
    const LaunchStats stats = run_grid(cfg, spec, name, (on & rec::kTrace) != 0);
    const bool legacy = sid == kDefaultStream;
    if (profiling) {
        prof::record_launch(name, cfg, stats, legacy ? device_track() : stream_track(sid),
                            trace_ordinal_,
                            (cupp::trace::wall_clock_us() - wall0) * 1e-6, props_.cost);
    }
    // Asynchronous launch semantics (§2.2): the grid starts once its lane
    // is free and the host has issued it.
    const double start = std::max(free_at, issue);
    free_at = start + stats.device_seconds;
    last_launch_ = stats;
    ++launch_count_;
    const std::string_view label = detail::kernel_label(name);
    LaunchRecord entry{std::string(label), stats, tl_abs(start), tl_abs(free_at)};
    if (history_.size() < kLaunchHistoryCapacity) {
        history_.push_back(std::move(entry));
    } else {
        history_[history_head_] = std::move(entry);
        history_head_ = (history_head_ + 1) % kLaunchHistoryCapacity;
    }
    if (on & rec::kTimeline) {
        tl_device_node(sid, timeline::Category::Kernel, label, 0, corr, start, free_at,
                       anchor);
    }
    if (on & rec::kTrace) {
        // The grid actually executing, with the full LaunchStats attached:
        // the §6.3.1 profile per launch.
        std::vector<cupp::trace::arg> args{
            {"blocks", stats.blocks},
            {"threads", stats.threads},
            {"threads_per_block", stats.threads_per_block},
            {"warps", stats.warps},
            {"compute_cycles", stats.compute_cycles},
            {"stall_cycles", stats.stall_cycles},
            {"bytes_read", stats.bytes_read},
            {"bytes_written", stats.bytes_written},
            {"divergent_events", stats.divergent_events},
            {"branch_evaluations", stats.branch_evaluations},
            {"syncthreads", stats.syncthreads_count},
            {"resident_blocks_per_mp", stats.resident_blocks_per_mp},
            {"bound_by", to_string(bound_by(stats, props_.cost))}};
        if (!legacy) args.insert(args.begin(), {"stream", sid});
        cupp::trace::emit_complete(legacy ? device_track() : stream_track(sid), label,
                                   trace_time_us(start), stats.device_seconds * 1e6,
                                   std::move(args));
        count(legacy ? Counter::KernelLaunches : Counter::StreamKernelLaunches);
    }
    return stats;
}

void Device::complete_copy(Copy kind, StreamId sid, std::uint64_t bytes,
                           std::uint64_t corr, double start, double secs, double wait,
                           std::uint64_t anchor) {
    const std::uint32_t on = cupp::trace::recorders();
    if (on == 0) return;
    const CopyKindInfo& c = info(kind);
    const bool host_lane = sid == kDefaultStream && kind != Copy::D2D;
    const char* name = sid == kDefaultStream ? c.name : c.async_name;
    if (on & rec::kTrace) {
        if (host_lane) {
            cupp::trace::emit_complete(host_track(), name, trace_time_us(start),
                                       (host_time_ - start) * 1e6,
                                       {{"bytes", bytes},
                                        {"kind", c.tag},
                                        {"device_wait_us", wait * 1e6}});
            const bool d2h = kind == Copy::D2H;
            count(Counter::BytesH2D, d2h ? 0 : bytes);
            count(Counter::BytesD2H, d2h ? bytes : 0);
            count(Counter::Transfers);
        } else {
            cupp::trace::emit_complete(sid == kDefaultStream ? device_track()
                                                             : stream_track(sid),
                                       name, trace_time_us(start), secs * 1e6,
                                       {{"bytes", bytes}, {"kind", c.tag}});
            if (sid != kDefaultStream && kind != Copy::D2D) {
                count(kind == Copy::H2D ? Counter::StreamBytesH2D : Counter::StreamBytesD2H,
                      bytes);
            }
        }
    }
    if ((on & rec::kProfCollecting) && c.prof_kind != CopyKind::HostToHost) {
        prof::record_transfer(c.prof_kind, bytes, secs, trace_ordinal_);
    }
    if (on & rec::kTimeline) {
        if (host_lane) {
            // The wait for an active kernel shows as a host-lane bubble
            // bound to the device FIFO tail.
            timeline::host_op(trace_ordinal_, c.cat, name, bytes, corr,
                              tl_abs(start + wait), tl_abs(host_time_),
                              wait > 0.0 ? timeline::device_tail(trace_ordinal_) : 0);
        } else {
            tl_device_node(sid, c.cat, name, bytes, corr, start, start + secs, anchor);
        }
    }
}

void Device::complete_mark(timeline::Category mark, StreamId sid, EventId event,
                           std::uint64_t corr, double t, std::uint64_t anchor,
                           bool newest) {
    const std::uint32_t on = cupp::trace::recorders();
    const bool record = mark == timeline::Category::EventRecord;
    if (on & rec::kTimeline) {
        if (record) {
            const std::uint64_t node =
                tl_device_node(sid, mark, "event record", 0, corr, t, t, anchor);
            // Mirrors EventState::time: waits edge to the record that
            // actually defines the event's completion point.
            if (newest) timeline::register_event_record(trace_ordinal_, event, node);
        } else {
            // Cross-stream edge: the wait point depends on the event's
            // defining record (and the lane FIFO, via the tail).
            tl_device_node(sid, mark, "wait event", 0, corr, t, t,
                           timeline::event_record_node(trace_ordinal_, event));
        }
    }
    if (record && sid != kDefaultStream && (on & rec::kTrace)) {
        cupp::trace::emit_instant(stream_track(sid), "event record", trace_time_us(t),
                                  {{"event", event}});
    }
}

void Device::fold_stream_tail(StreamId sid) {
    if (cupp::trace::recorders() & rec::kTimeline) {
        timeline::set_device_tail(trace_ordinal_,
                                  timeline::stream_tail(trace_ordinal_, sid));
    }
}

void Device::trace_device_event(const char* what, double t) {
    if (cupp::trace::recorders() & rec::kTrace) {
        cupp::trace::emit_instant("faults", what, trace_time_us(t),
                                  {{"device", trace_ordinal_}});
    }
}

}  // namespace cusim
