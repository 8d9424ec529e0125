// Streams & events: the Device's deferred asynchronous work queues.
//
// An explicit stream is a FIFO of ops captured at enqueue time (kernel
// closures, snapshotted H2D sources, host destinations, event marks).
// Nothing executes until a synchronization point; then drain() runs every
// executable op in the canonical order — streams in ascending id, each in
// enqueue order, an op blocked on a cross-stream event wait yielding to
// the next stream until the record it waits on has executed. The order is
// a pure function of the enqueue sequence: LaunchStats, memcheck reports,
// fault counters and trace output are bit-identical for any engine thread
// count (only the *blocks inside one grid* parallelize, under run_grid's
// existing launch-order reduction).
//
// Deadlock-freedom of drain(): a wait's target record is always an op
// enqueued strictly earlier (the target seq is snapshotted when the wait
// is enqueued). Consider the queue-front op with the smallest global seq:
// were it a blocked wait, its target record — with an even smaller seq —
// would still sit in some queue whose front would then have a smaller seq
// than the minimum. Contradiction, so the minimal front is always
// executable and every pass makes progress.

#include "cusim/stream.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "cusim/memcheck.hpp"
#include "cusim/multiprocessor.hpp"
#include "cusim/op_record.hpp"
#include "cusim/stream_detail.hpp"

namespace cusim {

using detail::Copy;
using detail::StreamOp;

Device::Device(DeviceProperties props)
    : props_(std::move(props)), memory_(props_.total_global_mem) {
    static std::atomic<int> next_ordinal{0};
    trace_ordinal_ = next_ordinal.fetch_add(1, std::memory_order_relaxed);
    memory_.shadow().set_device(trace_ordinal_);
}

Device::~Device() = default;

detail::StreamTable& Device::stream_table() {
    if (!streams_) streams_ = std::make_unique<detail::StreamTable>();
    return *streams_;
}

// --- creation / destruction -------------------------------------------------

StreamId Device::stream_create() {
    // Creating a stream allocates runtime resources; the Malloc site with a
    // recognisable label lets fault plans target it.
    detail::OpRecord op(this, {.api = prof::Api::StreamCreate,
                               .site = faults::Site::Malloc,
                               .fault_label = "stream_create"});
    detail::StreamTable& t = stream_table();
    const StreamId id = t.next_stream++;
    t.streams[id];  // default StreamState: idle, empty queue
    op.instant("stream create", "stream", id);
    return id;
}

void Device::stream_destroy(StreamId stream) {
    detail::OpRecord op(this, {.api = prof::Api::StreamDestroy, .stream = stream});
    live_stream(stream, "stream_destroy: unknown stream");
    // cudaStreamDestroy semantics: queued work still completes. Draining is
    // global (the canonical order is device-wide), which executes at least
    // everything this stream needs.
    if (capturing_) capture_violation("stream_destroy during stream capture");
    drain_streams();
    streams_->streams.erase(stream);
}

EventId Device::event_create() {
    detail::OpRecord op(this, {.api = prof::Api::EventCreate,
                               .site = faults::Site::Malloc,
                               .fault_label = "event_create"});
    detail::StreamTable& t = stream_table();
    const EventId id = t.next_event++;
    t.events[id];
    return id;
}

void Device::event_destroy(EventId event) {
    detail::OpRecord op(this, {.api = prof::Api::EventDestroy});
    detail::StreamTable& t = stream_table();
    if (t.events.erase(event) == 0) {
        throw Error(ErrorCode::InvalidValue, "event_destroy: unknown event");
    }
    // Pending record/wait ops referencing the id degrade to no-ops at
    // drain; ids are never reused, so no aliasing.
}

// --- enqueue ----------------------------------------------------------------

void Device::launch_async(const LaunchConfig& cfg, const KernelEntry& entry,
                          std::string_view name, StreamId stream) {
    launch_async(cfg, KernelSpec(entry), name, stream);
}

detail::StreamState& Device::live_stream(StreamId stream, const char* what) {
    detail::StreamTable& t = stream_table();
    const auto it = t.streams.find(stream);
    if (it == t.streams.end()) throw Error(ErrorCode::InvalidValue, what);
    return it->second;
}

std::uint64_t Device::enqueue(const detail::OpRecord& rec, StreamId sid,
                              detail::StreamState& st, StreamOp op) {
    if (capturing_ && capture_op(op, sid)) return 0;
    op.seq = streams_->next_seq++;
    op.issue_host_time = host_time_;
    op.corr = rec.correlation();
    if (op.kind != StreamOp::Kind::Wait) op.tl_anchor = rec.anchor();
    st.pending.push_back(std::move(op));
    rec.enqueued(st.pending.back());
    return st.pending.back().seq;
}

void Device::launch_async(const LaunchConfig& cfg, KernelSpec spec,
                          std::string_view name, StreamId stream) {
    if (stream == kDefaultStream) {
        (void)launch(cfg, std::move(spec), name);
        return;
    }
    detail::OpRecord op(this, {.api = prof::Api::LaunchAsync,
                               .stream = stream,
                               .label = name,
                               .category = timeline::Category::Kernel,
                               .node = name});
    // Same atomic-rejection contract as launch(): preflight and validation
    // happen at enqueue, before anything is queued, so an injected failure
    // leaves no half-enqueued op and a retry is clean.
    op.preflight(faults::Site::Launch, detail::kernel_label(name), "async ");
    cfg.validate();
    (void)blocks_per_mp(props_.cost, cfg);
    detail::StreamState& st = live_stream(stream, "launch_async: unknown stream");
    StreamOp o;
    o.kind = StreamOp::Kind::Launch;
    o.cfg = cfg;
    o.entry = std::move(spec);
    o.name = std::string(detail::kernel_label(name));
    if (enqueue(op, stream, st, std::move(o)) == 0) return;
    // The host pays only the issue overhead, exactly like a legacy launch.
    const double t0 = host_time_;
    host_time_ += props_.cost.launch_overhead_s;
    op.issued(t0);
}

void Device::memcpy_to_device_async(DeviceAddr dst, const void* src,
                                    std::uint64_t bytes, StreamId stream) {
    if (stream == kDefaultStream) {
        copy_to_device(dst, src, bytes);
        return;
    }
    detail::OpRecord op(this, detail::copy_op(Copy::H2D, stream, bytes));
    if (src == nullptr) throw Error(ErrorCode::InvalidValue, "null async H2D source");
    if (!memory_.range_valid(dst, bytes)) {
        throw Error(ErrorCode::InvalidDevicePointer,
                    "async H2D outside any allocation");
    }
    detail::StreamState& st = live_stream(stream, "memcpy_to_device_async: unknown stream");
    StreamOp o;
    o.kind = StreamOp::Kind::CopyH2D;
    o.dst = dst;
    o.bytes = bytes;
    // Pageable-memory semantics: snapshot now, so host writes to `src`
    // after this call never leak into the copy.
    const auto* p = static_cast<const std::byte*>(src);
    o.staged.assign(p, p + bytes);
    enqueue(op, stream, st, std::move(o));
}

void Device::memcpy_to_host_async(void* dst, DeviceAddr src, std::uint64_t bytes,
                                  StreamId stream) {
    if (stream == kDefaultStream) {
        copy_to_host(dst, src, bytes);
        return;
    }
    detail::OpRecord op(this, detail::copy_op(Copy::D2H, stream, bytes));
    if (dst == nullptr) throw Error(ErrorCode::InvalidValue, "null async D2H destination");
    if (!memory_.range_valid(src, bytes)) {
        throw Error(ErrorCode::InvalidDevicePointer,
                    "async D2H outside any allocation");
    }
    detail::StreamState& st = live_stream(stream, "memcpy_to_host_async: unknown stream");
    StreamOp o;
    o.kind = StreamOp::Kind::CopyD2H;
    o.src = src;
    o.bytes = bytes;
    o.host_dst = dst;
    const std::uint64_t seq = enqueue(op, stream, st, std::move(o));
    if (seq != 0 && memcheck::enabled()) {
        detail::PendingHostWrite w;
        w.begin = static_cast<const std::byte*>(dst);
        w.end = w.begin + bytes;
        w.stream = stream;
        w.seq = seq;
        streams_->host_writes.push_back(w);
    }
}

void Device::memcpy_device_to_device_async(DeviceAddr dst, DeviceAddr src,
                                           std::uint64_t bytes, StreamId stream) {
    if (stream == kDefaultStream) {
        copy_device_to_device(dst, src, bytes);
        return;
    }
    detail::OpRecord op(this, detail::copy_op(Copy::D2D, stream, bytes));
    if (!memory_.range_valid(src, bytes) || !memory_.range_valid(dst, bytes)) {
        throw Error(ErrorCode::InvalidDevicePointer,
                    "async D2D outside any allocation");
    }
    detail::StreamState& st =
        live_stream(stream, "memcpy_device_to_device_async: unknown stream");
    StreamOp o;
    o.kind = StreamOp::Kind::CopyD2D;
    o.dst = dst;
    o.src = src;
    o.bytes = bytes;
    enqueue(op, stream, st, std::move(o));
}

void Device::event_record(EventId event, StreamId stream) {
    detail::OpRecord op(this, {.api = prof::Api::EventRecord,
                               .stream = stream,
                               .category = timeline::Category::EventRecord,
                               .node = "event record"});
    detail::StreamTable& t = stream_table();
    auto ev = t.events.find(event);
    if (ev == t.events.end()) {
        throw Error(ErrorCode::InvalidValue, "event_record: unknown event");
    }
    if (stream == kDefaultStream) {
        // Legacy-stream record: after all currently issued work, device-wide.
        join_streams();
        const std::uint64_t seq = t.next_seq++;
        ev->second.time = std::max(host_time_, device_free_at_);
        ev->second.last_record_seq = seq;
        ev->second.completed_seq = seq;
        complete_mark(timeline::Category::EventRecord, kDefaultStream, event,
                      op.correlation(), ev->second.time, 0, true);
        return;
    }
    detail::StreamState& st = live_stream(stream, "event_record: unknown stream");
    StreamOp o;
    o.kind = StreamOp::Kind::Record;
    o.event = event;
    // A captured record never touches EventState: the event's live record
    // chain is only updated when the graph replays.
    const std::uint64_t seq = enqueue(op, stream, st, std::move(o));
    if (seq != 0) ev->second.last_record_seq = seq;
}

void Device::stream_wait_event(StreamId stream, EventId event) {
    detail::OpRecord op(this, {.api = prof::Api::StreamWaitEvent,
                               .stream = stream,
                               .category = timeline::Category::EventWait,
                               .node = "wait event"});
    detail::StreamTable& t = stream_table();
    auto ev = t.events.find(event);
    if (ev == t.events.end()) {
        throw Error(ErrorCode::InvalidValue, "stream_wait_event: unknown event");
    }
    if (stream == kDefaultStream) {
        // The legacy stream orders behind the event: execute everything, then
        // push the device-wide horizon past the recorded point.
        join_streams();
        device_free_at_ = std::max(device_free_at_, ev->second.time);
        if (ev->second.last_record_seq != 0) {
            complete_mark(timeline::Category::EventWait, kDefaultStream, event,
                          op.correlation(), device_free_at_, 0, false);
        }
        return;
    }
    detail::StreamState& st = live_stream(stream, "stream_wait_event: unknown stream");
    StreamOp o;
    o.kind = StreamOp::Kind::Wait;
    o.event = event;
    // CUDA captures the event's *current* record; a later re-record does not
    // move this wait. An unrecorded event makes the wait a no-op. Capture
    // instead resolves the wait against the *captured* record chain
    // (becoming a graph edge, or a no-op for pre-capture records) and can
    // pull an uncaptured stream into the capture — see capture_op().
    o.wait_target_seq = ev->second.last_record_seq;
    o.wait_has_target = ev->second.last_record_seq != 0;
    enqueue(op, stream, st, std::move(o));
}

// --- the drain (canonical execution order) ----------------------------------

bool Device::op_ready(const detail::StreamOp& op) const {
    if (op.kind != StreamOp::Kind::Wait || !op.wait_has_target) return true;
    const auto ev = streams_->events.find(op.event);
    if (ev == streams_->events.end()) return true;  // destroyed -> no-op
    return ev->second.completed_seq >= op.wait_target_seq;
}

void Device::execute_op(StreamId sid, detail::StreamState& st, detail::StreamOp& op) {
    detail::StreamTable& t = *streams_;
    // Nothing starts before its lane is free and the host has issued it.
    const double start = std::max(st.free_at, op.issue_host_time);
    switch (op.kind) {
        case StreamOp::Kind::Launch:
            // Same accounting as Device::launch, but on the stream's lane —
            // per-stream clocks stay the profiler's time base.
            complete_kernel(op.cfg, op.entry, op.name, sid, st.free_at, op.issue_host_time,
                            op.corr, op.tl_anchor);
            break;
        case StreamOp::Kind::CopyH2D: {
            const double secs = pcie_seconds(op.bytes);
            st.free_at = start + secs;
            memory_.write(op.dst, op.staged.data(), op.bytes);
            bytes_to_device_ += op.bytes;
            complete_copy(Copy::H2D, sid, op.bytes, op.corr, start, secs, 0.0, op.tl_anchor);
            break;
        }
        case StreamOp::Kind::CopyD2H: {
            const double secs = pcie_seconds(op.bytes);
            st.free_at = start + secs;
            memory_.read(op.src, op.host_dst, op.bytes);
            bytes_to_host_ += op.bytes;
            for (detail::PendingHostWrite& w : t.host_writes) {
                if (w.seq == op.seq) {
                    w.drained = true;
                    w.complete_at = st.free_at;
                }
            }
            complete_copy(Copy::D2H, sid, op.bytes, op.corr, start, secs, 0.0, op.tl_anchor);
            break;
        }
        case StreamOp::Kind::CopyD2D: {
            const double secs = static_cast<double>(op.bytes) /
                                props_.cost.mem_bandwidth_bytes_per_s;
            st.free_at = start + secs;
            memory_.copy(op.dst, op.src, op.bytes);
            complete_copy(Copy::D2D, sid, op.bytes, op.corr, start, secs, 0.0, op.tl_anchor);
            break;
        }
        case StreamOp::Kind::Record: {
            auto ev = t.events.find(op.event);
            if (ev != t.events.end()) {
                // An idle stream completes the record immediately at issue
                // time; a busy one at its current horizon. When one event is
                // recorded on several streams, drain order may execute an
                // *older* record (lower enqueue seq) after a newer one — the
                // newest record must win, or a wait targeting it would spin
                // on a regressed completed_seq.
                const bool newest = op.seq >= ev->second.completed_seq;
                if (newest) {
                    ev->second.time = start;
                    ev->second.completed_seq = op.seq;
                }
                complete_mark(timeline::Category::EventRecord, sid, op.event, op.corr, start,
                              op.tl_anchor, newest);
            }
            break;
        }
        case StreamOp::Kind::Wait: {
            auto ev = t.events.find(op.event);
            if (ev != t.events.end() && op.wait_has_target) {
                st.free_at = std::max(st.free_at, ev->second.time);
                complete_mark(timeline::Category::EventWait, sid, op.event, op.corr,
                              st.free_at, 0, false);
            }
            break;
        }
    }
}

void Device::drain_streams() {
    if (!streams_) return;
    detail::StreamTable& t = *streams_;
    for (;;) {
        bool progress = false;
        bool remaining = false;
        for (auto& [sid, st] : t.streams) {
            while (!st.pending.empty() && op_ready(st.pending.front())) {
                // Pop before executing: a deferred kernel failure surfaces
                // from the synchronizing call (as on CUDA) and the faulting
                // op is consumed, so the queue stays drainable afterwards.
                StreamOp op = std::move(st.pending.front());
                st.pending.pop_front();
                execute_op(sid, st, op);
                progress = true;
            }
            if (!st.pending.empty()) remaining = true;
        }
        if (!remaining) return;
        if (!progress) {
            // Unreachable (see the deadlock-freedom argument above) —
            // surfacing a bug beats spinning forever.
            throw Error(ErrorCode::LaunchFailure, "stream drain stalled");
        }
    }
}

void Device::join_streams_slow() {
    drain_streams();
    for (const auto& [sid, st] : streams_->streams) {
        if (st.free_at > device_free_at_) {
            device_free_at_ = st.free_at;
            // The stream that pushed the device-wide horizon becomes the
            // node later default-stream work FIFO-orders behind.
            fold_stream_tail(sid);
        }
    }
}

// --- queries & synchronization ----------------------------------------------

bool Device::stream_query(StreamId stream) const {
    if (stream == kDefaultStream) return !kernel_active();
    if (!streams_) {
        throw Error(ErrorCode::InvalidValue, "stream_query: unknown stream");
    }
    const auto it = streams_->streams.find(stream);
    if (it == streams_->streams.end()) {
        throw Error(ErrorCode::InvalidValue, "stream_query: unknown stream");
    }
    return it->second.pending.empty() && it->second.free_at <= host_time_;
}

void Device::stream_synchronize(StreamId stream) {
    if (stream == kDefaultStream) {
        synchronize();
        return;
    }
    detail::OpRecord op(this, {.api = prof::Api::StreamSynchronize,
                               .stream = stream,
                               .category = timeline::Category::Sync,
                               .node = "stream synchronize"});
    if (capturing_) capture_violation("stream_synchronize during stream capture");
    op.preflight(faults::Site::Sync, "stream");
    const detail::StreamState& st = live_stream(stream, "stream_synchronize: unknown stream");
    drain_streams();
    host_time_ = std::max(host_time_, st.free_at);
    prune_completed_async();
    op.synced();
}

bool Device::event_query(EventId event) const {
    if (!streams_) {
        throw Error(ErrorCode::InvalidValue, "event_query: unknown event");
    }
    const auto it = streams_->events.find(event);
    if (it == streams_->events.end()) {
        throw Error(ErrorCode::InvalidValue, "event_query: unknown event");
    }
    const detail::EventState& ev = it->second;
    if (ev.last_record_seq == 0) return true;  // never recorded: complete (CUDA)
    return ev.completed_seq >= ev.last_record_seq && ev.time <= host_time_;
}

void Device::event_synchronize(EventId event) {
    detail::OpRecord op(this, {.api = prof::Api::EventSynchronize,
                               .category = timeline::Category::Sync,
                               .node = "event synchronize"});
    if (capturing_) capture_violation("event_synchronize during stream capture");
    op.preflight(faults::Site::Sync, "event");
    detail::StreamTable& t = stream_table();
    auto it = t.events.find(event);
    if (it == t.events.end()) {
        throw Error(ErrorCode::InvalidValue, "event_synchronize: unknown event");
    }
    drain_streams();
    host_time_ = std::max(host_time_, it->second.time);
    prune_completed_async();
    op.synced(event);
}

double Device::event_elapsed_ms(EventId start, EventId stop) {
    detail::StreamTable& t = stream_table();
    auto a = t.events.find(start);
    auto b = t.events.find(stop);
    if (a == t.events.end() || b == t.events.end()) {
        throw Error(ErrorCode::InvalidValue, "event_elapsed_ms: unknown event");
    }
    if (capturing_) capture_violation("event_elapsed_ms during stream capture");
    drain_streams();
    if (a->second.last_record_seq == 0 || b->second.last_record_seq == 0) {
        throw Error(ErrorCode::InvalidValue, "event_elapsed_ms: event never recorded");
    }
    if (a->second.time > host_time_ || b->second.time > host_time_) {
        throw Error(ErrorCode::NotReady,
                    "event_elapsed_ms: events not yet complete (synchronize first)");
    }
    return (b->second.time - a->second.time) * 1e3;
}

std::uint64_t Device::pending_async_ops() const {
    if (!streams_) return 0;
    std::uint64_t n = 0;
    for (const auto& [sid, st] : streams_->streams) n += st.pending.size();
    return n;
}

// --- async host-race detection (memcheck) ------------------------------------

void Device::note_host_read(const void* p, std::uint64_t bytes) {
    if (!streams_ || !memcheck::enabled()) return;
    const auto* begin = static_cast<const std::byte*>(p);
    const auto* end = begin + bytes;
    for (const detail::PendingHostWrite& w : streams_->host_writes) {
        const bool in_flight = !w.drained || w.complete_at > host_time_;
        if (!in_flight || begin >= w.end || end <= w.begin) continue;
        memcheck::Violation v;
        v.kind = memcheck::Kind::AsyncHostRace;
        v.message = "host read of " + std::to_string(bytes) +
                    " byte(s) races an in-flight async D2H copy on stream " +
                    std::to_string(w.stream) +
                    " (synchronize the stream before touching the destination)";
        v.origin = "stream " + std::to_string(w.stream) + " D2H";
        v.addr = reinterpret_cast<std::uintptr_t>(p);
        v.bytes = bytes;
        v.device = trace_ordinal_;
        memcheck::record(std::move(v));
        if (memcheck::strict()) {
            throw Error(ErrorCode::MemcheckViolation,
                        "async host race (strict memcheck)");
        }
        return;  // one report per touched range is enough
    }
}

void Device::prune_completed_async() {
    if (!streams_) return;
    auto& ws = streams_->host_writes;
    ws.erase(std::remove_if(ws.begin(), ws.end(),
                            [&](const detail::PendingHostWrite& w) {
                                return w.drained && w.complete_at <= host_time_;
                            }),
             ws.end());
}

// --- reset paths --------------------------------------------------------------

void Device::reset_stream_clocks() {
    for (auto& [sid, st] : streams_->streams) st.free_at = 0.0;
}

void Device::abandon_streams() {
    // A device reset kills any live capture outright (as on CUDA, where
    // capture state dies with the context).
    capturing_ = false;
    capture_.reset();
    // Queued work died with the device: drop it unexecuted. Events whose
    // record was still queued complete at the reset point so waits and
    // event_synchronize can't stall on an op that will never run.
    detail::StreamTable& t = *streams_;
    for (auto& [sid, st] : t.streams) {
        for (const StreamOp& op : st.pending) {
            if (op.kind != StreamOp::Kind::Record) continue;
            auto ev = t.events.find(op.event);
            if (ev != t.events.end() && ev->second.completed_seq < op.seq) {
                ev->second.time = host_time_;
                ev->second.completed_seq = op.seq;
            }
        }
        st.pending.clear();
        st.free_at = host_time_;
    }
    t.host_writes.clear();
}

}  // namespace cusim
