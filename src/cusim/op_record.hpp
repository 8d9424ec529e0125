// cusim::detail::OpRecord: the one instrumentation point of a runtime call.
//
// Every instrumented Device entry point opens exactly one OpRecord before
// it does anything else. Opening the record does four things, in this
// order:
//   1. allocate the call's correlation id (while prof or timeline is on),
//   2. fire the prof Enter callback,
//   3. arm the failed timeline node (calls that schedule timeline work),
//   4. run the fault preflight (calls with a fault site; calls that must
//      validate first, and the async launch, whose "async <kernel>" label
//      is only built while faults are armed, run preflight() themselves).
// Then the call does its work. If it unwinds, the record emits the failed
// timeline node and then the failed prof Exit; otherwise it emits the Exit.
//
// Whatever a successful call hands to the recorders goes through this
// module too: the record's members below cover the calling host's side
// (issue spans, sync points, enqueue marks), and the Device completion
// functions in op_record.cpp cover the device side (a finished grid, copy
// or event mark), shared by the blocking calls, the stream drain and graph
// replay. Each reads the recorder word (cupp::trace::recorders()) once,
// so with every recorder off a call pays one relaxed load per record and
// per completion, and builds no label it would not use.
//
// Private to src/cusim: only the runtime's .cpp files include it.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "cupp/trace.hpp"
#include "cusim/device.hpp"
#include "cusim/faults.hpp"
#include "cusim/prof.hpp"
#include "cusim/timeline.hpp"

namespace cusim::detail {

/// What a runtime call declares when it opens its record.
struct OpDesc {
    prof::Api api = prof::Api::Malloc;
    StreamId stream = kDefaultStream;
    std::uint64_t bytes = 0;
    std::string_view label{};  ///< prof callback label (kernel or call site)
    /// Set for calls that schedule timeline work: a rejected call records
    /// one failed node of this category, named `node`.
    std::optional<timeline::Category> category{};
    std::string_view node{};
    /// Preflighted with `fault_label` when the record opens.
    std::optional<faults::Site> site{};
    std::string_view fault_label{};
};

/// The descriptor of a blocking (stream 0) or async copy call.
[[nodiscard]] OpDesc copy_op(Copy kind, StreamId stream, std::uint64_t bytes);

/// The name an unnamed kernel is recorded under.
[[nodiscard]] inline std::string_view kernel_label(std::string_view name) {
    return name.empty() ? std::string_view("kernel") : name;
}

class OpRecord {
public:
    /// `dev` is null for calls outside any device (profiler start/stop).
    OpRecord(Device* dev, const OpDesc& desc);
    ~OpRecord();
    OpRecord(const OpRecord&) = delete;
    OpRecord& operator=(const OpRecord&) = delete;

    /// The correlation id allocated at open (0 when nothing needs one).
    [[nodiscard]] std::uint64_t correlation() const { return corr_; }

    /// Fault preflight for calls that validate their arguments first, or
    /// whose label is `prefix` + `label`: the joined label is only built
    /// while faults are armed.
    void preflight(faults::Site site, std::string_view label,
                   std::string_view prefix = {}) const;

    /// The host-lane issue cost of a launch, async launch or graph launch,
    /// [t0, host now]: one Host timeline node and one trace span.
    void issued(double t0) const;
    /// A host synchronization point at host now: what a device, stream or
    /// event (`event`) synchronize waited for.
    void synced(EventId event = 0) const;
    /// A host-track trace instant at host now carrying one argument.
    void instant(std::string_view name, const char* key, std::uint64_t value) const;
    /// The host-lane timeline node ending at host now, which an enqueued
    /// op depends on for its issue (0 while the timeline is off).
    [[nodiscard]] std::uint64_t anchor() const;
    /// Trace marks and counters for an op just queued on a stream.
    void enqueued(const StreamOp& op) const;

private:
    [[nodiscard]] bool on(std::uint32_t bits) const { return (gates_ & bits) != 0; }
    /// Emits the Exit, preceded by the failed node when `failed`.
    void close(bool failed) const;

    Device* dev_;
    OpDesc desc_;
    std::uint32_t gates_;  ///< the recorder word, read once at open
    std::uint64_t corr_ = 0;
    double t_ = 0.0;  ///< host time at open (the failed node's position)
    int exceptions_ = 0;
};

}  // namespace cusim::detail
