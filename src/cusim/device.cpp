#include "cusim/device.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <utility>

#include "cusim/block_pool.hpp"
#include "cusim/engine.hpp"
#include "cusim/multiprocessor.hpp"
#include "cusim/op_record.hpp"

namespace cusim {

namespace {

/// Inverse of ThreadCtx::linear_bid() (x fastest, then y, then z).
uint3 unlinearize_block(std::uint64_t i, const dim3& g) {
    uint3 b;
    b.x = static_cast<unsigned>(i % g.x);
    b.y = static_cast<unsigned>((i / g.x) % g.y);
    b.z = static_cast<unsigned>(i / (std::uint64_t{g.x} * g.y));
    return b;
}

/// This host thread's BlockScratch, kept across launches so a steady-state
/// launch allocates nothing. A grid launched from inside a kernel body (a
/// nested run_grid on the same thread) finds it in use and runs in a
/// scratch of its own instead.
class ScratchLease {
public:
    ScratchLease() {
        // Touch the frame cache before constructing the scratch:
        // thread_locals die in reverse construction order, so the cache
        // that coroutine frames return to outlives the scratch.
        detail::FrameCache::local();
        thread_local BlockScratch scratch;
        thread_local bool in_use = false;
        if (in_use) {
            nested_ = std::make_unique<BlockScratch>();
            scratch_ = nested_.get();
        } else {
            in_use = true;
            in_use_ = &in_use;
            scratch_ = &scratch;
        }
    }
    ~ScratchLease() {
        if (in_use_ != nullptr) *in_use_ = false;
    }
    ScratchLease(const ScratchLease&) = delete;
    ScratchLease& operator=(const ScratchLease&) = delete;

    BlockScratch& scratch() { return *scratch_; }

private:
    BlockScratch* scratch_ = nullptr;
    bool* in_use_ = nullptr;
    std::unique_ptr<BlockScratch> nested_;
};

}  // namespace

LaunchStats Device::launch(const LaunchConfig& cfg, const KernelEntry& entry,
                           std::string_view name) {
    return launch(cfg, KernelSpec(entry), name);
}

LaunchStats Device::launch(const LaunchConfig& cfg, KernelSpec spec,
                           std::string_view name) {
    // The preflight runs before validation and before any block runs: an
    // injected launch failure (or a poisoned device) rejects the launch
    // atomically.
    detail::OpRecord op(this, {.api = prof::Api::Launch,
                               .label = name,
                               .category = timeline::Category::Kernel,
                               .node = name,
                               .site = faults::Site::Launch,
                               .fault_label = name});
    cfg.validate();
    // Occupancy limits are checked before running anything.
    (void)blocks_per_mp(props_.cost, cfg);
    // Default-stream semantics: a legacy launch orders behind every
    // explicit stream's already-enqueued work.
    join_streams();
    const double t0 = host_time_;
    const LaunchStats stats = complete_kernel(cfg, spec, name, kDefaultStream,
                                              device_free_at_, t0, op.correlation(), 0);
    // The host only pays the launch overhead (§2.2 "a kernel invocation
    // does not block the host"); the gap between this issue span's end and
    // the grid's end is the overlap the asynchronous model buys.
    host_time_ += props_.cost.launch_overhead_s;
    op.issued(t0);
    return stats;
}

DeviceAddr Device::malloc_bytes(std::uint64_t bytes, std::source_location loc,
                                const char* label) {
    detail::OpRecord op(this, {.api = prof::Api::Malloc,
                               .bytes = bytes,
                               .label = label,
                               .site = faults::Site::Malloc,
                               .fault_label = label});
    return memory_.allocate(bytes, loc, label);
}

void Device::free_bytes(DeviceAddr addr, std::source_location loc) {
    detail::OpRecord op(this, {.api = prof::Api::Free});
    join_streams();
    memory_.free(addr, loc);
}

void Device::copy_to_device(DeviceAddr dst, const void* src, std::uint64_t bytes) {
    detail::OpRecord op(this, detail::copy_op(detail::Copy::H2D, kDefaultStream, bytes));
    join_streams();
    const double t0 = host_time_;
    const double wait = begin_host_access(bytes);
    memory_.write(dst, src, bytes);
    bytes_to_device_ += bytes;
    complete_copy(detail::Copy::H2D, kDefaultStream, bytes, op.correlation(), t0,
                  host_time_ - t0 - wait, wait, 0);
}

void Device::copy_to_host(void* dst, DeviceAddr src, std::uint64_t bytes) {
    detail::OpRecord op(this, detail::copy_op(detail::Copy::D2H, kDefaultStream, bytes));
    join_streams();
    const double t0 = host_time_;
    const double wait = begin_host_access(bytes);
    memory_.read(src, dst, bytes);
    bytes_to_host_ += bytes;
    complete_copy(detail::Copy::D2H, kDefaultStream, bytes, op.correlation(), t0,
                  host_time_ - t0 - wait, wait, 0);
}

void Device::copy_to_constant(DeviceAddr addr, const void* src, std::uint64_t bytes) {
    detail::OpRecord op(this, detail::copy_op(detail::Copy::H2C, kDefaultStream, bytes));
    join_streams();
    const double t0 = host_time_;
    const double wait = begin_host_access(bytes);
    constant_.write(addr, src, bytes);
    bytes_to_device_ += bytes;
    complete_copy(detail::Copy::H2C, kDefaultStream, bytes, op.correlation(), t0,
                  host_time_ - t0 - wait, wait, 0);
}

void Device::copy_device_to_device(DeviceAddr dst, DeviceAddr src, std::uint64_t bytes) {
    detail::OpRecord op(this, detail::copy_op(detail::Copy::D2D, kDefaultStream, bytes));
    join_streams();
    const double secs = static_cast<double>(bytes) / props_.cost.mem_bandwidth_bytes_per_s;
    const double start = std::max(device_free_at_, host_time_);
    device_free_at_ = start + secs;
    memory_.copy(dst, src, bytes);
    complete_copy(detail::Copy::D2D, kDefaultStream, bytes, op.correlation(), start, secs,
                  0.0, 0);
}

void Device::synchronize() {
    detail::OpRecord op(this, {.api = prof::Api::Sync,
                               .category = timeline::Category::Sync,
                               .node = "synchronize",
                               .site = faults::Site::Sync});
    join_streams();
    host_time_ = std::max(host_time_, device_free_at_);
    prune_completed_async();
    op.synced();
}

LaunchStats Device::run_grid(const LaunchConfig& cfg, const KernelSpec& spec,
                             std::string_view name, bool tracing) {
    LaunchStats stats;
    stats.blocks = cfg.grid.count();
    stats.threads = cfg.total_threads();
    stats.threads_per_block = cfg.block.count();
    stats.warps = std::uint64_t{cfg.warps_per_block()} * cfg.grid.count();

    const std::uint64_t nblocks = cfg.grid.count();
    std::vector<BlockCost> costs;
    costs.reserve(static_cast<std::size_t>(nblocks));

    // Threaded into every ThreadCtx so device-side diagnostics (memcheck
    // violations, out-of-range accesses) can name the kernel and check
    // against this device's global-memory shadow.
    const memcheck::ExecContext exec{
        name.empty() ? std::string("kernel") : std::string(name),
        &memory_.shadow(), trace_ordinal_};

    // Blocks are independent (§2.2), so the grid is dealt to host workers —
    // DeviceProperties::sim_threads if set, else CUPP_SIM_THREADS /
    // hardware_concurrency. Everything observable is reduced in launch
    // order below, so the thread count never changes a result bit.
    const unsigned want =
        props_.sim_threads != 0 ? props_.sim_threads : BlockPool::configured_threads();
    const unsigned threads =
        static_cast<unsigned>(std::min<std::uint64_t>(want, nblocks));

    auto accumulate = [&](const BlockResult& br) {
        stats.syncthreads_count += br.sync_episodes;
        for (const WarpAcct& w : br.warps) {
            stats.divergent_events += w.divergent_events();
            stats.branch_evaluations += w.total_branch_evaluations();
            stats.bytes_read += w.bytes_read;
            stats.bytes_written += w.bytes_written;
            stats.useful_bytes_read += w.useful_bytes_read;
            stats.useful_bytes_written += w.useful_bytes_written;
            stats.shared_accesses += w.shared.accesses;
            stats.shared_bank_conflicts += w.shared.conflicts;
        }
        costs.push_back(BlockCost::from(br, props_.cost));
        stats.compute_cycles += costs.back().compute_cycles;
        stats.stall_cycles += costs.back().stall_cycles;
    };

    if (threads <= 1) {
        // The classic serial engine: blocks run in launch order on this
        // thread, reporting memcheck violations and trace events inline, and
        // the first failure propagates before any later block runs.
        ScratchLease lease;
        for (std::uint64_t i = 0; i < nblocks; ++i) {
            accumulate(run_block(props_.cost, cfg, spec, unlinearize_block(i, cfg.grid),
                                 lease.scratch(), &exec));
        }
    } else {
        // Parallel path. Each worker runs whole blocks, writing only to its
        // block's index-addressed slot: results, deferred memcheck
        // violations and captured trace events all flush in launch order
        // afterwards, so stats, reports and the trace are bit-identical to
        // the serial path for any thread count.
        struct BlockRun {
            BlockResult result;
            std::vector<memcheck::Violation> violations;
            std::vector<cupp::trace::Event> trace_events;
            std::exception_ptr error;
        };
        std::vector<BlockRun> runs(static_cast<std::size_t>(nblocks));
        // Lowest faulting linear block index — the same block whose failure
        // a serial run would report. Also lets workers skip blocks a serial
        // run would never have started (their outputs are discarded; device
        // memory contents after a failed launch are undefined, as on real
        // hardware).
        std::atomic<std::uint64_t> first_error{nblocks};

        BlockPool::instance().run(nblocks, threads, [&](std::uint64_t i) {
            if (first_error.load(std::memory_order_acquire) < i) return;
            try {
                ScratchLease lease;
                std::optional<cupp::trace::ScopedCapture> capture;
                if (tracing) capture.emplace(&runs[i].trace_events);
                runs[i].result =
                    std::move(run_block(props_.cost, cfg, spec, unlinearize_block(i, cfg.grid),
                                        lease.scratch(), &exec, &runs[i].violations));
            } catch (...) {
                runs[i].error = std::current_exception();
                std::uint64_t expected = first_error.load(std::memory_order_relaxed);
                while (i < expected &&
                       !first_error.compare_exchange_weak(expected, i,
                                                          std::memory_order_acq_rel)) {
                }
            }
        });

        const std::uint64_t err = first_error.load(std::memory_order_acquire);
        if (err < nblocks) {
            // Serial semantics: everything blocks 0..err reported before the
            // fault is flushed in order; later blocks' exceptions,
            // violations and trace are drained unreported.
            for (std::uint64_t i = 0; i <= err; ++i) {
                for (memcheck::Violation& v : runs[i].violations) {
                    memcheck::record(std::move(v));
                }
                if (tracing) cupp::trace::replay(std::move(runs[i].trace_events));
            }
            std::rethrow_exception(runs[err].error);
        }
        for (std::uint64_t i = 0; i < nblocks; ++i) {
            accumulate(runs[i].result);
            for (memcheck::Violation& v : runs[i].violations) {
                memcheck::record(std::move(v));
            }
            if (tracing) cupp::trace::replay(std::move(runs[i].trace_events));
        }
    }

    stats.device_seconds =
        model_grid_seconds(props_.cost, cfg, costs, &stats.resident_blocks_per_mp);
    return stats;
}

void Device::poison() {
    lost_ = true;
    faults::note_device_poisoned();
    cupp::trace::metrics().add("cusim.device_lost");
    trace_device_event("device lost", std::max(host_time_, device_free_at_));
}

void Device::reset_device() {
    lost_ = false;
    // Whatever the device was doing died with it — including work still
    // queued on explicit streams (dropped, never executed; pending event
    // records complete at the reset point so waits can't stall).
    if (streams_) abandon_streams();
    device_free_at_ = host_time_;
    memory_.wipe_for_recovery();
    cupp::trace::metrics().add("cusim.device_resets");
    trace_device_event("device reset", host_time_);
}

}  // namespace cusim
