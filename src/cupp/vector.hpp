// cupp::vector — the STL-vector wrapper with lazy memory copying (§4.6).
//
// The host side behaves (almost) like std::vector. The device side is the
// POD handle deviceT::vector, produced through the host/device type
// transformation of §4.5 — element types are transformed too, so
// vector<vector<T>> works and arrives on the device as
// deviceT::vector<deviceT::vector<T::device_type>>.
//
// Lazy memory copying, exactly the four rules of §4.6:
//  * transform() / get_device_reference() copy the data to global memory
//    only if the device copy is out of date (or none exists yet);
//  * dirty() marks the *host* data out of date;
//  * host reads check the flag and download first if needed;
//  * host writes mark the *device* data out of date.
//
// Writes are detected with a proxy class returned by the non-const
// operator[] — the technique (and its rare behavioural differences from a
// plain reference) is discussed in §4.6 footnote 4.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <source_location>
#include <type_traits>
#include <vector>

#include "cupp/call_traits.hpp"
#include "cupp/device.hpp"
#include "cupp/device_reference.hpp"
#include "cupp/exception.hpp"
#include "cupp/future.hpp"
#include "cupp/retry.hpp"
#include "cupp/stream.hpp"
#include "cupp/trace.hpp"
#include "cusim/device_ptr.hpp"
#include "cusim/thread_ctx.hpp"

namespace cupp {

template <typename T>
class vector;

namespace detail {
template <typename T>
struct is_cupp_vector : std::false_type {};
template <typename T>
struct is_cupp_vector<vector<T>> : std::true_type {};

/// Process-wide lazy-copy counters: one hit/miss (or event) counter per
/// §4.6 rule, shared by all cupp::vector instantiations. Incremented only
/// while tracing is enabled so per-element host accesses stay free.
struct lazy_copy_counters {
    trace::counter_handle upload{"cupp.vector.lazy.upload"};
    trace::counter_handle upload_avoided{"cupp.vector.lazy.upload_avoided"};
    trace::counter_handle download{"cupp.vector.lazy.download"};
    trace::counter_handle download_avoided{"cupp.vector.lazy.download_avoided"};
    trace::counter_handle host_invalidated{"cupp.vector.lazy.host_invalidated"};
    trace::counter_handle device_invalidated{"cupp.vector.lazy.device_invalidated"};

    static const lazy_copy_counters& get() {
        static const lazy_copy_counters c;
        return c;
    }
};
}  // namespace detail

namespace deviceT {

/// The device type of cupp::vector<T>: a POD handle to the linear global-
/// memory block holding the (element-transformed) data. "The device type
/// suffers from the problem that it is not possible to allocate memory on
/// the device. Therefore the size of the vector cannot be changed on the
/// device" (§4.6) — there is no push_back here.
template <typename DevElem>
struct vector {
    using value_type = DevElem;
    using device_type = vector<DevElem>;
    using host_type = cupp::vector<host_type_t<DevElem>>;

    cusim::DevicePtr<DevElem> data;
    std::uint32_t count = 0;
    /// Non-zero when reads go through the texture cache — the automatic
    /// const-reference optimisation proposed in the thesis' future work
    /// ("texture or constant memory could automatically be used to offer
    /// even better performance"). Enabled per vector on the host side.
    std::uint32_t textured = 0;

    [[nodiscard]] std::uint32_t size() const { return count; }

    /// Accounted element read (a device-memory access, Table 2.2 — or a
    /// texture fetch when the host enabled texture reads).
    [[nodiscard]] DevElem read(cusim::ThreadCtx& ctx, std::uint64_t i) const {
        return textured != 0 ? data.tex_read(ctx, i) : data.read(ctx, i);
    }
    /// Accounted element write (fire-and-forget).
    void write(cusim::ThreadCtx& ctx, std::uint64_t i, const DevElem& v) const {
        data.write(ctx, i, v);
    }

    /// Lane-batched forms for a warp context (`w.read(vec, idx, out)` lands
    /// here): texture fetches go lane by lane through the lanes' ThreadCtx,
    /// which keeps each lane's texture-cache counter; plain reads batch.
    template <typename Warp>
    void read(Warp& w, const std::uint64_t* idx, DevElem* out) const {
        if (textured != 0) {
            w.each_lane([&](unsigned l) { out[l] = data.tex_read(w.lane(l), idx[l]); });
        } else {
            w.read(data, idx, out);
        }
    }
    template <typename Warp>
    void write(Warp& w, const std::uint64_t* idx, const DevElem* v) const {
        w.write(data, idx, v);
    }
};

}  // namespace deviceT

template <typename T>
class vector {
public:
    using value_type = T;
    using dev_elem = device_type_t<T>;
    using device_type = deviceT::vector<dev_elem>;
    using host_type = vector<T>;
    using size_type = std::uint64_t;
    using const_iterator = typename std::vector<T>::const_iterator;

    // --- construction / rule of five ---
    vector() = default;
    explicit vector(size_type n) : host_(n) {}
    vector(size_type n, const T& value) : host_(n, value) {}
    vector(std::initializer_list<T> init) : host_(init) {}
    template <std::input_iterator It>
    vector(It first, It last) : host_(first, last) {}

    /// The copy owns its own dataset (§4.2): host data is copied
    /// element-wise; the device buffer is not shared and will be lazily
    /// re-created if the copy is ever passed to a kernel.
    vector(const vector& other) : host_(other.snapshot()) {}

    vector& operator=(const vector& other) {
        if (this != &other) {
            // A queued prefetch download still targets our current buffer;
            // settle it before the assignment may reallocate that storage.
            sync_pending();
            host_ = other.snapshot();
            invalidate_device();
        }
        return *this;
    }

    vector(vector&& other) noexcept { swap(other); }
    vector& operator=(vector&& other) noexcept {
        if (this != &other) {
            release_device();
            host_.clear();
            reset_flags();
            swap(other);
        }
        return *this;
    }

    ~vector() { release_device(); }

    void swap(vector& other) noexcept {
        host_.swap(other.host_);
        std::swap(host_valid_, other.host_valid_);
        std::swap(device_valid_, other.device_valid_);
        std::swap(dev_, other.dev_);
        std::swap(dbuf_, other.dbuf_);
        std::swap(dbuf_capacity_, other.dbuf_capacity_);
        std::swap(dev_ref_, other.dev_ref_);
        std::swap(cached_handle_, other.cached_handle_);
        std::swap(textured_, other.textured_);
        std::swap(uploads_, other.uploads_);
        std::swap(downloads_, other.downloads_);
        std::swap(pending_, other.pending_);
    }

    // --- size & capacity ---
    [[nodiscard]] size_type size() const { return host_.size(); }
    [[nodiscard]] bool empty() const { return host_.empty(); }

    void reserve(size_type n) { host_.reserve(n); }

    void resize(size_type n) {
        ensure_host();
        host_.resize(n);
        invalidate_device();
    }
    void clear() {
        host_.clear();
        invalidate_device();
    }

    // --- element access ---
    /// Write-detecting proxy (§4.6): converts to T for reads, assignment
    /// marks the device copy stale.
    class reference {
    public:
        reference(vector* v, size_type i) : v_(v), i_(i) {}

        operator T() const {  // NOLINT(google-explicit-constructor) proxy by design
            v_->ensure_host();
            return v_->host_[i_];
        }
        reference& operator=(const T& value) {
            v_->ensure_host();
            v_->host_[i_] = value;
            v_->invalidate_device();
            return *this;
        }
        reference& operator=(const reference& other) { return *this = static_cast<T>(other); }

    private:
        vector* v_;
        size_type i_;
    };

    [[nodiscard]] reference operator[](size_type i) { return reference(this, i); }
    [[nodiscard]] const T& operator[](size_type i) const {
        ensure_host();
        return host_[i];
    }
    [[nodiscard]] const T& at(size_type i) const {
        if (i >= host_.size()) throw usage_error("cupp::vector index out of range");
        return (*this)[i];
    }
    [[nodiscard]] const T& front() const { return (*this)[0]; }
    [[nodiscard]] const T& back() const { return (*this)[size() - 1]; }

    void push_back(const T& value) {
        ensure_host();
        host_.push_back(value);
        invalidate_device();
    }
    void pop_back() {
        ensure_host();
        host_.pop_back();
        invalidate_device();
    }

    /// Read-only iteration (downloads first if the host copy is stale).
    [[nodiscard]] const_iterator begin() const {
        ensure_host();
        return host_.begin();
    }
    [[nodiscard]] const_iterator end() const {
        ensure_host();
        return host_.end();
    }
    [[nodiscard]] const_iterator cbegin() const { return begin(); }
    [[nodiscard]] const_iterator cend() const { return end(); }

    /// Bulk write access: hands out the underlying std::vector and marks
    /// the device copy stale (the conservative equivalent of non-const
    /// iterators).
    [[nodiscard]] std::vector<T>& mutate() {
        ensure_host();
        invalidate_device();
        return host_;
    }

    /// A host-fresh copy of the contents.
    [[nodiscard]] std::vector<T> snapshot() const {
        ensure_host();
        return host_;
    }

    // --- the kernel call protocol (§4.4/§4.5/§4.6) ---
    [[nodiscard]] device_type transform(const device& d) const {
        ensure_device(d);
        return device_handle();
    }

    [[nodiscard]] device_reference<device_type> get_device_reference(const device& d) const {
        ensure_device(d);
        // Lazy copying applies to the handle object too: the global-memory
        // copy of {pointer, size} is created once and reused while it stays
        // accurate. This keeps repeat kernel calls free of host->device
        // traffic — and, crucially, free of the implicit synchronisation a
        // memcpy would cost while a previous kernel is still running
        // (§2.2), which is what lets double buffering overlap (§6.3.2).
        const device_type handle = device_handle();
        if (!dev_ref_ || !(cached_handle_.data.addr() == handle.data.addr() &&
                           cached_handle_.count == handle.count &&
                           cached_handle_.textured == handle.textured)) {
            dev_ref_.emplace(d, handle);
            cached_handle_ = handle;
        }
        return *dev_ref_;
    }

    /// The kernel received this vector as a non-const reference: the device
    /// now holds the truth, the host copy is stale (§4.6 rule 2).
    void dirty(device_reference<device_type> /*ref*/) {
        // The handle itself (pointer + size) cannot meaningfully change on
        // the device — only the pointed-to data can, and that is already in
        // our buffer.
        if (pending_ && pending_->download) {
            // A prefetch_to_host was racing this kernel: its snapshot of the
            // device data is now (or will be) stale. The queued copy still
            // lands in our buffer at drain, but it must not mark the host
            // valid — the next host read re-downloads over it.
            pending_->discarded = true;
        }
        host_valid_ = false;
        device_valid_ = true;
        if (trace::enabled()) detail::lazy_copy_counters::get().host_invalidated.add();
    }

    /// Internal hook for nested vectors: the device changed our data behind
    /// our back (the *outer* vector was passed non-const).
    void mark_host_stale() {
        if (device_valid_) host_valid_ = false;
    }

    /// Routes device-side reads of this vector through the texture cache
    /// (future-work §7: beneficial when the vector is only read by kernels,
    /// i.e. passed as a const reference).
    void set_texture_fetches(bool enabled) {
        if (textured_ != enabled) {
            textured_ = enabled;
            dev_ref_.reset();  // the cached handle embeds the flag
        }
    }
    [[nodiscard]] bool texture_fetches() const { return textured_; }

    /// Device-lost recovery hook: declares the device copy dead without
    /// touching it. After device::reset() the buffer allocation is still
    /// live (so no free/re-malloc churn) but its contents are wiped; this
    /// drops the cached device handle, marks the device data stale and the
    /// host data authoritative — the next kernel call re-uploads. Callers
    /// recovering from a lost device typically overwrite the host data
    /// (mutate()) from a checkpoint first, since a download that never
    /// happened can't have refreshed it.
    void abandon_device_data() {
        dev_ref_.reset();
        cached_handle_ = device_type{};
        device_valid_ = false;
        host_valid_ = true;
        // Any queued prefetch died with the device (reset abandons stream
        // queues); the transfer will never land, so forget it.
        pending_.reset();
    }

    // --- asynchronous prefetch (streams) ---
    /// Enqueues the §4.6 rule-1 upload on a stream instead of running it
    /// synchronously. The host data is snapshotted at enqueue, so later host
    /// writes cannot tear the transfer; the device copy is immediately
    /// considered valid because every device-side consumer is either on the
    /// same stream (FIFO-ordered behind the copy) or synchronizes first.
    /// No-op when the device copy is already current. Element types that
    /// need a host-side transform fall back to the synchronous upload.
    /// At most one prefetch per vector is in flight; a second call first
    /// synchronizes the previous one.
    void prefetch_to_device(const device& d, const stream& s) const {
        sync_pending();
        if constexpr (!std::is_same_v<T, dev_elem>) {
            ensure_device(d);
            return;
        } else {
            if (dev_ && &dev_->sim() != &d.sim()) {
                throw usage_error("cupp::vector is bound to a different device");
            }
            dev_ = &d;
            if (host_.empty()) {
                device_valid_ = true;
                return;
            }
            if (device_valid_ && dbuf_capacity_ >= host_.size()) {
                if (trace::enabled()) detail::lazy_copy_counters::get().upload_avoided.add();
                return;
            }
            if (!host_valid_) {
                throw usage_error("cupp::vector has neither valid host nor device data");
            }
            if (dbuf_capacity_ < host_.size()) {
                release_device();
                dbuf_ = d.malloc(host_.size() * sizeof(dev_elem),
                                 std::source_location::current(), "cupp::vector");
                dbuf_capacity_ = host_.size();
            }
            with_retry(default_retry_policy(), &d.sim(), "vector prefetch upload", [&] {
                translated([&] {
                    d.sim().memcpy_to_device_async(dbuf_, host_.data(),
                                                   host_.size() * sizeof(T), s.id());
                });
            });
            ++uploads_;
            device_valid_ = true;
            if (trace::enabled()) detail::lazy_copy_counters::get().upload.add();
        }
    }

    /// Enqueues the §4.6 rule-3 download on a stream. The host copy stays
    /// *stale* until the transfer is synchronized — any host access (reads,
    /// writes, snapshot(), iteration) synchronizes the stream first, so the
    /// lazy rules still hold; callers that synchronize the stream themselves
    /// pay only the enqueue cost here. No-op when the host copy is already
    /// current.
    void prefetch_to_host(const stream& s) const {
        sync_pending();
        if (host_valid_ || host_.empty() || !device_valid_) {
            if (host_valid_ && device_valid_ && trace::enabled()) {
                detail::lazy_copy_counters::get().download_avoided.add();
            }
            return;
        }
        if constexpr (!std::is_same_v<T, dev_elem>) {
            ensure_host();
        } else {
            with_retry(default_retry_policy(), &dev_->sim(), "vector prefetch download", [&] {
                translated([&] {
                    dev_->sim().memcpy_to_host_async(host_.data(), dbuf_,
                                                     host_.size() * sizeof(T), s.id());
                });
            });
            pending_.emplace(PendingAsync{s.id(), true, false});
        }
    }

    /// True while a prefetch_to_host download has been enqueued but not yet
    /// synchronized (i.e. the host copy is not safe to read directly).
    [[nodiscard]] bool prefetch_pending() const { return pending_.has_value(); }

    /// prefetch_to_device as a future: the upload is enqueued on `s` and
    /// the returned future completes when it has executed. Composes with
    /// kernel::async / when_all for sync-free dependency chains. When the
    /// device copy is already current (nothing to enqueue) an empty,
    /// already-ready future is returned.
    [[nodiscard]] future<void> prefetch_to_device_async(const device& d,
                                                        const stream& s) const {
        if (device_valid_ && dbuf_capacity_ >= host_.size()) {
            prefetch_to_device(d, s);  // keeps the counter/no-op semantics
            return future<void>{};
        }
        return detail::make_async(d, &s, nullptr, [&](const stream& bound) {
            prefetch_to_device(d, bound);
        });
    }

    /// prefetch_to_host as a future; get()/wait() covers the download, so
    /// the host copy is safe to read once the future is ready (the usual
    /// sync-on-host-access rules still apply if it isn't consumed).
    [[nodiscard]] future<void> prefetch_to_host_async(const stream& s) const {
        sync_pending();
        if (host_valid_ || host_.empty() || !device_valid_) {
            prefetch_to_host(s);  // records the download_avoided counter
            return future<void>{};
        }
        return detail::make_async(*dev_, &s, nullptr, [&](const stream& bound) {
            prefetch_to_host(bound);
        });
    }

    // --- instrumentation (used by tests and the lazy-copy ablation bench) ---
    [[nodiscard]] std::uint64_t uploads() const { return uploads_; }
    [[nodiscard]] std::uint64_t downloads() const { return downloads_; }
    [[nodiscard]] bool device_data_valid() const { return device_valid_; }
    [[nodiscard]] bool host_data_valid() const { return host_valid_; }

private:
    [[nodiscard]] device_type device_handle() const {
        device_type h;
        if (!host_.empty()) {
            h.data = translated(
                [&] { return dev_->sim().template view<dev_elem>(dbuf_, host_.size()); });
        }
        h.count = static_cast<std::uint32_t>(host_.size());
        h.textured = textured_ ? 1u : 0u;
        return h;
    }

    /// A host write makes the device copy stale (§4.6 rule 4).
    void invalidate_device() {
        if (device_valid_ && trace::enabled()) {
            detail::lazy_copy_counters::get().device_invalidated.add();
        }
        device_valid_ = false;
    }

    void reset_flags() {
        host_valid_ = true;
        device_valid_ = false;
        pending_.reset();
    }

    /// Completes an in-flight prefetch_to_host before the host side is
    /// touched (§4.6 rules applied to async transfers: a stale side touched
    /// while a copy is in flight synchronizes first). A stream that was
    /// already destroyed has drained its queue (cudaStreamDestroy
    /// semantics), so an unknown-stream error counts as completion.
    void sync_pending() const {
        if (!pending_) return;
        const PendingAsync p = *pending_;
        pending_.reset();
        try {
            with_retry(default_retry_policy(), &dev_->sim(), "vector prefetch sync", [&] {
                translated([&] { dev_->sim().stream_synchronize(p.stream); });
            });
        } catch (const usage_error& e) {
            // Stream destroyed after the enqueue: the destroy drained the
            // queue, so the transfer completed. Anything else is real.
            if (e.code() != cusim::ErrorCode::InvalidValue) throw;
        }
        if (p.download && !p.discarded) {
            ++downloads_;
            host_valid_ = true;
            if (trace::enabled()) detail::lazy_copy_counters::get().download.add();
        }
    }

    void ensure_host() const {
        sync_pending();
        if (host_valid_) {
            // §4.6 rule 3 hit: the host copy is current, no download needed.
            // Only counted while a device copy exists — otherwise there was
            // nothing to avoid.
            if (device_valid_ && trace::enabled()) {
                detail::lazy_copy_counters::get().download_avoided.add();
            }
            return;
        }
        if (host_.empty()) {
            host_valid_ = true;
            return;
        }
        const bool tracing = trace::enabled();
        const double t0 = tracing ? dev_->sim().host_time() : 0.0;
        // Download the device data over the host copy. Sizes match: the
        // device cannot resize a vector.
        if constexpr (std::is_same_v<T, dev_elem>) {
            with_retry(default_retry_policy(), &dev_->sim(), "vector download", [&] {
                translated([&] {
                    dev_->sim().copy_to_host(host_.data(), dbuf_, host_.size() * sizeof(T));
                });
            });
        } else if constexpr (detail::is_cupp_vector<T>::value) {
            // Nested vectors: the handles on the device still describe the
            // inner vectors' own buffers; only the inner *data* changed.
            for (auto& inner : host_) inner.mark_host_stale();
        } else {
            std::vector<dev_elem> stage(host_.size());
            with_retry(default_retry_policy(), &dev_->sim(), "vector download", [&] {
                translated([&] {
                    dev_->sim().copy_to_host(stage.data(), dbuf_,
                                             stage.size() * sizeof(dev_elem));
                });
            });
            for (size_type i = 0; i < host_.size(); ++i) host_[i] = static_cast<T>(stage[i]);
        }
        ++downloads_;
        host_valid_ = true;
        if (tracing) {
            // §4.6 rule 3 miss: the host copy was stale, a download ran.
            detail::lazy_copy_counters::get().download.add();
            auto& sim = dev_->sim();
            trace::emit_complete(sim.host_track(), "cupp::vector download",
                                 sim.trace_time_us(t0), (sim.host_time() - t0) * 1e6,
                                 {{"elements", host_.size()},
                                  {"bytes", host_.size() * sizeof(dev_elem)}});
        }
    }

    void ensure_device(const device& d) const {
        if (dev_ && &dev_->sim() != &d.sim()) {
            throw usage_error("cupp::vector is bound to a different device");
        }
        dev_ = &d;
        if (host_.empty()) {
            device_valid_ = true;
            return;
        }
        if (device_valid_ && dbuf_capacity_ >= host_.size()) {
            // §4.6 rule 1 hit: the device copy is current, the upload is
            // skipped — repeat kernel calls stay free of H2D traffic.
            if (trace::enabled()) detail::lazy_copy_counters::get().upload_avoided.add();
            return;
        }
        if (!host_valid_) {
            throw usage_error("cupp::vector has neither valid host nor device data");
        }
        const bool tracing = trace::enabled();
        const double t0 = tracing ? d.sim().host_time() : 0.0;
        if (dbuf_capacity_ < host_.size()) {
            release_device();
            dbuf_ = d.malloc(host_.size() * sizeof(dev_elem),
                             std::source_location::current(), "cupp::vector");
            dbuf_capacity_ = host_.size();
        }
        if constexpr (std::is_same_v<T, dev_elem>) {
            with_retry(default_retry_policy(), &d.sim(), "vector upload", [&] {
                translated([&] {
                    dev_->sim().copy_to_device(dbuf_, host_.data(), host_.size() * sizeof(T));
                });
            });
        } else {
            std::vector<dev_elem> stage;
            stage.reserve(host_.size());
            for (const T& v : host_) stage.push_back(transform_for_device(v, d));
            with_retry(default_retry_policy(), &d.sim(), "vector upload", [&] {
                translated([&] {
                    dev_->sim().copy_to_device(dbuf_, stage.data(),
                                               stage.size() * sizeof(dev_elem));
                });
            });
        }
        ++uploads_;
        device_valid_ = true;
        if (tracing) {
            // §4.6 rule 1 miss: the device copy was stale (or absent), an
            // upload ran.
            detail::lazy_copy_counters::get().upload.add();
            auto& sim = d.sim();
            trace::emit_complete(sim.host_track(), "cupp::vector upload",
                                 sim.trace_time_us(t0), (sim.host_time() - t0) * 1e6,
                                 {{"elements", host_.size()},
                                  {"bytes", host_.size() * sizeof(dev_elem)}});
        }
    }

    void release_device() const noexcept {
        dev_ref_.reset();
        cached_handle_ = device_type{};
        if (dev_ && dbuf_ != cusim::kNullAddr) {
            try {
                dev_->free(dbuf_);
            } catch (...) {
            }
        }
        dbuf_ = cusim::kNullAddr;
        dbuf_capacity_ = 0;
        device_valid_ = false;
    }

    mutable std::vector<T> host_;
    mutable bool host_valid_ = true;
    mutable bool device_valid_ = false;
    mutable const device* dev_ = nullptr;
    mutable cusim::DeviceAddr dbuf_ = cusim::kNullAddr;
    mutable size_type dbuf_capacity_ = 0;
    mutable std::optional<device_reference<device_type>> dev_ref_;
    mutable device_type cached_handle_{};
    bool textured_ = false;
    mutable std::uint64_t uploads_ = 0;
    mutable std::uint64_t downloads_ = 0;

    /// An enqueued-but-unsynchronized prefetch_to_host. `discarded` is set
    /// when a kernel dirtied the device data after the enqueue: the copy
    /// still lands in host_ at drain but no longer proves host validity.
    struct PendingAsync {
        cusim::StreamId stream;
        bool download;
        bool discarded;
    };
    mutable std::optional<PendingAsync> pending_;
};

}  // namespace cupp
