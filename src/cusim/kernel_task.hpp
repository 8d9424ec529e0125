// The coroutine type used for simulated device threads.
//
// A cusim kernel is an ordinary C++ function returning KernelTask and taking
// ThreadCtx& as its first parameter — the moral equivalent of a __global__
// function. `co_await ctx.syncthreads()` suspends the thread until every
// thread of its block reaches the barrier; the block engine (engine.hpp)
// resumes it afterwards.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <utility>
#include <vector>

namespace cusim {

namespace detail {

/// Thread-local recycler for coroutine frames. The block engine creates one
/// coroutine per device thread (or warp) per block and releases a frame as
/// soon as its thread finishes, so a barrier-free block takes and gives back
/// one hot frame over and over; only threads suspended at a barrier hold
/// theirs, up to 512 per block. Every host thread allocates and frees its
/// own blocks' frames, so a lock-free thread_local cache removes that churn
/// entirely. Frames are bucketed by exact size (a program typically has a
/// handful of distinct kernel frame sizes).
///
/// When a program cycles through more frame sizes than there are buckets,
/// the least-recently-used bucket is retargeted to the new size (its cached
/// frames are freed and counted as evictions) instead of the old behaviour
/// of silently sending every extra size to the global allocator forever.
/// Hit/miss/evict counts accumulate locally — the allocator path must stay
/// atomics-free — and are folded into cupp::trace::metrics() as
/// `cusim.framecache.{hit,miss,evict}` every 1024 take()s and at thread
/// exit.
struct FrameCache {
    struct Bucket {
        std::size_t size = 0;
        std::uint64_t last_used = 0;
        std::vector<void*> frames;
    };
    static constexpr std::size_t kBuckets = 4;
    /// One full block's worth (kMaxThreadsPerBlock) per size.
    static constexpr std::size_t kMaxCachedFrames = 512;
    static constexpr std::uint64_t kFlushEvery = 1024;

    Bucket buckets[kBuckets];
    std::uint64_t tick = 0;    ///< LRU clock; bumped on every bucket touch
    std::uint64_t hits = 0;    ///< take() served from a bucket (unflushed)
    std::uint64_t misses = 0;  ///< take() fell through to operator new (unflushed)
    std::uint64_t evicts = 0;  ///< frames freed by bucket retargeting (unflushed)
    std::uint64_t ops_since_flush = 0;

    ~FrameCache() {
        for (Bucket& b : buckets) {
            for (void* p : b.frames) ::operator delete(p);
        }
        try {
            flush_metrics();
        } catch (...) {
            // Metrics flushing must never terminate a thread at exit.
        }
    }

    void* take(std::size_t size) {
        if (++ops_since_flush >= kFlushEvery) flush_metrics();
        for (Bucket& b : buckets) {
            if (b.size == size && !b.frames.empty()) {
                b.last_used = ++tick;
                ++hits;
                void* p = b.frames.back();
                b.frames.pop_back();
                return p;
            }
        }
        ++misses;
        return ::operator new(size);
    }

    void give(void* p, std::size_t size) noexcept {
        Bucket* lru = nullptr;
        for (Bucket& b : buckets) {
            if (b.size == size) {
                b.last_used = ++tick;
                if (b.frames.size() < kMaxCachedFrames) {
                    b.frames.push_back(p);
                    return;
                }
                ::operator delete(p);  // bucket full: not an eviction, a cap
                return;
            }
            if (lru == nullptr || b.last_used < lru->last_used) lru = &b;
        }
        // No bucket holds this size: retarget the least-recently-used one
        // (empty buckets have last_used 0 and are claimed first). Freeing
        // its cached frames is the eviction the counters report.
        evicts += lru->frames.size();
        for (void* q : lru->frames) ::operator delete(q);
        lru->frames.clear();
        lru->size = size;
        lru->last_used = ++tick;
        lru->frames.push_back(p);
    }

    /// Adds the unflushed counter deltas to the process-wide metrics
    /// registry. Defined in engine.cpp so this hot header does not pull in
    /// cupp/trace.hpp.
    void flush_metrics();

    static FrameCache& local() {
        thread_local FrameCache cache;
        return cache;
    }
};

}  // namespace detail

/// Move-only handle to one device thread's coroutine frame. Created
/// suspended; the engine drives it with resume().
class KernelTask {
public:
    struct promise_type {
        std::exception_ptr exception;

        KernelTask get_return_object() {
            return KernelTask{std::coroutine_handle<promise_type>::from_promise(*this)};
        }
        std::suspend_always initial_suspend() noexcept { return {}; }
        std::suspend_always final_suspend() noexcept { return {}; }
        void return_void() noexcept {}
        void unhandled_exception() noexcept { exception = std::current_exception(); }

        // Frame allocation goes through the thread-local recycler above.
        static void* operator new(std::size_t size) {
            return detail::FrameCache::local().take(size);
        }
        static void operator delete(void* p, std::size_t size) noexcept {
            detail::FrameCache::local().give(p, size);
        }
    };

    KernelTask() = default;
    explicit KernelTask(std::coroutine_handle<promise_type> h) : handle_(h) {}

    KernelTask(KernelTask&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
    KernelTask& operator=(KernelTask&& other) noexcept {
        if (this != &other) {
            destroy();
            handle_ = std::exchange(other.handle_, nullptr);
        }
        return *this;
    }
    KernelTask(const KernelTask&) = delete;
    KernelTask& operator=(const KernelTask&) = delete;
    ~KernelTask() { destroy(); }

    /// Runs the thread until it suspends (barrier) or finishes.
    void resume() { handle_.resume(); }

    [[nodiscard]] bool done() const { return !handle_ || handle_.done(); }
    [[nodiscard]] bool valid() const { return static_cast<bool>(handle_); }

    /// Exception thrown by the kernel body, if any.
    [[nodiscard]] std::exception_ptr exception() const {
        return handle_ ? handle_.promise().exception : nullptr;
    }

private:
    void destroy() {
        if (handle_) {
            handle_.destroy();
            handle_ = nullptr;
        }
    }

    std::coroutine_handle<promise_type> handle_{};
};

}  // namespace cusim
