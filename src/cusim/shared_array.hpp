// Typed view of a block's shared memory.
//
// The per-block shared arena is sized at launch time (LaunchConfig::
// shared_bytes, like the static __shared__ declarations of a CUDA kernel).
// All threads of a block calling ctx.shared_array<T>(n) in the same order
// receive the same storage, which is how data is exchanged inside a block.
// Accesses cost `shared_access` cycles (>= 4 in Table 2.2) — two orders of
// magnitude cheaper than global memory, which is the entire point of the
// thesis' version-2 neighbor search (§6.2.1).
#pragma once

#include <cstdint>
#include <type_traits>

#include "cusim/error.hpp"

namespace cusim {

class ThreadCtx;
class WarpCtx;

template <typename T>
class SharedArray {
    static_assert(std::is_trivially_copyable_v<T>,
                  "only trivially copyable types can live in shared memory");

public:
    SharedArray() = default;
    SharedArray(std::byte* base, std::uint64_t count) : base_(base), count_(count) {}

    [[nodiscard]] std::uint64_t size() const { return count_; }

    /// Accounted element access; defined in thread_ctx.hpp.
    T read(ThreadCtx& ctx, std::uint64_t i) const;
    void write(ThreadCtx& ctx, std::uint64_t i, const T& v) const;
    /// Broadcast: every active lane of the warp reads element `i`; defined
    /// in warp_ctx.hpp.
    T read(WarpCtx& w, std::uint64_t i) const;

private:
    friend class ThreadCtx;
    friend class WarpCtx;
    std::byte* base_ = nullptr;
    std::uint64_t count_ = 0;
};

}  // namespace cusim
