#include "gpusteer/kernels.hpp"

#include "cusim/warp_ctx.hpp"
#include "gpusteer/dev_costs.hpp"
#include "gpusteer/kernel_detail.hpp"
#include "steer/behaviors.hpp"
#include "steer/neighbor_search.hpp"

namespace gpusteer {

using cusim::KernelTask;
using cusim::lanes;
using cusim::Op;
using cusim::ThreadCtx;
using cusim::WarpCtx;
using steer::NeighborList;
using steer::Vec3;

using detail::device_flocking;
using detail::offer_candidate;
using detail::write_neighbor_list;

KernelTask ns_global_kernel(ThreadCtx& ctx, const DVec3& positions, float search_radius,
                            DU32& result, DU32& result_count, ThinkMap map) {
    const std::uint32_t n = positions.size();
    const std::uint32_t me = map.agent_of(ctx.global_id());
    if (me >= n) co_return;  // no barrier in this kernel: early exit is fine

    const Vec3 my_pos = positions.read(ctx, me);
    const float r2 = search_radius * search_radius;
    NeighborList list;
    for (std::uint32_t i = 0; i < n; ++i) {
        ctx.charge(Op::Branch);  // uniform loop condition
        // Every candidate comes from global memory: the expensive version.
        const float d2 = (positions.read(ctx, i) - my_pos).length_squared();
        offer_candidate(ctx, &list, i, &d2, r2, &me, NeighborList::kCapacity);
    }
    write_neighbor_list(ctx, list, me, result, result_count);
    co_return;
}

namespace {

/// The shared-memory neighbor search of listing 6.2, shared by versions
/// 2-5: lane l searches for agent me[l], and `thinking` masks the lanes
/// that have one (ThinkMap). Lanes past the flock still stage tiles and
/// meet every barrier.
template <typename Ctx>
struct TileSearch {
    TileSearch(Ctx& ctx, const DVec3& positions, ThinkMap map)
        : tile(ctx.template shared_array<Vec3>(ctx.block_dim().x)) {
        for (unsigned l = 0; l < Ctx::kLanes; ++l) me[l] = map.agent_of(ctx.global_id(l));
        thinking = ctx.lanes_where([&](unsigned l) { return me[l] < positions.size(); });
        ctx.if_(thinking, [&] { ctx.read(positions, me.data(), my_pos.data()); });
    }

    /// Thread tid copies agent base + tid into the shared tile.
    void stage(Ctx& ctx, const DVec3& positions, std::uint32_t base) {
        lanes<Ctx, std::uint64_t> slot{};
        lanes<Ctx, std::uint64_t> agent{};
        lanes<Ctx, Vec3> p{};
        for (unsigned l = 0; l < Ctx::kLanes; ++l) {
            slot[l] = ctx.lane_tid(l);
            agent[l] = base + slot[l];
        }
        ctx.read(positions, agent.data(), p.data());
        ctx.write(tile, slot.data(), p.data());
    }

    /// The thinking lanes search the staged tile. Every lane reads the same
    /// tile element per step (a broadcast).
    void search(Ctx& ctx, std::uint32_t base, float r2, std::uint32_t max_neighbors) {
        ctx.if_(ctx.ballot(thinking), [&] {
            for (std::uint32_t i = 0; i < tile.size(); ++i) {
                ctx.charge(Op::Branch);
                const Vec3 p = tile.read(ctx, i);
                lanes<Ctx, float> d2;
                for (unsigned l = 0; l < Ctx::kLanes; ++l) {
                    d2[l] = (p - my_pos[l]).length_squared();
                }
                offer_candidate(ctx, list.data(), base + i, d2.data(), r2, me.data(),
                                max_neighbors);
            }
        });
    }

    cusim::SharedArray<Vec3> tile;
    lanes<Ctx, std::uint64_t> me{};
    std::uint32_t thinking = 0;
    lanes<Ctx, Vec3> my_pos{};
    lanes<Ctx, NeighborList> list{};
};

}  // namespace

template <typename Ctx>
KernelTask ns_shared_kernel(Ctx& ctx, const DVec3& positions, float search_radius,
                            DU32& result, DU32& result_count, ThinkMap map) {
    TileSearch<Ctx> s(ctx, positions, map);
    const float r2 = search_radius * search_radius;
    // Listing 6.2: iterate through all agents one block-sized tile at a
    // time; each thread stages one element, everyone synchronises, then the
    // search runs against the fast shared copy.
    for (std::uint32_t base = 0; base < positions.size(); base += s.tile.size()) {
        s.stage(ctx, positions, base);
        co_await ctx.syncthreads();
        s.search(ctx, base, r2, NeighborList::kCapacity);
        co_await ctx.syncthreads();
    }
    ctx.if_(s.thinking, [&] {
        ctx.each_lane([&](unsigned l) {
            write_neighbor_list(ctx.lane(l), s.list[l], static_cast<std::uint32_t>(s.me[l]),
                                result, result_count);
        });
    });
    co_return;
}

template <typename Ctx>
KernelTask sim_kernel(Ctx& ctx, const DVec3& positions, const DVec3& forwards,
                      DVec3& steerings, FlockParams fp, ThinkMap map, NeighborData mode) {
    TileSearch<Ctx> s(ctx, positions, map);
    lanes<Ctx, Vec3> my_fwd{};
    ctx.if_(s.thinking, [&] { ctx.read(forwards, s.me.data(), my_fwd.data()); });
    const float r2 = fp.search_radius * fp.search_radius;
    for (std::uint32_t base = 0; base < positions.size(); base += s.tile.size()) {
        s.stage(ctx, positions, base);
        co_await ctx.syncthreads();
        s.search(ctx, base, r2, fp.max_neighbors);
        co_await ctx.syncthreads();
    }

    ctx.if_(s.thinking, [&] {
        lanes<Ctx, Vec3> steering{};
        ctx.each_lane([&](unsigned l) {
            steering[l] = device_flocking(ctx.lane(l), positions, forwards, s.my_pos[l],
                                          my_fwd[l], s.list[l], fp, mode);
        });
        ctx.write(steerings, s.me.data(), steering.data());
    });
    co_return;
}

template <typename Ctx>
KernelTask modify_kernel(Ctx& ctx, DVec3& positions, DVec3& forwards, DF32& speeds,
                         const DVec3& steerings, DMat4& matrices, ModifyParams mp) {
    lanes<Ctx, std::uint64_t> gid{};
    for (unsigned l = 0; l < Ctx::kLanes; ++l) gid[l] = ctx.global_id(l);
    if (ctx.exit_lanes(ctx.lanes_where([&](unsigned l) { return gid[l] >= positions.size(); }))) {
        co_return;
    }

    lanes<Ctx, Vec3> pos{};
    lanes<Ctx, Vec3> fwd{};
    lanes<Ctx, float> speed{};
    lanes<Ctx, Vec3> steering{};
    ctx.read(positions, gid.data(), pos.data());
    ctx.read(forwards, gid.data(), fwd.data());
    ctx.read(speeds, gid.data(), speed.data());
    ctx.read(steerings, gid.data(), steering.data());

    // Version 5 keeps its temporaries in shared memory, "used as an
    // extension to thread local memory, so local variables are not stored
    // in device memory" (§6.2.3) — cheap shared traffic instead of spills.
    ctx.charge(Op::SharedAccess, 10);

    // The kernel's few branches (§6.3.1): division-by-zero guards. They
    // rarely diverge, which is why the modification kernel "is not the
    // important factor considering the SIMD branching issue".
    (void)ctx.ballot(ctx.lanes_where([&](unsigned l) { return !steering[l].is_zero(); }));
    (void)ctx.ballot(ctx.lanes_where([&](unsigned l) { return speed[l] > 0.0f; }));
    charge_modify(ctx);
    lanes<Ctx, steer::Mat4> matrix{};
    ctx.each_lane([&](unsigned l) {
        steer::Agent agent{pos[l], fwd[l], speed[l]};
        steer::apply_steering(agent, steering[l], mp.dt, mp.params);
        steer::wrap_world(agent, mp.world_radius);
        pos[l] = agent.position;
        fwd[l] = agent.forward;
        speed[l] = agent.speed;
        matrix[l] = steer::agent_matrix(agent.position, agent.forward);
    });

    ctx.write(positions, gid.data(), pos.data());
    ctx.write(forwards, gid.data(), fwd.data());
    ctx.write(speeds, gid.data(), speed.data());
    charge_draw_matrix(ctx);
    ctx.write(matrices, gid.data(), matrix.data());
    co_return;
}

#define GPUSTEER_INSTANTIATE(Ctx)                                                        \
    template KernelTask ns_shared_kernel(Ctx&, const DVec3&, float, DU32&, DU32&,       \
                                         ThinkMap);                                     \
    template KernelTask sim_kernel(Ctx&, const DVec3&, const DVec3&, DVec3&, FlockParams, \
                                   ThinkMap, NeighborData);                             \
    template KernelTask modify_kernel(Ctx&, DVec3&, DVec3&, DF32&, const DVec3&, DMat4&, \
                                      ModifyParams);
GPUSTEER_INSTANTIATE(ThreadCtx)
GPUSTEER_INSTANTIATE(WarpCtx)
#undef GPUSTEER_INSTANTIATE

}  // namespace gpusteer
