#include "gpusteer/grid_kernels.hpp"

#include "gpusteer/dev_costs.hpp"
#include "gpusteer/kernel_detail.hpp"

namespace gpusteer {

using cusim::KernelTask;
using cusim::Op;
using cusim::ThreadCtx;
using steer::NeighborList;
using steer::Vec3;

using detail::device_flocking;
using detail::for_each_grid_candidate;
using detail::offer_candidate;
using detail::write_neighbor_list;

namespace {

/// Cell coordinates of the agent: a handful of arithmetic instructions.
void charge_cell_lookup(ThreadCtx& ctx) {
    ctx.charge(Op::FMad, 3);
    ctx.charge(Op::Recip, 1);
}

}  // namespace

KernelTask ns_grid_kernel(ThreadCtx& ctx, const DVec3& positions, const DU32& cell_start,
                          const DU32& entries, steer::GridSpec spec, float search_radius,
                          DU32& result, DU32& result_count, ThinkMap map) {
    const std::uint32_t n = positions.size();
    const std::uint32_t me = map.agent_of(ctx.global_id());
    if (me >= n) co_return;

    const Vec3 my_pos = positions.read(ctx, me);
    const float r2 = search_radius * search_radius;
    charge_cell_lookup(ctx);
    const std::uint32_t cx = spec.clamp_axis(my_pos.x);
    const std::uint32_t cy = spec.clamp_axis(my_pos.y);
    const std::uint32_t cz = spec.clamp_axis(my_pos.z);

    NeighborList list;
    for_each_grid_candidate(ctx, cell_start, entries, spec, cx, cy, cz,
                            [&](std::uint32_t candidate) {
                                const float d2 =
                                    (positions.read(ctx, candidate) - my_pos).length_squared();
                                offer_candidate(ctx, &list, candidate, &d2, r2, &me, NeighborList::kCapacity);
                            });

    write_neighbor_list(ctx, list, me, result, result_count);
    co_return;
}

KernelTask sim_grid_kernel(ThreadCtx& ctx, const DVec3& positions, const DVec3& forwards,
                           const DU32& cell_start, const DU32& entries, steer::GridSpec spec,
                           DVec3& steerings, FlockParams fp, ThinkMap map) {
    const std::uint32_t n = positions.size();
    const std::uint32_t me = map.agent_of(ctx.global_id());
    if (me >= n) co_return;

    const Vec3 my_pos = positions.read(ctx, me);
    const Vec3 my_fwd = forwards.read(ctx, me);
    const float r2 = fp.search_radius * fp.search_radius;
    charge_cell_lookup(ctx);
    const std::uint32_t cx = spec.clamp_axis(my_pos.x);
    const std::uint32_t cy = spec.clamp_axis(my_pos.y);
    const std::uint32_t cz = spec.clamp_axis(my_pos.z);

    NeighborList list;
    for_each_grid_candidate(ctx, cell_start, entries, spec, cx, cy, cz,
                            [&](std::uint32_t candidate) {
                                const float d2 =
                                    (positions.read(ctx, candidate) - my_pos).length_squared();
                                offer_candidate(ctx, &list, candidate, &d2, r2, &me, fp.max_neighbors);
                            });

    const Vec3 steering = device_flocking(ctx, positions, forwards, my_pos, my_fwd, list,
                                          fp, NeighborData::Recompute);
    steerings.write(ctx, me, steering);
    co_return;
}

}  // namespace gpusteer
