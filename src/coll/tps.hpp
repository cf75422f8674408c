// Two Phase Schedule (TPS) indirect all-to-all (paper Section 4.1).
//
// Phase 1 sends every packet along a chosen "linear" dimension to the
// intermediate node that shares the final destination's linear coordinate
// (and the source's planar coordinates). Phase 2 forwards from the
// intermediate across the remaining "planar" dimensions. The phases are
// pipelined: forwarding starts as soon as phase-1 packets arrive, and each
// phase has its own reserved injection-FIFO group so a linear packet is
// never queued behind a planar packet (or vice versa). Both phases use
// adaptive routing on the dynamic VCs.
//
// Linear-dimension choice (paper rule): the dimension whose removal leaves a
// symmetric plane, if one exists; otherwise the longest dimension. For a
// cube every choice is equivalent by symmetry (the paper lists Z for 8^3 and
// X for 16^3); we use Z.
//
// The optional credit-based flow control implements the paper's Section 5
// future work: a source may have at most `credit_window` un-forwarded
// packets at any intermediate; intermediates return one 32-byte credit
// packet per `credit_batch` forwards. This bounds intermediate memory at
// the cost of ~1 extra packet per `credit_batch` data packets.
#pragma once

#include <cstdint>

#include "src/coll/dest_order.hpp"
#include "src/coll/schedule.hpp"
#include "src/runtime/packetizer.hpp"

namespace bgl::coll {

struct TpsTuning {
  int linear_axis = -1;  // -1 = paper's selection rule
  double alpha_cycles = 450.0;
  std::uint32_t forward_cpu_cycles = 200;
  bool reserved_fifos = true;
  int credit_window = 0;  // phase-1 packets in flight per (src, intermediate); 0 = off
  int credit_batch = 10;
  std::uint32_t credit_cpu_cycles = 50;
};

/// The paper's linear-dimension selection rule generalized to n axes:
/// the axis whose removal leaves all remaining extents mutually equal, if
/// exactly one exists; for a hypercube (all candidates) the last axis; with
/// fewer than three axes, or no symmetric candidate, the longest axis.
int choose_linear_axis(const topo::Shape& shape);

/// TPS as a schedule builder: two pipelined phases (linear legs, planar
/// forwards) with reserved FIFO classes, a kLinearAxis relay rule and the
/// optional credit flow control, executed via ScheduleExecutor.
CommSchedule build_tps_schedule(const net::NetworkConfig& config,
                                std::uint64_t msg_bytes, const TpsTuning& tuning);

/// build_tps_schedule without the destination orders (phases, FIFO classes,
/// relay rule and credits), for builders that bring their own, such as
/// build_pattern_schedule.
CommSchedule build_tps_frame(const net::NetworkConfig& config,
                             std::uint64_t msg_bytes, const TpsTuning& tuning);

}  // namespace bgl::coll
