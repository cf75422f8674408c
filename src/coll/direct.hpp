// Direct all-to-all strategies (paper Section 3).
//
// Every node sends its data straight to each destination as a stream of
// packets, visiting destinations in a per-node random order. One "round"
// sends `burst` packets to each destination before moving on (the MPI tuning
// parameter; AR uses burst 1), so a message of k packets takes ceil(k/burst)
// rounds. Variants differ in routing mode and software overheads:
//
//   AR        adaptive routing, two dynamic VCs + bubble escape,
//             alpha ~= 450 cycles per destination (paper Section 3);
//   DR        same schedule on the deterministic bubble VC, dimension order;
//   Throttled AR paced to the Eq. 2 bisection rate;
//   MPI       message-object baseline: larger alpha, per-packet protocol
//             cost, burst 2 (the production library described in Section 3).
#pragma once

#include <cstdint>

#include "src/coll/dest_order.hpp"
#include "src/coll/schedule.hpp"
#include "src/runtime/packetizer.hpp"

namespace bgl::coll {

struct DirectTuning {
  net::RoutingMode mode = net::RoutingMode::kAdaptive;
  /// Per-destination startup, charged with the message's first packet.
  double alpha_cycles = 450.0;
  /// Extra software cost per packet (protocol/message-object overhead).
  std::uint32_t per_packet_cycles = 0;
  /// Packets per destination per round.
  int burst = 1;
  /// >0: pace injection to `pace_factor` x the Eq. 2 per-packet interval.
  double pace_factor = 0.0;
  /// Destination ordering; the paper's schemes randomize to smooth
  /// contention (kept as a knob for the randomization ablation).
  OrderPolicy order = OrderPolicy::kRandom;

  static DirectTuning ar() { return DirectTuning{}; }
  static DirectTuning dr() {
    DirectTuning t;
    t.mode = net::RoutingMode::kDeterministic;
    return t;
  }
  static DirectTuning throttled(double factor = 1.0) {
    DirectTuning t;
    t.pace_factor = factor;
    return t;
  }
  static DirectTuning mpi() {
    DirectTuning t;
    t.alpha_cycles = 1170.0;    // message-object allocation + protocol startup
    t.per_packet_cycles = 100;  // per-packet protocol handling
    t.burst = 2;
    return t;
  }
};

/// The direct family as a schedule builder: a single pipelined phase over a
/// per-node random destination order (no relays). Pure function of
/// (config, msg_bytes, tuning), executed via ScheduleExecutor.
CommSchedule build_direct_schedule(const net::NetworkConfig& config,
                                   std::uint64_t msg_bytes,
                                   const DirectTuning& tuning);

/// build_direct_schedule without the destination orders (phase, FIFO class
/// and stream shape), for builders that bring their own, such as
/// build_pattern_schedule.
CommSchedule build_direct_frame(const net::NetworkConfig& config,
                                std::uint64_t msg_bytes, const DirectTuning& tuning);

}  // namespace bgl::coll
