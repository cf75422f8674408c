// Loss-repair counters of a faulted run.
//
// A faulted run executes its schedule as is and records every delivery.
// Whatever leaves a reachable pair short — a drop, a checksum rejection, a
// credit window or barrier stalled by a lost packet, a mid-run strike — the
// repair epochs of src/coll/recovery.hpp re-send once epoch 0 quiesces. No
// layer sequences or acknowledges packets, and a repair epoch sends only
// the bytes still missing, so nothing arrives twice.
#pragma once

#include <cstdint>

namespace bgl::rt {

struct ReliabilityStats {
  /// Always 0: no packet carries a sequence number.
  std::uint64_t data_sequenced = 0;
  /// Packets the repair epochs injected.
  std::uint64_t retransmits = 0;
  /// Always 0: no packet is acknowledged.
  std::uint64_t acks_standalone = 0;
  std::uint64_t acks_piggybacked = 0;
  /// Always 0: repair epochs send only missing bytes.
  std::uint64_t duplicates_dropped = 0;
  /// Deliveries the schedule executor's end-to-end checksum rejected
  /// (Byzantine links, FaultConfig::corrupt_prob), summed over epochs. Every
  /// corruption the fabric injects must land here —
  /// corrupt_rejected == FaultStats::corrupted_payloads on a drained run, or
  /// silent garbage reached the application.
  std::uint64_t corrupt_rejected = 0;
};

}  // namespace bgl::rt
