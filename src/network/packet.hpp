// In-network packet representation and the client-side injection descriptor.
#pragma once

#include <array>
#include <cstdint>

#include "src/network/config.hpp"
#include "src/topology/torus.hpp"

namespace bgl::net {

/// A packet in flight. Route state is the remaining signed hop count per
/// axis; the sign encodes the travel direction chosen at injection (minimal
/// path, half-way ties broken at random).
struct Packet {
  Rank src = -1;
  Rank dst = -1;
  std::uint64_t tag = 0;            // opaque client cookie
  std::uint32_t payload_bytes = 0;  // application bytes carried (stats only)
  std::uint16_t chunks = 1;         // wire size in 32 B chunks
  /// Remaining signed hops per axis; entries at axes beyond the shape's
  /// dimensionality stay 0. int16 so a 1-D ring of up to 2^15 nodes routes.
  HopVec hops{0, 0, 0, 0};
  RoutingMode mode = RoutingMode::kAdaptive;
  std::uint8_t vc = 0;  // VC the packet currently occupies

  /// The packet's position among those its sender emits under one tag
  /// (the schedule executor numbers a message's packets 0, 1, ...). With the
  /// endpoints and the tag it names the packet uniquely within an epoch, so
  /// the counter-based fault draws key on it.
  std::uint32_t index = 0;
  /// End-to-end payload checksum the schedule executor stamps under faults
  /// over the packet's identity; a Byzantine link (corrupt_prob) XORs it in
  /// flight and the receiver rejects the packet on mismatch. Zero and
  /// ignored on a healthy network.
  std::uint32_t checksum = 0;

  bool at_destination() const noexcept {
    return hops[0] == 0 && hops[1] == 0 && hops[2] == 0 && hops[3] == 0;
  }

  /// First axis (in dimension order) with remaining hops, or -1 at
  /// destination.
  int dim_order_axis() const noexcept {
    for (int a = 0; a < topo::kMaxAxes; ++a) {
      if (hops[static_cast<std::size_t>(a)] != 0) return a;
    }
    return -1;
  }
};

/// What a client hands the fabric when the node's core injects a packet.
struct InjectDesc {
  Rank dst = -1;
  std::uint64_t tag = 0;
  std::uint32_t payload_bytes = 0;
  std::uint16_t wire_chunks = 1;
  RoutingMode mode = RoutingMode::kAdaptive;
  std::uint8_t fifo = 0;  // injection FIFO index (TPS reserves FIFO groups)
  /// Non-pipelined software cost charged to the core for this packet on top
  /// of the bandwidth-proportional injection cost (the paper's per-message α).
  std::uint32_t extra_cpu_cycles = 0;

  /// Copied verbatim into the packet (see Packet).
  std::uint32_t index = 0;
  std::uint32_t checksum = 0;
};

}  // namespace bgl::net
