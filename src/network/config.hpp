// Configuration of the simulated Blue Gene/L torus network.
//
// Defaults reflect the published BG/L parameters (IBM J. R&D 49(2/3), 2005):
//   - 6 bidirectional links per node, 0.25 B/cycle per direction at 700 MHz;
//     we simulate at 32 B chunk granularity, so one chunk = 128 cycles.
//   - packets of 32..256 B in 32 B multiples (<= 8 chunks);
//   - 1 KB of input-buffer space per virtual channel (32 chunks);
//   - 2 dynamic (adaptive) VCs plus the "bubble normal" escape VC used for
//     deterministic dimension-ordered routing and deadlock prevention. The
//     high-priority VC is not used by all-to-all traffic and is not modeled.
//   - the cores can keep about 4 links busy when data is out of L1
//     (`cpu_links`), the limit the paper measures in Section 2.
#pragma once

#include <array>
#include <cstdint>

#include "src/sim/event_queue.hpp"
#include "src/topology/torus.hpp"

namespace bgl::net {

using sim::Tick;
using topo::Rank;

/// Remaining signed hops per axis (packet route state and the fault layer's
/// routability queries). Fixed capacity kMaxAxes; entries at axes beyond the
/// shape's dimensionality are always 0. int16 covers rings up to 2^15 nodes.
using HopVec = std::array<std::int16_t, topo::kMaxAxes>;

inline constexpr int kChunkBytes = 32;

/// Virtual channels per input port: `dynamic_vcs` adaptive VCs numbered
/// 0..dynamic_vcs-1 followed by the bubble escape VC at index dynamic_vcs.
/// kMaxVcs bounds the per-port buffer array.
inline constexpr int kMaxVcs = 7;

enum class RoutingMode : std::uint8_t {
  kAdaptive = 0,       // dynamic VCs, minimal adaptive (JSQ-like), bubble escape
  kDeterministic = 1,  // dimension order (X, Y, Z) on the bubble VC only
};

/// Deterministic fault-injection parameters. The zero-initialized config is
/// "no faults": every fault code path in the fabric and the end-to-end
/// reliability layer is gated on `enabled()`, so fault-free runs are
/// bit-identical to a build without the subsystem.
///
/// Faults are expanded into a concrete, seeded FaultPlan (see faults.hpp):
/// which links die, when transients strike and recover, which nodes fail.
/// The same (config, shape) pair always yields the same plan.
struct FaultConfig {
  /// Fraction of existing undirected links that fail permanently (both
  /// directions) at `fail_at`.
  double link_fail = 0.0;
  /// Fraction of undirected links that fail transiently: each goes down at
  /// a plan-chosen tick in [fail_at, fail_at + repair_cycles) and comes back
  /// `repair_cycles` later.
  double link_transient = 0.0;
  /// Downtime of a transient link failure, in cycles.
  Tick repair_cycles = 2'000'000;
  /// Tick at which permanent faults (links, nodes, degradations) strike.
  /// 0 (the default) applies them before the first packet; strategies plan
  /// around them. Later strikes are recovered by retransmission only.
  Tick fail_at = 0;
  /// Fraction of undirected links running degraded (rail-degraded midplane):
  /// serialization takes `degrade_mult` x chunk_cycles on those links.
  double degrade = 0.0;
  std::uint32_t degrade_mult = 4;
  /// Number of nodes that fail outright (all their links die with them).
  int node_fail = 0;
  /// Per-arrival probabilistic packet drop (models lost packets).
  double drop_prob = 0.0;
  /// Per-arrival probabilistic payload corruption (Byzantine link): the
  /// packet is *delivered* with flipped payload bits instead of dropped.
  /// The link-level CRC protects the routing header on real BG/L hardware,
  /// so in-simulation header fields stay intact; only the end-to-end payload
  /// checksum is damaged, and the receiver must detect it (see
  /// src/runtime/reliability.hpp).
  double corrupt_prob = 0.0;
  /// Seed of the fault plan; 0 derives from the network seed so repeated
  /// sweeps sample independent fault placements.
  std::uint64_t seed = 0;

  // --- end-to-end reliability knobs (active only when faults are enabled) ---
  /// Base retransmission timeout in cycles; doubles per retry (capped).
  Tick retrans_timeout = 500'000;
  /// Retries before a packet is abandoned and its pair counted undeliverable.
  int max_retries = 10;
  /// A head packet that has not moved for this many cycles is dropped so the
  /// network cannot wedge (end-to-end retransmission recovers it); 0 = auto
  /// (4 x retrans_timeout).
  Tick stuck_drop_cycles = 0;

  /// True when any fault mechanism is configured.
  bool enabled() const noexcept {
    return link_fail > 0.0 || link_transient > 0.0 || degrade > 0.0 ||
           node_fail > 0 || drop_prob > 0.0 || corrupt_prob > 0.0;
  }
  friend bool operator==(const FaultConfig&, const FaultConfig&) = default;
};

struct NetworkConfig {
  topo::Shape shape{};

  /// Cycles for one 32 B chunk to cross a link (0.25 B/cycle => 128).
  std::uint32_t chunk_cycles = 128;

  /// Largest packet on the wire, in chunks (256 B => 8).
  std::uint16_t max_packet_chunks = 8;

  /// Input buffer capacity per VC, in chunks (1 KB => 32).
  std::uint16_t vc_capacity_chunks = 32;

  /// Number of dynamic (adaptive) VCs per input port. The BG/L router has
  /// two plus chunk-granularity token flow control; at packet granularity
  /// extra VC parallelism stands in for the chunk-level streaming the
  /// packet model cannot express (see DESIGN.md).
  std::uint8_t dynamic_vcs = 2;

  /// Injection FIFOs per node and per-FIFO capacity in chunks (BG/L has 8
  /// injection FIFOs per node).
  std::uint8_t injection_fifos = 8;
  std::uint16_t injection_fifo_chunks = 32;

  /// Links' worth of bandwidth the core can sustain when injecting
  /// (paper Section 2: ~4 out of L1, ~5 in L1).
  double cpu_links = 4.0;

  /// Per-hop pipeline latency in cycles added on top of serialization.
  std::uint32_t hop_latency_cycles = 64;

  /// Seed for all tie-breaking randomness (half-way direction choice).
  std::uint64_t seed = 0x5eedULL;

  bool collect_link_stats = true;

  /// Worker threads for the simulator core. 1 (the default) runs the torus
  /// as one slab, bit-identical run to run. Values > 1 partition
  /// the torus into axis-aligned slabs driven by conservative time windows
  /// (see DESIGN.md "Threading model"); results stay deterministic for a
  /// fixed (seed, sim_threads) pair, delivery matrices are preserved
  /// exactly, and completion times may differ from 1-thread runs only
  /// through the relaxed cross-slab credit-return timing. Fault injection
  /// and hop observers run parallel too (counter-based fault draws,
  /// slab-owned fault state, barrier-drained observer buffers — see
  /// DESIGN.md); only zero-cost-link configs (no lookahead window) and
  /// schedules with cross-node extra_deps fall back to 1 thread, and the
  /// fallback cause is reported in RunResult::sim_threads_reason.
  int sim_threads = 1;

  /// Fault injection; the default is a healthy network.
  FaultConfig faults{};

  /// Run the fabric's internal invariant check() at fault events and at the
  /// end of every run (property tests and the sanitizer CI enable this so
  /// fault-path credit leaks fail loudly instead of skewing results).
  bool debug_checks = false;
};

}  // namespace bgl::net
