// The hop-observer replay cases, shared by the replay-order test and
// tools/equivalence_golden, which regenerates the pinned records under
// tests/golden/observer_replay_order.txt. Every case runs on several slabs,
// where grants are buffered per slab and replayed to the observer in
// (tick, link id) order; the record pins that call sequence bit for bit.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "src/coll/alltoall.hpp"
#include "src/network/faults.hpp"

namespace bgl::coll {

struct ObserverCase {
  const char* name;
  StrategyKind kind;
  const char* shape;
  std::uint64_t msg_bytes;
  int threads;
  const char* faults;  // fault spec; "" for a healthy network
};

inline const ObserverCase kObserverCases[] = {
    {"tps_4x8x16_t4", StrategyKind::kTwoPhase, "4x8x16", 64, 4, ""},
    {"ar_8x8x8_t4", StrategyKind::kAdaptiveRandom, "8x8x8", 64, 4, ""},
    {"ar_4x4x8_faulted_t2", StrategyKind::kAdaptiveRandom, "4x4x8", 240, 2,
     "link:0.02,drop:1e-4,corrupt:5e-5"},
    {"tps_4x4x8_strike_t4", StrategyKind::kTwoPhase, "4x4x8", 240, 4,
     "node:1,fail_at:20000,drop:1e-4"},
    {"vmesh_8x8_t3", StrategyKind::kVirtualMesh, "8x8", 240, 3, ""},
    {"dr_4x4x4x4_tlink_t4", StrategyKind::kDeterministic, "4x4x4x4", 240, 4,
     "tlink:0.03,repair:20000"},
};

/// The observer calls of one run: how many, and an FNV-1a hash over every
/// call's (node, dir, target, tag, hops) in call order.
struct ObserverRecord {
  bool drained = false;
  bool reachable_complete = false;
  int threads_used = 0;
  std::uint64_t grants = 0;
  std::uint64_t order_fnv = 1469598103934665603ULL;

  void add(const net::Packet& packet, topo::Rank node, int dir, int target) {
    ++grants;
    mix(static_cast<std::uint32_t>(node), 4);
    mix(static_cast<std::uint32_t>(dir), 4);
    mix(static_cast<std::uint32_t>(target), 4);
    mix(packet.tag, 8);
    for (const std::int16_t hop : packet.hops) mix(static_cast<std::uint16_t>(hop), 2);
  }

  /// "grants order_fnv", the golden file's field order.
  std::string to_string() const {
    char line[64];
    std::snprintf(line, sizeof line, "%llu %llx", static_cast<unsigned long long>(grants),
                  static_cast<unsigned long long>(order_fnv));
    return line;
  }

 private:
  void mix(std::uint64_t value, int bytes) {
    for (int byte = 0; byte < bytes; ++byte) {
      order_fnv = (order_fnv ^ ((value >> (8 * byte)) & 0xffu)) * 1099511628211ULL;
    }
  }
};

/// Runs one case verified (seed 1234, the case's slab-thread count and
/// fault plan; a mid-run strike is recovered) with a hashing observer.
inline ObserverRecord run_observer_case(const ObserverCase& c) {
  AlltoallOptions options;
  options.net.shape = topo::parse_shape(c.shape);
  options.net.seed = 1234;
  options.net.sim_threads = c.threads;
  if (c.faults[0] != '\0') options.net.faults = net::parse_fault_spec(c.faults);
  options.msg_bytes = c.msg_bytes;
  options.verify = true;
  ObserverRecord record;
  options.hop_observer = [&record](const net::Packet& packet, topo::Rank node, int dir,
                                   int target) { record.add(packet, node, dir, target); };
  const RunResult result = run_alltoall(c.kind, options);
  record.drained = result.drained;
  record.reachable_complete = result.reachable_complete;
  record.threads_used = result.sim_threads;
  return record;
}

}  // namespace bgl::coll
