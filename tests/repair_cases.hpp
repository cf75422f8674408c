// The repair-equivalence cases, shared by the repair golden test and
// tools/equivalence_golden, which regenerates the pinned metrics under
// tests/golden/repair_equivalence.txt. Each case is one faulted all-to-all
// whose losses the repair epochs make good, run at 1 and at 4 slab threads;
// together they cover every way a pair comes up short: drops, corruption,
// both on relayed (TPS) and combined (VMesh) traffic, transient outages, a
// mid-run strike, a retry budget of zero, and 16 KB messages whose pairs
// lose some of their 70 packets and are topped up with the rest.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "src/coll/alltoall.hpp"
#include "src/network/faults.hpp"
#include "tests/equivalence_cases.hpp"

namespace bgl::coll {

struct RepairCase {
  const char* name;
  StrategyKind kind;
  const char* shape;
  std::uint64_t msg_bytes;
  const char* faults;
};

inline const RepairCase kRepairCases[] = {
    {"ar_drop", StrategyKind::kAdaptiveRandom, "4x4x8", 480, "drop:5e-4,seed:3"},
    {"ar_corrupt", StrategyKind::kAdaptiveRandom, "4x4x8", 480, "corrupt:3e-4,seed:5"},
    {"tps_drop_corrupt", StrategyKind::kTwoPhase, "4x4x8", 480,
     "drop:3e-4,corrupt:2e-4,seed:9"},
    {"vmesh_drop_corrupt", StrategyKind::kVirtualMesh, "4x4x4", 300,
     "drop:1e-3,corrupt:5e-4,seed:4"},
    {"ar_tlink", StrategyKind::kAdaptiveRandom, "4x4x8", 480,
     "tlink:0.05,repair:30000,seed:17"},
    {"tps_strike_recovery", StrategyKind::kTwoPhase, "4x4x8", 1024,
     "node:1,fail_at:200000,seed:13"},
    {"ar_budget", StrategyKind::kAdaptiveRandom, "3x3x3", 1024,
     "drop:0.08,retries:0,seed:2"},
    {"ar_16k_message", StrategyKind::kAdaptiveRandom, "2x2x4", 16384,
     "drop:2e-3,corrupt:1e-3,seed:21"},
};

inline constexpr int kRepairThreads[] = {1, 4};

/// Configures one repair run: seed 1234 at the case's fault plan.
inline AlltoallOptions repair_options(const RepairCase& c, int threads) {
  AlltoallOptions options;
  options.net.shape = topo::parse_shape(c.shape);
  options.net.seed = 1234;
  options.net.sim_threads = threads;
  options.net.faults = net::parse_fault_spec(c.faults);
  options.msg_bytes = c.msg_bytes;
  return options;
}

/// The golden line of one run (without the leading "name threads" key):
///   elapsed events packets payload pairs_complete reachable_complete
///   unreachable abandoned epochs residual_pairs recovered_bytes
///   replan_cycles retransmits corrupt_rejected
///   dropped_in_flight dropped_prob dropped_stuck corrupted_payloads
///   unroutable_at_injection reroute_vetoes transient_strikes
///   link_down_cycles stranded_relay_bytes
///   matrix_fnv reachable_fnv
/// Kept as one string so a mismatch prints the whole record.
inline std::string repair_record(const RunResult& r, const DeliveryMatrix& matrix) {
  const auto u = [](std::uint64_t v) { return static_cast<unsigned long long>(v); };
  char line[1024];
  std::snprintf(
      line, sizeof line,
      "%llu %llu %llu %llu %llu %d %llu %llu %d %llu %llu %llu %llu %llu "
      "%llu %llu %llu %llu %llu %llu %llu %llu %llu "
      "%llx %llx",
      u(r.elapsed_cycles), u(r.events), u(r.packets_delivered), u(r.payload_bytes),
      u(r.pairs_complete), r.reachable_complete ? 1 : 0, u(r.unreachable_pairs),
      u(r.abandoned_pairs), r.epochs.epochs, u(r.epochs.residual_pairs),
      u(r.epochs.recovered_bytes), u(r.epochs.replan_cycles),
      u(r.reliability.retransmits), u(r.reliability.corrupt_rejected),
      u(r.faults.dropped_in_flight), u(r.faults.dropped_prob), u(r.faults.dropped_stuck),
      u(r.faults.corrupted_payloads), u(r.faults.unroutable_at_injection),
      u(r.faults.reroute_vetoes), u(r.faults.transient_strikes),
      u(r.faults.link_down_cycles), u(r.faults.stranded_relay_bytes),
      u(equiv_matrix_fnv(matrix)),
      u(equiv_reachable_fnv(r.reachable, matrix.nodes())));
  return line;
}

}  // namespace bgl::coll
