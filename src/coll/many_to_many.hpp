// Sparse (many-to-many) personalized communication over the same substrate
// as the all-to-all strategies — the generalization the paper's introduction
// and summary motivate ("we hope the performance analysis and optimization
// techniques ... can also be applied for more complex many-to-many
// communication patterns").
//
// A Pattern lists each node's destinations; build_pattern_schedule compiles
// it into an ordered-form CommSchedule that runs through run_schedule like
// any all-to-all, with faults, repair epochs, lint and delivery
// verification:
//
//   const Pattern pattern = Pattern::halo(options.net.shape);
//   RunResult r = run_schedule(
//       build_pattern_schedule(StrategyKind::kTwoPhase, options.net, pattern,
//                              options.msg_bytes),
//       options, "TPS");
//
// Two transports:
//   - direct (AR, DR): each node walks its destinations in a random order,
//     adaptively or deterministically routed;
//   - two-phase (TPS): the TPS trick applied per message — packets first
//     travel the chosen linear dimension to an intermediate that shares the
//     destination's linear coordinate, then are forwarded within the plane,
//     with the phases in separate injection-FIFO groups.
#pragma once

#include <cstdint>
#include <vector>

#include "src/coll/alltoall.hpp"
#include "src/coll/schedule.hpp"
#include "src/network/config.hpp"
#include "src/topology/torus.hpp"

namespace bgl::coll {

/// Per-node destination lists (self entries are ignored).
struct Pattern {
  std::vector<std::vector<topo::Rank>> dests;

  std::size_t total_messages() const;

  /// Every node sends to `fanout` distinct uniform-random peers. Throws
  /// std::invalid_argument unless 0 <= fanout <= nodes - 1.
  static Pattern random_subset(std::int32_t nodes, int fanout, std::uint64_t seed);

  /// 6-point halo exchange: each node talks to its torus neighbors
  /// (deduplicated; mesh edges skipped).
  static Pattern halo(const topo::Shape& shape);

  /// Row/column partners of a process grid laid over the ranks: each node
  /// sends to every rank sharing its row or column of an rows x cols grid
  /// (a common sub-communicator collective footprint). Throws
  /// std::invalid_argument unless cols > 0 and cols divides nodes.
  static Pattern grid_partners(std::int32_t nodes, int cols);
};

/// Compiles `pattern` into an ordered-form schedule: one whole message of
/// `msg_bytes` per listed destination, each node walking its own list in a
/// seeded random order. kAdaptiveRandom and kDeterministic send directly
/// with the AR/DR tuning defaults; kTwoPhase relays along
/// choose_linear_axis(shape) with the TPS defaults (reserved FIFO halves).
/// CommSchedule::covered is the pattern, so a run owes exactly its pairs.
/// Throws std::invalid_argument for any other kind, a pattern not sized to
/// the node count, a destination out of range or one listed twice.
CommSchedule build_pattern_schedule(StrategyKind kind, const net::NetworkConfig& net,
                                    const Pattern& pattern, std::uint64_t msg_bytes);

}  // namespace bgl::coll
