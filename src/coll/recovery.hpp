// Loss repair by epochs: the one way a faulted run gets lost bytes back.
//
// A faulted run executes its schedule as is and records every delivery in
// a DeliveryMatrix. Drops (in flight, by drop_prob, or by the stuck sweep),
// checksum rejections, credit windows and barriers stalled by a lost packet,
// and a mid-run strike (fail_at > 0) all leave reachable pairs short when
// epoch 0 quiesces. run_planned (alltoall.cpp) then turns that shortfall
// into a deterministic epoch sequence from the pieces declared here:
//
//   epoch 0   the schedule itself, under the plan's timeline;
//   ---       epoch transition: survivors agree on a liveness view (a
//             modeled ring allgather per torus axis), discard partial flows
//             no repair can complete, and compute the *residual* — every
//             ordered pair epoch 0 owed that a repair can serve and that is
//             short of its msg_bytes;
//   epoch k   a lint-checked explicit-form repair CommSchedule re-sends
//             exactly the residual (payload overrides top up partial pairs,
//             never duplicating delivered bytes) on a fresh fabric under the
//             same plan, with every permanent fault struck from tick 0 and
//             no transient outage pending. A pair with a live minimal path
//             is sent directly; one whose minimal paths are all dead (two
//             neighbours across a dead link, which TPS and vmesh serve
//             through a relay) goes through a live relay in two legs.
//
// The loop runs until the residual drains or FaultConfig::max_retries repair
// epochs have run, then rewrites the RunResult: elapsed time grows by the
// agreement + repair cycles, delivery / fault / repair counters
// accumulate, reachability becomes the survivors' view, the pairs still
// short are abandoned_pairs, and stranded_relay_bytes keeps only the custody
// the repairs failed to replace. The fault draws key on the epoch, so a
// repair epoch loses a different sample of packets. Everything is a pure
// function of (config, seed), so a repaired run is as bit-reproducible as a
// healthy one.
#pragma once

#include <cstdint>
#include <vector>

#include "src/coll/alltoall.hpp"
#include "src/coll/schedule.hpp"
#include "src/network/faults.hpp"

namespace bgl::coll {

/// Survivors' agreed post-strike liveness view, plus the modeled cost of
/// reaching agreement: one ring allgather per torus axis, each costing
/// (extent - 1) hops of a single liveness chunk.
struct LivenessView {
  std::vector<std::uint8_t> alive;  // indexed by rank
  std::int64_t survivors = 0;
  Tick agree_cycles = 0;
};

LivenessView exchange_liveness(const net::NetworkConfig& net,
                               const net::FaultPlan& plan);

/// The route a repair epoch gives (src -> dst) under `plan`: src itself for
/// a direct send, the relay of a two-leg send when no live minimal path is
/// left, or -1 when no repair can serve the pair (an endpoint died, or no
/// live node has both legs routable). Relays on src's own axis lines are
/// tried first (TPS's relay rule), then every node in rank order, so every
/// pair a fail_at = 0 schedule carried keeps a route.
topo::Rank repair_route(const net::FaultPlan& plan, topo::Rank src, topo::Rank dst);

/// Whether a repair epoch can still serve (src -> dst): repair_route >= 0.
bool pair_recoverable(const net::FaultPlan& plan, topo::Rank src, topo::Rank dst);

/// One undelivered residual: a recoverable ordered pair whose delivery-
/// matrix cell is `bytes` short of the collective's msg_bytes, and the
/// relay its repair goes through (-1: a direct send).
struct ResidualPair {
  topo::Rank src = -1;
  topo::Rank dst = -1;
  std::uint64_t bytes = 0;
  topo::Rank relay = -1;
};

/// Scans the delivery matrix for recoverable pairs short of `msg_bytes`,
/// in deterministic (src, dst) order, each with its repair_route. Pairs
/// `carried` excludes (those epoch 0 did not owe; empty = every pair) are
/// never owed.
std::vector<ResidualPair> compute_residual(const DeliveryMatrix& matrix,
                                           std::uint64_t msg_bytes,
                                           const net::FaultPlan& plan,
                                           const PairMask& carried = PairMask());

/// Builds the explicit-form repair schedule delivering exactly `residual`
/// (payload override = the missing bytes) with coverage mask = the residual
/// pairs and nothing else. Phase 0 holds the direct sends. A relayed pair
/// goes to its relay in phase 1 and on to its destination in phase 2, which
/// a barrier opens once the relay holds every phase-1 packet addressed to it
/// (vmesh's column-phase gate). The result lints clean under the plan
/// whenever every residual pair's route is live — callers still run
/// schedule_lint before executing it.
CommSchedule build_repair_schedule(const net::NetworkConfig& net,
                                   std::uint64_t msg_bytes,
                                   const std::vector<ResidualPair>& residual);

}  // namespace bgl::coll
