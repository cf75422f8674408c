#include "src/coll/many_to_many.hpp"

#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/coll/direct.hpp"
#include "src/coll/tps.hpp"
#include "src/util/rng.hpp"

namespace bgl::coll {

std::size_t Pattern::total_messages() const {
  std::size_t total = 0;
  for (std::size_t n = 0; n < dests.size(); ++n) {
    for (const topo::Rank d : dests[n]) {
      total += (d != static_cast<topo::Rank>(n));
    }
  }
  return total;
}

Pattern Pattern::random_subset(std::int32_t nodes, int fanout, std::uint64_t seed) {
  if (fanout < 0 || fanout > nodes - 1) {
    throw std::invalid_argument("random_subset: fanout " + std::to_string(fanout) +
                                " outside [0, " + std::to_string(nodes - 1) + "]");
  }
  Pattern pattern;
  pattern.dests.resize(static_cast<std::size_t>(nodes));
  util::Xoshiro256StarStar master(seed);
  for (std::int32_t n = 0; n < nodes; ++n) {
    auto rng = master.fork();
    std::set<topo::Rank> chosen;
    while (chosen.size() < static_cast<std::size_t>(fanout)) {
      const auto d = static_cast<topo::Rank>(rng.below(static_cast<std::uint64_t>(nodes)));
      if (d != n) chosen.insert(d);
    }
    pattern.dests[static_cast<std::size_t>(n)].assign(chosen.begin(), chosen.end());
  }
  return pattern;
}

Pattern Pattern::halo(const topo::Shape& shape) {
  const topo::Torus torus{shape};
  Pattern pattern;
  pattern.dests.resize(static_cast<std::size_t>(torus.nodes()));
  for (topo::Rank n = 0; n < torus.nodes(); ++n) {
    std::set<topo::Rank> neighbors;
    for (int d = 0; d < torus.directions(); ++d) {
      const topo::Rank peer = torus.neighbor(n, topo::Direction::from_index(d));
      if (peer >= 0 && peer != n) neighbors.insert(peer);
    }
    pattern.dests[static_cast<std::size_t>(n)].assign(neighbors.begin(), neighbors.end());
  }
  return pattern;
}

Pattern Pattern::grid_partners(std::int32_t nodes, int cols) {
  if (cols <= 0 || nodes % cols != 0) {
    throw std::invalid_argument("grid_partners: " + std::to_string(cols) +
                                " columns do not divide " + std::to_string(nodes) +
                                " nodes");
  }
  Pattern pattern;
  pattern.dests.resize(static_cast<std::size_t>(nodes));
  for (std::int32_t n = 0; n < nodes; ++n) {
    const std::int32_t row = n / cols;
    const std::int32_t col = n % cols;
    auto& dests = pattern.dests[static_cast<std::size_t>(n)];
    for (std::int32_t c = 0; c < cols; ++c) {
      if (c != col) dests.push_back(row * cols + c);
    }
    for (std::int32_t r = 0; r < nodes / cols; ++r) {
      if (r != row) dests.push_back(r * cols + col);
    }
  }
  return pattern;
}

CommSchedule build_pattern_schedule(StrategyKind kind, const net::NetworkConfig& net,
                                    const Pattern& pattern, std::uint64_t msg_bytes) {
  const auto nodes = static_cast<std::int32_t>(net.shape.nodes());
  if (pattern.dests.size() != static_cast<std::size_t>(nodes)) {
    throw std::invalid_argument("pattern has " + std::to_string(pattern.dests.size()) +
                                " destination lists for " + std::to_string(nodes) +
                                " nodes");
  }
  // The AR/DR/TPS schedules with their default tuning supply the phases and
  // FIFO classes; the pattern supplies the destination orders.
  CommSchedule sched;
  switch (kind) {
    case StrategyKind::kAdaptiveRandom:
      sched = build_direct_frame(net, msg_bytes, DirectTuning::ar());
      break;
    case StrategyKind::kDeterministic:
      sched = build_direct_frame(net, msg_bytes, DirectTuning::dr());
      break;
    case StrategyKind::kTwoPhase:
      sched = build_tps_frame(net, msg_bytes, TpsTuning{});
      break;
    default:
      throw std::invalid_argument("no many-to-many transport for strategy " +
                                  strategy_name(kind));
  }
  // One whole message per destination before moving to the next.
  sched.stream.rounds = 1;
  sched.stream.burst = static_cast<int>(sched.phases.front().packets.size());
  sched.covered = PairMask(nodes, /*reachable=*/false);
  sched.orders.reserve(static_cast<std::size_t>(nodes));
  util::Xoshiro256StarStar master(net.seed ^ 0x5b195eULL);
  for (topo::Rank n = 0; n < nodes; ++n) {
    auto rng = master.fork();
    std::vector<topo::Rank> dests;
    for (const topo::Rank d : pattern.dests[static_cast<std::size_t>(n)]) {
      if (d < 0 || d >= nodes) {
        throw std::invalid_argument("pattern destination " + std::to_string(d) +
                                    " of node " + std::to_string(n) + " out of range");
      }
      if (d == n) continue;
      if (sched.covered.reachable(n, d)) {
        throw std::invalid_argument("pattern lists destination " + std::to_string(d) +
                                    " of node " + std::to_string(n) + " twice");
      }
      sched.covered.set_reachable(n, d);
      dests.push_back(d);
    }
    rng.shuffle(dests);
    sched.orders.emplace_back(std::move(dests));
  }
  return sched;
}

}  // namespace bgl::coll
