#include "src/coll/tps.hpp"

#include <algorithm>
#include <cassert>

namespace bgl::coll {

int choose_linear_axis(const topo::Shape& shape) {
  const int axes = shape.axis_count();
  // Below three dimensions there is no "plane left behind"; the bottleneck
  // (longest) axis is the only sensible linear phase.
  if (axes < 3) return shape.longest_axis();
  // Symmetric candidates: removing this axis leaves all remaining extents
  // mutually equal (the paper's "symmetric plane" generalized to n-1 axes).
  std::vector<int> candidates;
  for (int a = 0; a < axes; ++a) {
    bool symmetric = true;
    int other = -1;
    for (int b = 0; b < axes; ++b) {
      if (b == a) continue;
      const int d = shape.dim[static_cast<std::size_t>(b)];
      if (other < 0) {
        other = d;
      } else if (d != other) {
        symmetric = false;
        break;
      }
    }
    if (symmetric && shape.dim[static_cast<std::size_t>(a)] > 1) {
      candidates.push_back(a);
    }
  }
  // Hypercube: every axis is equivalent; pick the last (Z for 3-D cubes,
  // matching the paper's listing of Z for 8^3).
  if (static_cast<int>(candidates.size()) == axes) return axes - 1;
  if (candidates.size() == 1) return candidates.front();
  // Otherwise the longest dimension (the bottleneck) is the linear phase.
  return shape.longest_axis();
}

CommSchedule build_tps_frame(const net::NetworkConfig& config,
                             std::uint64_t msg_bytes, const TpsTuning& tuning) {
  CommSchedule sched;
  sched.shape = config.shape;
  sched.torus = topo::Torus{config.shape};
  sched.msg_bytes = msg_bytes;
  sched.injection_fifos = config.injection_fifos;
  sched.form = StreamForm::kOrdered;

  const int linear_axis =
      tuning.linear_axis >= 0 ? tuning.linear_axis : choose_linear_axis(config.shape);
  if (tuning.reserved_fifos) assert(config.injection_fifos >= 2);

  PhaseSpec linear;  // phase-1 legs toward the intermediate
  linear.mode = net::RoutingMode::kAdaptive;
  linear.fifo_class = 0;
  linear.packets = rt::packetize(msg_bytes, rt::WireFormat::direct());
  linear.first_packet_extra_cycles = tuning.alpha_cycles;
  PhaseSpec planar = linear;  // phase-2 legs toward the final destination
  planar.fifo_class = 1;
  planar.forward_cpu_cycles = tuning.forward_cpu_cycles;

  sched.stream.rounds = static_cast<std::uint32_t>(linear.packets.size());
  sched.stream.burst = 1;
  sched.stream.relay = RelayRule::kLinearAxis;
  sched.stream.relay_axis = linear_axis;
  sched.stream.relayed_phase = 0;
  sched.stream.final_phase = 1;
  sched.phases.push_back(std::move(linear));
  sched.phases.push_back(std::move(planar));

  // Even without reserved groups the two phases keep separate rotation
  // counters over the full FIFO range (tps_no_reserved in
  // tests/golden/schedule_equivalence.txt pins this).
  FifoClass group1, group2;
  if (tuning.reserved_fifos && config.injection_fifos >= 2) {
    const int half = config.injection_fifos / 2;
    group1 = FifoClass{0, half, FifoPolicy::kRoundRobin, true};
    group2 = FifoClass{half, config.injection_fifos - half,
                       FifoPolicy::kRoundRobin, true};
  }
  sched.fifo_classes.push_back(group1);
  sched.fifo_classes.push_back(group2);

  if (tuning.credit_window > 0) {
    // W >= B guarantees sources drain even though up to B-1 forwards stay
    // permanently un-credited (see tps.hpp).
    sched.credits.window = std::max(tuning.credit_window, tuning.credit_batch);
    sched.credits.batch = tuning.credit_batch;
    sched.credits.credit_cpu_cycles = tuning.credit_cpu_cycles;
  }
  return sched;
}

CommSchedule build_tps_schedule(const net::NetworkConfig& config,
                                std::uint64_t msg_bytes, const TpsTuning& tuning) {
  CommSchedule sched = build_tps_frame(config, msg_bytes, tuning);
  const auto nodes = static_cast<std::size_t>(config.shape.nodes());
  util::Xoshiro256StarStar master(config.seed ^ 0x79511ULL);
  sched.orders.reserve(nodes);
  for (std::size_t n = 0; n < nodes; ++n) {
    auto rng = master.fork();
    sched.orders.emplace_back(static_cast<topo::Rank>(n),
                              static_cast<std::int32_t>(nodes), rng);
  }
  return sched;
}

}  // namespace bgl::coll
