#include "src/coll/direct.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/model/peak.hpp"

namespace bgl::coll {

CommSchedule build_direct_frame(const net::NetworkConfig& config,
                                std::uint64_t msg_bytes, const DirectTuning& tuning) {
  assert(tuning.burst >= 1);
  CommSchedule sched;
  sched.shape = config.shape;
  sched.torus = topo::Torus{config.shape};
  sched.msg_bytes = msg_bytes;
  sched.injection_fifos = config.injection_fifos;
  sched.form = StreamForm::kOrdered;

  PhaseSpec phase;
  phase.mode = tuning.mode;
  phase.fifo_class = 0;
  phase.packets = rt::packetize(msg_bytes, rt::WireFormat::direct());
  phase.first_packet_extra_cycles = tuning.alpha_cycles;
  phase.per_packet_cycles = tuning.per_packet_cycles;
  if (tuning.pace_factor > 0.0) {
    const double pace = tuning.pace_factor * model::bottleneck_factor(config.shape) *
                        config.chunk_cycles;
    const double bandwidth =
        static_cast<double>(config.chunk_cycles) / config.cpu_links;
    phase.pace_extra_per_chunk = std::max(0.0, pace - bandwidth);
  }

  sched.stream.rounds = static_cast<std::uint32_t>(
      (phase.packets.size() + static_cast<std::size_t>(tuning.burst) - 1) /
      static_cast<std::size_t>(tuning.burst));
  sched.stream.burst = tuning.burst;
  sched.phases.push_back(std::move(phase));
  sched.fifo_classes.push_back(FifoClass{});  // all FIFOs, round-robin
  return sched;
}

CommSchedule build_direct_schedule(const net::NetworkConfig& config,
                                   std::uint64_t msg_bytes,
                                   const DirectTuning& tuning) {
  CommSchedule sched = build_direct_frame(config, msg_bytes, tuning);
  const auto nodes = static_cast<std::size_t>(config.shape.nodes());
  util::Xoshiro256StarStar master(config.seed ^ 0xd1ec7ULL);
  sched.orders.reserve(nodes);
  for (std::size_t n = 0; n < nodes; ++n) {
    auto rng = master.fork();
    sched.orders.emplace_back(static_cast<topo::Rank>(n),
                              static_cast<std::int32_t>(nodes), rng, tuning.order);
  }
  return sched;
}

}  // namespace bgl::coll
