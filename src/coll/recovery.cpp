#include "src/coll/recovery.hpp"

#include <utility>

namespace bgl::coll {

LivenessView exchange_liveness(const net::NetworkConfig& net,
                               const net::FaultPlan& plan) {
  LivenessView view;
  const std::int32_t nodes = static_cast<std::int32_t>(net.shape.nodes());
  view.alive.resize(static_cast<std::size_t>(nodes), 0);
  for (topo::Rank n = 0; n < nodes; ++n) {
    if (plan.node_alive(n)) {
      view.alive[static_cast<std::size_t>(n)] = 1;
      ++view.survivors;
    }
  }
  // Agreement cost model: survivors allgather one liveness chunk around the
  // ring of each axis in turn (the torus-native analogue of the membership
  // exchange); each axis costs (extent - 1) store-and-forward hops.
  for (int a = 0; a < net.shape.axis_count(); ++a) {
    const int extent = net.shape.dim[static_cast<std::size_t>(a)];
    if (extent < 2) continue;
    view.agree_cycles += static_cast<Tick>(extent - 1) *
                         (net.hop_latency_cycles + net.chunk_cycles);
  }
  return view;
}

topo::Rank repair_route(const net::FaultPlan& plan, topo::Rank src, topo::Rank dst) {
  constexpr net::RoutingMode kAdaptive = net::RoutingMode::kAdaptive;
  if (!plan.node_alive(src) || !plan.node_alive(dst)) return -1;
  if (plan.pair_routable(src, dst, kAdaptive)) return src;
  const auto relays = [&](topo::Rank r) {
    return r != src && r != dst && plan.pair_routable(src, r, kAdaptive) &&
           plan.pair_routable(r, dst, kAdaptive);
  };
  const topo::Torus& torus = plan.torus();
  for (int a = 0; a < torus.axis_count(); ++a) {
    topo::Coord probe = torus.coord_of(src);
    for (int k = 0; k < torus.shape().dim[static_cast<std::size_t>(a)]; ++k) {
      probe[a] = k;
      if (const topo::Rank r = torus.rank_of(probe); relays(r)) return r;
    }
  }
  for (topo::Rank r = 0; r < torus.nodes(); ++r) {
    if (relays(r)) return r;
  }
  return -1;
}

bool pair_recoverable(const net::FaultPlan& plan, topo::Rank src, topo::Rank dst) {
  return repair_route(plan, src, dst) >= 0;
}

std::vector<ResidualPair> compute_residual(const DeliveryMatrix& matrix,
                                           std::uint64_t msg_bytes,
                                           const net::FaultPlan& plan,
                                           const PairMask& carried) {
  std::vector<ResidualPair> residual;
  const std::int32_t nodes = matrix.nodes();
  for (topo::Rank s = 0; s < nodes; ++s) {
    for (topo::Rank d = 0; d < nodes; ++d) {
      if (s == d || !carried.reachable(s, d)) continue;
      const std::uint64_t have = matrix.bytes(s, d);
      if (have >= msg_bytes) continue;
      const topo::Rank route = repair_route(plan, s, d);
      if (route < 0) continue;
      residual.push_back(ResidualPair{s, d, msg_bytes - have, route == s ? -1 : route});
    }
  }
  return residual;
}

CommSchedule build_repair_schedule(const net::NetworkConfig& net,
                                   std::uint64_t msg_bytes,
                                   const std::vector<ResidualPair>& residual) {
  CommSchedule sched;
  sched.shape = net.shape;
  sched.torus = topo::Torus(net.shape);
  sched.msg_bytes = msg_bytes;
  sched.injection_fifos = net.injection_fifos;
  sched.form = StreamForm::kExplicit;

  // Phase 0: direct sends; 1: relayed pairs to their relay; 2: relay to
  // destination, behind the barrier. All three share one wire shape and
  // one FIFO class (all FIFOs, round robin).
  PhaseSpec phase;
  phase.mode = net::RoutingMode::kAdaptive;
  phase.fifo_class = 0;
  phase.packets = rt::packetize(msg_bytes, rt::WireFormat::direct());
  phase.override_format = rt::WireFormat::direct();
  sched.phases.assign(2, phase);
  phase.gate = PhaseGate::kLocalBarrier;
  sched.phases.push_back(std::move(phase));
  sched.fifo_classes.push_back(FifoClass{});

  const std::int32_t nodes = sched.nodes();
  BarrierSpec barrier;
  barrier.phase = 2;
  barrier.expected.assign(static_cast<std::size_t>(nodes), 0);
  barrier.compute_cycles.assign(static_cast<std::size_t>(nodes), 0);

  // Coverage is the residual and nothing else: start all-unreachable and
  // re-mark exactly the pairs the repair carries.
  sched.covered = PairMask(nodes, /*reachable=*/false);
  std::vector<std::vector<const ResidualPair*>> by_src(static_cast<std::size_t>(nodes));
  std::vector<std::vector<const ResidualPair*>> by_relay(static_cast<std::size_t>(nodes));
  for (const ResidualPair& r : residual) {
    by_src[static_cast<std::size_t>(r.src)].push_back(&r);
    if (r.relay >= 0) by_relay[static_cast<std::size_t>(r.relay)].push_back(&r);
    sched.covered.set_reachable(r.src, r.dst);
  }

  // One op per leg: a full-message residual uses the phase shape, a partial
  // one overrides the payload to exactly the missing bytes. A first leg
  // finalizes nothing; the relay's leg finalizes the pair's source.
  const auto add_op = [&](const ResidualPair& r, topo::Rank to, std::uint8_t phase_index,
                          std::uint16_t peer_index) {
    SendOp op;
    op.dst = to;
    op.phase = phase_index;
    op.peer_index = peer_index;
    if (phase_index == 0) {
      op.flags = SendOp::kFinalizeSelf;
    } else if (phase_index == 2) {
      op.finalize_begin = static_cast<std::int32_t>(sched.finalize_pool.size());
      op.finalize_count = 1;
      sched.finalize_pool.push_back(r.src);
    }
    if (r.bytes < msg_bytes) op.payload_bytes = static_cast<std::uint32_t>(r.bytes);
    sched.ops.push_back(op);
  };
  sched.op_begin.push_back(0);
  for (topo::Rank n = 0; n < nodes; ++n) {
    std::uint16_t direct_ops = 0;
    std::uint16_t relayed_ops = 0;
    for (const ResidualPair* r : by_src[static_cast<std::size_t>(n)]) {
      if (r->relay < 0) add_op(*r, r->dst, 0, direct_ops++);
    }
    for (const ResidualPair* r : by_src[static_cast<std::size_t>(n)]) {
      if (r->relay < 0) continue;
      add_op(*r, r->relay, 1, relayed_ops++);
      barrier.expected[static_cast<std::size_t>(r->relay)] +=
          rt::packet_count(r->bytes, rt::WireFormat::direct());
    }
    std::uint16_t forwarded_ops = 0;
    for (const ResidualPair* r : by_relay[static_cast<std::size_t>(n)]) {
      add_op(*r, r->dst, 2, forwarded_ops++);
    }
    sched.op_begin.push_back(static_cast<std::uint32_t>(sched.ops.size()));
  }
  sched.barriers.push_back(std::move(barrier));
  return sched;
}

}  // namespace bgl::coll
