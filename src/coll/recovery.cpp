#include "src/coll/recovery.hpp"

#include <algorithm>
#include <utility>

#include "src/coll/schedule_lint.hpp"

namespace bgl::coll {
namespace {

std::uint64_t residual_bytes(const std::vector<ResidualPair>& residual) {
  std::uint64_t total = 0;
  for (const ResidualPair& r : residual) total += r.bytes;
  return total;
}

void merge_faults(net::FaultStats& into, const net::FaultStats& from) {
  into.dropped_in_flight += from.dropped_in_flight;
  into.dropped_prob += from.dropped_prob;
  into.dropped_stuck += from.dropped_stuck;
  into.corrupted_payloads += from.corrupted_payloads;
  into.unroutable_at_injection += from.unroutable_at_injection;
  into.reroute_vetoes += from.reroute_vetoes;
  into.transient_strikes += from.transient_strikes;
  into.link_down_cycles += from.link_down_cycles;
  // stranded_relay_bytes is not additive: the caller re-derives it from the
  // epoch-0 custody ledger against the final delivery matrix.
}

void merge_reliability(rt::ReliabilityStats& into, const rt::ReliabilityStats& from) {
  into.data_sequenced += from.data_sequenced;
  into.retransmits += from.retransmits;
  into.gave_up += from.gave_up;
  into.acks_standalone += from.acks_standalone;
  into.acks_piggybacked += from.acks_piggybacked;
  into.duplicates_dropped += from.duplicates_dropped;
  into.corrupt_rejected += from.corrupt_rejected;
}

}  // namespace

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

bool pair_recoverable(const net::FaultPlan& plan, topo::Rank src, topo::Rank dst) {
  return plan.node_alive(src) && plan.node_alive(dst) &&
         plan.pair_routable(src, dst, net::RoutingMode::kAdaptive);
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
      if (!pair_recoverable(plan, s, d)) continue;
      residual.push_back(ResidualPair{s, d, msg_bytes - have});
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

  PhaseSpec phase;
  phase.gate = PhaseGate::kPipelined;
  phase.mode = net::RoutingMode::kAdaptive;
  phase.fifo_class = 0;
  phase.packets = rt::packetize(msg_bytes, rt::WireFormat::direct());
  phase.override_format = rt::WireFormat::direct();
  sched.phases.push_back(std::move(phase));
  sched.fifo_classes.push_back(FifoClass{});  // all FIFOs, round robin

  const std::int32_t nodes = sched.nodes();
  // Coverage is the residual and nothing else: start all-unreachable and
  // re-mark exactly the pairs the repair carries.
  sched.covered = PairMask(nodes, /*reachable=*/false);

  // One direct send per residual pair, grouped by source (compute_residual
  // emits src-major order). A full-message residual uses the phase shape;
  // a partial one overrides the payload to exactly the missing bytes.
  std::vector<std::vector<const ResidualPair*>> by_src(
      static_cast<std::size_t>(nodes));
  for (const ResidualPair& r : residual) {
    by_src[static_cast<std::size_t>(r.src)].push_back(&r);
    sched.covered.set_reachable(r.src, r.dst);
  }
  sched.op_begin.push_back(0);
  for (topo::Rank n = 0; n < nodes; ++n) {
    std::uint16_t peer_index = 0;
    for (const ResidualPair* r : by_src[static_cast<std::size_t>(n)]) {
      SendOp op;
      op.dst = r->dst;
      op.phase = 0;
      op.flags = SendOp::kFinalizeSelf;
      op.peer_index = peer_index++;
      if (r->bytes < msg_bytes) {
        op.payload_bytes = static_cast<std::uint32_t>(r->bytes);
      }
      sched.ops.push_back(op);
    }
    sched.op_begin.push_back(static_cast<std::uint32_t>(sched.ops.size()));
  }
  return sched;
}

void recover_epochs(RunResult& result, const AlltoallOptions& options,
                    const net::NetworkConfig& net, const net::FaultPlan& plan,
                    DeliveryMatrix& matrix,
                    const std::vector<StrandedRelay>& stranded,
                    const PairMask& carried) {
  const std::int32_t nodes = matrix.nodes();
  const std::uint64_t msg = options.msg_bytes;

  // Epoch transition, step 1: survivors discard partial flows no repair can
  // complete (an endpoint died or the pair is severed) so the exactly-once
  // ledger the repair epochs extend starts consistent.
  for (topo::Rank s = 0; s < nodes; ++s) {
    for (topo::Rank d = 0; d < nodes; ++d) {
      if (s == d) continue;
      const std::uint64_t have = matrix.bytes(s, d);
      if (have != 0 && have != msg && !pair_recoverable(plan, s, d)) {
        matrix.discard(s, d);
      }
    }
  }

  // Step 2: the residual the repair epochs owe. It may be empty — every
  // short pair lost an endpoint — and the survivors' view below still
  // replaces epoch 0's, which was planned blind to the strike.
  std::vector<ResidualPair> residual = compute_residual(matrix, msg, plan, carried);

  const std::uint64_t owed = residual_bytes(residual);
  result.epochs.residual_pairs = residual.size();

  const LivenessView view = exchange_liveness(net, plan);
  // Survivors now plan openly: the strike has landed, so repair epochs run
  // with the same fault plan applied from tick 0 (the plan's dead sets are
  // independent of fail_at — see FaultPlan).
  net::NetworkConfig repair_net = net;
  repair_net.faults.fail_at = 0;

  Tick replan_cycles = 0;
  constexpr int kMaxReplans = 3;
  while (!residual.empty() && result.epochs.replans < kMaxReplans) {
    replan_cycles += view.agree_cycles;
    CommSchedule repair = build_repair_schedule(repair_net, msg, residual);
    const net::FaultPlan repair_plan(repair_net, repair_net.shape);
    if (!schedule_lint(repair, &repair_plan).ok()) break;

    AlltoallOptions ropts = options;
    ropts.net = repair_net;
    ropts.recover = false;       // this loop is the epoch driver
    ropts.deliveries = &matrix;  // shared exactly-once ledger
    ropts.verify = false;
    ropts.deadline = 0;
    const std::uint64_t before = residual_bytes(residual);
    RunResult repaired = run_schedule(std::move(repair), ropts, "repair");

    ++result.epochs.replans;
    replan_cycles += repaired.elapsed_cycles;
    result.events += repaired.events;
    result.packets_delivered += repaired.packets_delivered;
    result.payload_bytes += repaired.payload_bytes;
    result.abandoned_pairs += repaired.abandoned_pairs;
    merge_faults(result.faults, repaired.faults);
    merge_reliability(result.reliability, repaired.reliability);
    result.timed_out = result.timed_out || repaired.timed_out;
    if (!repaired.drained || repaired.timed_out) {
      result.drained = false;
      break;
    }
    residual = compute_residual(matrix, msg, plan, carried);
    if (residual_bytes(residual) >= before) break;  // no progress: stop
  }

  result.epochs.epochs = 1 + result.epochs.replans;
  result.epochs.replan_cycles = replan_cycles;
  result.epochs.recovered_bytes = owed - residual_bytes(residual);
  result.epochs.corruption_retransmits = result.reliability.corrupt_rejected;

  // Time and throughput reflect the whole epoch sequence.
  result.elapsed_cycles += replan_cycles;
  result.elapsed_us = static_cast<double>(result.elapsed_cycles) / 700.0;
  const double peak = peak_cycles_for(net.shape, msg, net.chunk_cycles);
  result.percent_peak =
      result.elapsed_cycles > 0
          ? 100.0 * peak / static_cast<double>(result.elapsed_cycles)
          : 0.0;
  const double payload_per_node =
      static_cast<double>(nodes - 1) * static_cast<double>(msg);
  result.per_node_mbps =
      result.elapsed_us > 0 ? payload_per_node / result.elapsed_us : 0.0;

  // Post-recovery reachability is the survivors' view of the pairs epoch 0
  // owed: a pair counts reachable when a repair can still serve it — or when
  // it was already delivered in full before the strike took an endpoint.
  PairMask mask(nodes);
  for (topo::Rank s = 0; s < nodes; ++s) {
    for (topo::Rank d = 0; d < nodes; ++d) {
      if (s != d && (!carried.reachable(s, d) ||
                     (!pair_recoverable(plan, s, d) && matrix.bytes(s, d) != msg))) {
        mask.set_unreachable(s, d);
      }
    }
  }
  result.reachable = std::move(mask);
  result.unreachable_pairs = result.reachable.unreachable_pairs();
  result.pairs_complete = matrix.complete_pairs(msg);
  result.reachable_complete = matrix.complete_reachable(msg, result.reachable);

  // Custody the repairs failed to replace is all that stays stranded; a
  // successful recovery drains this to zero.
  std::uint64_t still_stranded = 0;
  for (const StrandedRelay& r : stranded) {
    if (matrix.bytes(r.orig_src, r.final_dst) != msg) {
      still_stranded += r.payload_bytes;
    }
  }
  result.faults.stranded_relay_bytes = still_stranded;
}

}  // namespace bgl::coll
