#include "src/coll/schedule.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "src/trace/csv.hpp"

namespace bgl::coll {

// --- CommSchedule -----------------------------------------------------------

bool CommSchedule::leg_ok(topo::Rank from, topo::Rank to,
                          const net::FaultPlan* faults) const {
  if (faults == nullptr || from == to) return true;
  return faults->pair_routable(from, to, net::RoutingMode::kAdaptive);
}

topo::Rank CommSchedule::relay_for(topo::Rank src, topo::Rank dst,
                                   const net::FaultPlan* faults) const {
  const auto axis = static_cast<std::size_t>(stream.relay_axis);
  topo::Coord c = torus.coord_of(src);
  c[stream.relay_axis] = torus.coord_of(dst)[stream.relay_axis];
  const topo::Rank canon = torus.rank_of(c);
  if (faults == nullptr || !faults->enabled()) return canon;
  if (faults->node_alive(canon) && leg_ok(src, canon, faults) &&
      leg_ok(canon, dst, faults)) {
    return canon;
  }
  // Degrade to the first live node on src's relay-axis line with both legs
  // routable (k == src's own coordinate degenerates to a direct send); the
  // faulted tps_* cases of tests/golden/schedule_equivalence.txt pin this.
  topo::Coord probe = torus.coord_of(src);
  for (int k = 0; k < shape.dim[axis]; ++k) {
    probe[stream.relay_axis] = k;
    const topo::Rank inter = torus.rank_of(probe);
    if (inter == canon) continue;
    if (faults->node_alive(inter) && leg_ok(src, inter, faults) &&
        leg_ok(inter, dst, faults)) {
      return inter;
    }
  }
  return -1;
}

bool CommSchedule::pair_covered(topo::Rank src, topo::Rank dst,
                                const net::FaultPlan* faults) const {
  if (src == dst || !covered.reachable(src, dst)) return false;
  // Explicit builders fold their fault rule into `covered`.
  if (faults == nullptr || !faults->enabled() || form == StreamForm::kExplicit) {
    return true;
  }
  if (stream.relay == RelayRule::kLinearAxis) {
    return relay_for(src, dst, faults) >= 0;
  }
  return faults->pair_routable(src, dst, phases[stream.final_phase].mode);
}

void CommSchedule::finalize_list(const SendOp& op, topo::Rank op_src,
                                 std::vector<topo::Rank>& out) const {
  out.clear();
  if ((op.flags & SendOp::kFinalizeSelf) != 0) {
    out.push_back(op_src);
    return;
  }
  for (std::int32_t i = 0; i < op.finalize_count; ++i) {
    out.push_back(finalize_pool[static_cast<std::size_t>(op.finalize_begin + i)]);
  }
}

std::int64_t CommSchedule::transfer_count(const net::FaultPlan* faults) const {
  std::int64_t count = 0;
  for_each_transfer(faults, [&](const Transfer&) { ++count; });
  return count;
}

std::string CommSchedule::to_csv(const net::FaultPlan* faults) const {
  std::string out = "transfer,phase,src,dst,relays,bytes,fifo_class\n";
  for_each_transfer(faults, [&](const Transfer& t) {
    std::string relays;
    for (int i = 0; i < t.relay_count; ++i) {
      if (i > 0) relays += ';';
      relays += std::to_string(t.relays[static_cast<std::size_t>(i)]);
    }
    out += trace::csv_line({std::to_string(t.id), std::to_string(t.phase),
                            std::to_string(t.src), std::to_string(t.dst), relays,
                            std::to_string(t.bytes), std::to_string(t.fifo_class)});
    out += '\n';
  });
  return out;
}

std::string CommSchedule::to_json(const net::FaultPlan* faults) const {
  std::string out = "{\n";
  out += "  \"shape\": \"" + shape.to_string() + "\",\n";
  out += "  \"msg_bytes\": " + std::to_string(msg_bytes) + ",\n";
  out += "  \"form\": \"";
  out += (form == StreamForm::kOrdered ? "ordered" : "explicit");
  out += "\",\n";
  out += "  \"phases\": " + std::to_string(phases.size()) + ",\n";
  out += "  \"fifo_classes\": " + std::to_string(fifo_classes.size()) + ",\n";
  out += "  \"transfers\": [";
  bool first = true;
  for_each_transfer(faults, [&](const Transfer& t) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"id\": " + std::to_string(t.id) + ", \"phase\": " +
           std::to_string(t.phase) + ", \"src\": " + std::to_string(t.src) +
           ", \"dst\": " + std::to_string(t.dst) + ", \"relays\": [";
    for (int i = 0; i < t.relay_count; ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(t.relays[static_cast<std::size_t>(i)]);
    }
    out += "], \"bytes\": " + std::to_string(t.bytes) + ", \"fifo_class\": " +
           std::to_string(t.fifo_class) + "}";
  });
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

// --- ScheduleExecutor -------------------------------------------------------

namespace {

// End-to-end checksum over the packet identity the 8 B proto header commits
// to: who sent which packet of what to whom. The DES carries no payload
// bytes, so the checksum doubles as the payload's proxy — a Byzantine link
// "flips payload bits" by XORing this field in flight (fabric.cpp), and any
// nonzero XOR is detected by recomputation.
std::uint32_t packet_checksum(topo::Rank src, topo::Rank dst, std::uint64_t tag,
                              std::uint32_t payload_bytes, std::uint32_t index) {
  std::uint64_t h = 0x42474c6373756dULL;  // "BGLcsum"
  const auto mix = [&h](std::uint64_t v) {
    h += v;
    h *= 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
  };
  mix((std::uint64_t{static_cast<std::uint32_t>(src)} << 32) |
      static_cast<std::uint32_t>(dst));
  mix(tag);
  mix((std::uint64_t{payload_bytes} << 32) | index);
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

}  // namespace

std::uint64_t ScheduleExecutor::make_tag(Kind kind, topo::Rank orig_src,
                                         topo::Rank final_dst, std::uint32_t aux) {
  return (static_cast<std::uint64_t>(kind) << 62) |
         (static_cast<std::uint64_t>(aux & 0x3fffU) << 48) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(orig_src) & 0xffffffU)
          << 24) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(final_dst) & 0xffffffU));
}

std::uint64_t ScheduleExecutor::make_combined_tag(std::uint32_t op_index) {
  return (static_cast<std::uint64_t>(kCombined) << 62) |
         static_cast<std::uint64_t>(op_index);
}

ScheduleExecutor::ScheduleExecutor(const net::NetworkConfig& config,
                                   CommSchedule schedule, DeliveryMatrix* matrix,
                                   const net::FaultPlan* faults)
    : matrix_(matrix),
      faults_(faults),
      checksums_(config.faults.enabled()),
      config_(config),
      schedule_(std::move(schedule)) {
  assert(!schedule_.phases.empty());
  assert(!schedule_.fifo_classes.empty());

  const auto nodes = static_cast<std::size_t>(schedule_.shape.nodes());
  // Barrier gating is an explicit-form construct: emission is gated per op,
  // and arming counts kCombined arrivals of the preceding phase. Validate the
  // barrier table up front — a mis-ordered or mis-sized table would otherwise
  // deadlock or index out of range mid-run.
  if (!schedule_.barriers.empty()) {
    if (schedule_.form != StreamForm::kExplicit) {
      throw std::invalid_argument("barriers require an explicit-form schedule");
    }
    int prev_phase = 0;
    for (const BarrierSpec& barrier : schedule_.barriers) {
      if (barrier.phase <= prev_phase ||
          barrier.phase >= static_cast<int>(schedule_.phases.size())) {
        throw std::invalid_argument(
            "schedule barriers must be in strictly increasing phase order, "
            "each gating a phase after the first");
      }
      if (barrier.expected.size() != nodes || barrier.compute_cycles.size() != nodes) {
        throw std::invalid_argument("barrier vectors not sized to the node count");
      }
      prev_phase = barrier.phase;
    }
  }
  barrier_of_phase_.assign(schedule_.phases.size(), -1);
  for (std::size_t g = 0; g < schedule_.barriers.size(); ++g) {
    barrier_of_phase_[static_cast<std::size_t>(schedule_.barriers[g].phase)] =
        static_cast<std::int32_t>(g);
  }
  const bool credits = schedule_.credits.window > 0 &&
                       schedule_.form == StreamForm::kOrdered &&
                       schedule_.stream.relay == RelayRule::kLinearAxis;
  const int relay_extent =
      schedule_.shape.dim[static_cast<std::size_t>(schedule_.stream.relay_axis)];
  nodes_.resize(nodes);
  for (std::size_t n = 0; n < nodes; ++n) {
    NodeState& s = nodes_[n];
    s.fifo_rr.assign(schedule_.fifo_classes.size(), 0);
    if (schedule_.form == StreamForm::kExplicit) {
      s.op = schedule_.op_begin[n];
    }
    if (credits) {
      s.outstanding.assign(static_cast<std::size_t>(relay_extent), 0);
      s.to_credit.assign(static_cast<std::size_t>(relay_extent), 0);
      s.credits_sent.assign(static_cast<std::size_t>(relay_extent), 0);
    }
    s.barrier_open.resize(schedule_.barriers.size());
    s.barrier_left.resize(schedule_.barriers.size());
    for (std::size_t g = 0; g < schedule_.barriers.size(); ++g) {
      s.barrier_left[g] = schedule_.barriers[g].expected[n];
      s.barrier_open[g] = (s.barrier_left[g] == 0) ? 1 : 0;
    }
  }
  if (schedule_.form == StreamForm::kExplicit) {
    combined_remaining_.assign(schedule_.ops.size(), 0);
    // Pre-packetize payload overrides so every cursor and the delivery
    // accounting agree on each op's wire shape. An override names exactly
    // the bytes of one pair's message — delivered (one finalize origin) or
    // carried to a relay (none) — so it is incompatible with combined
    // multi-origin finalize lists (which share the phase's full shape).
    bool any_override = false;
    for (const SendOp& op : schedule_.ops) {
      if (op.payload_bytes != 0) {
        any_override = true;
        if ((op.flags & SendOp::kFinalizeSelf) == 0 && op.finalize_count > 1) {
          throw std::invalid_argument(
              "SendOp payload override allows at most one finalize origin");
        }
      }
    }
    if (any_override) {
      op_packets_.resize(schedule_.ops.size());
      for (std::size_t i = 0; i < schedule_.ops.size(); ++i) {
        const SendOp& op = schedule_.ops[i];
        if (op.payload_bytes != 0) {
          op_packets_[i] = rt::packetize(
              op.payload_bytes,
              schedule_.phases[op.phase].override_format);
        }
      }
    }
  }
}

const std::vector<rt::PacketSpec>& ScheduleExecutor::op_message(
    std::uint32_t op_index) const {
  if (op_index < op_packets_.size() && !op_packets_[op_index].empty()) {
    return op_packets_[op_index];
  }
  return schedule_.phases[schedule_.ops[op_index].phase].packets;
}

std::uint8_t ScheduleExecutor::pick_fifo(NodeState& s, std::uint8_t fifo_class,
                                         std::uint32_t peer_index,
                                         std::uint32_t pkt_index) {
  const FifoClass& fc = schedule_.fifo_classes[fifo_class];
  const int count = fc.resolved_count(config_.injection_fifos);
  if (fc.policy == FifoPolicy::kPositional) {
    return static_cast<std::uint8_t>(fc.begin + (peer_index + pkt_index) %
                                                    static_cast<std::uint32_t>(count));
  }
  std::uint8_t& rr = s.fifo_rr[fifo_class];
  const auto fifo = static_cast<std::uint8_t>(fc.begin + (rr % count));
  ++rr;
  return fifo;
}

bool ScheduleExecutor::next_packet(topo::Rank node, net::InjectDesc& out) {
  if (!emit(node, nodes_[static_cast<std::size_t>(node)], out)) return false;
  if (checksums_) {
    out.checksum = packet_checksum(node, out.dst, out.tag, out.payload_bytes, out.index);
  }
  return true;
}

bool ScheduleExecutor::emit(topo::Rank node, NodeState& s, net::InjectDesc& out) {
  // 1) Credits unblock remote senders; they are tiny — send them first. The
  // k-th credit to a source answers its (k * batch)-th arrival, whatever
  // the arrival order, so its index k names it independently of timing.
  if (!s.credit_queue.empty()) {
    const topo::Rank src = s.credit_queue.front();
    s.credit_queue.pop_front();
    const auto lin = static_cast<std::size_t>(
        schedule_.torus.coord_of(src)[schedule_.stream.relay_axis]);
    const PhaseSpec& phase = schedule_.phases[schedule_.stream.relayed_phase];
    out.dst = src;
    out.tag = make_tag(kCredit, node, src,
                       static_cast<std::uint32_t>(schedule_.credits.batch));
    out.payload_bytes = 0;
    out.wire_chunks = 1;
    out.mode = net::RoutingMode::kAdaptive;
    out.fifo = pick_fifo(s, phase.fifo_class, 0, 0);
    out.extra_cpu_cycles = schedule_.credits.credit_cpu_cycles;
    out.index = s.credits_sent[lin]++;
    credit_packets_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  // 2) Relayed traffic waiting to be re-injected toward its destination.
  if (!s.forwards.empty()) {
    const Forward f = s.forwards.front();
    s.forwards.pop_front();
    const PhaseSpec& phase = schedule_.phases[schedule_.stream.final_phase];
    out.dst = f.final_dst;
    out.tag = make_tag(kFinal, f.orig_src, f.final_dst);
    out.payload_bytes = f.payload_bytes;
    out.wire_chunks = f.chunks;
    out.mode = phase.mode;
    out.fifo = pick_fifo(s, phase.fifo_class, 0, 0);
    out.extra_cpu_cycles = phase.forward_cpu_cycles;
    out.index = f.index;
    return true;
  }

  // 3) The node's own statically-scheduled stream.
  return schedule_.form == StreamForm::kOrdered ? emit_ordered(node, s, out)
                                                : emit_explicit(node, s, out);
}

bool ScheduleExecutor::emit_ordered(topo::Rank node, NodeState& s,
                                    net::InjectDesc& out) {
  if (s.done) return false;
  const OrderedStream& st = schedule_.stream;
  DestOrder& order = schedule_.orders[static_cast<std::size_t>(node)];

  int scanned = 0;
  while (true) {
    if (s.position >= order.positions()) {
      s.position = 0;
      s.burst_sent = 0;
      if (++s.round >= st.rounds) {
        s.done = true;
        return false;
      }
    }
    const topo::Rank dst = order.at(s.position);
    if (dst < 0) {  // affine-mode self slot
      ++s.position;
      continue;
    }

    topo::Rank wire_dst = dst;
    bool store_forward = false;
    std::uint8_t phase_index = st.final_phase;
    if (st.relay == RelayRule::kLinearAxis) {
      const topo::Rank inter = schedule_.relay_for(node, dst, faults_);
      if (inter < 0) {  // unreachable under the fault plan: skip the pair
        ++s.position;
        continue;
      }
      store_forward = (inter != node) && (inter != dst);

      if (store_forward && schedule_.credits.window > 0) {
        const auto lin = static_cast<std::size_t>(
            schedule_.torus.coord_of(inter)[st.relay_axis]);
        if (s.outstanding[lin] >= schedule_.credits.window) {
          // Blocked on credits: defer this destination if we can find another.
          if (order.swappable() && scanned < 64 &&
              s.position + 1 < order.positions()) {
            const std::uint32_t probe =
                s.position + 1 +
                static_cast<std::uint32_t>(scanned) %
                    (order.positions() - s.position - 1);
            order.swap(s.position, probe);
            ++scanned;
            continue;
          }
          return false;  // fully blocked; a credit delivery wakes us
        }
        s.outstanding[lin] += 1;
      }
      const bool relayed_leg = (inter != node);
      wire_dst = relayed_leg ? inter : dst;
      phase_index = relayed_leg ? st.relayed_phase : st.final_phase;
    } else if (faults_ != nullptr &&
               !faults_->pair_routable(node, dst,
                                       schedule_.phases[st.final_phase].mode)) {
      ++s.position;  // no live path will ever exist; skip the destination
      continue;
    }

    const PhaseSpec& phase = schedule_.phases[phase_index];
    const std::uint32_t pkt_index =
        s.round * static_cast<std::uint32_t>(st.burst) + s.burst_sent;
    if (pkt_index >= phase.packets.size()) {  // message shorter than burst*rounds
      ++s.position;
      s.burst_sent = 0;
      continue;
    }

    const rt::PacketSpec& spec = phase.packets[pkt_index];
    out.dst = wire_dst;
    out.tag = make_tag(store_forward ? kStoreForward : kFinal, node, dst);
    out.payload_bytes = spec.payload_bytes;
    out.wire_chunks = spec.wire_chunks;
    out.mode = phase.mode;
    out.fifo = pick_fifo(s, phase.fifo_class, 0, 0);
    out.index = pkt_index;

    double extra =
        phase.per_packet_cycles + phase.pace_extra_per_chunk * spec.wire_chunks;
    if (pkt_index == 0) extra += phase.first_packet_extra_cycles;
    out.extra_cpu_cycles = static_cast<std::uint32_t>(std::lround(extra));

    if (++s.burst_sent >= static_cast<std::uint32_t>(st.burst) ||
        pkt_index + 1 >= phase.packets.size()) {
      s.burst_sent = 0;
      ++s.position;
    }
    return true;
  }
}

bool ScheduleExecutor::emit_explicit(topo::Rank node, NodeState& s,
                                     net::InjectDesc& out) {
  if (s.done) return false;
  const std::uint32_t end = schedule_.op_begin[static_cast<std::size_t>(node) + 1];
  if (s.op >= end) {
    s.done = true;
    return false;
  }
  const SendOp& op = schedule_.ops[s.op];
  if (const std::int32_t gate = barrier_of_phase_[op.phase];
      gate >= 0 && !s.barrier_open[static_cast<std::size_t>(gate)]) {
    return false;  // the barrier timer will wake us
  }
  const PhaseSpec& phase = schedule_.phases[op.phase];
  const std::vector<rt::PacketSpec>& message = op_message(s.op);
  const rt::PacketSpec& spec = message[s.pkt];
  out.dst = op.dst;
  out.tag = make_combined_tag(s.op);
  out.payload_bytes = spec.payload_bytes;
  out.wire_chunks = spec.wire_chunks;
  out.mode = phase.mode;
  out.fifo = pick_fifo(s, phase.fifo_class, op.peer_index, s.pkt);
  out.index = s.pkt;

  double extra =
      phase.per_packet_cycles + phase.pace_extra_per_chunk * spec.wire_chunks;
  if (s.pkt == 0) extra += phase.first_packet_extra_cycles;
  out.extra_cpu_cycles = static_cast<std::uint32_t>(std::lround(extra));

  if (++s.pkt >= message.size()) {
    s.pkt = 0;
    ++s.op;
  }
  return true;
}

void ScheduleExecutor::on_delivery(topo::Rank node, const net::Packet& packet) {
  const auto kind = static_cast<Kind>(packet.tag >> 62);
  NodeState& s = nodes_[static_cast<std::size_t>(node)];
  // A packet that fails the end-to-end checksum crossed a Byzantine link and
  // nothing in it can be trusted: it is rejected before any state changes,
  // so its bytes stay owed to the repair epochs.
  if (checksums_ && packet.checksum != packet_checksum(packet.src, packet.dst, packet.tag,
                                                       packet.payload_bytes, packet.index)) {
    ++s.corrupt_rejected;
    return;
  }

  switch (kind) {
    case kFinal: {
      const auto orig_src = static_cast<topo::Rank>((packet.tag >> 24) & 0xffffffU);
      note_final_delivery();
      if (matrix_ != nullptr) matrix_->record(orig_src, node, packet.payload_bytes);
      return;
    }
    case kStoreForward: {
      const auto orig_src = static_cast<topo::Rank>((packet.tag >> 24) & 0xffffffU);
      const auto final_dst = static_cast<topo::Rank>(packet.tag & 0xffffffU);
      assert(final_dst != node);
      s.forwards.push_back(
          Forward{final_dst, orig_src, packet.payload_bytes, packet.chunks, packet.index});
      const std::size_t backlog = s.forwards.size();
      std::size_t seen = max_forward_backlog_.load(std::memory_order_relaxed);
      while (seen < backlog && !max_forward_backlog_.compare_exchange_weak(
                                   seen, backlog, std::memory_order_relaxed)) {
      }
      if (schedule_.credits.window > 0) {
        const auto lin = static_cast<std::size_t>(
            schedule_.torus.coord_of(orig_src)[schedule_.stream.relay_axis]);
        if (++s.to_credit[lin] >= schedule_.credits.batch) {
          s.to_credit[lin] -= schedule_.credits.batch;
          s.credit_queue.push_back(orig_src);
        }
      }
      fabric_->wake_cpu(node);
      return;
    }
    case kCredit: {
      const auto lin = static_cast<std::size_t>(
          schedule_.torus.coord_of(packet.src)[schedule_.stream.relay_axis]);
      const auto released = static_cast<std::int32_t>((packet.tag >> 48) & 0x3fffU);
      s.outstanding[lin] -= released;
      fabric_->wake_cpu(node);
      return;
    }
    case kCombined: {
      const auto op_index = static_cast<std::uint32_t>(packet.tag & 0xffffffffU);
      const SendOp& op = schedule_.ops[op_index];
      note_final_delivery();
      if (matrix_ != nullptr) {
        // Seeded on the message's first packet; an op's deliveries all land
        // at its one destination, so the cell is never shared across slabs.
        std::uint32_t& left = combined_remaining_[op_index];
        if (left == 0) {
          left = static_cast<std::uint32_t>(op_message(op_index).size());
        }
        assert(left > 0);
        if (--left == 0) {
          const std::uint64_t bytes =
              op.payload_bytes != 0 ? op.payload_bytes : schedule_.msg_bytes;
          std::vector<topo::Rank> finalize;
          schedule_.finalize_list(op, packet.src, finalize);
          for (const topo::Rank orig : finalize) {
            matrix_->record(orig, node, bytes);
          }
        }
      }
      if (const std::size_t next = static_cast<std::size_t>(op.phase) + 1;
          next < barrier_of_phase_.size() && barrier_of_phase_[next] >= 0) {
        const auto g = static_cast<std::size_t>(barrier_of_phase_[next]);
        assert(s.barrier_left[g] > 0);
        if (--s.barrier_left[g] == 0) {
          fabric_->schedule_timer(
              node,
              schedule_.barriers[g].compute_cycles[static_cast<std::size_t>(node)],
              /*cookie=*/g + 1);
        }
      }
      return;
    }
  }
  assert(false && "bad schedule-executor tag");
}

void ScheduleExecutor::on_timer(topo::Rank node, std::uint64_t cookie) {
  assert(cookie >= 1 && cookie <= schedule_.barriers.size());
  const auto g = static_cast<std::size_t>(cookie - 1);
  NodeState& s = nodes_[static_cast<std::size_t>(node)];
  s.barrier_open[g] = 1;
  fabric_->wake_cpu(node);
}

std::uint64_t ScheduleExecutor::corrupt_rejected() const {
  std::uint64_t total = 0;
  for (const NodeState& s : nodes_) total += s.corrupt_rejected;
  return total;
}

void ScheduleExecutor::mark_reachable(PairMask& mask) const {
  if ((faults_ == nullptr || !faults_->enabled()) && schedule_.covered.nodes() == 0) {
    return;
  }
  for (topo::Rank s = 0; s < mask.nodes(); ++s) {
    for (topo::Rank d = 0; d < mask.nodes(); ++d) {
      if (s != d && !schedule_.pair_covered(s, d, faults_)) {
        mask.set_unreachable(s, d);
      }
    }
  }
}

void ScheduleExecutor::collect_stranded(const net::FaultPlan& plan,
                                        std::vector<StrandedRelay>& out) const {
  if (!plan.enabled() || plan.dead_node_count() == 0) return;
  std::vector<topo::Rank> origs;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    const auto rank = static_cast<topo::Rank>(n);
    if (plan.node_alive(rank)) continue;
    const NodeState& s = nodes_[n];
    // Ordered relaying: custody sits in the dead node's forward queue.
    for (const Forward& f : s.forwards) {
      out.push_back(StrandedRelay{f.orig_src, f.final_dst, f.payload_bytes});
    }
    if (schedule_.form != StreamForm::kExplicit) continue;
    // Explicit combining: custody is implicit in the dead node's unsent ops.
    // Only ops whose barrier opened are counted — the barrier certifies the
    // previous stage's blocks had all arrived, so the node really held them.
    // Earlier or ungated phases carry the node's own data, not custody.
    for (std::uint32_t i = std::max(s.op, schedule_.op_begin[n]);
         i < schedule_.op_begin[n + 1]; ++i) {
      const SendOp& op = schedule_.ops[i];
      const std::int32_t gate = barrier_of_phase_[op.phase];
      if (gate < 0 || !s.barrier_open[static_cast<std::size_t>(gate)]) continue;
      const std::uint64_t bytes =
          op.payload_bytes != 0 ? op.payload_bytes : schedule_.msg_bytes;
      schedule_.finalize_list(op, rank, origs);
      for (const topo::Rank orig : origs) {
        if (orig != rank) out.push_back(StrandedRelay{orig, op.dst, bytes});
      }
    }
  }
}

std::uint64_t ScheduleExecutor::stranded_relay_bytes(const net::FaultPlan& plan) const {
  std::vector<StrandedRelay> records;
  collect_stranded(plan, records);
  std::uint64_t bytes = 0;
  for (const StrandedRelay& r : records) bytes += r.payload_bytes;
  return bytes;
}

}  // namespace bgl::coll
