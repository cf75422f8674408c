// Communication-schedule IR: one declarative description of a collective,
// interpreted against the fabric by a single ScheduleExecutor.
//
// A CommSchedule captures what used to live in bespoke per-strategy fabric
// clients: the phase structure (pipelined vs. barrier-gated), the wire
// shape of each message, the injection-FIFO class discipline, CPU cost
// parameters, relay rules and credit flow control. Strategies become pure
// *schedule builders* — functions of (config, msg_bytes, tuning, fault plan)
// — and the executor handles packetization cursors, store-and-forward
// relaying, barrier gating and fault-plan filtering in one place. The IR is
// also statically analyzable: schedule_lint.hpp checks pair coverage, FIFO
// budgets, barrier tables and relay liveness without running a simulation,
// and the same transfer enumeration drives the CSV/JSON dumps.
//
// Two stream forms keep the IR compact at scale:
//  - kOrdered: per-node generative streams (a DestOrder walked in rounds of
//    `burst` packets, with an optional relay rule). This covers the direct
//    family and TPS without materializing O(P^2) transfer records, so the
//    20,480-node paper partitions still build in O(P). A DestOrder may also
//    be an explicit per-node list, which is how many-to-many patterns run
//    (build_pattern_schedule in many_to_many.hpp).
//  - kExplicit: per-node op lists (vmesh's combined messages, hand-built
//    schedules). Each op is one wire message with an optional finalize list
//    naming the original sources whose blocks it carries.
//
// Logical transfers (src, dst, relay chain, bytes, FIFO class) are
// *enumerated on demand* from either form via for_each_transfer — the
// lint/dump view of the schedule — rather than stored.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/coll/dest_order.hpp"
#include "src/coll/verify.hpp"
#include "src/network/config.hpp"
#include "src/network/fabric.hpp"
#include "src/network/faults.hpp"
#include "src/runtime/packetizer.hpp"
#include "src/topology/torus.hpp"

namespace bgl::coll {

/// How a FIFO class picks the injection FIFO for a packet.
enum class FifoPolicy : std::uint8_t {
  kRoundRobin,   // per-node per-class rotating counter (direct family, TPS)
  kPositional,   // (peer_index + packet_index) % count (vmesh)
};

/// A contiguous group of injection FIFOs with a selection policy. Classes
/// may alias the full FIFO range (separate rotation counters, shared
/// hardware) or reserve disjoint sub-ranges (TPS's per-phase groups).
struct FifoClass {
  int begin = 0;
  int count = 0;  // 0 = all injection FIFOs
  FifoPolicy policy = FifoPolicy::kRoundRobin;
  /// Reserved classes claim exclusive FIFOs: the linter checks that all
  /// reserved classes are pairwise disjoint and fit the hardware budget.
  bool reserved = false;

  int resolved_count(int injection_fifos) const {
    return count > 0 ? count : injection_fifos;
  }
};

/// Whether a phase's sends may start immediately (pipelined with earlier
/// phases) or only after the node's previous-phase receives complete plus a
/// local compute delay (vmesh's re-sort barrier).
enum class PhaseGate : std::uint8_t { kPipelined, kLocalBarrier };

struct PhaseSpec {
  PhaseGate gate = PhaseGate::kPipelined;
  net::RoutingMode mode = net::RoutingMode::kAdaptive;
  std::uint8_t fifo_class = 0;
  /// Wire shape of one message in this phase (never empty).
  std::vector<rt::PacketSpec> packets;
  /// CPU cost model, charged via InjectDesc::extra_cpu_cycles:
  ///   lround(per_packet + pace_extra * chunks [+ first_packet_extra on the
  ///   message's packet 0]).
  double first_packet_extra_cycles = 0.0;
  double per_packet_cycles = 0.0;
  double pace_extra_per_chunk = 0.0;
  /// Software cost of re-injecting a relayed packet that lands in this phase.
  std::uint32_t forward_cpu_cycles = 0;
  /// Wire format used to packetize per-op payload overrides
  /// (SendOp::payload_bytes != 0) landing in this phase; irrelevant for ops
  /// that use the phase's `packets` shape.
  rt::WireFormat override_format = rt::WireFormat::direct();
};

enum class StreamForm : std::uint8_t { kOrdered, kExplicit };

/// Relay rule for ordered streams.
enum class RelayRule : std::uint8_t {
  kNone,        // direct: every stream packet goes straight to its pair dst
  kLinearAxis,  // TPS: via the node on src's relay-axis line at dst's
                // coordinate (re-picked along the line under faults)
};

/// Generative per-node stream: walk the node's DestOrder in `rounds` rounds
/// of `burst` packets per destination (the direct family's schedule), with
/// an optional relay rule routing each message through an intermediate.
struct OrderedStream {
  std::uint32_t rounds = 1;
  int burst = 1;
  RelayRule relay = RelayRule::kNone;
  int relay_axis = 0;
  /// Phase of legs that terminate at a relay / at the final destination.
  std::uint8_t relayed_phase = 0;
  std::uint8_t final_phase = 0;
};

/// One statically-scheduled wire message from a node (kExplicit form).
struct SendOp {
  topo::Rank dst = -1;
  std::uint8_t phase = 0;
  std::uint8_t flags = 0;
  /// Index of this op within its node's ops *of the same phase* (input to
  /// the positional FIFO policy).
  std::uint16_t peer_index = 0;
  /// Original sources whose blocks this combined message carries: a span of
  /// CommSchedule::finalize_pool, recorded into the delivery matrix when the
  /// message's last packet arrives. kFinalizeSelf means the single-entry
  /// list {sending node} without pool storage.
  std::int32_t finalize_begin = -1;
  std::int32_t finalize_count = 0;
  /// Per-op payload override, in bytes: 0 (the default) means the op carries
  /// the schedule's full msg_bytes and uses its phase's message shape.
  /// Nonzero ops are re-packetized with the phase's override_format — repair
  /// schedules use this to top up partially-delivered pairs with exactly the
  /// missing bytes, never duplicating data that already arrived. Such an op
  /// finalizes one origin, or none when it only carries the bytes to a relay.
  std::uint32_t payload_bytes = 0;

  static constexpr std::uint8_t kFinalizeSelf = 1;
};

/// One local-barrier gate of an explicit-form schedule. Ops of phase `phase`
/// wait until all of the node's expected packets of phase `phase - 1` have
/// arrived plus a local compute delay (vmesh's gamma-cost re-sort copy).
/// A schedule may carry several barriers — multi-stage combining schemes gate
/// each stage on the previous one — listed in strictly increasing phase
/// order, each matching a PhaseGate::kLocalBarrier phase.
struct BarrierSpec {
  int phase = -1;
  /// Per node: packets of phase `phase - 1` that must arrive before the
  /// barrier compute starts (0 = gate open immediately).
  std::vector<std::uint64_t> expected;
  /// Per node: local compute cycles between the last gated arrival and the
  /// barrier phase opening.
  std::vector<net::Tick> compute_cycles;
};

/// Credit-based flow control for relayed ordered streams (TPS, paper §5):
/// at most `window` un-credited packets per (source, relay-line coordinate);
/// relays return one credit packet per `batch` forwards.
struct CreditSpec {
  int window = 0;  // 0 = off
  int batch = 10;
  std::uint32_t credit_cpu_cycles = 50;
};

/// A logical transfer: one message-worth of application data for an ordered
/// (src, dst) pair, with the relay chain it travels through. Enumerated on
/// demand by CommSchedule::for_each_transfer — never stored.
struct Transfer {
  std::int64_t id = 0;
  topo::Rank src = -1;
  topo::Rank dst = -1;
  /// Store-and-forward intermediates, in travel order (empty = direct).
  std::array<topo::Rank, 2> relays{-1, -1};
  int relay_count = 0;
  std::uint64_t bytes = 0;
  /// Phase of the *final* leg (the delivery that completes the pair).
  std::uint8_t phase = 0;
  std::uint8_t fifo_class = 0;
};

struct CommSchedule {
  topo::Shape shape{};
  topo::Torus torus{};
  std::uint64_t msg_bytes = 0;
  int injection_fifos = 8;
  StreamForm form = StreamForm::kOrdered;

  std::vector<PhaseSpec> phases;
  std::vector<FifoClass> fifo_classes;

  // --- kOrdered ---
  OrderedStream stream{};
  std::vector<DestOrder> orders;  // one per node

  // --- kExplicit ---
  std::vector<SendOp> ops;              // grouped by node, phase-major
  std::vector<std::uint32_t> op_begin;  // nodes + 1 offsets into `ops`
  std::vector<topo::Rank> finalize_pool;

  /// The pairs this schedule carries, in either form (empty = every
  /// off-diagonal pair): a many-to-many pattern, a repair epoch's residual,
  /// or the pairs an explicit builder still serves under its fault plan.
  /// pair_covered checks it before any fault rule, and the linter
  /// cross-checks the claim against the enumerated transfers.
  PairMask covered;

  // --- barrier gating (explicit form; one BarrierSpec per kLocalBarrier
  // phase, sorted by phase) ---
  std::vector<BarrierSpec> barriers;

  CreditSpec credits{};

  std::int32_t nodes() const { return static_cast<std::int32_t>(shape.nodes()); }

  /// The relay an ordered stream routes (src -> dst) through: src itself for
  /// a direct send, or -1 when no live relay exists under `faults`.
  /// Deterministic, so coverage, lint and execution agree.
  topo::Rank relay_for(topo::Rank src, topo::Rank dst,
                       const net::FaultPlan* faults) const;

  /// Whether this schedule carries (src, dst) under `faults`: the pair is in
  /// `covered` and, under faults, the form's relay or path rule serves it.
  bool pair_covered(topo::Rank src, topo::Rank dst,
                    const net::FaultPlan* faults) const;

  /// Enumerates every logical transfer in deterministic id order (lint and
  /// dump view; O(P * positions) for ordered streams — do not call on the
  /// 20k-node shapes in a hot path). `fn` is called as fn(const Transfer&).
  template <typename Fn>
  void for_each_transfer(const net::FaultPlan* faults, Fn&& fn) const;

  /// Total enumerated transfers (same walk as for_each_transfer).
  std::int64_t transfer_count(const net::FaultPlan* faults) const;

  /// CSV dump of the transfer table (header + one row per transfer).
  std::string to_csv(const net::FaultPlan* faults) const;
  /// JSON dump: schedule summary + transfer array.
  std::string to_json(const net::FaultPlan* faults) const;

  /// The finalize list of `op` (handles kFinalizeSelf), written into `out`.
  void finalize_list(const SendOp& op, topo::Rank op_src,
                     std::vector<topo::Rank>& out) const;

 private:
  bool leg_ok(topo::Rank from, topo::Rank to, const net::FaultPlan* faults) const;
};

/// One unit of relay custody stranded at a fail-stopped node: payload a dead
/// custodian accepted for (orig_src -> final_dst) and can never re-inject.
/// The recovery layer re-sources these pairs from their original senders in
/// a repair epoch (see src/coll/recovery.hpp).
struct StrandedRelay {
  topo::Rank orig_src = -1;
  topo::Rank final_dst = -1;
  std::uint64_t payload_bytes = 0;
};

/// Interprets any CommSchedule against the fabric: per-node stream cursors,
/// FIFO-class rotation, store-and-forward relaying with credit flow control,
/// barrier gating with the local compute timer, delivery recording and
/// IR-derived reachability. The only fabric client of the collectives. Under
/// faults it numbers and checksums every packet it emits and rejects every
/// delivery whose checksum fails; lost and rejected packets are not re-sent
/// here but by the repair epochs of src/coll/recovery.hpp.
class ScheduleExecutor : public net::Client {
 public:
  ScheduleExecutor(const net::NetworkConfig& config, CommSchedule schedule,
                   DeliveryMatrix* matrix, const net::FaultPlan* faults = nullptr);

  void bind(net::Fabric& fabric) { fabric_ = &fabric; }

  bool next_packet(topo::Rank node, net::InjectDesc& out) override;
  void on_delivery(topo::Rank node, const net::Packet& packet) override;
  void on_timer(topo::Rank node, std::uint64_t cookie) override;

  /// Completion time of the collective: the last delivery of *final*
  /// application data (excludes e.g. credit packets).
  net::Tick completion_cycles() const { return completion_.load(std::memory_order_relaxed); }

  /// Clears `mask` bits for pairs the schedule does not carry
  /// (CommSchedule::pair_covered under the executor's fault plan). No-op on
  /// a fault-free schedule that carries every pair.
  void mark_reachable(PairMask& mask) const;

  /// Relay payload parked in the forward queues of nodes `plan` marks
  /// fail-stopped: accepted into custody, never re-injectable (see
  /// FaultStats::stranded_relay_bytes). For explicit-form schedules the
  /// custody lives in a dead node's unsent combining ops instead of a
  /// forward queue; an op counts once its phase's barrier opened (the stage
  /// inputs had all arrived), a deliberate lower bound — partially-arrived
  /// stage inputs are not itemizable per origin.
  std::uint64_t stranded_relay_bytes(const net::FaultPlan& plan) const;

  /// Itemizes the same custody, one record per stranded (orig_src,
  /// final_dst) unit, appended to `out` in deterministic order. The
  /// epoch-recovery layer uses the records to decide which pairs a repair
  /// schedule must re-source and to account what stays stranded when a pair
  /// is unrecoverable.
  void collect_stranded(const net::FaultPlan& plan,
                        std::vector<StrandedRelay>& out) const;

  /// Deliveries rejected by the end-to-end checksum (0 on a healthy run).
  std::uint64_t corrupt_rejected() const;

  const CommSchedule& schedule() const { return schedule_; }
  std::uint64_t credit_packets_sent() const {
    return credit_packets_.load(std::memory_order_relaxed);
  }
  std::size_t max_forward_backlog() const {
    return max_forward_backlog_.load(std::memory_order_relaxed);
  }

 private:
  // Tag layout (opaque to the fabric; executor-private):
  //   [63:62] kind; kFinal/kStoreForward/kCredit: [61:48] aux,
  //   [47:24] original source, [23:0] final destination;
  //   kCombined: [31:0] op index into schedule_.ops.
  enum Kind : std::uint64_t { kFinal = 0, kStoreForward = 1, kCredit = 2, kCombined = 3 };
  static std::uint64_t make_tag(Kind kind, topo::Rank orig_src, topo::Rank final_dst,
                                std::uint32_t aux = 0);
  static std::uint64_t make_combined_tag(std::uint32_t op_index);

  struct Forward {
    topo::Rank final_dst;
    topo::Rank orig_src;
    std::uint32_t payload_bytes;
    std::uint16_t chunks;
    std::uint32_t index;  // the relayed packet's Packet::index
  };

  struct NodeState {
    // Ordered-stream cursor.
    std::uint32_t position = 0;
    std::uint32_t round = 0;
    std::uint32_t burst_sent = 0;
    // Explicit-stream cursor.
    std::uint32_t op = 0;   // absolute index into schedule_.ops
    std::uint32_t pkt = 0;  // packet within the current op's message
    bool done = false;
    // Barrier gates, one slot per CommSchedule::barriers entry.
    std::vector<std::uint8_t> barrier_open;
    std::vector<std::uint64_t> barrier_left;
    // Relaying.
    std::deque<Forward> forwards;
    // Per-FIFO-class rotation counters (the uint8 wrap is part of the
    // behavior tests/golden/schedule_equivalence.txt pins).
    std::vector<std::uint8_t> fifo_rr;
    // Credit flow control, indexed by the peer's relay-axis coordinate,
    // which names the peer: a relay serves only sources on its own line.
    std::vector<std::int32_t> outstanding;
    std::vector<std::int32_t> to_credit;
    std::vector<std::uint32_t> credits_sent;  // Packet::index of the next credit
    std::deque<topo::Rank> credit_queue;
    std::uint64_t corrupt_rejected = 0;
  };

  std::uint8_t pick_fifo(NodeState& s, std::uint8_t fifo_class, std::uint32_t peer_index,
                         std::uint32_t pkt_index);
  bool emit(topo::Rank node, NodeState& s, net::InjectDesc& out);
  bool emit_ordered(topo::Rank node, NodeState& s, net::InjectDesc& out);
  bool emit_explicit(topo::Rank node, NodeState& s, net::InjectDesc& out);
  /// Wire message of op `op_index`: the phase's shape, or the op's private
  /// packetization when SendOp::payload_bytes overrides it.
  const std::vector<rt::PacketSpec>& op_message(std::uint32_t op_index) const;

  // Delivery bookkeeping is thread-safe: under a parallel run concurrent
  // slabs deliver concurrently. Relaxed ordering suffices (a monotone
  // maximum, only read after the run joins); on a single-threaded run the
  // value is bit-identical to a plain field.
  void note_final_delivery() {
    net::Tick at = fabric_->now();
    net::Tick seen = completion_.load(std::memory_order_relaxed);
    while (seen < at &&
           !completion_.compare_exchange_weak(seen, at, std::memory_order_relaxed)) {
    }
  }

  net::Fabric* fabric_ = nullptr;
  DeliveryMatrix* matrix_ = nullptr;
  const net::FaultPlan* faults_ = nullptr;  // owned by the caller; may be null
  bool checksums_ = false;  // faults enabled: stamp and check Packet::checksum
  std::atomic<net::Tick> completion_{0};
  net::NetworkConfig config_;
  CommSchedule schedule_;
  std::vector<NodeState> nodes_;
  /// Barrier index gating each phase (-1 = ungated), derived from
  /// schedule_.barriers; arrivals of phase p arm barrier_of_phase_[p + 1].
  std::vector<std::int32_t> barrier_of_phase_;
  /// Private packetizations of ops with a payload_bytes override, keyed by
  /// absolute op index (empty vector = no override, use the phase shape).
  std::vector<std::vector<rt::PacketSpec>> op_packets_;
  /// Packets still missing per in-flight combined message, indexed by op
  /// (0 = message not yet seen; seeded from the op's phase message shape on
  /// its first delivery). A dense vector rather than a map so concurrent
  /// slabs never touch shared map structure — each op's deliveries all land
  /// at its one destination node. Delivery-matrix bookkeeping only.
  std::vector<std::uint32_t> combined_remaining_;
  std::atomic<std::uint64_t> credit_packets_{0};
  std::atomic<std::size_t> max_forward_backlog_{0};
};

// --- inline transfer enumeration -------------------------------------------

template <typename Fn>
void CommSchedule::for_each_transfer(const net::FaultPlan* faults, Fn&& fn) const {
  std::int64_t id = 0;
  const std::int32_t node_count = nodes();
  if (form == StreamForm::kOrdered) {
    for (topo::Rank n = 0; n < node_count; ++n) {
      const DestOrder& order = orders[static_cast<std::size_t>(n)];
      for (std::uint32_t pos = 0; pos < order.positions(); ++pos) {
        const topo::Rank dst = order.at(pos);
        if (dst < 0) continue;
        Transfer t;
        t.src = n;
        t.dst = dst;
        t.bytes = msg_bytes;
        if (stream.relay == RelayRule::kLinearAxis) {
          const topo::Rank inter = relay_for(n, dst, faults);
          if (inter < 0) continue;  // pair skipped at the source
          if (inter != n && inter != dst) {
            t.relays[0] = inter;
            t.relay_count = 1;
          }
          t.phase = (inter != n) ? stream.relayed_phase : stream.final_phase;
          if (t.relay_count > 0) t.phase = stream.final_phase;
        } else {
          if (faults != nullptr &&
              !faults->pair_routable(n, dst,
                                     phases[stream.final_phase].mode)) {
            continue;
          }
          t.phase = stream.final_phase;
        }
        t.fifo_class = phases[t.phase].fifo_class;
        t.id = id++;
        fn(static_cast<const Transfer&>(t));
      }
    }
    return;
  }
  std::vector<topo::Rank> origs;
  for (topo::Rank n = 0; n < node_count; ++n) {
    for (std::uint32_t i = op_begin[static_cast<std::size_t>(n)];
         i < op_begin[static_cast<std::size_t>(n) + 1]; ++i) {
      const SendOp& op = ops[i];
      finalize_list(op, n, origs);
      for (const topo::Rank orig : origs) {
        Transfer t;
        t.src = orig;
        t.dst = op.dst;
        t.bytes = op.payload_bytes != 0 ? op.payload_bytes : msg_bytes;
        t.phase = op.phase;
        t.fifo_class = phases[op.phase].fifo_class;
        if (orig != n) {
          t.relays[0] = n;
          t.relay_count = 1;
        }
        t.id = id++;
        fn(static_cast<const Transfer&>(t));
      }
    }
  }
}

}  // namespace bgl::coll
