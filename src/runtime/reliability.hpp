// End-to-end reliability for degraded networks.
//
// ReliableClient wraps a strategy's fabric client and adds, per ordered
// (injector, destination) pair:
//   - sequence numbers stamped into the packet's 8 B proto header,
//   - receiver-side duplicate suppression (cumulative counter + a bitmap of
//     the sequences received above it),
//   - acknowledgements: every data packet piggybacks the current cumulative
//     ack + a 32-bit SACK bitmap for its reverse flow; when no reverse
//     traffic appears within an ack delay, a standalone 1-chunk ack packet
//     is sent,
//   - retransmission from a per-node scan timer with exponential backoff
//     (rto << tries, capped) and a bounded retry budget; abandoned packets
//     are counted and their pairs reported.
//
// The wrapper is only interposed when fault injection is enabled
// (see coll::run_alltoall), so fault-free runs pay zero extra packets and
// remain bit-identical. Indirect strategies (TPS, VMesh) are covered per
// leg: each injection, including a forward from an intermediate, is its own
// reliable flow, so a lost packet is retried by the node that injected it.
//
// Timer cookies claim the bit-63 namespace; anything else is forwarded to
// the inner client (VMesh's phase gate uses cookie 1).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/network/fabric.hpp"
#include "src/network/packet_ring.hpp"

namespace bgl::rt {

using net::Rank;
using net::Tick;

struct ReliabilityStats {
  std::uint64_t data_sequenced = 0;      // data packets given a sequence number
  std::uint64_t retransmits = 0;         // re-emissions of unacked packets
  std::uint64_t gave_up = 0;             // packets abandoned after the budget
  std::uint64_t acks_standalone = 0;     // dedicated ack packets injected
  std::uint64_t acks_piggybacked = 0;    // pending acks carried by data
  std::uint64_t duplicates_dropped = 0;  // retransmit copies suppressed
  /// Deliveries rejected by the end-to-end payload checksum (Byzantine
  /// links, FaultConfig::corrupt_prob). Every corruption the fabric injects
  /// must land here — corrupt_rejected == FaultStats::corrupted_payloads on
  /// a drained run, or silent garbage reached the application.
  std::uint64_t corrupt_rejected = 0;
};

class ReliableClient final : public net::Client {
 public:
  /// `inner` must outlive this wrapper. Reliability knobs come from
  /// `config.faults` (retrans_timeout, max_retries).
  ReliableClient(const net::NetworkConfig& config, net::Client& inner);

  /// Call once, after the Fabric is constructed with *this* as its client.
  void attach(net::Fabric& fabric) { fabric_ = &fabric; }

  bool next_packet(Rank node, net::InjectDesc& out) override;
  void on_delivery(Rank node, const net::Packet& packet) override;
  void on_timer(Rank node, std::uint64_t cookie) override;

  /// Aggregated across nodes. All mutable protocol state is sharded per
  /// node (a node's handlers run on exactly one slab of a parallel run), so
  /// the accessors sum the shards instead of returning a shared counter.
  ReliabilityStats stats() const noexcept {
    ReliabilityStats total;
    for (const NodeState& state : nodes_) {
      const ReliabilityStats& s = state.stats;
      total.data_sequenced += s.data_sequenced;
      total.retransmits += s.retransmits;
      total.gave_up += s.gave_up;
      total.acks_standalone += s.acks_standalone;
      total.acks_piggybacked += s.acks_piggybacked;
      total.duplicates_dropped += s.duplicates_dropped;
      total.corrupt_rejected += s.corrupt_rejected;
    }
    return total;
  }

  /// Ordered (injector, destination) pairs with at least one abandoned
  /// packet, each listed once; data for these pairs is incomplete despite
  /// being routable. Ordered by injector rank, then by the time the pair's
  /// first packet was abandoned.
  std::vector<std::pair<Rank, Rank>> abandoned_pairs() const {
    std::vector<std::pair<Rank, Rank>> out;
    for (Rank n = 0; n < static_cast<Rank>(nodes_.size()); ++n) {
      for (const Rank peer : nodes_[static_cast<std::size_t>(n)].abandoned) {
        out.emplace_back(n, peer);
      }
    }
    return out;
  }

 private:
  // Timer cookie namespace: bit 63 marks ours, bit 62 selects ack flush
  // (low 32 bits = sender being acked) vs the per-node retransmit scan.
  static constexpr std::uint64_t kCookieFlag = std::uint64_t{1} << 63;
  static constexpr std::uint64_t kAckFlushBit = std::uint64_t{1} << 62;

  struct Pending {
    net::InjectDesc desc{};  // re-emittable copy, sequence number included
    Tick sent_at = 0;
    int tries = 0;  // sends so far; 0 marks a free (acked or abandoned) slot
  };

  /// A sender's unacked packets: sequences [base, end) in a power-of-two
  /// block of the node's slot arena, indexed by seq & (capacity - 1). Slots
  /// acked out of order (SACK) are holes with tries == 0; `base` is advanced
  /// past leading holes, so it is either the oldest unacked sequence or
  /// `end`.
  struct Window {
    std::uint32_t base = 0;
    std::uint32_t end = 0;       // next sequence the flow will assign
    std::uint32_t live = 0;      // unacked packets in [base, end)
    std::uint32_t offset = 0;    // first slot of its block in NodeState::slots
    std::uint32_t capacity = 0;  // block size, a power of two (0 = no block)
  };

  /// Both directions of one (node, peer) pair. A node's table is dense over
  /// all peers, so an entry is kept to 16 bytes: windows and out-of-order
  /// bitmaps live in the node's pools and are referenced by 1-based index
  /// (0 = none), and an idle flow owns neither.
  struct Flow {
    std::uint32_t next_seq = 0;  // sender: last sequence assigned
    std::uint32_t window = 0;    // sender: 1 + index into NodeState::windows
    std::uint32_t cum = 0;       // receiver: all of 1..cum delivered to the app
    /// Receiver: 1 + index into NodeState::bitmaps, whose bit i is set when
    /// sequence cum + 1 + i arrived; its low 32 bits are the wire SACK.
    std::uint32_t ooo : 28 = 0;
    std::uint32_t ack_pending : 1 = 0;
    std::uint32_t flush_scheduled : 1 = 0;
    std::uint32_t abandoned : 1 = 0;  // sender: pair already reported
    std::uint32_t listed : 1 = 0;     // sender: peer is in NodeState::active
  };
  static_assert(sizeof(Flow) == 16);

  struct NodeState {
    std::vector<Flow> flows;  // indexed by peer; empty until first used
    std::vector<Window> windows;
    std::vector<std::uint32_t> free_windows;
    /// Arena holding every window's block; a block a window outgrew waits
    /// in free_blocks[log2(capacity)]. Every slot outside a window's live
    /// range has tries == 0, so a recycled block is ready to use.
    std::vector<Pending> slots;
    std::vector<std::vector<std::uint32_t>> free_blocks;
    std::vector<std::vector<std::uint64_t>> bitmaps;
    std::vector<std::uint32_t> free_bitmaps;
    /// Peers whose flow has had unacked data since the last scan; a flow
    /// whose window empties stays listed until the scan drops it. The scan
    /// sorts the list and walks it in ascending peer order, then each
    /// window in ascending sequence order — the order that makes every
    /// retransmission decision deterministic.
    std::vector<Rank> active;
    bool active_unsorted = false;
    net::RingQueue<net::InjectDesc> ready;  // acks + retransmits
    std::uint32_t unacked = 0;
    bool scan_armed = false;
    ReliabilityStats stats;
    std::vector<Rank> abandoned;  // peers, in first-abandonment order

    Pending& slot(const Window& window, std::uint32_t seq) noexcept {
      return slots[window.offset + (seq & (window.capacity - 1))];
    }
    /// Appends sequence window.end, moving the window to a block twice the
    /// size when it is full.
    void push(Window& window, const Pending& pending);
    /// Frees the slot of `seq` if it holds an unacked packet; true if it did.
    bool release(Window& window, std::uint32_t seq) noexcept;
    void trim(Window& window) noexcept;
  };

  bool routable(Rank from, Rank to, net::RoutingMode mode) const;
  Flow& flow(NodeState& state, Rank peer);
  Window& open_window(NodeState& state, Flow& flow, Rank peer);
  /// Returns an empty window to the node's pool (it keeps its block).
  static void close_window(NodeState& state, Flow& flow);
  /// Records an in-order-or-later receipt of `seq` on the receiver side.
  void accept(NodeState& state, Flow& flow, std::uint32_t seq);
  static bool received_above_cum(const NodeState& state, const Flow& flow,
                                 std::uint32_t seq) noexcept;
  void arm_scan(Rank node);
  void scan(Rank node);
  void ack_flush(Rank node, Rank sender);
  void schedule_ack(Rank node, Rank sender, Flow& flow);
  void process_ack(NodeState& state, Rank peer, std::uint32_t cum, std::uint32_t bits);
  /// Stamps the current receiver state for flow (desc.dst -> node) into the
  /// outgoing descriptor's ack fields.
  void refresh_ack(NodeState& state, net::InjectDesc& desc);

  net::Client* inner_;
  net::Fabric* fabric_ = nullptr;
  Tick rto_;
  Tick ack_delay_;
  Tick scan_period_;
  int max_retries_;

  // One entry per node; only the slab owning a node touches its entry.
  std::vector<NodeState> nodes_;
};

}  // namespace bgl::rt
