#include "src/runtime/reliability.hpp"

#include <algorithm>
#include <bit>

namespace bgl::rt {
namespace {

// End-to-end checksum over the packet identity the 8 B proto header commits
// to: who sent what to whom, under which sequence and ack state. The DES
// carries no payload bytes, so the checksum doubles as the payload's proxy —
// a Byzantine link "flips payload bits" by XORing this field in flight
// (fabric.cpp), and any nonzero XOR is detected by recomputation.
std::uint32_t header_checksum(std::uint32_t src, std::uint32_t dst,
                              std::uint64_t tag, std::uint32_t payload,
                              std::uint32_t seq, std::uint32_t ack_cum,
                              std::uint32_t ack_bits) {
  std::uint64_t h = 0x42474c6373756dULL;  // "BGLcsum"
  const auto mix = [&h](std::uint64_t v) {
    h += v;
    h *= 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
  };
  mix((std::uint64_t{src} << 32) | dst);
  mix(tag);
  mix((std::uint64_t{payload} << 32) | seq);
  mix((std::uint64_t{ack_cum} << 32) | ack_bits);
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

std::uint32_t stamp_checksum(net::Rank src, const net::InjectDesc& desc) {
  return header_checksum(static_cast<std::uint32_t>(src),
                         static_cast<std::uint32_t>(desc.dst), desc.tag,
                         desc.payload_bytes, desc.seq, desc.ack_cum,
                         desc.ack_bits);
}

std::uint32_t expected_checksum(const net::Packet& packet) {
  return header_checksum(static_cast<std::uint32_t>(packet.src),
                         static_cast<std::uint32_t>(packet.dst), packet.tag,
                         packet.payload_bytes, packet.seq, packet.ack_cum,
                         packet.ack_bits);
}

}  // namespace

ReliableClient::ReliableClient(const net::NetworkConfig& config, net::Client& inner)
    : inner_(&inner),
      rto_(config.faults.retrans_timeout),
      ack_delay_(std::max<Tick>(1, config.faults.retrans_timeout / 8)),
      scan_period_(std::max<Tick>(1, config.faults.retrans_timeout / 4)),
      max_retries_(config.faults.max_retries),
      nodes_(static_cast<std::size_t>(config.shape.nodes())) {}

// --- sender window ----------------------------------------------------------

void ReliableClient::NodeState::push(Window& window, const Pending& pending) {
  if (window.end - window.base == window.capacity) {
    const std::uint32_t capacity = std::max<std::uint32_t>(1, 2 * window.capacity);
    const auto size_class = static_cast<std::size_t>(std::countr_zero(capacity));
    if (free_blocks.size() <= size_class) free_blocks.resize(size_class + 1);
    std::uint32_t offset = 0;
    if (free_blocks[size_class].empty()) {
      offset = static_cast<std::uint32_t>(slots.size());
      slots.resize(slots.size() + capacity);
    } else {
      offset = free_blocks[size_class].back();
      free_blocks[size_class].pop_back();
    }
    for (std::uint32_t seq = window.base; seq != window.end; ++seq) {
      Pending& old = slot(window, seq);
      slots[offset + (seq & (capacity - 1))] = old;
      old.tries = 0;
    }
    if (window.capacity != 0) {
      free_blocks[static_cast<std::size_t>(std::countr_zero(window.capacity))].push_back(
          window.offset);
    }
    window.offset = offset;
    window.capacity = capacity;
  }
  slot(window, window.end) = pending;
  ++window.end;
  ++window.live;
}

bool ReliableClient::NodeState::release(Window& window, std::uint32_t seq) noexcept {
  if (seq < window.base || seq >= window.end) return false;
  Pending& pending = slot(window, seq);
  if (pending.tries == 0) return false;
  pending.tries = 0;
  --window.live;
  return true;
}

void ReliableClient::NodeState::trim(Window& window) noexcept {
  while (window.base != window.end && slot(window, window.base).tries == 0) ++window.base;
}

// --- per-node flow state ----------------------------------------------------

ReliableClient::Flow& ReliableClient::flow(NodeState& state, Rank peer) {
  if (state.flows.empty()) state.flows.resize(nodes_.size());
  return state.flows[static_cast<std::size_t>(peer)];
}

ReliableClient::Window& ReliableClient::open_window(NodeState& state, Flow& flow,
                                                    Rank peer) {
  if (flow.window == 0) {
    if (state.free_windows.empty()) {
      state.windows.emplace_back();
      flow.window = static_cast<std::uint32_t>(state.windows.size());
    } else {
      flow.window = state.free_windows.back() + 1;
      state.free_windows.pop_back();
    }
    Window& window = state.windows[flow.window - 1];
    window.base = window.end = flow.next_seq + 1;
  }
  if (!flow.listed) {
    flow.listed = 1;
    if (!state.active.empty() && peer < state.active.back()) state.active_unsorted = true;
    state.active.push_back(peer);
  }
  return state.windows[flow.window - 1];
}

void ReliableClient::close_window(NodeState& state, Flow& flow) {
  state.free_windows.push_back(flow.window - 1);
  flow.window = 0;
}

bool ReliableClient::received_above_cum(const NodeState& state, const Flow& flow,
                                        std::uint32_t seq) noexcept {
  if (flow.ooo == 0) return false;
  const std::vector<std::uint64_t>& words = state.bitmaps[flow.ooo - 1];
  const std::uint32_t bit = seq - flow.cum - 1;
  return bit / 64 < words.size() && ((words[bit / 64] >> (bit % 64)) & 1) != 0;
}

void ReliableClient::accept(NodeState& state, Flow& flow, std::uint32_t seq) {
  // In-order receipt with nothing buffered above it: the common case, and
  // the only one that needs no bitmap.
  if (flow.ooo == 0 && seq == flow.cum + 1) {
    flow.cum = seq;
    return;
  }
  if (flow.ooo == 0) {
    if (state.free_bitmaps.empty()) {
      state.bitmaps.emplace_back(1, 0);
      flow.ooo = static_cast<std::uint32_t>(state.bitmaps.size());
    } else {
      flow.ooo = state.free_bitmaps.back() + 1;
      state.free_bitmaps.pop_back();
    }
  }
  std::vector<std::uint64_t>& words = state.bitmaps[flow.ooo - 1];
  const std::uint32_t bit = seq - flow.cum - 1;
  if (bit / 64 >= words.size()) words.resize(bit / 64 + 1, 0);
  words[bit / 64] |= std::uint64_t{1} << (bit % 64);
  if (bit != 0) return;

  // The gap at cum + 1 closed: advance over the run of received sequences
  // and shift the bitmap down by the same amount.
  std::size_t shift = 0;
  while (shift / 64 < words.size() && words[shift / 64] == ~std::uint64_t{0}) shift += 64;
  if (shift / 64 < words.size()) {
    shift += static_cast<std::size_t>(std::countr_one(words[shift / 64]));
  }
  flow.cum += static_cast<std::uint32_t>(shift);
  const std::size_t word_shift = shift / 64;
  const unsigned bit_shift = static_cast<unsigned>(shift % 64);
  bool empty = true;
  for (std::size_t i = 0; i < words.size(); ++i) {
    const std::uint64_t lo = i + word_shift < words.size() ? words[i + word_shift] : 0;
    const std::uint64_t hi = i + word_shift + 1 < words.size() ? words[i + word_shift + 1] : 0;
    words[i] = bit_shift == 0 ? lo : (lo >> bit_shift) | (hi << (64 - bit_shift));
    empty = empty && words[i] == 0;
  }
  if (empty) {
    state.free_bitmaps.push_back(flow.ooo - 1);
    flow.ooo = 0;
  }
}

// --- client hooks -------------------------------------------------------------

bool ReliableClient::routable(Rank from, Rank to, net::RoutingMode mode) const {
  // Until a delayed permanent strike (fail_at > 0) actually lands, the
  // network is healthy and nobody may consult the plan's permanent state:
  // giving up on a pair the plan *will* sever would abandon traffic that is
  // deliverable right now. pair_routable_now encodes exactly that (and
  // answers through the executing slab's private memo).
  return fabric_->pair_routable_now(from, to, mode);
}

bool ReliableClient::next_packet(Rank node, net::InjectDesc& out) {
  NodeState& state = nodes_[static_cast<std::size_t>(node)];
  if (!state.ready.empty()) {
    out = state.ready.front();
    state.ready.pop_front();
    refresh_ack(state, out);
    out.checksum = stamp_checksum(node, out);  // ack fields just changed
    return true;
  }

  net::InjectDesc desc;
  if (!inner_->next_packet(node, desc)) return false;
  if (routable(node, desc.dst, desc.mode)) {
    Flow& f = flow(state, desc.dst);
    Window& window = open_window(state, f, desc.dst);
    desc.seq = ++f.next_seq;
    state.push(window, Pending{desc, fabric_->now(), 1});
    ++state.unacked;
    ++state.stats.data_sequenced;
    arm_scan(node);
  }
  // else: no live path exists; the fabric consumes the descriptor and counts
  // it unroutable, and tracking it would only retransmit into the void.
  refresh_ack(state, desc);
  desc.checksum = stamp_checksum(node, desc);
  out = desc;
  return true;
}

void ReliableClient::refresh_ack(NodeState& state, net::InjectDesc& desc) {
  if (state.flows.empty()) return;  // this node has received nothing yet
  Flow& f = state.flows[static_cast<std::size_t>(desc.dst)];
  desc.ack_cum = f.cum;
  desc.ack_bits =
      f.ooo == 0 ? 0u : static_cast<std::uint32_t>(state.bitmaps[f.ooo - 1][0]);
  if (f.ack_pending) {
    f.ack_pending = 0;
    ++state.stats.acks_piggybacked;
  }
}

void ReliableClient::schedule_ack(Rank node, Rank sender, Flow& f) {
  f.ack_pending = 1;
  if (f.flush_scheduled) return;
  f.flush_scheduled = 1;
  fabric_->schedule_timer(node, ack_delay_,
                          kCookieFlag | kAckFlushBit | static_cast<std::uint32_t>(sender));
}

void ReliableClient::on_delivery(Rank node, const net::Packet& packet) {
  NodeState& state = nodes_[static_cast<std::size_t>(node)];
  // Integrity first: a packet that fails the end-to-end checksum crossed a
  // Byzantine link, and nothing in it can be trusted — not the payload and
  // not the piggybacked acks. Reject it before any protocol state is
  // touched. Re-advertising the receiver state after the ack delay acts as
  // a NACK (the sender sees the gap and its scan retransmits with backoff);
  // a corrupted standalone ack is simply dropped and a later ack, or the
  // sender's own timeout, covers for it.
  if (packet.checksum != expected_checksum(packet)) {
    ++state.stats.corrupt_rejected;
    if (packet.seq != 0) schedule_ack(node, packet.src, flow(state, packet.src));
    return;
  }
  // Every packet — data, duplicate, or standalone ack — carries fresh ack
  // state for the reverse flow.
  process_ack(state, packet.src, packet.ack_cum, packet.ack_bits);
  if (packet.seq == 0) return;  // standalone ack: header only, no payload

  Flow& f = flow(state, packet.src);
  const std::uint32_t seq = packet.seq;
  if (seq <= f.cum || received_above_cum(state, f, seq)) {
    ++state.stats.duplicates_dropped;
  } else {
    accept(state, f, seq);
    inner_->on_delivery(node, packet);
  }
  // Ack (or re-ack — the previous ack may itself have been lost): piggyback
  // on the next reverse data packet, or flush standalone after the delay.
  schedule_ack(node, packet.src, f);
}

void ReliableClient::process_ack(NodeState& state, Rank peer, std::uint32_t cum,
                                 std::uint32_t bits) {
  if (state.flows.empty()) return;
  Flow& f = state.flows[static_cast<std::size_t>(peer)];
  if (f.window == 0) return;
  Window& window = state.windows[f.window - 1];
  std::uint32_t released = 0;
  // Cumulative part: everything up to cum (never past what was sent).
  const std::uint32_t stop = cum < window.end ? cum + 1 : window.end;
  for (std::uint32_t seq = window.base; seq < stop; ++seq) {
    if (state.release(window, seq)) ++released;
  }
  // Selective part: bit b acknowledges cum + 1 + b.
  for (; bits != 0; bits &= bits - 1) {
    const auto b = static_cast<std::uint32_t>(std::countr_zero(bits));
    if (state.release(window, cum + 1 + b)) ++released;
  }
  state.trim(window);
  state.unacked -= released;
  if (window.live == 0) close_window(state, f);
}

void ReliableClient::on_timer(Rank node, std::uint64_t cookie) {
  if ((cookie & kCookieFlag) == 0) {
    inner_->on_timer(node, cookie);
    return;
  }
  if (cookie & kAckFlushBit) {
    ack_flush(node, static_cast<Rank>(cookie & 0xffffffffu));
    return;
  }
  scan(node);
}

void ReliableClient::ack_flush(Rank node, Rank sender) {
  NodeState& state = nodes_[static_cast<std::size_t>(node)];
  Flow& f = flow(state, sender);
  f.flush_scheduled = 0;
  if (!f.ack_pending) return;  // a data packet carried it meanwhile
  f.ack_pending = 0;
  if (!routable(node, sender, net::RoutingMode::kAdaptive)) return;
  net::InjectDesc ack;
  ack.dst = sender;
  ack.payload_bytes = 0;
  ack.wire_chunks = 1;  // the 8 B proto header rides in one 32 B chunk
  ack.mode = net::RoutingMode::kAdaptive;
  ack.fifo = 0;
  state.ready.push_back(ack);
  ++state.stats.acks_standalone;
  fabric_->wake_cpu(node);
}

void ReliableClient::arm_scan(Rank node) {
  NodeState& state = nodes_[static_cast<std::size_t>(node)];
  if (state.scan_armed) return;
  state.scan_armed = true;
  fabric_->schedule_timer(node, scan_period_, kCookieFlag);
}

void ReliableClient::scan(Rank node) {
  NodeState& state = nodes_[static_cast<std::size_t>(node)];
  state.scan_armed = false;
  const Tick now = fabric_->now();
  bool emitted = false;
  if (state.active_unsorted) {
    std::sort(state.active.begin(), state.active.end());
    state.active_unsorted = false;
  }
  // Ascending peer, then ascending sequence: retransmissions enter the ready
  // queue in a fixed order, independent of how the windows were filled.
  std::size_t kept = 0;
  for (const Rank peer : state.active) {
    Flow& f = state.flows[static_cast<std::size_t>(peer)];
    if (f.window == 0) {  // fully acked since it was listed
      f.listed = 0;
      continue;
    }
    Window& window = state.windows[f.window - 1];
    for (std::uint32_t seq = window.base; seq != window.end; ++seq) {
      Pending& pending = state.slot(window, seq);
      if (pending.tries == 0) continue;
      const int backoff = std::min(pending.tries - 1, 6);
      const Tick patience = rto_ << backoff;
      if (now - pending.sent_at < patience) continue;
      if (pending.tries > max_retries_ || !routable(node, peer, pending.desc.mode)) {
        ++state.stats.gave_up;
        if (!f.abandoned) {
          f.abandoned = 1;
          state.abandoned.push_back(peer);
        }
        state.release(window, seq);
        --state.unacked;
        continue;
      }
      ++pending.tries;
      pending.sent_at = now;
      // A retransmission is a new transmission attempt for the fault hash:
      // stamp the attempt counter so the counter-based drop draw re-rolls
      // instead of deterministically re-dropping the copy at the same hop.
      pending.desc.attempt = static_cast<std::uint8_t>(std::min(pending.tries - 1, 255));
      state.ready.push_back(pending.desc);
      ++state.stats.retransmits;
      emitted = true;
    }
    state.trim(window);
    if (window.live == 0) {  // its last packets were abandoned
      close_window(state, f);
      f.listed = 0;
    } else {
      state.active[kept++] = peer;
    }
  }
  state.active.resize(kept);
  if (emitted) fabric_->wake_cpu(node);
  // Re-arm only while something is unacked, so a finished run quiesces.
  if (state.unacked > 0) arm_scan(node);
}

}  // namespace bgl::rt
