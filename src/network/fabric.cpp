#include "src/network/fabric.hpp"

#include <algorithm>
#include <barrier>
#include <cassert>
#include <cmath>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace bgl::net {

namespace {

constexpr int axis_of(int dir) noexcept { return dir / 2; }
constexpr int sign_of(int dir) noexcept { return (dir % 2 == 0) ? +1 : -1; }
constexpr int dir_index(int axis, int sign) noexcept { return axis * 2 + (sign > 0 ? 0 : 1); }

/// Events between watchdog polls on a slab worker (power of two; a
/// steady_clock read every ~8k events is noise even for micro benches).
constexpr std::uint64_t kPollMask = 0x1fff;

}  // namespace

Fabric::Fabric(const NetworkConfig& config, Client& client)
    : config_(config),
      torus_(config.shape),
      client_(&client) {
  for (int a = 0; a < config_.shape.axis_count(); ++a) {
    // Route state is int16 signed hops per axis; a ring of 32768 peaks at
    // 16384 hops.
    if (config_.shape.dim[static_cast<std::size_t>(a)] > 32768) {
      throw std::invalid_argument("dimension extent > 32768 not supported");
    }
  }
  if (config_.shape.nodes() > std::numeric_limits<std::int32_t>::max()) {
    throw std::invalid_argument("node count overflows int32");
  }
  if (config_.injection_fifos == 0) throw std::invalid_argument("need >= 1 injection FIFO");
  if (config_.max_packet_chunks == 0 ||
      config_.max_packet_chunks > config_.vc_capacity_chunks) {
    throw std::invalid_argument("max packet must fit in a VC buffer");
  }

  if (config_.dynamic_vcs < 1 || config_.dynamic_vcs >= kMaxVcs) {
    throw std::invalid_argument("dynamic_vcs must be in [1, kMaxVcs)");
  }

  const int nodes = torus_.nodes();
  dirs_ = torus_.directions();
  fifo_count_ = config_.injection_fifos;
  inputs_per_link_ = dirs_ + fifo_count_;
  vcs_ = config_.dynamic_vcs + 1;
  vc_bubble_ = config_.dynamic_vcs;

  // The bubble escape VC is accounted in max-packet *slots* (one per packet
  // regardless of its size): chunk-granular accounting lets small packets
  // fragment the escape ring's free space until no full-sized packet can
  // continue anywhere, wedging the ring despite the bubble invariant.
  bubble_slots_ = config_.vc_capacity_chunks / config_.max_packet_chunks;
  if (bubble_slots_ < 2) {
    throw std::invalid_argument("VC buffer must hold >= 2 max packets (bubble rule)");
  }
  buffers_.resize(static_cast<std::size_t>(nodes) * static_cast<std::size_t>(dirs_) *
                  static_cast<std::size_t>(vcs_));
  buffer_free_.assign(buffers_.size(), config_.vc_capacity_chunks);
  for (Rank n = 0; n < nodes; ++n) {
    for (int p = 0; p < dirs_; ++p) {
      buffer_free_[static_cast<std::size_t>(buf_id(n, p, vc_bubble_))] = bubble_slots_;
    }
  }

  buffer_want_.assign(buffers_.size(), 0);

  fifos_.resize(static_cast<std::size_t>(nodes) * fifo_count_);
  fifo_free_.assign(fifos_.size(), config_.injection_fifo_chunks);
  fifo_want_.assign(fifos_.size(), 0);

  const std::size_t links =
      static_cast<std::size_t>(nodes) * static_cast<std::size_t>(dirs_);
  link_busy_until_.assign(links, 0);
  node_dir_want_.assign(links, 0);
  arb_scheduled_.assign(links, 0);
  rr_next_.assign(links, 0);
  link_peer_.resize(links);
  link_busy_.assign(links, 0);
  for (Rank n = 0; n < nodes; ++n) {
    for (int d = 0; d < dirs_; ++d) {
      link_peer_[static_cast<std::size_t>(link_id(n, d))] =
          torus_.neighbor(n, topo::Direction::from_index(d));
    }
  }

  cpu_.resize(static_cast<std::size_t>(nodes));

  // Conservative lookahead of a multi-slab run: any cross-slab packet takes
  // at least one chunk of serialization plus the hop latency, so a window of
  // that length can be simulated per slab without seeing a neighbor's events.
  window_cycles_ = static_cast<Tick>(config_.chunk_cycles) + config_.hop_latency_cycles;

  init_faults();
}

void Fabric::init_faults() {
  fault_plan_ = FaultPlan(config_, config_.shape);
  faults_active_ = fault_plan_.enabled();
  if (!faults_active_) return;
  const FaultConfig& fc = config_.faults;
  // fail_at == 0: permanent faults are applied (and planned around) from the
  // start, exactly as before. fail_at > 0: the network runs blind until the
  // strike — doomed nodes pump, traffic routes into them — and the plan's
  // permanent state only becomes consultable at kPermStrike.
  struck_ = (fc.fail_at == 0);
  drop_seed_ = fault_plan_.derived_seed() ^ 0x64726f70ULL;     // "drop"
  corrupt_seed_ = fault_plan_.derived_seed() ^ 0x636f7272ULL;  // "corr"
  stuck_cycles_ =
      fc.stuck_drop_cycles != 0 ? fc.stuck_drop_cycles : 4 * fc.retrans_timeout;
  link_down_.assign(link_peer_.size(), 0);
  link_degraded_.assign(link_peer_.size(), 0);
  head_since_.assign(buffers_.size(), 0);
  fifo_head_since_.assign(fifos_.size(), 0);
  for (std::size_t l = 0; l < link_peer_.size(); ++l) {
    const LinkHealth health = fault_plan_.link_health(static_cast<int>(l));
    if (health == LinkHealth::kDegraded) link_degraded_[l] = 1;
    if (health == LinkHealth::kDead && fc.fail_at == 0) link_down_[l] = 1;
  }
}

void Fabric::prime_fault_events() {
  if (!faults_active_) return;
  const FaultConfig& fc = config_.faults;
  const bool strike_pending =
      fc.fail_at > 0 &&
      fault_plan_.dead_link_count() + fault_plan_.dead_node_count() > 0;
  // The strike goes to every slab (each applies its own slice of links,
  // cores and in-flight packets); a transient outage goes to the owner
  // slab(s) of its two directed ends.
  if (strike_pending) {
    for (Shard& shard : shards_) shard.wheel.push(fc.fail_at, kEvFault, kPermStrike, 0);
  }
  for (std::uint32_t i = 0; i < fault_plan_.transients().size(); ++i) {
    const TransientOutage& outage = fault_plan_.transients()[i];
    const Rank node_a = static_cast<Rank>(outage.link / dirs_);
    const Rank node_b = link_peer_[static_cast<std::size_t>(outage.link)];
    const std::int32_t slab_a = node_slab_[static_cast<std::size_t>(node_a)];
    const std::int32_t slab_b = node_slab_[static_cast<std::size_t>(node_b)];
    shards_[static_cast<std::size_t>(slab_a)].wheel.push(outage.down_at, kEvFault, i, 0);
    shards_[static_cast<std::size_t>(slab_a)].wheel.push(outage.up_at, kEvFault, i, 1);
    if (slab_b != slab_a) {
      shards_[static_cast<std::size_t>(slab_b)].wheel.push(outage.down_at, kEvFault, i, 0);
      shards_[static_cast<std::size_t>(slab_b)].wheel.push(outage.up_at, kEvFault, i, 1);
    }
  }
}

bool Fabric::run(Tick deadline) {
  if (!primed_) prime(plan_threads());
  done_ = false;
  drained_ = false;
  abort_flag_.store(false, std::memory_order_relaxed);
  if (shards_.size() == 1) {
    // One slab: the whole run is one unbounded window — no barrier, no
    // next_time() scan, no extra thread.
    Shard& shard = shards_.front();
    shard_step(shard, deadline);
    drained_ = !abort_flag_.load(std::memory_order_relaxed) && shard.wheel.empty();
  } else {
    advance_window(deadline);
    if (!done_) {
      const int threads = static_cast<int>(shards_.size());
      std::barrier sync(threads, [this, deadline]() noexcept { barrier_phase(deadline); });
      auto worker = [&](int index) {
        Shard& shard = shards_[static_cast<std::size_t>(index)];
        do {
          shard_step(shard, window_end_ - 1);  // window_end_ is exclusive and >= 1
          sync.arrive_and_wait();
        } while (!done_);
      };
      std::vector<std::thread> pool;
      pool.reserve(static_cast<std::size_t>(threads) - 1);
      for (int i = 1; i < threads; ++i) pool.emplace_back(worker, i);
      worker(0);
      for (std::thread& t : pool) t.join();
    }
  }
  merge_shard_stats();
  aborted_ = abort_flag_.load(std::memory_order_relaxed) && !error_;
  if (error_) {
    const std::exception_ptr error = error_;
    error_ = nullptr;
    std::rethrow_exception(error);
  }
  if (config_.debug_checks) run_debug_checks(drained_);
  return drained_;
}

void Fabric::prime(int threads) {
  setup_shards(threads);
  primed_ = true;
  prime_fault_events();
  for (Rank n = 0; n < torus_.nodes(); ++n) {
    CpuState& cpu = cpu_[static_cast<std::size_t>(n)];
    if (faults_active_ && struck_ && !fault_plan_.node_alive(n)) {
      cpu.idle = true;  // a dead node's core never pumps
      continue;
    }
    cpu.pump_scheduled = true;
    shards_[static_cast<std::size_t>(node_slab_[static_cast<std::size_t>(n)])]
        .wheel.push(0, kEvCpu, static_cast<std::uint32_t>(n), 0);
  }
}

int Fabric::plan_threads(ThreadFallbackReason* reason) const noexcept {
  const auto give = [reason](ThreadFallbackReason r) {
    if (reason != nullptr) *reason = r;
  };
  int threads = config_.sim_threads;
  if (threads <= 1) {
    give(ThreadFallbackReason::kNotRequested);
    return 1;
  }
  // The only remaining hard fallback: a zero lookahead window (zero-cost
  // links) would serialize the slabs anyway. Faults and hop observers are
  // slab-eligible — counter-based fault draws and barrier-drained observer
  // buffers need no global event order.
  if (window_cycles_ == 0) {
    give(ThreadFallbackReason::kZeroWindow);
    return 1;
  }
  const int extent = config_.shape.dim[static_cast<std::size_t>(slab_axis())];
  if (extent <= 1) {
    give(ThreadFallbackReason::kNarrowShape);
    return 1;
  }
  give(ThreadFallbackReason::kNone);
  return std::max(1, std::min(threads, extent));
}

int Fabric::slab_axis() const noexcept {
  int best = 0;
  for (int a = 1; a < config_.shape.axis_count(); ++a) {
    if (config_.shape.dim[static_cast<std::size_t>(a)] >=
        config_.shape.dim[static_cast<std::size_t>(best)]) {
      best = a;
    }
  }
  return best;
}

void Fabric::setup_shards(int threads) {
  const int axis = slab_axis();
  const auto extent =
      static_cast<std::int64_t>(config_.shape.dim[static_cast<std::size_t>(axis)]);
  node_slab_.assign(static_cast<std::size_t>(torus_.nodes()), 0);
  for (Rank n = 0; n < torus_.nodes(); ++n) {
    const auto c = static_cast<std::int64_t>(torus_.coord_of(n)[axis]);
    node_slab_[static_cast<std::size_t>(n)] =
        static_cast<std::int32_t>(c * threads / extent);
  }
  shards_.clear();
  shards_.resize(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    Shard& shard = shards_[static_cast<std::size_t>(i)];
    shard.id = i;
    // One slab draws the run seed's own stream. The slabs of an N-way cut
    // draw independent streams derived from it, so a run is reproducible
    // for a fixed (seed, sim_threads) pair.
    shard.rng = util::Xoshiro256StarStar(
        threads == 1 ? config_.seed
                     : config_.seed +
                           0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(i + 1));
    shard.outbox.resize(static_cast<std::size_t>(threads));
    shard.struck = struck_;
  }
}

void Fabric::shard_step(Shard& shard, Tick limit) {
  shard_ctx_ = &shard;
  try {
    for (const sim::Event& e : shard.inbox) shard.wheel.push(e.time, e.type, e.a, e.b);
    shard.inbox.clear();
    while (auto event = shard.wheel.pop_if_at_most(limit)) {
      shard.now = event->time;
      ++shard.processed;
      handle(*event);
      if ((shard.processed & kPollMask) == 0) {
        if (abort_flag_.load(std::memory_order_relaxed)) break;
        if (shard.id == 0 && abort_check_ && abort_check_()) {
          abort_flag_.store(true, std::memory_order_relaxed);
          break;
        }
      }
    }
  } catch (...) {
    record_error(std::current_exception());
  }
  shard_ctx_ = nullptr;
}

void Fabric::record_error(std::exception_ptr error) noexcept {
  {
    const std::lock_guard<std::mutex> lock(error_mutex_);
    if (!error_) error_ = std::move(error);
  }
  abort_flag_.store(true, std::memory_order_relaxed);
}

void Fabric::barrier_phase(Tick deadline) noexcept {
  // Runs on exactly one thread, between the last arrive and the release:
  // every worker's window writes happen-before this and its reads
  // happen-after, so boundary application needs no further synchronization.
  // Hop-observer buffers drain first (they describe the window just
  // finished), then boundary messages in deterministic order: by source
  // shard, then destination, then insertion. The wheel events they cause
  // go to the destination's inbox, in that same order.
  try {
    if (hop_observer_) drain_hop_logs();
    for (Shard& src : shards_) {
      for (std::size_t d = 0; d < src.outbox.size(); ++d) {
        for (const BoundaryMsg& msg : src.outbox[d]) apply_boundary(src, shards_[d], msg);
        src.outbox[d].clear();
      }
    }
  } catch (...) {
    record_error(std::current_exception());
  }
  if (abort_flag_.load(std::memory_order_relaxed)) {
    done_ = true;
    drained_ = false;
    return;
  }
  advance_window(deadline);
}

void Fabric::advance_window(Tick deadline) {
  Tick min_next = ~Tick{0};
  bool any = false;
  for (Shard& shard : shards_) {
    if (const auto t = shard.wheel.next_time()) {
      any = true;
      min_next = std::min(min_next, *t);
    }
    for (const sim::Event& e : shard.inbox) {
      any = true;
      min_next = std::min(min_next, e.time);
    }
  }
  if (!any) {
    done_ = true;
    drained_ = true;
    return;
  }
  if (min_next > deadline) {
    done_ = true;
    drained_ = false;
    return;
  }
  Tick end = min_next + window_cycles_;
  if (end < min_next) end = ~Tick{0};                          // saturate
  if (deadline != ~Tick{0} && end > deadline + 1) end = deadline + 1;
  window_end_ = end;
}

void Fabric::apply_boundary(Shard& src, Shard& dst, const BoundaryMsg& msg) {
  if (msg.is_credit) {
    buffer_free_[static_cast<std::size_t>(msg.buf)] += msg.chunks;
    // The wake fires at the next window start: a boundary credit acts at
    // most one window (W) later than an in-slab return would have (the
    // documented timing relaxation of a multi-slab run).
    if (claim_arb(msg.node, msg.port, window_end_)) {
      dst.inbox.push_back(sim::Event{window_end_, 0, kEvArb,
                                     static_cast<std::uint32_t>(link_id(msg.node, msg.port)), 0});
    }
  } else {
    // The packet now belongs to the receiving slab's census.
    --src.in_network;
    ++dst.in_network;
    const std::uint32_t slot = alloc_flight_slot(dst);
    FlightSlot& flight = dst.flights[slot];
    flight.packet = msg.packet;
    flight.to_node = msg.node;
    flight.link = msg.link;
    flight.port = msg.port;
    flight.deliver = msg.deliver;
    // A boundary packet whose link is down right now died on the wire: the
    // outage event fired while the handoff sat in the outbox, so the
    // receiving slab's arena scan could not mark it.
    if (faults_active_ && link_down_[static_cast<std::size_t>(msg.link)] != 0) {
      flight.dropped = true;
    }
    dst.inbox.push_back(sim::Event{msg.at, 0, kEvArrival, slot, 0});
  }
}

void Fabric::drain_hop_logs() {
  // Merge all slabs' buffered grants and replay them in (tick, link) order —
  // total and deterministic, since a link grants at most once per tick.
  hop_scratch_.clear();
  for (Shard& shard : shards_) {
    hop_scratch_.insert(hop_scratch_.end(), shard.hop_log.begin(), shard.hop_log.end());
    shard.hop_log.clear();
  }
  std::sort(hop_scratch_.begin(), hop_scratch_.end(),
            [](const HopRecord& a, const HopRecord& b) {
              return a.at != b.at ? a.at < b.at : a.link < b.link;
            });
  for (const HopRecord& rec : hop_scratch_) {
    hop_observer_(rec.packet, static_cast<Rank>(rec.link / static_cast<std::uint32_t>(dirs_)),
                  static_cast<int>(rec.link % static_cast<std::uint32_t>(dirs_)),
                  rec.target);
  }
}

void Fabric::merge_shard_stats() {
  FabricStats total;
  std::int64_t net = 0;
  std::uint64_t events = 0;
  bool struck = struck_;
  FaultStats ftotal;
  // stranded_relay_bytes is computed post-run by the strategy client and
  // written into the global counter, never into a shard; preserve it across
  // merges (the recovery loop re-runs the fabric after it is set).
  ftotal.stranded_relay_bytes = fault_stats_.stranded_relay_bytes;
  for (const Shard& shard : shards_) {
    total.packets_injected += shard.stats.packets_injected;
    total.packets_delivered += shard.stats.packets_delivered;
    total.payload_bytes_delivered += shard.stats.payload_bytes_delivered;
    total.chunk_hops += shard.stats.chunk_hops;
    total.first_injection = std::min(total.first_injection, shard.stats.first_injection);
    total.last_delivery = std::max(total.last_delivery, shard.stats.last_delivery);
    total.arb_grants += shard.stats.arb_grants;
    total.arb_no_candidate += shard.stats.arb_no_candidate;
    total.arb_blocked += shard.stats.arb_blocked;
    net += shard.in_network;
    events += shard.processed;
    struck = struck || shard.struck;
    ftotal.dropped_in_flight += shard.fstats.dropped_in_flight;
    ftotal.dropped_prob += shard.fstats.dropped_prob;
    ftotal.dropped_stuck += shard.fstats.dropped_stuck;
    ftotal.corrupted_payloads += shard.fstats.corrupted_payloads;
    ftotal.unroutable_at_injection += shard.fstats.unroutable_at_injection;
    ftotal.reroute_vetoes += shard.fstats.reroute_vetoes;
    ftotal.transient_strikes += shard.fstats.transient_strikes;
    ftotal.link_down_cycles += shard.fstats.link_down_cycles;
    ftotal.stranded_relay_bytes += shard.fstats.stranded_relay_bytes;
  }
  stats_ = total;
  in_network_ = net;
  events_ = events;
  if (faults_active_) {
    fault_stats_ = ftotal;
    if (struck && !struck_) {
      struck_ = true;  // post-run queries see the struck state
      fault_plan_.invalidate_routes();
    }
  }
}

void Fabric::run_debug_checks(bool quiescent) const {
  const std::string violation = check_invariants(quiescent);
  if (!violation.empty()) {
    throw std::logic_error("fabric invariant violated: " + violation);
  }
}

void Fabric::handle(const sim::Event& event) {
  switch (event.type) {
    case kEvArb:
      arbitrate(static_cast<int>(event.a));
      break;
    case kEvArrival:
      on_arrival(event.a);
      break;
    case kEvCpu:
      pump_cpu(static_cast<Rank>(event.a));
      break;
    case kEvTimer:
      // Timers of a fail-stopped node die with it: its reliability scan loop
      // would otherwise re-arm forever and the run could only end by
      // exhausting the watchdog timeout.
      if (node_alive_now(static_cast<Rank>(event.a))) {
        client_->on_timer(static_cast<Rank>(event.a), event.b);
      }
      break;
    case kEvFault:
      on_fault_event(event.a, event.b);
      break;
    case kEvSweep:
      stuck_sweep();
      break;
    default:
      assert(false && "unknown event type");
  }
}

void Fabric::wake_cpu(Rank node) {
  if (!node_alive_now(node)) return;
  CpuState& cpu = cpu_[static_cast<std::size_t>(node)];
  if (cpu.stalled) return;  // will resume when its FIFO drains
  cpu.idle = false;
  if (cpu.pump_scheduled) return;
  cpu.pump_scheduled = true;
  post(std::max(now(), cpu.next_free), kEvCpu, static_cast<std::uint32_t>(node));
}

void Fabric::schedule_timer(Rank node, Tick delay, std::uint64_t cookie) {
  post(now() + delay, kEvTimer, static_cast<std::uint32_t>(node), cookie);
}

int Fabric::fifo_free_chunks(Rank node, int fifo) const {
  return fifo_free_[static_cast<std::size_t>(fifo_id(node, fifo))];
}

int Fabric::pick_fifo(Rank node, int begin, int end) const {
  int best = begin;
  int best_free = -1;
  for (int f = begin; f < end; ++f) {
    const int free = fifo_free_chunks(node, f);
    if (free > best_free) {
      best_free = free;
      best = f;
    }
  }
  return best;
}

Tick Fabric::cpu_inject_cycles(const InjectDesc& desc) const noexcept {
  const double bandwidth_cost =
      static_cast<double>(desc.wire_chunks) * config_.chunk_cycles / config_.cpu_links;
  const Tick cycles = desc.extra_cpu_cycles + static_cast<Tick>(std::ceil(bandwidth_cost));
  return cycles == 0 ? 1 : cycles;
}

void Fabric::pump_cpu(Rank node) {
  CpuState& cpu = cpu_[static_cast<std::size_t>(node)];
  cpu.pump_scheduled = false;
  if (!node_alive_now(node)) {
    // A pump queued before the node fail-stopped; the core is dead.
    cpu.idle = true;
    return;
  }
  if (now() < cpu.next_free) {
    cpu.pump_scheduled = true;
    post(cpu.next_free, kEvCpu, static_cast<std::uint32_t>(node));
    return;
  }

  if (cpu.stalled) {
    if (!try_inject(node, cpu.pending)) return;  // still no FIFO space
    cpu.stalled = false;
  } else {
    InjectDesc desc;
    if (!client_->next_packet(node, desc)) {
      cpu.idle = true;
      return;
    }
    assert(desc.dst >= 0 && desc.dst < torus_.nodes() && desc.dst != node);
    assert(desc.wire_chunks >= 1 && desc.wire_chunks <= config_.max_packet_chunks);
    assert(desc.fifo < fifo_count_);
    if (!try_inject(node, desc)) {
      cpu.pending = desc;
      cpu.stalled = true;
      return;  // resumes when the FIFO pops
    }
    cpu.pending = desc;  // keep for cost accounting below
  }

  cpu.next_free = now() + cpu_inject_cycles(cpu.pending);
  cpu.pump_scheduled = true;
  post(cpu.next_free, kEvCpu, static_cast<std::uint32_t>(node));
}

bool Fabric::try_inject(Rank node, const InjectDesc& desc) {
  if (faults_active_ && struck_now() &&
      !fault_plan_.pair_routable(node, desc.dst, desc.mode, live_route_memo())) {
    // No live minimal path can ever deliver this packet. Consume the
    // descriptor (the core still pays its injection cost) and count it,
    // rather than letting an undeliverable packet wedge a FIFO forever.
    ++live_fault_stats().unroutable_at_injection;
    return true;
  }
  const std::size_t fid = static_cast<std::size_t>(fifo_id(node, desc.fifo));
  if (fifo_free_[fid] < desc.wire_chunks) return false;

  Packet packet;
  packet.src = node;
  packet.dst = desc.dst;
  packet.tag = desc.tag;
  packet.payload_bytes = desc.payload_bytes;
  packet.chunks = desc.wire_chunks;
  packet.mode = desc.mode;
  packet.seq = desc.seq;
  packet.ack_cum = desc.ack_cum;
  packet.ack_bits = desc.ack_bits;
  packet.checksum = desc.checksum;
  packet.attempt = desc.attempt;

  if (faults_active_ && struck_now()) {
    // Same tie-coin draw as below, but steered away from tie resolutions
    // whose minimal DAG is severed by permanent faults.
    packet.hops = fault_plan_.choose_hops(node, desc.dst, desc.mode,
                                          [this] { return live_rng().coin(); },
                                          live_route_memo());
  } else {
    const topo::Coord from = torus_.coord_of(node);
    const topo::Coord to = torus_.coord_of(desc.dst);
    for (int a = 0; a < torus_.axis_count(); ++a) {
      int signed_hops = torus_.hops_signed(from[a], to[a], a);
      // A half-way destination on an even torus ring is reachable both ways;
      // random choice balances the two directions across the all-to-all.
      if (signed_hops != 0 && torus_.is_halfway_tie(from[a], to[a], a) &&
          live_rng().coin()) {
        signed_hops = -signed_hops;
      }
      packet.hops[static_cast<std::size_t>(a)] = static_cast<std::int16_t>(signed_hops);
    }
  }
  assert(!packet.at_destination());

  fifo_free_[fid] -= desc.wire_chunks;
  const bool becomes_head = fifos_[fid].empty();
  fifos_[fid].push_back(packet);
  ++live_in_network();
  FabricStats& stats = live_stats();
  if (stats.first_injection == FabricStats::kNever) stats.first_injection = now();
  ++stats.packets_injected;
  if (becomes_head) {
    set_fifo_want(fid, want_mask(packet));
    if (faults_active_) fifo_head_since_[fid] = now();
    schedule_profitable_arbs(node, packet);
  }
  if (faults_active_) arm_sweep();
  return true;
}

void Fabric::schedule_arb_if_idle(Rank node, int dir) {
  if (claim_arb(node, dir, now())) {
    post(now(), kEvArb, static_cast<std::uint32_t>(link_id(node, dir)));
  }
}

bool Fabric::claim_arb(Rank node, int dir, Tick at) {
  const std::size_t link = static_cast<std::size_t>(link_id(node, dir));
  if (link_peer_[link] < 0) return false;        // mesh edge: no link
  if (faults_active_ && link_down_[link]) return false;  // re-armed at repair
  if (arb_scheduled_[link]) return false;
  if (link_busy_until_[link] > at) return false;  // busy-end arb already pending
  // Skip the event when no current head wants this output; whichever future
  // head appears will trigger its own wakeup. This prunes the vast majority
  // of would-be no-candidate arbitration events under congestion. The
  // per-(node, dir) head counter answers in one load (the predicate is
  // identical to scanning every buffer/FIFO want mask, which the want
  // setters keep it in lockstep with).
  if (node_dir_want_[link] == 0) return false;
  arb_scheduled_[link] = 1;
  return true;
}

void Fabric::schedule_profitable_arbs(Rank node, const Packet& packet) {
  if (packet.mode == RoutingMode::kDeterministic) {
    const int axis = packet.dim_order_axis();
    if (axis < 0) return;
    const int sign = packet.hops[static_cast<std::size_t>(axis)] > 0 ? +1 : -1;
    schedule_arb_if_idle(node, dir_index(axis, sign));
    return;
  }
  for (int a = 0; a < topo::kMaxAxes; ++a) {
    const std::int16_t h = packet.hops[static_cast<std::size_t>(a)];
    if (h != 0) schedule_arb_if_idle(node, dir_index(a, h > 0 ? +1 : -1));
  }
}

bool Fabric::wants_output(const Packet& packet, int axis, int sign) noexcept {
  const std::int16_t h = packet.hops[static_cast<std::size_t>(axis)];
  if (packet.mode == RoutingMode::kAdaptive) {
    return static_cast<int>(h) * sign > 0;
  }
  return packet.dim_order_axis() == axis && static_cast<int>(h) * sign > 0;
}

std::uint8_t Fabric::want_mask(const Packet& packet) noexcept {
  if (packet.mode == RoutingMode::kDeterministic) {
    const int axis = packet.dim_order_axis();
    if (axis < 0) return 0;
    const int sign = packet.hops[static_cast<std::size_t>(axis)] > 0 ? +1 : -1;
    return static_cast<std::uint8_t>(1u << dir_index(axis, sign));
  }
  std::uint8_t mask = 0;
  for (int a = 0; a < topo::kMaxAxes; ++a) {
    const std::int16_t h = packet.hops[static_cast<std::size_t>(a)];
    if (h != 0) mask |= static_cast<std::uint8_t>(1u << dir_index(a, h > 0 ? +1 : -1));
  }
  return mask;
}

int Fabric::select_downstream(const Packet& packet, Rank node, int dir, bool entering) const {
  const int axis = axis_of(dir);
  const int sign = sign_of(dir);
  // Delivery: this hop is the packet's last.
  if (packet.hops[static_cast<std::size_t>(axis)] == sign) {
    bool others_zero = true;
    for (int a = 0; a < topo::kMaxAxes; ++a) {
      if (a != axis && packet.hops[static_cast<std::size_t>(a)] != 0) others_zero = false;
    }
    if (others_zero) return kDeliverHere;
  }

  const Rank peer = link_peer_[static_cast<std::size_t>(link_id(node, dir))];
  assert(peer >= 0);

  if (packet.mode == RoutingMode::kAdaptive) {
    // JSQ across the two dynamic VCs: take the one with most free space.
    // BG/L's token flow control works at 32 B granularity with virtual
    // cut-through, so a transfer may *start* as soon as any space exists:
    // the tail chunks stream in as the buffer drains (only one link feeds
    // each buffer, so nobody else can claim that space). We model this by
    // granting with >= 1 free chunk and letting the counter go transiently
    // negative by at most a packet; strict full-packet accounting would
    // leave links idle whenever free < packet size and caps all-to-all
    // throughput near 50% — far below the hardware's measured behaviour.
    int best = kBlocked;
    std::int32_t best_free = 0;
    for (int vc = 0; vc < vc_bubble_; ++vc) {
      const std::int32_t free = buffer_free_[static_cast<std::size_t>(buf_id(peer, dir, vc))];
      if (free > best_free) {
        best_free = free;
        best = vc;
      }
    }
    if (best != kBlocked) return best;
    // Escape path: bubble VC, only along the dimension-order hop.
    if (packet.dim_order_axis() != axis) return kBlocked;
  }

  // Bubble VC with the bubble insertion rule, in max-packet slots: a packet
  // entering the ring (from injection, a turn, or a dynamic VC) must leave
  // one whole slot free; a packet continuing along the ring needs only its
  // own slot.
  const std::int32_t free = buffer_free_[static_cast<std::size_t>(buf_id(peer, dir, vc_bubble_))];
  const std::int32_t need = entering ? 2 : 1;
  return free >= need ? vc_bubble_ : kBlocked;
}

void Fabric::arbitrate(int link) {
  const std::size_t lk = static_cast<std::size_t>(link);
  arb_scheduled_[lk] = 0;
  if (link_busy_until_[lk] > now()) return;
  if (faults_active_ && link_down_[lk]) return;  // a down link grants nothing
  const Rank peer = link_peer_[lk];
  if (peer < 0) return;

  const Rank node = static_cast<Rank>(link / dirs_);
  const int dir = link % dirs_;
  const int axis = axis_of(dir);
  const std::uint8_t dir_bit = static_cast<std::uint8_t>(1u << dir);

  // Transit traffic has strict priority over injection (as on BG/L: a
  // packet already in the network covers several hops, so flow conservation
  // requires transit to win most grants; fair sharing with injection clogs
  // the network and collapses throughput). Round-robin within each class.
  // The contiguous want-mask arrays let the scan skip ineligible inputs
  // without touching the packet deques.
  bool saw_candidate = false;
  const int start = rr_next_[lk];

  for (int i = 0; i < dirs_; ++i) {
    const int input = (start + i) % dirs_;
    const int base = buf_id(node, input, 0);
    for (int vc = 0; vc < vcs_; ++vc) {
      if ((buffer_want_[static_cast<std::size_t>(base + vc)] & dir_bit) == 0) continue;
      auto& queue = buffers_[static_cast<std::size_t>(base + vc)];
      Packet& head = queue.front();
      // A packet "continues" on the bubble ring only if it is already on the
      // bubble VC and keeps its axis; joining the ring from a dynamic VC or
      // from another dimension is an entry and must pay the bubble rule.
      const bool entering = (axis_of(input) != axis) || (vc != vc_bubble_);
      saw_candidate = true;
      const int target = select_downstream(head, node, dir, entering);
      if (target == kBlocked) continue;
      // Never walk a packet into a region it could not leave: if the
      // remaining minimal DAG past `peer` is severed by permanent faults,
      // refuse this output (adaptive packets take another live direction).
      if (faults_active_ && struck_now() && target != kDeliverHere &&
          !continuation_live(head, peer, dir)) {
        ++live_fault_stats().reroute_vetoes;
        continue;
      }

      const Packet granted = head;
      queue.pop_front();
      const std::int32_t credit = (vc == vc_bubble_ ? 1 : granted.chunks);
      // Credit return: the upstream link feeding this buffer may now proceed.
      // The free counter is owned by the feeder's slab, so when that slab is
      // not ours the return travels as a boundary message instead.
      const Rank upstream = torus_.neighbor(node, topo::Direction::from_index(input ^ 1));
      const bool credit_cross =
          upstream >= 0 && node_slab_[static_cast<std::size_t>(upstream)] != shard_ctx_->id;
      if (!credit_cross) buffer_free_[static_cast<std::size_t>(base + vc)] += credit;
      set_buffer_want(static_cast<std::size_t>(base + vc),
                      queue.empty() ? 0 : want_mask(queue.front()));
      if (faults_active_ && !queue.empty()) {
        head_since_[static_cast<std::size_t>(base + vc)] = now();
      }
      if (credit_cross) {
        BoundaryMsg msg;
        msg.node = upstream;
        msg.buf = base + vc;
        msg.chunks = credit;
        msg.port = static_cast<std::uint8_t>(input);
        msg.is_credit = true;
        shard_ctx_->outbox[static_cast<std::size_t>(
            node_slab_[static_cast<std::size_t>(upstream)])].push_back(msg);
      } else if (upstream >= 0) {
        schedule_arb_if_idle(upstream, input);
      }
      if (!queue.empty()) schedule_profitable_arbs(node, queue.front());

      rr_next_[lk] = static_cast<std::uint8_t>((input + 1) % dirs_);
      commit_grant(lk, node, dir, peer, granted, target);
      return;
    }
  }

  for (int i = 0; i < fifo_count_; ++i) {
    const int fifo = (start + i) % fifo_count_;
    const std::size_t fid = static_cast<std::size_t>(fifo_id(node, fifo));
    if ((fifo_want_[fid] & dir_bit) == 0) continue;
    auto& queue = fifos_[fid];
    Packet& head = queue.front();
    saw_candidate = true;
    const int target = select_downstream(head, node, dir, /*entering=*/true);
    if (target == kBlocked) continue;
    if (faults_active_ && struck_now() && target != kDeliverHere &&
        !continuation_live(head, peer, dir)) {
      ++live_fault_stats().reroute_vetoes;
      continue;
    }

    const Packet granted = head;
    queue.pop_front();
    fifo_free_[fid] += granted.chunks;
    set_fifo_want(fid, queue.empty() ? 0 : want_mask(queue.front()));
    if (faults_active_ && !queue.empty()) fifo_head_since_[fid] = now();
    // The core may be stalled waiting for space in this FIFO.
    CpuState& cpu = cpu_[static_cast<std::size_t>(node)];
    if (cpu.stalled && cpu.pending.fifo == fifo && !cpu.pump_scheduled) {
      cpu.pump_scheduled = true;
      post(std::max(now(), cpu.next_free), kEvCpu, static_cast<std::uint32_t>(node));
    }
    if (!queue.empty()) schedule_profitable_arbs(node, queue.front());

    commit_grant(lk, node, dir, peer, granted, target);
    return;
  }

  // No grant: the link stays idle; state changes re-schedule arbitration.
  if (saw_candidate) {
    ++live_stats().arb_blocked;
  } else {
    ++live_stats().arb_no_candidate;
  }
}

void Fabric::commit_grant(std::size_t lk, Rank node, int dir, Rank peer,
                          const Packet& granted_in, int target) {
  ++live_stats().arb_grants;
  Packet granted = granted_in;
  const int axis = axis_of(dir);
  const int sign = sign_of(dir);
  granted.hops[static_cast<std::size_t>(axis)] =
      static_cast<std::int16_t>(granted.hops[static_cast<std::size_t>(axis)] - sign);
  if (hop_observer_) {
    if (shards_.size() == 1) {
      hop_observer_(granted, node, dir, target);
    } else {
      // Buffered, not invoked: observers may touch cross-slab state, so the
      // replay happens single-threaded at the window barrier.
      shard_ctx_->hop_log.push_back(
          {now(), static_cast<std::uint32_t>(lk), target, granted});
    }
  }
  Tick busy = static_cast<Tick>(granted.chunks) * config_.chunk_cycles;
  if (faults_active_ && link_degraded_[lk]) busy *= config_.faults.degrade_mult;
  link_busy_until_[lk] = now() + busy;
  if (config_.collect_link_stats) link_busy_[lk] += busy;
  live_stats().chunk_hops += granted.chunks;

  const bool deliver = (target == kDeliverHere);
  // The downstream reservation below stays slab-local even when `peer` does
  // not: buffer (peer, dir) is fed by this very link, so its free counter is
  // owned by our slab (feeder ownership).
  if (!deliver) {
    granted.vc = static_cast<std::uint8_t>(target);
    buffer_free_[static_cast<std::size_t>(buf_id(peer, dir, target))] -=
        (target == vc_bubble_ ? 1 : granted.chunks);
  }
  const Tick arrive_at = now() + busy + config_.hop_latency_cycles;
  if (node_slab_[static_cast<std::size_t>(peer)] != shard_ctx_->id) {
    // Cross-slab hop: the arrival tick is exact (serialization + hop latency
    // >= the lookahead window, so it lands at or past the next window start).
    BoundaryMsg msg;
    msg.at = arrive_at;
    msg.packet = granted;
    msg.node = peer;
    msg.link = static_cast<std::uint32_t>(lk);
    msg.port = static_cast<std::uint8_t>(dir);
    msg.deliver = deliver;
    shard_ctx_->outbox[static_cast<std::size_t>(
        node_slab_[static_cast<std::size_t>(peer)])].push_back(msg);
  } else {
    const std::uint32_t slot = alloc_flight_slot(*shard_ctx_);
    FlightSlot& flight = flight_at(slot);
    flight.packet = granted;
    flight.to_node = peer;
    flight.link = static_cast<std::uint32_t>(lk);
    flight.port = static_cast<std::uint8_t>(dir);
    flight.deliver = deliver;
    post(arrive_at, kEvArrival, slot);
  }
  arb_scheduled_[lk] = 1;
  post(link_busy_until_[lk], kEvArb, static_cast<std::uint32_t>(lk));
}

void Fabric::on_arrival(std::uint32_t slot_index) {
  FlightSlot& flight = flight_at(slot_index);
  assert(flight.in_use);
  Packet packet = flight.packet;
  const Rank node = flight.to_node;
  const bool deliver = flight.deliver;
  const std::uint8_t port = flight.port;
  const bool link_died = flight.dropped;
  flight.dropped = false;
  flight.in_use = false;
  shard_ctx_->free_flights.push_back(slot_index);

  if (faults_active_) {
    // Counter-based per-packet fault draws: pure functions of the fault seed
    // and the packet's identity — (src, dst) flow, sequence number, attempt
    // and the remaining-hop count after this hop (minimal routing shrinks it
    // by exactly 1 per hop regardless of the adaptive path taken, so it is a
    // path- and timing-independent hop index). Any (seed, shape) therefore
    // reproduces the same fault realization at any --sim-threads N. Only
    // sequenced packets (reliability-layer data) are eligible: ack packets
    // are unsequenced and their population depends on delivery timing, which
    // would make the realization interleaving-dependent.
    const std::uint64_t flow =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(packet.src)) << 32) |
        static_cast<std::uint32_t>(packet.dst);
    int remaining = 0;
    for (const std::int16_t h : packet.hops) remaining += h < 0 ? -h : h;
    const std::uint64_t life = (static_cast<std::uint64_t>(packet.seq) << 32) |
                               (static_cast<std::uint64_t>(packet.attempt) << 16) |
                               static_cast<std::uint64_t>(remaining & 0xffff);
    bool drop = link_died;
    if (drop) {
      ++live_fault_stats().dropped_in_flight;
    } else if (config_.faults.drop_prob > 0.0 && packet.seq != 0 &&
               fault_unit(drop_seed_, flow, life) < config_.faults.drop_prob) {
      drop = true;
      ++live_fault_stats().dropped_prob;
    }
    if (drop) {
      --live_in_network();
      if (!deliver) {
        // Return the downstream credit reserved at grant time; the freed
        // space may unblock the link feeding this buffer.
        return_buffer_credit(node, port, packet);
      }
      return;
    }
    // Byzantine link: the packet crosses the hop intact on the wire model
    // but its payload bits flip. The link-level CRC keeps the routing header
    // usable, so in-simulation we damage only the end-to-end checksum — the
    // receiver (ReliableClient) must reject it; silent acceptance would
    // deliver garbage. Only the final hop corrupts, mirroring drop_prob's
    // per-arrival accounting and keeping one counter per injected fault.
    if (deliver && config_.faults.corrupt_prob > 0.0 && packet.seq != 0 &&
        fault_unit(corrupt_seed_, flow, life) < config_.faults.corrupt_prob) {
      std::uint32_t mask =
          static_cast<std::uint32_t>(fault_hash(corrupt_seed_ ^ 0x6d61736bULL, flow, life));
      if (mask == 0) mask = 1;
      packet.checksum ^= mask;
      ++live_fault_stats().corrupted_payloads;
    }
  }

  if (deliver) {
    assert(packet.at_destination());
    assert(packet.dst == node);
    --live_in_network();
    FabricStats& stats = live_stats();
    ++stats.packets_delivered;
    stats.payload_bytes_delivered += packet.payload_bytes;
    stats.last_delivery = std::max(stats.last_delivery, now());
    client_->on_delivery(node, packet);
    return;
  }

  const std::size_t buf = static_cast<std::size_t>(buf_id(node, port, packet.vc));
  auto& queue = buffers_[buf];
  const bool becomes_head = queue.empty();
  queue.push_back(packet);
  if (becomes_head) {
    set_buffer_want(buf, want_mask(packet));
    if (faults_active_) {
      head_since_[buf] = now();
      // A slab that only relays (its own cores idle) would otherwise never
      // arm its wedge backstop. With one slab the sweep is already armed.
      arm_sweep();
    }
    schedule_profitable_arbs(node, packet);
  }
}

void Fabric::on_fault_event(std::uint32_t a, std::uint64_t b) {
  // Fault events are replicated to every slab they concern; each slab
  // applies only the slice it owns, so no shared cell sees two writers:
  // link down bits by the link's node owner, core state by the node owner,
  // in-flight drops by an arena scan of the slab's own flights (a packet
  // crossing a link can only sit in the arena of the granting or the
  // receiving slab, both of which receive the event).
  Shard& shard = *shard_ctx_;
  if (a == kPermStrike) {
    // The blind phase ends here: permanent state becomes consultable, links
    // die and fail-stopped cores halt (their queued descriptors die with
    // them; in-flight relay custody is what stranded_relay_bytes accounts).
    shard.struck = true;
    shard.route_memo.clear();
    for (std::size_t l = 0; l < link_peer_.size(); ++l) {
      if (!fault_plan_.link_dead(static_cast<int>(l))) continue;
      if (node_slab_[static_cast<std::size_t>(static_cast<Rank>(l) / dirs_)] == shard.id) {
        link_down_[l] = 1;
      }
    }
    for (FlightSlot& flight : shard.flights) {
      if (flight.in_use && !flight.dropped &&
          fault_plan_.link_dead(static_cast<int>(flight.link))) {
        flight.dropped = true;
      }
    }
    for (Rank n = 0; n < torus_.nodes(); ++n) {
      if (node_slab_[static_cast<std::size_t>(n)] != shard.id) continue;
      if (fault_plan_.node_alive(n)) continue;
      CpuState& cpu = cpu_[static_cast<std::size_t>(n)];
      cpu.idle = true;
      cpu.stalled = false;
    }
    // Traffic already committed into dead nodes can never drain on its own;
    // the stuck sweep is the backstop that returns its credits.
    arm_sweep();
  } else {
    const TransientOutage& outage =
        fault_plan_.transients()[static_cast<std::size_t>(a)];
    // `outage.link` is the + direction port, so the paired reverse link is
    // the matching - direction port on the peer.
    const Rank node_a = static_cast<Rank>(outage.link / dirs_);
    const Rank node_b = link_peer_[static_cast<std::size_t>(outage.link)];
    const int dir = outage.link % dirs_;
    const int reverse = link_id(node_b, dir ^ 1);
    const bool repaired = b != 0;
    const bool own_a = node_slab_[static_cast<std::size_t>(node_a)] == shard.id;
    const bool own_b = node_slab_[static_cast<std::size_t>(node_b)] == shard.id;
    if (own_a) {
      // One bookkeeper per outage: the + end's owner counts it.
      if (repaired) {
        shard.fstats.link_down_cycles += outage.up_at - outage.down_at;
      } else {
        ++shard.fstats.transient_strikes;
      }
    }
    if (repaired) {
      // Restart flow: whichever heads queued up behind the outage want out.
      if (own_a) {
        link_down_[static_cast<std::size_t>(outage.link)] = 0;
        schedule_arb_if_idle(node_a, dir);
      }
      if (own_b) {
        link_down_[static_cast<std::size_t>(reverse)] = 0;
        schedule_arb_if_idle(node_b, dir ^ 1);
      }
    } else {
      if (own_a) link_down_[static_cast<std::size_t>(outage.link)] = 1;
      if (own_b) link_down_[static_cast<std::size_t>(reverse)] = 1;
      for (FlightSlot& flight : shard.flights) {
        if (flight.in_use && !flight.dropped &&
            (flight.link == static_cast<std::uint32_t>(outage.link) ||
             flight.link == static_cast<std::uint32_t>(reverse))) {
          flight.dropped = true;
        }
      }
    }
  }
  // With one slab no other slab runs concurrently, so the invariants can be
  // checked mid-run.
  if (config_.debug_checks && shards_.size() == 1) run_debug_checks(false);
}

bool Fabric::continuation_live(const Packet& head, Rank peer, int dir) const {
  auto hops = head.hops;
  const int axis = axis_of(dir);
  hops[static_cast<std::size_t>(axis)] = static_cast<std::int16_t>(
      hops[static_cast<std::size_t>(axis)] - sign_of(dir));
  return fault_plan_.route_live(peer, hops, head.mode, live_route_memo());
}

void Fabric::return_buffer_credit(Rank node, int port, const Packet& packet) {
  const std::size_t buf = static_cast<std::size_t>(buf_id(node, port, packet.vc));
  const std::int32_t credit = (packet.vc == vc_bubble_ ? 1 : packet.chunks);
  const Rank upstream = torus_.neighbor(node, topo::Direction::from_index(port ^ 1));
  if (upstream >= 0 && node_slab_[static_cast<std::size_t>(upstream)] != shard_ctx_->id) {
    BoundaryMsg msg;
    msg.node = upstream;
    msg.buf = static_cast<std::int32_t>(buf);
    msg.chunks = credit;
    msg.port = static_cast<std::uint8_t>(port);
    msg.is_credit = true;
    shard_ctx_->outbox[static_cast<std::size_t>(
        node_slab_[static_cast<std::size_t>(upstream)])].push_back(msg);
    return;
  }
  buffer_free_[buf] += credit;
  if (upstream >= 0) schedule_arb_if_idle(upstream, port);
}

void Fabric::arm_sweep() {
  Shard& shard = *shard_ctx_;
  if (shard.sweep_scheduled || stuck_cycles_ == 0) return;
  shard.sweep_scheduled = true;
  post(now() + stuck_cycles_, kEvSweep);
}

void Fabric::stuck_sweep() {
  // Drops every head older than stuck_cycles_ from the slab's own buffers,
  // then its own FIFOs, both in index order. While the slab still holds
  // packets it keeps sweeping: a fault scenario can wedge at most
  // stuck_cycles_ before the backstop unwinds it, and the wheel drains
  // (quiescence) once the slab truly empties.
  Shard& shard = *shard_ctx_;
  shard.sweep_scheduled = false;
  const Tick cutoff = now() >= stuck_cycles_ ? now() - stuck_cycles_ : 0;
  for (Rank n = 0; n < torus_.nodes(); ++n) {
    if (node_slab_[static_cast<std::size_t>(n)] != shard.id) continue;
    for (int p = 0; p < dirs_; ++p) {
      for (int vc = 0; vc < vcs_; ++vc) {
        const std::size_t b = static_cast<std::size_t>(buf_id(n, p, vc));
        while (!buffers_[b].empty() && head_since_[b] <= cutoff) drop_buffer_head(b);
      }
    }
  }
  for (Rank n = 0; n < torus_.nodes(); ++n) {
    if (node_slab_[static_cast<std::size_t>(n)] != shard.id) continue;
    for (int f = 0; f < fifo_count_; ++f) {
      const std::size_t fid = static_cast<std::size_t>(fifo_id(n, f));
      while (!fifos_[fid].empty() && fifo_head_since_[fid] <= cutoff) drop_fifo_head(n, f);
    }
  }
  if (shard.in_network > 0) arm_sweep();
}

void Fabric::drop_buffer_head(std::size_t buf) {
  auto& queue = buffers_[buf];
  const Packet victim = queue.front();
  queue.pop_front();
  set_buffer_want(buf, queue.empty() ? 0 : want_mask(queue.front()));
  --live_in_network();
  ++live_fault_stats().dropped_stuck;
  const Rank node =
      static_cast<Rank>(buf / (static_cast<std::size_t>(dirs_) *
                               static_cast<std::size_t>(vcs_)));
  const int port = static_cast<int>(buf / static_cast<std::size_t>(vcs_)) % dirs_;
  return_buffer_credit(node, port, victim);
  if (!queue.empty()) {
    head_since_[buf] = now();
    schedule_profitable_arbs(node, queue.front());
  }
}

void Fabric::drop_fifo_head(Rank node, int fifo) {
  const std::size_t fid = static_cast<std::size_t>(fifo_id(node, fifo));
  auto& queue = fifos_[fid];
  const Packet victim = queue.front();
  queue.pop_front();
  fifo_free_[fid] += victim.chunks;
  set_fifo_want(fid, queue.empty() ? 0 : want_mask(queue.front()));
  --live_in_network();
  ++live_fault_stats().dropped_stuck;
  CpuState& cpu = cpu_[static_cast<std::size_t>(node)];
  if (cpu.stalled && cpu.pending.fifo == fifo && !cpu.pump_scheduled &&
      node_alive_now(node)) {
    cpu.pump_scheduled = true;
    post(std::max(now(), cpu.next_free), kEvCpu, static_cast<std::uint32_t>(node));
  }
  if (!queue.empty()) {
    fifo_head_since_[fid] = now();
    schedule_profitable_arbs(node, queue.front());
  }
}

std::string Fabric::check_invariants(bool quiescent) const {
  const int nodes = torus_.nodes();
  auto fail = [](const std::string& what) { return what; };

  for (Rank n = 0; n < nodes; ++n) {
    for (int p = 0; p < dirs_; ++p) {
      for (int vc = 0; vc < vcs_; ++vc) {
        const std::size_t b = static_cast<std::size_t>(buf_id(n, p, vc));
        const auto& queue = buffers_[b];
        const std::int32_t free = buffer_free_[b];
        const std::int32_t cap =
            vc == vc_bubble_ ? bubble_slots_ : config_.vc_capacity_chunks;
        // Dynamic VCs may transiently overfill by less than one max packet
        // (chunk-streaming model); the bubble VC never may.
        const std::int32_t floor_free =
            vc == vc_bubble_ ? 0 : -(static_cast<std::int32_t>(config_.max_packet_chunks) - 1);
        if (free < floor_free || free > cap) {
          return fail("buffer free out of range at node " + std::to_string(n));
        }
        const std::uint8_t want = buffer_want_[b];
        if (queue.empty() && want != 0) {
          return fail("stale want mask on empty buffer at node " + std::to_string(n));
        }
        if (!queue.empty() && want != want_mask(queue.front())) {
          return fail("want mask does not match head at node " + std::to_string(n));
        }
        if (quiescent && (!queue.empty() || free != cap)) {
          return fail("non-drained buffer at node " + std::to_string(n));
        }
        for (const Packet& packet : queue) {
          if (packet.at_destination()) {
            return fail("terminated packet still buffered at node " + std::to_string(n));
          }
          if (packet.vc != vc) {
            return fail("packet VC tag mismatch at node " + std::to_string(n));
          }
        }
      }
    }
    for (int f = 0; f < fifo_count_; ++f) {
      const std::size_t fid = static_cast<std::size_t>(fifo_id(n, f));
      const auto& queue = fifos_[fid];
      const std::int32_t free = fifo_free_[fid];
      if (free < 0 || free > config_.injection_fifo_chunks) {
        return fail("fifo free out of range at node " + std::to_string(n));
      }
      std::int32_t queued = 0;
      for (const Packet& packet : queue) queued += packet.chunks;
      if (free + queued != config_.injection_fifo_chunks) {
        return fail("fifo accounting mismatch at node " + std::to_string(n));
      }
      if (queue.empty() != (fifo_want_[fid] == 0)) {
        return fail("fifo want mask inconsistent at node " + std::to_string(n));
      }
      if (quiescent && !queue.empty()) {
        return fail("non-drained fifo at node " + std::to_string(n));
      }
    }
  }
  for (Rank n = 0; n < nodes; ++n) {
    for (int d = 0; d < dirs_; ++d) {
      std::uint16_t expect = 0;
      const std::uint8_t bit = static_cast<std::uint8_t>(1u << d);
      for (int p = 0; p < dirs_; ++p) {
        for (int vc = 0; vc < vcs_; ++vc) {
          if (buffer_want_[static_cast<std::size_t>(buf_id(n, p, vc))] & bit) ++expect;
        }
      }
      for (int f = 0; f < fifo_count_; ++f) {
        if (fifo_want_[static_cast<std::size_t>(fifo_id(n, f))] & bit) ++expect;
      }
      if (node_dir_want_[static_cast<std::size_t>(link_id(n, d))] != expect) {
        return fail("want counter out of sync at node " + std::to_string(n) +
                    " dir " + std::to_string(d));
      }
    }
  }
  if (quiescent && in_network_ != 0) {
    return fail("packets still in network: " + std::to_string(in_network_));
  }
  std::int64_t inflight = 0;
  for (const Shard& shard : shards_) {
    for (const FlightSlot& slot : shard.flights) inflight += slot.in_use;
  }
  if (quiescent && inflight != 0) return fail("flight slots leaked");
  return "";
}

Tick Fabric::latest_clock() const noexcept {
  Tick latest = 0;
  for (const Shard& shard : shards_) latest = std::max(latest, shard.now);
  return latest;
}

void Fabric::dump_state() const {
  const Tick t = latest_clock();
  std::fprintf(stderr, "=== fabric state at t=%llu, in_network=%lld ===\n",
               static_cast<unsigned long long>(t), static_cast<long long>(in_network_));
  for (Rank n = 0; n < torus_.nodes(); ++n) {
    const CpuState& cpu = cpu_[static_cast<std::size_t>(n)];
    if (cpu.stalled) {
      std::fprintf(stderr, "node %d: CPU stalled on fifo %d (dst %d, %d chunks)\n", n,
                   cpu.pending.fifo, cpu.pending.dst, cpu.pending.wire_chunks);
    }
    for (int f = 0; f < fifo_count_; ++f) {
      const auto& q = fifos_[static_cast<std::size_t>(fifo_id(n, f))];
      if (q.empty()) continue;
      const Packet& h = q.front();
      std::fprintf(stderr,
                   "node %d fifo %d: %zu pkts, head dst=%d hops=(%d,%d,%d,%d) mode=%d\n",
                   n, f, q.size(), h.dst, h.hops[0], h.hops[1], h.hops[2], h.hops[3],
                   static_cast<int>(h.mode));
    }
    for (int p = 0; p < dirs_; ++p) {
      for (int vc = 0; vc < vcs_; ++vc) {
        const auto& q = buffers_[static_cast<std::size_t>(buf_id(n, p, vc))];
        if (q.empty()) continue;
        const Packet& h = q.front();
        std::fprintf(stderr,
                     "node %d port %d vc %d: %zu pkts free=%d, head dst=%d "
                     "hops=(%d,%d,%d,%d) mode=%d\n",
                     n, p, vc, q.size(),
                     buffer_free_[static_cast<std::size_t>(buf_id(n, p, vc))], h.dst,
                     h.hops[0], h.hops[1], h.hops[2], h.hops[3], static_cast<int>(h.mode));
      }
    }
    for (int d = 0; d < dirs_; ++d) {
      const auto link = static_cast<std::size_t>(link_id(n, d));
      if (link_busy_until_[link] > t || arb_scheduled_[link]) {
        std::fprintf(stderr, "node %d link %d: busy_until=%llu arb_scheduled=%d\n", n, d,
                     static_cast<unsigned long long>(link_busy_until_[link]),
                     arb_scheduled_[link]);
      }
    }
  }
}

void Fabric::trace_wait_cycle() const {
  // Find some non-empty transit buffer head.
  int start_buf = -1;
  for (std::size_t b = 0; b < buffers_.size(); ++b) {
    if (!buffers_[b].empty()) {
      start_buf = static_cast<int>(b);
      break;
    }
  }
  if (start_buf < 0) {
    std::fprintf(stderr, "trace: no queued packets\n");
    return;
  }
  std::vector<char> visited(buffers_.size(), 0);
  const Tick t = latest_clock();
  int buf = start_buf;
  for (int step = 0; step < 200; ++step) {
    const Rank node = static_cast<Rank>(buf / (dirs_ * vcs_));
    const int port = (buf / vcs_) % dirs_;
    const int vc = buf % vcs_;
    const Packet& head = buffers_[static_cast<std::size_t>(buf)].front();
    std::fprintf(stderr,
                 "step %d: node %d port %d vc %d head: dst=%d hops=(%d,%d,%d,%d) "
                 "chunks=%d (buffer free=%d, %zu pkts)\n",
                 step, node, port, vc, head.dst, head.hops[0], head.hops[1], head.hops[2],
                 head.hops[3], head.chunks, buffer_free_[static_cast<std::size_t>(buf)],
                 buffers_[static_cast<std::size_t>(buf)].size());
    if (visited[static_cast<std::size_t>(buf)]) {
      std::fprintf(stderr, "  -> CYCLE (revisited this buffer)\n");
      return;
    }
    visited[static_cast<std::size_t>(buf)] = 1;

    // Which buffers could this head move into, and why is each blocked?
    int next_buf = -1;
    for (int d = 0; d < dirs_; ++d) {
      const int axis = d / 2;
      const int sign = (d % 2 == 0) ? +1 : -1;
      if (!wants_output(head, axis, sign)) continue;
      const std::size_t lk = static_cast<std::size_t>(link_id(node, d));
      if (link_peer_[lk] < 0) continue;
      if (link_busy_until_[lk] > t) {
        std::fprintf(stderr, "  output %d: link busy (not deadlocked)\n", d);
        return;
      }
      const bool entering = (port / 2 != axis) || (vc != vc_bubble_);
      const int target = select_downstream(head, node, d, entering);
      if (target == kDeliverHere) {
        std::fprintf(stderr, "  output %d: would deliver — arbitration starvation?\n", d);
        return;
      }
      if (target >= 0) {
        std::fprintf(stderr, "  output %d: grantable to vc %d — lost wakeup!\n", d, target);
        return;
      }
      // Blocked: report the fullest constraint and follow the bubble target.
      const Rank peer = link_peer_[lk];
      for (int tvc = 0; tvc < vcs_; ++tvc) {
        std::fprintf(stderr, "  output %d -> peer %d vc %d free=%d%s\n", d, peer, tvc,
                     buffer_free_[static_cast<std::size_t>(buf_id(peer, d, tvc))],
                     tvc == vc_bubble_ && entering ? " (entering: needs chunks+max)" : "");
      }
      if (next_buf < 0) {
        // Follow the most-loaded downstream buffer that has a head.
        for (int tvc = 0; tvc < vcs_; ++tvc) {
          const int cand = buf_id(peer, d, tvc);
          if (!buffers_[static_cast<std::size_t>(cand)].empty()) {
            next_buf = cand;
            break;
          }
        }
      }
    }
    if (next_buf < 0) {
      std::fprintf(stderr, "  no downstream buffer with queued head to follow\n");
      return;
    }
    buf = next_buf;
  }
}

std::uint32_t Fabric::alloc_flight_slot(Shard& shard) {
  std::uint32_t slot;
  if (!shard.free_flights.empty()) {
    slot = shard.free_flights.back();
    shard.free_flights.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(shard.flights.size());
    shard.flights.emplace_back();
  }
  shard.flights[slot].in_use = true;
  shard.flights[slot].dropped = false;
  return slot;
}

}  // namespace bgl::net
