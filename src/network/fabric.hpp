// The torus network fabric: routers, links, virtual channels, injection
// FIFOs and the per-node core (CPU) injection model, driven by per-slab
// discrete event wheels (DESIGN.md Section 10).
//
// Model summary (see DESIGN.md Section 5):
//  - Input-queued routers: each node has one input buffer per (incoming
//    direction, VC) pair with `vc_capacity_chunks` of space, plus
//    `injection_fifos` local injection FIFOs.
//  - Virtual cut-through at packet granularity: a granted packet occupies the
//    link for `chunks * chunk_cycles` and is appended to the downstream
//    buffer `hop_latency_cycles` later. Credits (free chunks) are reserved at
//    grant time and returned when the packet later leaves that buffer.
//  - Adaptive routing: at each output-link arbitration, head packets of any
//    input wanting that direction compete round-robin. An adaptive packet
//    takes the dynamic VC with the most free downstream space; if neither
//    dynamic VC fits and the link is the packet's dimension-order hop it may
//    use the bubble escape VC. A packet *entering* a ring on the bubble VC
//    (from injection or a turn) must leave one max-packet bubble free,
//    guaranteeing deadlock freedom; packets continuing along the ring only
//    need space for themselves.
//  - Deterministic routing: bubble VC only, strict X->Y->Z dimension order.
//  - Core model: a node's core injects packets sequentially; each packet
//    costs `extra_cpu_cycles + chunks*chunk_cycles/cpu_links`, so a core can
//    keep about `cpu_links` links busy, as measured in the paper. TPS
//    forwarding re-injections share this budget, which reproduces the
//    CPU-limited two-phase result on 8x8x8.
//
// The fabric pulls traffic from a Client (one per simulation, covering all
// nodes). Clients are the all-to-all strategies in src/coll.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "src/network/config.hpp"
#include "src/network/faults.hpp"
#include "src/network/packet.hpp"
#include "src/network/packet_ring.hpp"
#include "src/sim/event_queue.hpp"
#include "src/topology/torus.hpp"
#include "src/util/rng.hpp"

namespace bgl::net {

class Fabric;

/// Traffic source/sink for every node. Implemented by all-to-all strategies.
class Client {
 public:
  virtual ~Client() = default;

  /// Called when `node`'s core is free and willing to inject. Fill `out` and
  /// return true to inject; return false to go idle (the fabric will not ask
  /// again until `Fabric::wake_cpu(node)` is called).
  virtual bool next_packet(Rank node, InjectDesc& out) = 0;

  /// A packet addressed to `node` arrived. May call Fabric::wake_cpu.
  virtual void on_delivery(Rank node, const Packet& packet) = 0;

  /// A timer scheduled with Fabric::schedule_timer fired.
  virtual void on_timer(Rank node, std::uint64_t cookie) { (void)node, (void)cookie; }
};

/// Aggregate counters for a run.
struct FabricStats {
  /// `first_injection` value while no packet has ever been injected. A real
  /// injection at tick 0 is common (the first core pump), so 0 cannot double
  /// as the "empty run" marker.
  static constexpr Tick kNever = ~Tick{0};

  std::uint64_t packets_injected = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t payload_bytes_delivered = 0;
  std::uint64_t chunk_hops = 0;   // chunks x links traversed
  Tick first_injection = kNever;  // kNever until the first injection
  Tick last_delivery = 0;

  /// Ticks between the first injection and the last delivery; 0 for a run
  /// that never injected (so time-averaged stats divide by zero nowhere).
  Tick active_span() const noexcept {
    return first_injection == kNever || last_delivery < first_injection
               ? Tick{0}
               : last_delivery - first_injection;
  }
  // Arbitration outcome counters (diagnosis of idle links).
  std::uint64_t arb_grants = 0;
  std::uint64_t arb_no_candidate = 0;  // no head wanted this output
  std::uint64_t arb_blocked = 0;       // candidates existed, all credit-blocked
};

/// Counters of the fault subsystem; all zero on a fault-free run.
struct FaultStats {
  std::uint64_t dropped_in_flight = 0;   // on a link that died under them
  std::uint64_t dropped_prob = 0;        // probabilistic loss drops
  std::uint64_t dropped_stuck = 0;       // stuck-head sweep (wedge backstop)
  /// Packets delivered with payload bits flipped by a Byzantine link
  /// (corrupt_prob): not dropped — the receiver's end-to-end checksum must
  /// reject every one (ReliabilityStats::corrupt_rejected matches this).
  std::uint64_t corrupted_payloads = 0;
  std::uint64_t unroutable_at_injection = 0;  // no live minimal path existed
  std::uint64_t reroute_vetoes = 0;      // grants refused into dead ends
  std::uint64_t transient_strikes = 0;   // transient link outages begun
  Tick link_down_cycles = 0;             // summed transient downtime (per link)
  /// Relay payload accepted by nodes that later fail-stopped (fail_at > 0):
  /// bytes owed to final destinations that died with their custodian. The
  /// schedule executor computes it at quiescence (see
  /// ScheduleExecutor::stranded_relay_bytes); nonzero means the shortfall in
  /// the delivery matrix is explained by the strike, not a simulator bug.
  std::uint64_t stranded_relay_bytes = 0;

  std::uint64_t total_dropped() const noexcept {
    return dropped_in_flight + dropped_prob + dropped_stuck;
  }
};

/// Why a run that asked for --sim-threads N executed on fewer threads (as
/// few as one slab). Surfaced through RunResult::sim_threads_reason so a
/// silent fallback is always explainable.
enum class ThreadFallbackReason : std::uint8_t {
  kNone = 0,        // parallel engine in use at the requested width (or capped
                    // only by the slab-axis extent)
  kNotRequested,    // sim_threads <= 1: nobody asked
  kNarrowShape,     // the widest axis has extent 1: nothing to partition
};

constexpr const char* to_string(ThreadFallbackReason reason) noexcept {
  switch (reason) {
    case ThreadFallbackReason::kNone: return "parallel";
    case ThreadFallbackReason::kNotRequested: return "not requested";
    case ThreadFallbackReason::kNarrowShape: return "slab axis extent 1";
  }
  return "?";
}

/// Throws std::invalid_argument naming the first setting of `config` the
/// fabric cannot simulate. Fabric's constructor runs it; a front end may run
/// it first to report a bad command line as a usage error.
void check_config(const NetworkConfig& config);

class Fabric {
 public:
  /// Throws std::invalid_argument on a config check_config rejects. The
  /// fabric expands its own fault plan from config.faults.
  Fabric(const NetworkConfig& config, Client& client);

  /// Runs epoch `epoch` of a faulted collective under the caller's `plan`,
  /// which must be the expansion of config.faults over config.shape (a copy
  /// shares its routability table). Epoch 0 plays the plan's timeline: the
  /// permanent faults strike at fail_at and the transient outages come and
  /// go. A repair epoch (epoch > 0) starts once epoch 0 has quiesced, so it
  /// runs on the plan's dead and degraded sets from tick 0 with no outage
  /// pending. The epoch is part of every packet's fault-draw key. Throws
  /// std::invalid_argument when `plan` was expanded from another config.
  Fabric(const NetworkConfig& config, Client& client, FaultPlan plan, int epoch);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Runs until quiescent (all traffic drained and all cores idle) or until
  /// `deadline`. Returns true when quiescent. Can be called repeatedly; the
  /// first call cuts the torus into slabs and primes every node's core.
  bool run(Tick deadline = ~Tick{0});

  /// Current simulation time: the executing slab's clock. Slab clocks may
  /// differ transiently (bounded by the lookahead window) but each handler
  /// only ever observes its own. Like wake_cpu and schedule_timer, callable
  /// only from inside run() (client callbacks).
  Tick now() const noexcept { return shard_ctx_->now; }
  const topo::Torus& torus() const noexcept { return torus_; }
  const NetworkConfig& config() const noexcept { return config_; }
  const FabricStats& stats() const noexcept { return stats_; }

  /// The expanded fault plan (empty/disabled on a healthy network) and the
  /// fault-event counters.
  const FaultPlan& fault_plan() const noexcept { return fault_plan_; }
  const FaultStats& fault_stats() const noexcept { return fault_stats_; }

  /// Re-arms `node`'s core if idle (clients call this when new work arrives,
  /// e.g. a TPS forward enqueued by on_delivery).
  void wake_cpu(Rank node);

  /// Fires Client::on_timer(node, cookie) after `delay` cycles.
  void schedule_timer(Rank node, Tick delay, std::uint64_t cookie);

  /// Free space of an injection FIFO, in chunks (for client FIFO choice).
  int fifo_free_chunks(Rank node, int fifo) const;
  /// Least-occupied FIFO index in [begin, end).
  int pick_fifo(Rank node, int begin, int end) const;

  /// Packets currently inside the network (FIFOs + buffers + in flight).
  std::int64_t packets_in_network() const noexcept { return in_network_; }

  /// Host-side watchdog for wedged runs: polled by slab 0 every few thousand
  /// events; returning true aborts run() (which then reports not-drained and
  /// sets aborted()). Used for per-job wall-clock timeouts — results of an
  /// aborted run are not meaningful and must be discarded.
  void set_abort_check(std::function<bool()> check) { abort_check_ = std::move(check); }
  bool aborted() const noexcept { return aborted_; }

  /// Busy cycles of the directed link (node, direction); divide by elapsed
  /// time for utilization. Empty when collect_link_stats is off.
  const std::vector<Tick>& link_busy_cycles() const noexcept { return link_busy_; }

  std::uint64_t events_processed() const noexcept { return events_; }

  /// Slabs (worker threads) the last/next run() actually uses after
  /// eligibility gating (see NetworkConfig::sim_threads).
  int effective_sim_threads() const noexcept { return plan_threads(); }

  /// Why the effective thread count fell short of the request (kNone when
  /// the parallel engine runs).
  ThreadFallbackReason sim_threads_reason() const noexcept {
    ThreadFallbackReason reason = ThreadFallbackReason::kNone;
    (void)plan_threads(&reason);
    return reason;
  }

  /// Observer invoked at every link grant: (packet after hop decrement,
  /// node granting, direction index, downstream VC or kDeliverHere).
  /// For tests and tracing; adds a branch per grant when unset. A one-slab
  /// run calls it inline in grant order. With several slabs grants are
  /// buffered per slab, and each window's grants are replayed during the
  /// next window in (tick, link id) order — a total, deterministic order (a
  /// link grants at most once per tick), though generally different from
  /// the one-slab interleaving across links. Calls never overlap, and every
  /// grant of a run() call is observed before it returns.
  ///
  /// Thread contract with several slabs: the observer runs on a slab worker
  /// thread while other slabs simulate, so it must touch only its own
  /// state — never this Fabric or the Client. An exception it throws aborts
  /// the run, run() rethrows it, and no later grant is replayed.
  using HopObserver = std::function<void(const Packet&, Rank, int, int)>;
  void set_hop_observer(HopObserver observer) { hop_observer_ = std::move(observer); }

  /// Validates internal consistency; returns "" or a description of the
  /// first violation. With `quiescent` also requires empty queues, full
  /// credit counters and an empty network.
  std::string check_invariants(bool quiescent) const;

  /// Debug dump of all non-empty buffers/FIFOs and stalled cores (stderr).
  /// Like trace_wait_cycle, safe between runs (it reads no slab context).
  void dump_state() const;

  /// Debug aid: starting from an arbitrary blocked head packet, follow the
  /// chain of "waits for buffer X, whose head waits for..." and print it
  /// until a repeat (the deadlock cycle) or a movable packet is found.
  void trace_wait_cycle() const;

 private:
  // --- event types ---
  static constexpr std::uint32_t kEvArb = 0;      // a = link id
  static constexpr std::uint32_t kEvArrival = 1;  // a = flight slot
  static constexpr std::uint32_t kEvCpu = 2;      // a = node
  static constexpr std::uint32_t kEvTimer = 3;    // a = node, b = cookie
  static constexpr std::uint32_t kEvFault = 4;    // a = outage idx / kPermStrike, b = up?
  static constexpr std::uint32_t kEvSweep = 5;    // stuck-head sweep tick

  /// kEvFault `a` value for the delayed permanent strike (fail_at > 0).
  static constexpr std::uint32_t kPermStrike = ~std::uint32_t{0};

  struct FlightSlot {
    Packet packet;
    Rank to_node = -1;
    std::uint32_t link = 0;  // directed link being crossed (fault drops)
    std::uint8_t port = 0;
    bool deliver = false;
    bool dropped = false;  // link died under this packet; discard on arrival
    bool in_use = false;
  };

  struct CpuState {
    Tick next_free = 0;
    bool pump_scheduled = false;
    bool idle = false;     // client said "no work"; needs wake_cpu
    bool stalled = false;  // has a descriptor waiting for FIFO space
    InjectDesc pending{};
  };

  /// One cross-slab handoff, produced by the owning worker during a window
  /// and applied single-threaded at the window barrier. Two kinds:
  ///  - packet: a link grant whose downstream node lives in another slab.
  ///    `at` is the exact arrival tick (>= the next window start, because
  ///    serialization + hop latency bound the lookahead window).
  ///  - credit: a buffer pop whose feeding link lives in another slab. The
  ///    free-space counter of a buffer is owned by the *feeder's* slab (the
  ///    only writer at grant time), so the return travels as a message,
  ///    lands at the barrier and wakes the feeder link at the next window
  ///    start — at most one window (W) late, the one timing relaxation.
  struct BoundaryMsg {
    Tick at = 0;             // packet: arrival tick
    Packet packet{};         // packet kind only
    Rank node = -1;          // packet: downstream node; credit: feeder node
    std::int32_t buf = 0;    // credit: buffer index whose free count grows
    std::int32_t chunks = 0; // credit: chunks (or bubble slots) returned
    std::uint32_t link = 0;  // packet: directed link crossed
    std::uint8_t port = 0;   // packet: input port; credit: direction to re-arb
    bool deliver = false;
    bool is_credit = false;
  };

  /// One buffered hop-observer grant (runs with several slabs), replayed in
  /// (at, link) order. node/dir are derived from `link`.
  struct HopRecord {
    Tick at = 0;
    std::uint32_t link = 0;
    std::int32_t target = 0;
    Packet packet{};
  };

  /// Per-worker slab state: its own event wheel, clock, flight-slot arena,
  /// RNG, stat counters and fault-side state. Torus state arrays (buffers,
  /// credits, links, cores) stay in the shared structure-of-arrays vectors;
  /// slab ownership partitions their *indices*, so workers never write the
  /// same cell.
  struct Shard {
    int id = 0;
    sim::TimingWheel wheel;
    Tick now = 0;
    std::uint64_t processed = 0;
    std::vector<FlightSlot> flights;
    std::vector<std::uint32_t> free_flights;
    util::Xoshiro256StarStar rng;
    FabricStats stats;
    /// Packets the slab holds: queued in its FIFOs and buffers, in flight in
    /// its arena, or waiting in its outbox. A cross-slab handoff moves one
    /// count from the sender to the receiver at the barrier.
    std::int64_t in_network = 0;
    /// Outgoing messages, indexed by destination shard.
    std::vector<std::vector<BoundaryMsg>> outbox;
    // Shard-owned fault state: counters merged at merge_shard_stats, a
    // private strike flag flipped by this slab's own kPermStrike event and a
    // private stuck-sweep arm flag.
    FaultStats fstats;
    bool struck = false;
    bool sweep_scheduled = false;
    /// Hop-observer grants of the window being simulated, in (at, link)
    /// order once the slab's shard_step returns (see order_hop_log).
    std::vector<HopRecord> hop_log;
    /// The previous window's grants, swapped in from hop_log at the barrier
    /// and emptied by replay_hop_logs.
    std::vector<HopRecord> hop_replay;
    /// Wheel events the barrier hands this slab (boundary arrivals and
    /// credit wakes), pushed by the slab's own worker when its next window
    /// starts: a wheel's node pool only ever grows in its owner's thread,
    /// so the barrier thread never spreads a slab's memory over another
    /// thread's malloc arena.
    std::vector<sim::Event> inbox;
  };

  // --- indexing helpers (dirs_ = 2n directions on an n-dimensional shape) ---
  int link_id(Rank node, int dir) const noexcept { return node * dirs_ + dir; }
  int buf_id(Rank node, int port, int vc) const noexcept {
    return (node * dirs_ + port) * vcs_ + vc;
  }
  int fifo_id(Rank node, int fifo) const noexcept { return node * fifo_count_ + fifo; }

  // --- event dispatch: everything below reads the executing slab ---
  /// Schedules an event on the executing slab's wheel. All call sites
  /// schedule slab-local events by construction; cross-slab effects go
  /// through BoundaryMsg instead. A time before the slab clock throws
  /// std::logic_error (TimingWheel::push), in every build.
  void post(Tick at, std::uint32_t type, std::uint32_t a = 0, std::uint64_t b = 0) {
    shard_ctx_->wheel.push(at, type, a, b);
  }
  FabricStats& live_stats() noexcept { return shard_ctx_->stats; }
  std::int64_t& live_in_network() noexcept { return shard_ctx_->in_network; }
  util::Xoshiro256StarStar& live_rng() noexcept { return shard_ctx_->rng; }
  FlightSlot& flight_at(std::uint32_t slot) noexcept { return shard_ctx_->flights[slot]; }
  FaultStats& live_fault_stats() noexcept { return shard_ctx_->fstats; }
  bool struck_now() const noexcept { return shard_ctx_->struck; }

  // --- slab-partitioned run ---
  int plan_threads(ThreadFallbackReason* reason = nullptr) const noexcept;
  int slab_axis() const noexcept;
  void prime(int threads);
  void setup_shards(int threads);
  /// Pops and handles the slab's events up to `limit` (the run deadline on a
  /// one-slab run, the window end - 1 otherwise); a thrown error is recorded
  /// for run() to rethrow.
  void shard_step(Shard& shard, Tick limit);
  void record_error(std::exception_ptr error) noexcept;
  /// The latest slab clock, for the debug aids that run outside handlers.
  Tick latest_clock() const noexcept;
  void apply_boundary(Shard& src, Shard& dst, const BoundaryMsg& msg);
  void barrier_phase(Tick deadline) noexcept;
  void advance_window(Tick deadline);
  void merge_shard_stats();
  /// Sorts each run of equal ticks in the slab's grant log by link id; the
  /// wheel pops in tick order, so the log is then in (at, link) order.
  static void order_hop_log(std::vector<HopRecord>& log) noexcept;
  /// Replays every slab's hop_replay buffer to the observer by a k-way merge
  /// in (at, link) order, then empties the buffers. An observer exception
  /// is recorded for run() to rethrow and ends the replay.
  void replay_hop_logs() noexcept;

  // --- core simulation steps ---
  void handle(const sim::Event& event);
  void pump_cpu(Rank node);
  void arbitrate(int link);
  void commit_grant(std::size_t lk, Rank node, int dir, Rank peer, const Packet& granted,
                    int target);
  void on_arrival(std::uint32_t slot_index);
  bool try_inject(Rank node, const InjectDesc& desc);
  void schedule_arb_if_idle(Rank node, int dir);
  /// Marks an arbitration of link (node, dir) due at `at` when one is needed
  /// (live, idle by then, unscheduled, wanted); true when the caller must
  /// schedule the kEvArb event.
  bool claim_arb(Rank node, int dir, Tick at);
  void schedule_profitable_arbs(Rank node, const Packet& packet);

  // --- fault machinery (no-ops unless faults_active_) ---
  void init_faults();
  /// Schedules the fault timeline (delayed permanent strike, transient
  /// outages) into the shard wheels, once per fabric, at prime time.
  void prime_fault_events();
  /// A strike or transient outage event: the executing slab applies only its
  /// own slice (its links' down bits, its nodes' cores, its flight arena).
  void on_fault_event(std::uint32_t a, std::uint64_t b);
  /// Returns the credit `packet` reserved in buffer (node, port, packet.vc)
  /// once it leaves that buffer (granted onward or dropped) and re-arms the
  /// feeding link. The free counter is owned by the feeder's slab, so with a
  /// foreign feeder the return travels as a boundary credit message.
  void return_buffer_credit(Rank node, int port, const Packet& packet);
  /// True when `head`, after crossing `dir` into `peer`, still has a live
  /// minimal continuation (permanent fault state).
  bool continuation_live(const Packet& head, Rank peer, int dir) const;
  void arm_sweep();
  void stuck_sweep();
  void drop_buffer_head(std::size_t buf);
  void drop_fifo_head(Rank node, int fifo);
  void run_debug_checks(bool quiescent) const;

  /// Downstream VC selection; returns VC index, kDeliverHere, or kBlocked.
  static constexpr int kDeliverHere = -1;
  static constexpr int kBlocked = -2;
  int select_downstream(const Packet& packet, Rank node, int dir, bool entering) const;

  /// True if `packet` may use output axis/sign under its routing mode.
  static bool wants_output(const Packet& packet, int axis, int sign) noexcept;

  /// Bitmask over direction indices the packet may use as its next hop.
  static std::uint8_t want_mask(const Packet& packet) noexcept;

  // Every want-mask write goes through these setters so the per-(node, dir)
  // head counters (node_dir_want_) stay exact; the arbitration wakeup scan
  // then tests one counter instead of walking every buffer and FIFO mask.
  void update_want_counts(Rank node, std::uint8_t old_mask, std::uint8_t new_mask) {
    const std::uint8_t gained = new_mask & static_cast<std::uint8_t>(~old_mask);
    const std::uint8_t lost = old_mask & static_cast<std::uint8_t>(~new_mask);
    if ((gained | lost) == 0) return;
    const std::size_t base = static_cast<std::size_t>(node) * static_cast<std::size_t>(dirs_);
    for (int d = 0; d < dirs_; ++d) {
      const std::uint8_t bit = static_cast<std::uint8_t>(1u << d);
      if (gained & bit) ++node_dir_want_[base + static_cast<std::size_t>(d)];
      if (lost & bit) --node_dir_want_[base + static_cast<std::size_t>(d)];
    }
  }
  void set_buffer_want(std::size_t buf, std::uint8_t mask) {
    const std::uint8_t old = buffer_want_[buf];
    if (old == mask) return;
    buffer_want_[buf] = mask;
    update_want_counts(static_cast<Rank>(buf / (static_cast<std::size_t>(dirs_) *
                                                static_cast<std::size_t>(vcs_))),
                       old, mask);
  }
  void set_fifo_want(std::size_t fid, std::uint8_t mask) {
    const std::uint8_t old = fifo_want_[fid];
    if (old == mask) return;
    fifo_want_[fid] = mask;
    update_want_counts(static_cast<Rank>(fid / static_cast<std::size_t>(fifo_count_)),
                       old, mask);
  }

  Tick cpu_inject_cycles(const InjectDesc& desc) const noexcept;

  std::uint32_t alloc_flight_slot(Shard& shard);

  NetworkConfig config_;
  topo::Torus torus_;
  Client* client_;

  int dirs_;             // link directions per node (2n)
  int fifo_count_;
  int inputs_per_link_;  // 2n transit ports + injection FIFOs
  int vcs_;              // dynamic VCs + 1 bubble escape
  int vc_bubble_;        // index of the bubble VC (== config.dynamic_vcs)
  int bubble_slots_;     // bubble VC capacity in max-packet slots

  // Per (node, port, vc): queued packets and free space in chunks (the
  // bubble VC counts max-packet slots instead; see constructor). Ownership
  // by slab: the queue and want mask belong to the node's slab;
  // the free counter belongs to the slab of the link *feeding* the buffer
  // (its only reader/writer at grant time).
  std::vector<RingQueue<Packet>> buffers_;
  std::vector<std::int32_t> buffer_free_;
  // Output-direction wish mask of each buffer's head packet (0 if empty);
  // contiguous so arbitration scans without touching the queues.
  std::vector<std::uint8_t> buffer_want_;
  // Per (node, dir): how many heads (transit buffers + injection FIFOs of
  // that node) currently want the direction. Kept exact by the want setters;
  // lets schedule_arb_if_idle answer "does anybody want this output?" with
  // one load instead of a scan over dirs_*vcs_ + fifo masks.
  std::vector<std::uint16_t> node_dir_want_;

  // Per (node, fifo).
  std::vector<RingQueue<Packet>> fifos_;
  std::vector<std::int32_t> fifo_free_;
  std::vector<std::uint8_t> fifo_want_;

  // Per directed link.
  std::vector<Tick> link_busy_until_;
  std::vector<std::uint8_t> arb_scheduled_;
  std::vector<std::uint8_t> rr_next_;
  std::vector<Rank> link_peer_;  // downstream node, -1 if mesh edge
  std::vector<Tick> link_busy_;  // accumulated busy cycles (stats)

  std::vector<CpuState> cpu_;

  // Merged from the slabs at the end of every run().
  FabricStats stats_;
  std::int64_t in_network_ = 0;
  std::uint64_t events_ = 0;
  bool primed_ = false;
  HopObserver hop_observer_;

  // --- slab-run state ---
  /// Slab of the worker executing the current handler; null outside
  /// run(). Thread-local so nested fabrics on different host threads
  /// (harness --jobs) cannot alias. Defined inline and constant-initialized
  /// so every translation unit reads the variable directly: an out-of-line
  /// thread_local read from another TU goes through a TLS wrapper that
  /// UBSan reports as a null load.
  static constinit inline thread_local Shard* shard_ctx_ = nullptr;
  std::vector<Shard> shards_;
  std::vector<std::int32_t> node_slab_;
  std::function<bool()> abort_check_;
  Tick window_cycles_ = 0;
  Tick window_end_ = 0;  // exclusive; written only at barriers
  bool done_ = false;
  bool drained_ = false;
  bool aborted_ = false;
  std::atomic<bool> abort_flag_{false};
  std::mutex error_mutex_;
  std::exception_ptr error_;  // guarded by error_mutex_
  /// Set by the barrier when it swaps the slabs' grant logs into their
  /// replay buffers; the first worker to finish the next window clears it
  /// and replays, and run() replays what is still pending when the workers
  /// have joined.
  std::atomic<bool> hop_replay_pending_{false};
  /// Merge cursors of replay_hop_logs, one per slab with records left
  /// (capacity reused).
  struct HopCursor {
    const HopRecord* next;
    const HopRecord* end;
  };
  std::vector<HopCursor> hop_cursors_;

  // --- fault state (sized only when the fault plan is enabled) ---
  FaultPlan fault_plan_;
  bool faults_active_ = false;
  /// Permanent faults applied? True from construction when fail_at == 0
  /// (plan-ahead semantics) or in a repair epoch, false until the
  /// kPermStrike event when fail_at > 0 (blind mid-run fail-stop). Seeds
  /// every slab's own flag (Shard::struck, which gates every consultation of
  /// the plan's permanent state during a run) and holds the merged value
  /// between runs.
  bool struck_ = false;
  bool node_alive_now(Rank node) const noexcept {
    return !faults_active_ || !struck_now() || fault_plan_.node_alive(node);
  }
  Tick stuck_cycles_ = 0;  // stuck-head drop budget (FaultConfig::stuck_drop_cycles)
  std::vector<std::uint8_t> link_down_;      // current (incl. transient) state
  std::vector<std::uint8_t> link_degraded_;  // serialization multiplier applies
  // Tick at which the current head of each buffer/FIFO became head; the
  // stuck sweep drops heads older than stuck_cycles_.
  std::vector<Tick> head_since_;
  std::vector<Tick> fifo_head_since_;
  /// Seeds of the counter-based per-packet fault draws (see fault_hash in
  /// faults.hpp): a drop/corruption decision is a pure function of
  /// (seed, packet identity, epoch, remaining hops), never a sequential RNG
  /// draw, so the realization is identical at any thread count.
  std::uint64_t drop_seed_ = 0;
  std::uint64_t corrupt_seed_ = 0;
  /// Epoch of the collective this fabric runs (0 = the schedule itself).
  std::uint32_t fault_epoch_ = 0;
  FaultStats fault_stats_;
};

}  // namespace bgl::net
