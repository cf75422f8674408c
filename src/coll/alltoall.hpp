// Public entry point: run an all-to-all personalized exchange on a simulated
// Blue Gene/L partition with one of the paper's strategies.
//
//   AlltoallOptions opts;
//   opts.net.shape = topo::parse_shape("8x32x16");
//   opts.msg_bytes = 4096;
//   RunResult r = run_alltoall(StrategyKind::kTwoPhase, opts);
//   // r.percent_peak, r.elapsed_us, r.links ...
#pragma once

#include <cstdint>
#include <string>

#include "src/coll/dest_order.hpp"
#include "src/coll/verify.hpp"
#include "src/network/config.hpp"
#include "src/runtime/reliability.hpp"
#include "src/topology/torus.hpp"
#include "src/trace/stats.hpp"

namespace bgl::coll {

using net::Tick;

enum class StrategyKind {
  kMpi,            // production-MPI-like baseline: message runtime overheads, burst 2
  kAdaptiveRandom, // AR: randomized, adaptively routed, low-overhead (paper §3)
  kDeterministic,  // DR: randomized order on the deterministic bubble VC
  kThrottled,      // AR paced at the Eq. 2 bisection rate
  kTwoPhase,       // TPS: linear phase + planar phase, reserved FIFOs (paper §4.1)
  kVirtualMesh,    // 2-D virtual mesh message combining (paper §4.2)
  kBest,           // paper §5 selection rule; see selector.hpp
};

std::string strategy_name(StrategyKind kind);

/// Epoch accounting of a run that crossed one or more recovery re-plans
/// (see src/coll/recovery.hpp). A run that never re-planned reports
/// epochs == 1 and zeros elsewhere; corruption_retransmits can be nonzero
/// on its own under FaultConfig::corrupt_prob.
struct EpochStats {
  /// Execution epochs: 1 for the initial run plus one per repair schedule.
  int epochs = 1;
  /// Repair re-plan cycles executed (epochs - 1 on a recovered run).
  int replans = 0;
  /// Simulated cycles spent past the initial run: liveness agreement plus
  /// every repair epoch's elapsed time (already folded into elapsed_cycles).
  Tick replan_cycles = 0;
  /// Ordered pairs the first re-plan found short of msg_bytes.
  std::uint64_t residual_pairs = 0;
  /// Residual bytes the repair epochs actually delivered.
  std::uint64_t recovered_bytes = 0;
  /// Deliveries rejected by the end-to-end payload checksum, each covered
  /// by a retransmission (== ReliabilityStats::corrupt_rejected).
  std::uint64_t corruption_retransmits = 0;
};

struct AlltoallOptions {
  /// Payload bytes per destination (the paper's m).
  std::uint64_t msg_bytes = 240;

  net::NetworkConfig net{};

  // --- direct-family tuning ---
  /// Packets sent to one destination before moving to the next (the MPI
  /// tuning parameter; usually 1 or 2).
  int burst = 1;
  /// Throttle pace multiplier (kThrottled): 1.0 = exactly the Eq. 2 rate.
  double throttle = 1.0;
  /// Destination ordering for the direct family (randomization ablation).
  OrderPolicy order = OrderPolicy::kRandom;

  // --- TPS tuning ---
  /// Linear (phase 1) dimension; -1 selects per the paper's rule.
  int linear_axis = -1;
  /// Software cost of forwarding one packet at the intermediate node.
  std::uint32_t forward_cpu_cycles = 200;
  /// Reserve half the injection FIFOs for each phase (ablation switch).
  bool reserved_fifos = true;
  /// Credit-based flow control for intermediate memory (paper §5 future
  /// work): max phase-1 packets in flight per (source, intermediate);
  /// 0 disables.
  int credit_window = 0;
  /// Forwarded packets per credit packet returned.
  int credit_batch = 10;

  // --- VMesh tuning ---
  /// Virtual mesh extents; 0 = automatic near-square factorization.
  int pvx = 0;
  int pvy = 0;
  /// Physical layout of the virtual mesh (0=XYZ fastest-X, 1=ZYX, 2=YXZ);
  /// kept as an int to avoid pulling vmesh.hpp into this header.
  int vmesh_mapping = 0;

  /// Epoch-based recovery from a delayed permanent strike (fail_at > 0):
  /// after the struck run quiesces, survivors agree on a liveness view,
  /// compute the undelivered residual from the delivery matrix and execute
  /// lint-checked repair schedules until every still-reachable pair is whole
  /// (see src/coll/recovery.hpp). A delivery matrix is allocated internally
  /// when recovery may trigger.
  bool recover = true;

  /// Optional per-hop observer forwarded to Fabric::set_hop_observer
  /// (link-level tracing). Observer runs stay parallel-eligible: on a
  /// --sim-threads run grants are buffered per slab and replayed at each
  /// window barrier in deterministic (tick, link id) order.
  net::Fabric::HopObserver hop_observer;

  /// Optional per-pair delivery verification (small partitions only).
  DeliveryMatrix* deliveries = nullptr;

  /// Record deliveries into an internal matrix (O(nodes^2) memory) and fill
  /// RunResult::pairs_complete / reachable_complete, without the caller
  /// managing a DeliveryMatrix. Implied by `deliveries != nullptr`.
  bool verify = false;

  /// Abort-if-not-quiescent deadline in cycles; 0 = automatic.
  Tick deadline = 0;

  /// Host wall-clock watchdog per run, in milliseconds; 0 = none. A run
  /// that exceeds it is aborted mid-simulation and reported with
  /// `timed_out == true` and `drained == false` (its metrics are garbage;
  /// the harness excludes such runs from aggregates).
  double wall_timeout_ms = 0.0;
};

struct RunResult {
  std::string strategy;
  topo::Shape shape{};
  std::uint64_t msg_bytes = 0;

  Tick elapsed_cycles = 0;
  double elapsed_us = 0.0;
  /// Measured vs the Eq. 2 peak for this payload (direct wire format).
  double percent_peak = 0.0;
  /// Application payload moved per node per second, MB/s (Figures 3, 6, 7).
  double per_node_mbps = 0.0;

  std::uint64_t packets_delivered = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t events = 0;
  /// Simulator worker threads (slabs) actually used after eligibility
  /// gating (see NetworkConfig::sim_threads).
  int sim_threads = 1;
  /// Why sim_threads fell short of the request (kNone when the parallel
  /// engine ran at the requested width).
  net::ThreadFallbackReason sim_threads_reason = net::ThreadFallbackReason::kNone;
  bool drained = false;
  /// True when the run was killed by AlltoallOptions::wall_timeout_ms.
  bool timed_out = false;

  trace::LinkReport links;

  // --- delivery verification (only when a DeliveryMatrix was recorded) ---
  /// True when per-pair delivery state was recorded, i.e. pairs_complete and
  /// reachable_complete are meaningful (verify, a caller matrix, or recovery).
  bool verified = false;
  /// Ordered pairs that received their full msg_bytes.
  std::uint64_t pairs_complete = 0;
  /// Every reachable pair delivered exactly, nothing delivered elsewhere.
  bool reachable_complete = false;

  // --- fault injection (all zero / empty on a healthy run) ---
  /// Fabric-level fault counters (drops, vetoes, transient downtime).
  net::FaultStats faults{};
  /// End-to-end reliability counters (retransmits, acks, duplicates).
  rt::ReliabilityStats reliability{};
  /// Ordered pairs the strategy could not serve under the fault plan.
  std::uint64_t unreachable_pairs = 0;
  /// Distinct reachable (injector, destination) pairs with a packet
  /// abandoned after the retry budget (0 = full delivery); a recovered run
  /// adds each repair epoch's count.
  std::uint64_t abandoned_pairs = 0;
  /// Per-pair reachability (nodes() == 0 when fault-free); combine with
  /// AlltoallOptions::deliveries + DeliveryMatrix::complete_reachable.
  PairMask reachable;
  /// Epoch-based recovery accounting (epochs == 1 when no re-plan ran).
  EpochStats epochs{};
};

RunResult run_alltoall(StrategyKind kind, const AlltoallOptions& options);

struct CommSchedule;

/// Run an arbitrary `CommSchedule` program (e.g. a synthesized one) through
/// the same fabric / reliability / verification path as `run_alltoall`. The
/// schedule must target `options.net.shape` and must have been built against
/// the same fault plan the options imply (pass the plan to the builder).
/// `label` becomes `RunResult::strategy`. Strategy-tuning fields of `options`
/// (burst, linear_axis, ...) are ignored — the schedule already encodes them.
RunResult run_schedule(CommSchedule schedule, const AlltoallOptions& options,
                       const std::string& label = "synth");

/// Eq. 2 peak time in cycles for an m-byte-per-pair AA on `shape`, counting
/// the wire chunks of the direct packet format (used as the percent-of-peak
/// denominator for every strategy).
double peak_cycles_for(const topo::Shape& shape, std::uint64_t msg_bytes,
                       std::uint32_t chunk_cycles);

}  // namespace bgl::coll
