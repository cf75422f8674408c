#include "src/coll/alltoall.hpp"

#include <chrono>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/coll/recovery.hpp"
#include "src/coll/registry.hpp"
#include "src/coll/schedule.hpp"
#include "src/coll/schedule_lint.hpp"
#include "src/coll/selector.hpp"
#include "src/model/peak.hpp"

namespace bgl::coll {

std::string strategy_name(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kMpi: return "MPI";
    case StrategyKind::kAdaptiveRandom: return "AR";
    case StrategyKind::kDeterministic: return "DR";
    case StrategyKind::kThrottled: return "AR+throttle";
    case StrategyKind::kTwoPhase: return "TPS";
    case StrategyKind::kVirtualMesh: return "VMesh";
    case StrategyKind::kBest: return "best";
  }
  return "?";
}

double peak_cycles_for(const topo::Shape& shape, std::uint64_t msg_bytes,
                       std::uint32_t chunk_cycles) {
  const double chunks_per_pair = static_cast<double>(
      rt::wire_chunks_total(msg_bytes, rt::WireFormat::direct()));
  return model::aa_peak_cycles(shape, chunks_per_pair, chunk_cycles);
}

namespace {

net::NetworkConfig effective_net(const AlltoallOptions& options) {
  if (options.net.shape.nodes() < 2) {
    throw std::invalid_argument("all-to-all needs at least 2 nodes");
  }
  net::NetworkConfig net = options.net;
  // BGL_CHECK=1 turns on the fabric invariant checks (property tests and the
  // sanitizer CI set it; it is too slow for sweeps to default on).
  if (const char* env = std::getenv("BGL_CHECK");
      env != nullptr && env[0] != '\0' && env[0] != '0') {
    net.debug_checks = true;
  }
  return net;
}

// One fabric run of `client` as epoch `epoch` of the collective under
// `plan` (see Fabric's constructor) and its RunResult bookkeeping; rates and
// verification are filled in by run_planned once the last epoch has run.
RunResult run_epoch(const net::NetworkConfig& net, ScheduleExecutor& client,
                    const AlltoallOptions& options, const net::FaultPlan& plan,
                    int epoch, const std::string& label) {
  net::Fabric fabric(net, client, plan, epoch);
  client.bind(fabric);
  if (options.hop_observer) fabric.set_hop_observer(options.hop_observer);

  // Generous watchdog: a healthy run finishes within a few peak times plus
  // the CPU-bound startup term; hitting this means a stall (drained=false).
  const double peak = peak_cycles_for(net.shape, options.msg_bytes, net.chunk_cycles);
  const Tick deadline = options.deadline != 0
                            ? options.deadline
                            : static_cast<Tick>(peak * 200.0) + (Tick{4} << 32);

  if (options.wall_timeout_ms > 0.0) {
    const auto kill_at = std::chrono::steady_clock::now() +
                         std::chrono::duration<double, std::milli>(options.wall_timeout_ms);
    fabric.set_abort_check(
        [kill_at] { return std::chrono::steady_clock::now() >= kill_at; });
  }

  RunResult result;
  result.drained = fabric.run(deadline);
  result.timed_out = fabric.aborted();
  result.strategy = label;
  result.shape = net.shape;
  result.msg_bytes = options.msg_bytes;
  result.elapsed_cycles = client.completion_cycles();
  result.packets_delivered = fabric.stats().packets_delivered;
  result.payload_bytes = fabric.stats().payload_bytes_delivered;
  result.events = fabric.events_processed();
  result.sim_threads = fabric.effective_sim_threads();
  result.sim_threads_reason = fabric.sim_threads_reason();
  if (net.collect_link_stats) {
    result.links = trace::summarize_links(fabric, result.elapsed_cycles);
  }
  // The pairs the run owes: those the schedule carries (a pattern's pairs,
  // or all of them) that it can still serve under the fault plan.
  if (plan.enabled() || client.schedule().covered.nodes() != 0) {
    result.reachable = PairMask(static_cast<std::int32_t>(net.shape.nodes()));
    client.mark_reachable(result.reachable);
    result.unreachable_pairs = result.reachable.unreachable_pairs();
  }
  if (plan.enabled()) {
    result.faults = fabric.fault_stats();
    // Relay payload stranded in the custody of fail-stopped nodes: the part
    // of the delivery shortfall the strike itself explains.
    result.faults.stranded_relay_bytes = client.stranded_relay_bytes(plan);
    result.reliability.corrupt_rejected = client.corrupt_rejected();
    if (epoch > 0) result.reliability.retransmits = fabric.stats().packets_injected;
  }
  return result;
}

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
  // stranded_relay_bytes is not additive: recover_epochs re-derives it from
  // the epoch-0 custody ledger against the final delivery matrix.
}

// The epoch transition and the repair epochs after a drained faulted epoch
// 0 (src/coll/recovery.hpp), rewriting `result` in place. `result.reachable`
// holds the pairs epoch 0 owed: pairs outside it are neither owed nor
// reachable. `stranded` is epoch 0's dead-custodian ledger.
void recover_epochs(RunResult& result, const AlltoallOptions& options,
                    const net::NetworkConfig& net, const net::FaultPlan& plan,
                    DeliveryMatrix& matrix, const std::vector<StrandedRelay>& stranded) {
  const std::int32_t nodes = matrix.nodes();
  const std::uint64_t msg = options.msg_bytes;
  const PairMask carried = std::move(result.reachable);

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

  // Step 2: the residual the repair epochs owe. It may be empty — nothing
  // was lost, or every short pair lost an endpoint — and the survivors'
  // view below still replaces epoch 0's.
  std::vector<ResidualPair> residual = compute_residual(matrix, msg, plan, carried);
  const std::uint64_t owed = residual_bytes(residual);
  result.epochs.residual_pairs = residual.size();

  const LivenessView view = exchange_liveness(net, plan);
  Tick replan_cycles = 0;
  while (!residual.empty() && result.epochs.replans < net.faults.max_retries) {
    replan_cycles += view.agree_cycles;
    CommSchedule repair = build_repair_schedule(net, msg, residual);
    if (!schedule_lint(repair, &plan).ok()) break;

    ++result.epochs.replans;
    ScheduleExecutor repairer(net, std::move(repair), &matrix, &plan);
    const RunResult repaired =
        run_epoch(net, repairer, options, plan, result.epochs.replans, result.strategy);
    replan_cycles += repaired.elapsed_cycles;
    result.events += repaired.events;
    result.packets_delivered += repaired.packets_delivered;
    result.payload_bytes += repaired.payload_bytes;
    merge_faults(result.faults, repaired.faults);
    result.reliability.retransmits += repaired.reliability.retransmits;
    result.reliability.corrupt_rejected += repaired.reliability.corrupt_rejected;
    result.timed_out = result.timed_out || repaired.timed_out;
    if (!repaired.drained || repaired.timed_out) {
      result.drained = false;
      break;
    }
    residual = compute_residual(matrix, msg, plan, carried);
  }

  result.epochs.epochs = 1 + result.epochs.replans;
  result.epochs.replan_cycles = replan_cycles;
  result.epochs.recovered_bytes = owed - residual_bytes(residual);
  result.abandoned_pairs = residual.size();
  result.elapsed_cycles += replan_cycles;

  // Post-recovery reachability is the survivors' view of the pairs epoch 0
  // owed: a pair counts reachable when a repair can still serve it — or when
  // it was already delivered in full before the strike took an endpoint.
  PairMask mask(nodes);
  for (topo::Rank s = 0; s < nodes; ++s) {
    for (topo::Rank d = 0; d < nodes; ++d) {
      if (s != d && (!carried.reachable(s, d) ||
                     (matrix.bytes(s, d) != msg && !pair_recoverable(plan, s, d)))) {
        mask.set_unreachable(s, d);
      }
    }
  }
  result.reachable = std::move(mask);
  result.unreachable_pairs = result.reachable.unreachable_pairs();

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

// The one run path behind run_alltoall and run_schedule. `plan_schedule`
// is called as plan_schedule(net, planning_faults) and returns the schedule
// to execute and the run's label; the fault plan, the delivery matrix, the
// executor, the fabric runs and the repair epochs are shared.
template <typename PlanSchedule>
RunResult run_planned(const AlltoallOptions& options, PlanSchedule&& plan_schedule) {
  const net::NetworkConfig net = effective_net(options);

  // One plan per run: planning (here), the Fabric of every epoch, the
  // residual and reachability verification all read it.
  const net::FaultPlan plan(net, net.shape);
  const net::FaultPlan* faults = plan.enabled() ? &plan : nullptr;

  // A delayed strike (fail_at > 0) is invisible to planning: schedules are
  // built and executed as if the network were healthy, because at plan time
  // it *is* — nobody may steer around faults that have not happened. The
  // fabric applies the strike when it lands; the repair epochs then serve
  // what it cost, never silently planned away.
  const bool blind_strike = faults != nullptr && net.faults.fail_at > 0;
  const net::FaultPlan* planning_faults = blind_strike ? nullptr : faults;
  auto [schedule, label] = plan_schedule(net, planning_faults);

  // Delivery recording: the caller's matrix, or an internal one when only
  // the RunResult summary is wanted. A faulted run always records: the
  // repair epochs top up every pair it shows short.
  std::optional<DeliveryMatrix> local_matrix;
  DeliveryMatrix* matrix = options.deliveries;
  if (matrix == nullptr && (options.verify || faults != nullptr)) {
    local_matrix.emplace(static_cast<std::int32_t>(net.shape.nodes()));
    matrix = &*local_matrix;
  }

  ScheduleExecutor client(net, std::move(schedule), matrix, planning_faults);
  RunResult result = run_epoch(net, client, options, plan, 0, label);
  // A wedged or killed epoch 0 never recovers: its ledger is mid-flight
  // garbage and re-planning from it would double-deliver.
  if (faults != nullptr && result.drained && !result.timed_out) {
    std::vector<StrandedRelay> stranded;
    client.collect_stranded(plan, stranded);
    recover_epochs(result, options, net, plan, *matrix, stranded);
  }

  // Time and throughput cover every epoch.
  result.elapsed_us = static_cast<double>(result.elapsed_cycles) / 700.0;
  const double peak = peak_cycles_for(net.shape, options.msg_bytes, net.chunk_cycles);
  result.percent_peak = result.elapsed_cycles > 0
                            ? 100.0 * peak / static_cast<double>(result.elapsed_cycles)
                            : 0.0;
  const double payload_per_node =
      static_cast<double>(net.shape.nodes() - 1) * static_cast<double>(options.msg_bytes);
  result.per_node_mbps = result.elapsed_us > 0
                             ? payload_per_node / result.elapsed_us  // B/us == MB/s
                             : 0.0;
  if (matrix != nullptr) {
    result.verified = true;
    result.pairs_complete = matrix->complete_pairs(options.msg_bytes);
    result.reachable_complete =
        matrix->complete_reachable(options.msg_bytes, result.reachable);
  }
  return result;
}

}  // namespace

RunResult run_alltoall(StrategyKind kind, const AlltoallOptions& options) {
  return run_planned(options, [&](const net::NetworkConfig& net,
                                  const net::FaultPlan* planning_faults) {
    if (kind == StrategyKind::kBest) {
      kind = select_strategy(net.shape, options.msg_bytes, planning_faults).kind;
    }
    // The strategy's declarative schedule, interpreted by the one executor
    // (the equivalence suite pins its behavior to stored goldens).
    return std::pair{build_schedule(kind, net, options.msg_bytes, options, planning_faults),
                     strategy_name(kind)};
  });
}

RunResult run_schedule(CommSchedule schedule, const AlltoallOptions& options,
                       const std::string& label) {
  return run_planned(options, [&](const net::NetworkConfig& net, const net::FaultPlan*) {
    if (schedule.shape != net.shape) {
      throw std::invalid_argument(
          "run_schedule: schedule shape " + schedule.shape.to_string() +
          " does not match network " + net.shape.to_string());
    }
    return std::pair{std::move(schedule), label};
  });
}

}  // namespace bgl::coll
