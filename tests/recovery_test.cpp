// Epoch-based recovery and Byzantine-corruption detection, end to end:
// the corrupt:p fault mode (every flipped payload rejected by the end-to-end
// checksum, re-sent by a repair epoch), the epoch transition after a
// delayed permanent strike (residual computation, repair-schedule
// construction, exactly-once delivery across epochs), and the itemized
// stranded-custody ledger on relay-bearing and multi-barrier schedules.
#include "src/coll/recovery.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "src/coll/alltoall.hpp"
#include "src/coll/schedule.hpp"
#include "src/coll/schedule_lint.hpp"
#include "src/coll/synth.hpp"
#include "src/coll/verify.hpp"
#include "src/network/fabric.hpp"
#include "src/network/faults.hpp"

namespace bgl::coll {
namespace {

AlltoallOptions options_for(const char* shape, std::uint64_t msg_bytes,
                            std::uint64_t seed) {
  AlltoallOptions options;
  options.net.shape = topo::parse_shape(shape);
  options.net.seed = seed;
  options.msg_bytes = msg_bytes;
  options.verify = true;
  return options;
}

// --- corrupt:p end to end ---------------------------------------------------

TEST(CorruptEndToEnd, ChecksumRejectsEveryCorruptionAndRunCompletes) {
  AlltoallOptions options = options_for("4x4x1", 480, 11);
  options.net.faults.corrupt_prob = 0.02;
  const RunResult r = run_alltoall(StrategyKind::kAdaptiveRandom, options);

  ASSERT_TRUE(r.drained);
  // The mode actually fired, and detection is total: every payload the
  // fabric corrupted was rejected by the receiver's checksum — none reached
  // the application as silent garbage.
  EXPECT_GT(r.faults.corrupted_payloads, 0u);
  EXPECT_EQ(r.reliability.corrupt_rejected, r.faults.corrupted_payloads);
  // Corruption is not loss: nothing dropped, everything re-covered.
  EXPECT_EQ(r.faults.dropped_prob, 0u);
  EXPECT_TRUE(r.reachable_complete);
  EXPECT_EQ(r.unreachable_pairs, 0u);
  // The rejected packets' pairs came up short and a repair epoch re-sent them.
  EXPECT_GE(r.epochs.epochs, 2);
  EXPECT_EQ(r.epochs.replans, r.epochs.epochs - 1);
  EXPECT_GT(r.reliability.retransmits, 0u);
}

TEST(CorruptEndToEnd, CorruptionRunsAreDeterministic) {
  AlltoallOptions options = options_for("4x2x2", 300, 21);
  options.net.faults.corrupt_prob = 0.05;
  const RunResult a = run_alltoall(StrategyKind::kDeterministic, options);
  const RunResult b = run_alltoall(StrategyKind::kDeterministic, options);
  EXPECT_EQ(a.elapsed_cycles, b.elapsed_cycles);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.faults.corrupted_payloads, b.faults.corrupted_payloads);
  EXPECT_EQ(a.reliability.retransmits, b.reliability.retransmits);
}

TEST(CorruptEndToEnd, SurvivesCombinedDropAndCorrupt) {
  AlltoallOptions options = options_for("4x4x1", 256, 31);
  options.net.faults.drop_prob = 0.01;
  options.net.faults.corrupt_prob = 0.01;
  const RunResult r = run_alltoall(StrategyKind::kTwoPhase, options);
  ASSERT_TRUE(r.drained);
  EXPECT_GT(r.faults.corrupted_payloads, 0u);
  EXPECT_GT(r.faults.dropped_prob, 0u);
  EXPECT_EQ(r.reliability.corrupt_rejected, r.faults.corrupted_payloads);
  EXPECT_TRUE(r.reachable_complete);
}

// --- residual + repair schedule unit pieces ---------------------------------

TEST(Residual, DiscardAndResidualFollowTheLivenessView) {
  net::NetworkConfig net;
  net.shape = topo::parse_shape("4x2x1");
  net.seed = 3;
  net.faults.node_fail = 1;
  net.faults.fail_at = 1;  // delayed strike; dead set identical to fail_at=0
  const net::FaultPlan plan(net, net.shape);
  ASSERT_EQ(plan.dead_node_count(), 1u);
  topo::Rank dead = -1;
  for (topo::Rank n = 0; n < 8; ++n) {
    if (!plan.node_alive(n)) dead = n;
  }
  ASSERT_GE(dead, 0);

  const std::uint64_t msg = 100;
  DeliveryMatrix matrix(8);
  const topo::Rank alive_a = dead == 0 ? 1 : 0;
  const topo::Rank alive_b = dead <= 1 ? 2 : (dead == 2 ? 3 : 2);
  matrix.record(alive_a, alive_b, 40);   // partial, recoverable
  matrix.record(alive_b, alive_a, msg);  // complete
  matrix.record(alive_a, dead, 60);      // partial, dead destination

  EXPECT_FALSE(pair_recoverable(plan, alive_a, dead));
  EXPECT_FALSE(pair_recoverable(plan, dead, alive_a));
  EXPECT_TRUE(pair_recoverable(plan, alive_a, alive_b));

  const std::vector<ResidualPair> residual = compute_residual(matrix, msg, plan);
  // Every recoverable pair short of msg shows up, topped up by the exact
  // missing bytes; the complete and the dead-endpoint pairs do not.
  bool found = false;
  for (const ResidualPair& r : residual) {
    EXPECT_TRUE(pair_recoverable(plan, r.src, r.dst));
    EXPECT_GT(r.bytes, 0u);
    EXPECT_LE(r.bytes, msg);
    if (r.src == alive_a && r.dst == alive_b) {
      found = true;
      EXPECT_EQ(r.bytes, msg - 40);
    }
    EXPECT_FALSE(r.src == alive_b && r.dst == alive_a);
    EXPECT_FALSE(r.dst == dead || r.src == dead);
  }
  EXPECT_TRUE(found);

  EXPECT_EQ(matrix.discard(alive_a, dead), 60u);
  EXPECT_EQ(matrix.bytes(alive_a, dead), 0u);
}

TEST(RepairSchedule, LintsCleanAndCoversExactlyTheResidual) {
  net::NetworkConfig net;
  net.shape = topo::parse_shape("4x2x2");
  net.seed = 7;
  net.faults.node_fail = 1;
  const net::FaultPlan plan(net, net.shape);

  const std::uint64_t msg = 512;
  std::vector<ResidualPair> residual;
  for (topo::Rank s = 0; s < 4; ++s) {
    for (topo::Rank d = 8; d < 12; ++d) {
      if (s == d || repair_route(plan, s, d) != s) continue;  // direct pairs only
      residual.push_back(ResidualPair{s, d, s % 2 == 0 ? msg : msg / 4});
    }
  }
  ASSERT_FALSE(residual.empty());

  const CommSchedule repair = build_repair_schedule(net, msg, residual);
  EXPECT_EQ(repair.form, StreamForm::kExplicit);
  EXPECT_EQ(repair.ops.size(), residual.size());
  const LintReport report = schedule_lint(repair, &plan);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.covered_pairs, residual.size());
  // Coverage is the residual and nothing else.
  for (const ResidualPair& r : residual) {
    EXPECT_TRUE(repair.pair_covered(r.src, r.dst, &plan));
  }
  EXPECT_FALSE(repair.pair_covered(8, 0, &plan));

  // Executing the repair alone delivers exactly the residual bytes.
  AlltoallOptions options;
  options.net = net;
  options.msg_bytes = msg;
  DeliveryMatrix matrix(repair.nodes());
  options.deliveries = &matrix;
  options.net.faults.max_retries = 0;
  const RunResult rr = run_schedule(repair, options, "repair");
  ASSERT_TRUE(rr.drained);
  for (const ResidualPair& r : residual) {
    EXPECT_EQ(matrix.bytes(r.src, r.dst), r.bytes)
        << "pair " << r.src << " -> " << r.dst;
  }
}

TEST(RepairSchedule, RelaysPairsWithNoMinimalPathLeft) {
  net::NetworkConfig net;
  net.shape = topo::parse_shape("4x4x4");
  net.seed = 7;
  net.faults = net::parse_fault_spec("link:0.05,seed:2");
  const net::FaultPlan plan(net, net.shape);

  // Every pair short: the whole message, or three quarters of it.
  const std::uint64_t msg = 512;
  DeliveryMatrix delivered(net.shape.nodes());
  for (topo::Rank s = 0; s < 64; ++s) {
    for (topo::Rank d = 0; d < 64; ++d) {
      if (s != d && (s + d) % 3 == 0) delivered.record(s, d, msg / 4);
    }
  }
  const std::vector<ResidualPair> residual = compute_residual(delivered, msg, plan);
  std::size_t relayed = 0;
  for (const ResidualPair& r : residual) {
    if (r.relay < 0) {
      EXPECT_TRUE(plan.pair_routable(r.src, r.dst, net::RoutingMode::kAdaptive));
      continue;
    }
    ++relayed;
    EXPECT_FALSE(plan.pair_routable(r.src, r.dst, net::RoutingMode::kAdaptive));
    EXPECT_TRUE(plan.pair_routable(r.src, r.relay, net::RoutingMode::kAdaptive));
    EXPECT_TRUE(plan.pair_routable(r.relay, r.dst, net::RoutingMode::kAdaptive));
  }
  ASSERT_GT(relayed, 0u);

  // One op per direct pair, two per relayed one; lint clean.
  const CommSchedule repair = build_repair_schedule(net, msg, residual);
  EXPECT_EQ(repair.ops.size(), residual.size() + relayed);
  const LintReport report = schedule_lint(repair, &plan);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.covered_pairs, residual.size());

  // Run alone, the repair delivers exactly each pair's missing bytes.
  AlltoallOptions options;
  options.net = net;
  options.net.faults.max_retries = 0;
  options.msg_bytes = msg;
  DeliveryMatrix matrix(repair.nodes());
  options.deliveries = &matrix;
  const RunResult rr = run_schedule(repair, options, "repair");
  ASSERT_TRUE(rr.drained);
  std::uint64_t owed = 0;
  for (const ResidualPair& r : residual) {
    EXPECT_EQ(matrix.bytes(r.src, r.dst), r.bytes) << "pair " << r.src << " -> " << r.dst;
    owed += r.bytes;
  }
  EXPECT_EQ(matrix.total_bytes(), owed);
}

// --- epoch recovery end to end ----------------------------------------------

TEST(EpochRecovery, TpsMidStrikeDeliversAllReachableExactlyOnce) {
  AlltoallOptions options = options_for("4x4x4", 2048, 13);
  const RunResult healthy = run_alltoall(StrategyKind::kTwoPhase, options);
  ASSERT_TRUE(healthy.drained);
  ASSERT_TRUE(healthy.reachable_complete);
  EXPECT_EQ(healthy.epochs.epochs, 1);  // fault-free runs never re-plan

  // Same strike as parallel_core_test's MidRunStrike — but with recovery
  // left on (the default), so the stranded custody and the abandoned pairs
  // must be re-sourced by repair epochs until the survivors are whole.
  options.net.faults.node_fail = 1;
  options.net.faults.fail_at = healthy.elapsed_cycles / 4;
  const RunResult r = run_alltoall(StrategyKind::kTwoPhase, options);

  ASSERT_TRUE(r.drained);
  EXPECT_FALSE(r.timed_out);
  EXPECT_TRUE(r.verified);
  // The whole point: every pair the survivors can still serve is delivered
  // exactly once, and nothing stays stranded in dead custody.
  EXPECT_TRUE(r.reachable_complete);
  EXPECT_EQ(r.faults.stranded_relay_bytes, 0u);
  EXPECT_GE(r.epochs.epochs, 2);
  EXPECT_GE(r.epochs.replans, 1);
  EXPECT_GT(r.epochs.residual_pairs, 0u);
  EXPECT_GT(r.epochs.recovered_bytes, 0u);
  EXPECT_GT(r.epochs.replan_cycles, 0u);
  // Post-recovery reachability is the survivors' view: the dead node's
  // undelivered pairs are the unreachable ones.
  EXPECT_GT(r.unreachable_pairs, 0u);
  // Time accounting: the re-plan cycles are folded into the total.
  EXPECT_GT(r.elapsed_cycles, r.epochs.replan_cycles);
}

TEST(EpochRecovery, RecoveredRunsAreBitDeterministic) {
  AlltoallOptions options = options_for("4x4x4", 1024, 17);
  options.net.faults.node_fail = 1;
  options.net.faults.fail_at = 400'000;
  const RunResult a = run_alltoall(StrategyKind::kTwoPhase, options);
  const RunResult b = run_alltoall(StrategyKind::kTwoPhase, options);
  ASSERT_TRUE(a.drained);
  EXPECT_EQ(a.elapsed_cycles, b.elapsed_cycles);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.epochs.replans, b.epochs.replans);
  EXPECT_EQ(a.epochs.residual_pairs, b.epochs.residual_pairs);
  EXPECT_EQ(a.epochs.recovered_bytes, b.epochs.recovered_bytes);
  EXPECT_EQ(a.pairs_complete, b.pairs_complete);
  EXPECT_EQ(a.reachable_complete, b.reachable_complete);
}

TEST(EpochRecovery, Combine3dBarrierWedgeIsRepaired) {
  // A mid-run node strike wedges the victims' downstream barriers: their
  // stage-1/2 ops never open, so epoch 0 quiesces with a large shortfall
  // that is *not* all attributable to dead custody. The matrix-driven
  // residual must cover it anyway.
  net::NetworkConfig net;
  net.shape = topo::parse_shape("4x2x2");
  net.seed = 9;
  AlltoallOptions options;
  options.net = net;
  options.msg_bytes = 96;
  options.verify = true;
  const RunResult healthy =
      run_schedule(synth::build_combine3d_schedule(net, 96, 0, nullptr), options,
                   "combine3d");
  ASSERT_TRUE(healthy.drained);
  ASSERT_TRUE(healthy.reachable_complete);

  options.net.faults.node_fail = 1;
  options.net.faults.fail_at = healthy.elapsed_cycles / 3;
  // Planning stays blind: the schedule is built fault-free, exactly as the
  // pre-strike network looks.
  const RunResult r = run_schedule(
      synth::build_combine3d_schedule(options.net, 96, 0, nullptr), options,
      "combine3d");
  ASSERT_TRUE(r.drained);
  EXPECT_TRUE(r.reachable_complete);
  EXPECT_EQ(r.faults.stranded_relay_bytes, 0u);
  EXPECT_GE(r.epochs.epochs, 2);
  EXPECT_GT(r.epochs.recovered_bytes, 0u);
}

TEST(EpochRecovery, SynthesizedRelayScheduleRecovers) {
  net::NetworkConfig net;
  net.shape = topo::parse_shape("4x2x2");
  net.seed = 23;
  synth::Genome genome;
  genome.family = synth::GenomeFamily::kRelay;
  genome.relay_axis = 0;
  genome.fifo_split = 4;

  AlltoallOptions options;
  options.net = net;
  options.msg_bytes = 480;
  options.verify = true;
  const RunResult healthy = run_schedule(
      synth::build_genome_schedule(genome, net, 480, nullptr), options, "R:a0");
  ASSERT_TRUE(healthy.drained);
  ASSERT_TRUE(healthy.reachable_complete);

  options.net.faults.node_fail = 1;
  options.net.faults.fail_at = healthy.elapsed_cycles / 4;
  const RunResult r = run_schedule(
      synth::build_genome_schedule(genome, options.net, 480, nullptr), options,
      "R:a0");
  ASSERT_TRUE(r.drained);
  EXPECT_TRUE(r.reachable_complete);
  EXPECT_EQ(r.faults.stranded_relay_bytes, 0u);
}

TEST(EpochRecovery, ZeroRetriesPreservesTheStruckContract) {
  AlltoallOptions options = options_for("4x4x4", 2048, 13);
  const RunResult healthy = run_alltoall(StrategyKind::kTwoPhase, options);
  ASSERT_TRUE(healthy.drained);

  options.net.faults.max_retries = 0;
  options.net.faults.node_fail = 1;
  options.net.faults.fail_at = healthy.elapsed_cycles / 4;
  const RunResult r = run_alltoall(StrategyKind::kTwoPhase, options);
  ASSERT_TRUE(r.drained);
  EXPECT_FALSE(r.reachable_complete);
  EXPECT_GT(r.faults.stranded_relay_bytes, 0u);
  EXPECT_EQ(r.epochs.epochs, 1);
  EXPECT_EQ(r.epochs.replans, 0);
}

TEST(EpochRecovery, ImmediateStrikeNeverRearms) {
  // fail_at == 0 plans around the faults up front: nothing to recover, and
  // the recovery layer must stay out of the way.
  AlltoallOptions options = options_for("4x4x1", 300, 5);
  options.net.faults.node_fail = 2;
  const RunResult r = run_alltoall(StrategyKind::kAdaptiveRandom, options);
  ASSERT_TRUE(r.drained);
  EXPECT_TRUE(r.reachable_complete);
  EXPECT_EQ(r.epochs.epochs, 1);
  EXPECT_EQ(r.epochs.replans, 0);
}

// --- stranded-custody itemization (multi-barrier + synthesized) -------------

/// Runs `sched` as epoch 0 under `net`'s blind strike and returns the
/// executor's post-quiescence itemized custody.
std::vector<StrandedRelay> struck_stranded(const net::NetworkConfig& net,
                                           CommSchedule sched,
                                           DeliveryMatrix& matrix,
                                           std::uint64_t& total) {
  ScheduleExecutor exec(net, std::move(sched), &matrix, nullptr);
  net::Fabric fabric(net, exec);
  exec.bind(fabric);
  EXPECT_TRUE(fabric.run(Tick{1} << 40));
  const net::FaultPlan plan(net, net.shape);
  std::vector<StrandedRelay> records;
  exec.collect_stranded(plan, records);
  total = exec.stranded_relay_bytes(plan);
  return records;
}

TEST(StrandedCustody, Combine3dItemizationMatchesTheTotal) {
  net::NetworkConfig net;
  net.shape = topo::parse_shape("4x2x2");
  net.seed = 9;
  net.faults.node_fail = 1;
  net.faults.fail_at = 600'000;
  const std::uint64_t msg = 96;
  const net::FaultPlan plan(net, net.shape);

  DeliveryMatrix matrix(16);
  std::uint64_t total = 0;
  const std::vector<StrandedRelay> records = struck_stranded(
      net, synth::build_combine3d_schedule(net, msg, 0, nullptr), matrix, total);

  std::uint64_t sum = 0;
  for (const StrandedRelay& r : records) {
    EXPECT_GE(r.orig_src, 0);
    EXPECT_GE(r.final_dst, 0);
    EXPECT_NE(r.orig_src, r.final_dst);
    EXPECT_GT(r.payload_bytes, 0u);
    // Custody explains shortfall: a stranded pair is short in the matrix.
    EXPECT_LT(matrix.bytes(r.orig_src, r.final_dst), msg);
    sum += r.payload_bytes;
  }
  EXPECT_EQ(sum, total);
}

TEST(StrandedCustody, SynthesizedRelayItemizationMatchesTheTotal) {
  net::NetworkConfig net;
  net.shape = topo::parse_shape("4x2x2");
  net.seed = 23;
  net.faults.node_fail = 1;
  net.faults.fail_at = 400'000;
  const std::uint64_t msg = 480;

  synth::Genome genome;
  genome.family = synth::GenomeFamily::kRelay;
  genome.relay_axis = 0;
  genome.fifo_split = 4;

  DeliveryMatrix matrix(16);
  std::uint64_t total = 0;
  const std::vector<StrandedRelay> records = struck_stranded(
      net, synth::build_genome_schedule(genome, net, msg, nullptr), matrix, total);

  std::uint64_t sum = 0;
  for (const StrandedRelay& r : records) {
    EXPECT_NE(r.orig_src, r.final_dst);
    EXPECT_GT(r.payload_bytes, 0u);
    EXPECT_LT(matrix.bytes(r.orig_src, r.final_dst), msg);
    sum += r.payload_bytes;
  }
  EXPECT_EQ(sum, total);
  // Determinism: the ledger is identical run to run.
  DeliveryMatrix matrix2(16);
  std::uint64_t total2 = 0;
  const std::vector<StrandedRelay> records2 = struck_stranded(
      net, synth::build_genome_schedule(genome, net, msg, nullptr), matrix2,
      total2);
  ASSERT_EQ(records2.size(), records.size());
  EXPECT_EQ(total2, total);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].orig_src, records2[i].orig_src);
    EXPECT_EQ(records[i].final_dst, records2[i].final_dst);
    EXPECT_EQ(records[i].payload_bytes, records2[i].payload_bytes);
  }
}

}  // namespace
}  // namespace bgl::coll
