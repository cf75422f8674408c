// Loss repair by epochs, end to end: whatever leaves a reachable pair short
// — a drop, a checksum rejection, a credit window or barrier stalled by a
// lost packet, a transient outage, a permanent fault — the repair epochs
// re-send exactly the missing bytes, healthy runs pay nothing, and the
// verification contract ("every reachable pair delivered exactly") holds
// across strategies.
#include "src/coll/alltoall.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/network/faults.hpp"
#include "src/topology/torus.hpp"

namespace bgl::coll {
namespace {

AlltoallOptions options_for(const char* shape, std::uint64_t msg_bytes,
                            const char* fault_spec, std::uint64_t seed = 7) {
  AlltoallOptions options;
  options.net.shape = topo::parse_shape(shape);
  options.net.seed = seed;
  options.net.faults = net::parse_fault_spec(fault_spec);
  options.msg_bytes = msg_bytes;
  options.verify = true;
  return options;
}

std::uint64_t all_pairs(const AlltoallOptions& options) {
  const auto n = static_cast<std::uint64_t>(options.net.shape.nodes());
  return n * (n - 1);
}

/// The same options with no repair epoch: the run stops after epoch 0.
AlltoallOptions epoch0_only(AlltoallOptions options) {
  options.net.faults.max_retries = 0;
  return options;
}

// --- healthy runs pay nothing -----------------------------------------------

TEST(Repair, HealthyRunPaysNothing) {
  const auto options = options_for("4x4x4", 240, "");
  const RunResult r = run_alltoall(StrategyKind::kAdaptiveRandom, options);
  ASSERT_TRUE(r.drained);
  EXPECT_EQ(r.epochs.epochs, 1);
  EXPECT_EQ(r.epochs.replan_cycles, 0u);
  EXPECT_EQ(r.reliability.retransmits, 0u);
  EXPECT_EQ(r.reliability.corrupt_rejected, 0u);
  EXPECT_EQ(r.faults.total_dropped(), 0u);
  EXPECT_EQ(r.unreachable_pairs, 0u);
  EXPECT_EQ(r.abandoned_pairs, 0u);
  EXPECT_EQ(r.reachable.nodes(), 0);  // empty mask: "all reachable"
  EXPECT_TRUE(r.reachable_complete);
  EXPECT_EQ(r.pairs_complete, all_pairs(options));
}

TEST(Repair, HealthyRunIsBitIdenticalRunToRun) {
  const auto options = options_for("3x3x3", 240, "");
  const RunResult a = run_alltoall(StrategyKind::kTwoPhase, options);
  const RunResult b = run_alltoall(StrategyKind::kTwoPhase, options);
  EXPECT_EQ(a.elapsed_cycles, b.elapsed_cycles);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
}

// --- drops and corruption ---------------------------------------------------

TEST(Repair, DropOnlyArIsRepairedExactlyOnce) {
  // 240 B is one packet per pair, so every delivered payload byte is a
  // recorded one: the run delivers the owed bytes and not one more.
  const auto options = options_for("4x4x4", 240, "drop:0.02");
  const RunResult r = run_alltoall(StrategyKind::kAdaptiveRandom, options);
  ASSERT_TRUE(r.drained);
  EXPECT_GT(r.faults.dropped_prob, 0u);
  EXPECT_GT(r.epochs.epochs, 1);
  EXPECT_GT(r.reliability.retransmits, 0u);
  EXPECT_EQ(r.reliability.duplicates_dropped, 0u);
  EXPECT_EQ(r.payload_bytes, all_pairs(options) * 240);
  EXPECT_EQ(r.abandoned_pairs, 0u);
  EXPECT_EQ(r.unreachable_pairs, 0u);
  EXPECT_TRUE(r.reachable_complete);
  EXPECT_EQ(r.pairs_complete, all_pairs(options));
  // The repair cycles are reported apart from epoch 0's.
  EXPECT_GT(r.epochs.replan_cycles, 0u);
  EXPECT_LT(r.epochs.replan_cycles, r.elapsed_cycles);
}

TEST(Repair, CorruptedPacketIsRejectedAndNeverRecorded) {
  // Every delivery is corrupted and no repair epoch runs: the receiver
  // rejects each one, so nothing reaches the ledger.
  const auto options = options_for("4", 480, "corrupt:1,retries:0");
  DeliveryMatrix matrix(4);
  auto run_options = options;
  run_options.deliveries = &matrix;
  const RunResult r = run_alltoall(StrategyKind::kAdaptiveRandom, run_options);
  ASSERT_TRUE(r.drained);
  EXPECT_GT(r.faults.corrupted_payloads, 0u);
  EXPECT_EQ(r.faults.corrupted_payloads, r.packets_delivered);
  EXPECT_EQ(r.reliability.corrupt_rejected, r.faults.corrupted_payloads);
  EXPECT_EQ(matrix.total_bytes(), 0u);
  EXPECT_EQ(r.pairs_complete, 0u);
  EXPECT_EQ(r.abandoned_pairs, all_pairs(options));
}

TEST(Repair, CorruptionIsRepairedAndRejectionsMatchOverEpochs) {
  // A rate high enough that repair packets are corrupted too: the equality
  // holds summed over every epoch.
  const auto options = options_for("4x4x1", 480, "corrupt:0.05,seed:11");
  const RunResult r = run_alltoall(StrategyKind::kAdaptiveRandom, options);
  ASSERT_TRUE(r.drained);
  EXPECT_GT(r.epochs.epochs, 2);
  EXPECT_GT(r.faults.corrupted_payloads, 0u);
  EXPECT_EQ(r.reliability.corrupt_rejected, r.faults.corrupted_payloads);
  EXPECT_EQ(r.faults.dropped_prob, 0u);
  EXPECT_EQ(r.reliability.duplicates_dropped, 0u);
  EXPECT_TRUE(r.reachable_complete);
  EXPECT_EQ(r.pairs_complete, all_pairs(options));
}

// --- a lost packet that stalls the schedule ---------------------------------

TEST(Repair, StalledTpsCreditWindowIsRepaired) {
  // With a one-packet credit window, a lost phase-1 packet is never
  // credited, so its sender sends nothing more through that relay line:
  // epoch 0 leaves far more pairs short than it lost packets.
  auto options = options_for("4x4x4", 240, "drop:2e-3,seed:5");
  options.credit_window = 1;
  options.credit_batch = 1;
  const RunResult stalled = run_alltoall(StrategyKind::kTwoPhase, epoch0_only(options));
  ASSERT_TRUE(stalled.drained);
  ASSERT_GT(stalled.faults.dropped_prob, 0u);
  EXPECT_GT(stalled.abandoned_pairs, stalled.faults.dropped_prob);

  const RunResult r = run_alltoall(StrategyKind::kTwoPhase, options);
  ASSERT_TRUE(r.drained);
  EXPECT_GT(r.epochs.epochs, 1);
  EXPECT_EQ(r.epochs.residual_pairs, stalled.abandoned_pairs);
  EXPECT_EQ(r.abandoned_pairs, 0u);
  EXPECT_TRUE(r.reachable_complete);
  EXPECT_EQ(r.pairs_complete, all_pairs(options));
}

TEST(Repair, StalledVmeshBarrierIsRepaired) {
  // A lost phase-0 packet keeps its receiver's barrier shut, so none of
  // that node's combined phase-1 messages leave.
  const auto options = options_for("4x4x4", 240, "drop:2e-3,seed:3");
  const RunResult stalled =
      run_alltoall(StrategyKind::kVirtualMesh, epoch0_only(options));
  ASSERT_TRUE(stalled.drained);
  ASSERT_GT(stalled.faults.dropped_prob, 0u);
  EXPECT_GT(stalled.abandoned_pairs, stalled.faults.dropped_prob);

  const RunResult r = run_alltoall(StrategyKind::kVirtualMesh, options);
  ASSERT_TRUE(r.drained);
  EXPECT_GT(r.epochs.epochs, 1);
  EXPECT_EQ(r.abandoned_pairs, 0u);
  EXPECT_TRUE(r.reachable_complete);
  EXPECT_EQ(r.pairs_complete, all_pairs(options));
}

// --- top-ups and the retry budget --------------------------------------------

TEST(Repair, PartlyDeliveredPairIsToppedUpWithItsMissingBytes) {
  // 1 KB is five packets per pair; epoch 0 loses some of a pair's packets,
  // and the repair sends exactly the bytes the ledger shows missing.
  const auto options = options_for("3x3x3", 1024, "drop:0.01,seed:2");
  DeliveryMatrix before(27);
  auto first = epoch0_only(options);
  first.deliveries = &before;
  const RunResult epoch0 = run_alltoall(StrategyKind::kAdaptiveRandom, first);
  ASSERT_TRUE(epoch0.drained);
  std::uint64_t missing = 0;
  std::uint64_t partial_pairs = 0;
  for (topo::Rank s = 0; s < 27; ++s) {
    for (topo::Rank d = 0; d < 27; ++d) {
      if (s == d) continue;
      missing += 1024 - before.bytes(s, d);
      if (before.bytes(s, d) != 0 && before.bytes(s, d) != 1024) ++partial_pairs;
    }
  }
  ASSERT_GT(partial_pairs, 0u);

  DeliveryMatrix after(27);
  auto full = options;
  full.deliveries = &after;
  const RunResult r = run_alltoall(StrategyKind::kAdaptiveRandom, full);
  ASSERT_TRUE(r.drained);
  // Every pair ends at exactly its message: the top-ups never duplicated a
  // byte epoch 0 had delivered.
  EXPECT_TRUE(r.reachable_complete);
  EXPECT_EQ(r.epochs.recovered_bytes, missing);
  EXPECT_EQ(after.total_bytes(), all_pairs(options) * 1024);
}

TEST(Repair, ZeroRetriesDrainsAndReportsShortPairs) {
  // retries:0 runs no repair epoch: the run still drains, and the
  // verification flags the loss instead of hiding it.
  const auto options = options_for("3x3x3", 240, "drop:0.08,retries:0");
  const RunResult r = run_alltoall(StrategyKind::kAdaptiveRandom, options);
  ASSERT_TRUE(r.drained);
  EXPECT_EQ(r.epochs.epochs, 1);
  EXPECT_EQ(r.reliability.retransmits, 0u);
  EXPECT_GT(r.abandoned_pairs, 0u);
  EXPECT_EQ(r.abandoned_pairs, r.epochs.residual_pairs);
  EXPECT_EQ(r.abandoned_pairs, all_pairs(options) - r.pairs_complete);
  EXPECT_FALSE(r.reachable_complete);
}

// --- determinism ------------------------------------------------------------

TEST(Repair, DirectArDrawsTheSameLossesAtAnySlabCount) {
  // The draws key on each packet's identity and epoch, never on timing, so
  // epoch 0 loses the same packets at every slab count, and so do the
  // repair epochs.
  auto options = options_for("4x4x8", 480, "drop:2e-3,seed:3");
  DeliveryMatrix ref(128);
  auto ref_options = epoch0_only(options);
  ref_options.deliveries = &ref;
  const RunResult ref0 = run_alltoall(StrategyKind::kAdaptiveRandom, ref_options);
  const RunResult ref_full = run_alltoall(StrategyKind::kAdaptiveRandom, options);
  ASSERT_GT(ref0.faults.dropped_prob, 0u);
  ASSERT_GT(ref_full.epochs.epochs, 1);
  for (const int threads : {2, 4}) {
    SCOPED_TRACE(threads);
    options.net.sim_threads = threads;
    DeliveryMatrix got(128);
    auto got_options = epoch0_only(options);
    got_options.deliveries = &got;
    const RunResult r0 = run_alltoall(StrategyKind::kAdaptiveRandom, got_options);
    EXPECT_EQ(r0.sim_threads, threads);
    EXPECT_EQ(r0.faults.dropped_prob, ref0.faults.dropped_prob);
    EXPECT_EQ(r0.abandoned_pairs, ref0.abandoned_pairs);
    for (topo::Rank s = 0; s < 128; ++s) {
      for (topo::Rank d = 0; d < 128; ++d) {
        ASSERT_EQ(got.bytes(s, d), ref.bytes(s, d)) << s << " -> " << d;
      }
    }
    const RunResult full = run_alltoall(StrategyKind::kAdaptiveRandom, options);
    EXPECT_EQ(full.faults.dropped_prob, ref_full.faults.dropped_prob);
    EXPECT_EQ(full.epochs.epochs, ref_full.epochs.epochs);
    EXPECT_EQ(full.reliability.retransmits, ref_full.reliability.retransmits);
    EXPECT_TRUE(full.reachable_complete);
  }
}

TEST(Repair, FaultyRunsAreDeterministic) {
  const auto options =
      options_for("4x4x4", 240, "link:0.03,tlink:0.05,repair:30000,drop:0.01");
  const RunResult a = run_alltoall(StrategyKind::kAdaptiveRandom, options);
  const RunResult b = run_alltoall(StrategyKind::kAdaptiveRandom, options);
  EXPECT_EQ(a.elapsed_cycles, b.elapsed_cycles);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.faults.dropped_prob, b.faults.dropped_prob);
  EXPECT_EQ(a.faults.dropped_in_flight, b.faults.dropped_in_flight);
  EXPECT_EQ(a.reliability.retransmits, b.reliability.retransmits);
  EXPECT_EQ(a.epochs.epochs, b.epochs.epochs);
  EXPECT_EQ(a.pairs_complete, b.pairs_complete);
}

// --- transient outages and permanent faults ---------------------------------

TEST(Repair, TransientOutagesStrikeOncePerPlannedOutage) {
  // Repair epochs start after every outage has ended: they share the run's
  // plan and replay none of its outages.
  const auto options = options_for(
      "4x4x8", 1024, "node:1,tlink:0.05,repair:30000,fail_at:200000,seed:13");
  const net::FaultPlan plan(options.net, options.net.shape);
  ASSERT_GT(plan.transients().size(), 0u);
  const RunResult r = run_alltoall(StrategyKind::kTwoPhase, options);
  ASSERT_TRUE(r.drained);
  EXPECT_GT(r.epochs.epochs, 1);
  EXPECT_EQ(r.faults.transient_strikes, plan.transients().size());
  EXPECT_EQ(r.faults.link_down_cycles, plan.transients().size() * 30000);
  EXPECT_TRUE(r.reachable_complete);
}

TEST(Repair, TransientOutagesHeal) {
  const auto options = options_for("3x3x3", 240, "tlink:0.3,repair:100000");
  const RunResult r = run_alltoall(StrategyKind::kAdaptiveRandom, options);
  ASSERT_TRUE(r.drained);
  EXPECT_GT(r.faults.transient_strikes, 0u);
  EXPECT_GT(r.faults.link_down_cycles, 0u);
  EXPECT_EQ(r.unreachable_pairs, 0u);  // transients never make a pair unreachable
  EXPECT_TRUE(r.reachable_complete);
  EXPECT_EQ(r.pairs_complete, all_pairs(options));
}

TEST(Repair, NodeFailureShrinksTheReachableSet) {
  const auto options = options_for("4x4x4", 240, "node:2,seed:3");
  const RunResult r = run_alltoall(StrategyKind::kAdaptiveRandom, options);
  ASSERT_TRUE(r.drained);
  // Every ordered pair touching a dead endpoint is unreachable: 2 dead
  // nodes cut at least 2*63 + 2*63 - 2 = 250 of the 64*63 pairs.
  EXPECT_GE(r.unreachable_pairs, 250u);
  EXPECT_EQ(r.epochs.epochs, 1);  // planned around: nothing to repair
  EXPECT_TRUE(r.reachable_complete);
  EXPECT_EQ(r.pairs_complete + r.unreachable_pairs, all_pairs(options));
}

TEST(Repair, DeadLinksDegradeGracefullyAcrossStrategies) {
  for (const StrategyKind kind :
       {StrategyKind::kAdaptiveRandom, StrategyKind::kDeterministic,
        StrategyKind::kTwoPhase, StrategyKind::kVirtualMesh}) {
    SCOPED_TRACE(strategy_name(kind));
    const auto options = options_for("4x4x4", 240, "link:0.05,seed:5");
    const RunResult r = run_alltoall(kind, options);
    ASSERT_TRUE(r.drained);
    EXPECT_TRUE(r.reachable_complete);
    EXPECT_EQ(r.pairs_complete + r.unreachable_pairs, all_pairs(options));
  }
}

// TPS and vmesh serve two neighbours across a dead link through a relay,
// since no minimal path is left between them. When such a pair comes up
// short, the repair must relay it too, not reclassify it as unreachable.
TEST(Repair, RelayedPairsAcrossDeadLinksAreRepaired) {
  for (const StrategyKind kind : {StrategyKind::kTwoPhase, StrategyKind::kVirtualMesh}) {
    for (const char* seed : {"2", "7"}) {
      SCOPED_TRACE(strategy_name(kind) + " fault seed " + seed);
      const std::string links = std::string("link:0.05,seed:") + seed;
      const auto dead_links = options_for("4x4x4", 240, links.c_str());
      const auto with_loss = options_for("4x4x4", 240, (links + ",drop:2e-3").c_str());
      const RunResult planned = run_alltoall(kind, dead_links);
      const RunResult lossy = run_alltoall(kind, with_loss);
      ASSERT_TRUE(planned.drained);
      ASSERT_TRUE(lossy.drained);
      EXPECT_GE(lossy.epochs.epochs, 2);
      EXPECT_EQ(lossy.unreachable_pairs, planned.unreachable_pairs);
      EXPECT_EQ(lossy.abandoned_pairs, 0u);
      EXPECT_TRUE(lossy.reachable_complete);
      EXPECT_EQ(lossy.pairs_complete, planned.pairs_complete);
    }
  }
}

}  // namespace
}  // namespace bgl::coll
