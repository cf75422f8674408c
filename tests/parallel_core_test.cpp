// Slab-parallel simulator core and the bugfix-sweep regressions that ride
// with it:
//  - A multi-slab run preserves the per-pair delivery matrix and the
//    delivered packet/byte totals of the one-slab run exactly, and is
//    deterministic for a fixed (seed, threads).
//  - Fault runs are parallel-eligible (counter-based fault draws, slab-owned
//    fault state) and report kNone in sim_threads_reason.
//  - A delayed permanent strike (fail_at > 0) is planned blind, quiesces
//    without tripping the watchdog, and reports the relay payload stranded
//    in dead custodians.
#include <gtest/gtest.h>

#include <cstdint>

#include "src/coll/alltoall.hpp"
#include "src/network/fabric.hpp"

namespace bgl::coll {
namespace {

// --- multi-threaded equivalence and determinism ----------------------------

RunResult run_threaded(StrategyKind kind, int threads, DeliveryMatrix* matrix) {
  AlltoallOptions options;
  options.net.shape = topo::parse_shape("4x4x8");
  options.net.seed = 7;
  options.net.sim_threads = threads;
  options.msg_bytes = 300;
  options.deliveries = matrix;
  return run_alltoall(kind, options);
}

class ParallelEquivalence : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(ParallelEquivalence, DeliveryMatrixMatchesSingleThread) {
  const std::int32_t nodes = 128;  // 4x4x8
  DeliveryMatrix st(nodes);
  DeliveryMatrix mt(nodes);
  const RunResult a = run_threaded(GetParam(), 1, &st);
  const RunResult b = run_threaded(GetParam(), 4, &mt);
  ASSERT_TRUE(a.drained);
  ASSERT_TRUE(b.drained);
  EXPECT_EQ(a.sim_threads, 1);
  EXPECT_EQ(b.sim_threads, 4) << "parallel run fell back to one slab";
  // Timing may shift across slab boundaries; what was delivered may not.
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.payload_bytes, b.payload_bytes);
  EXPECT_EQ(a.pairs_complete, b.pairs_complete);
  for (topo::Rank s = 0; s < nodes; ++s) {
    for (topo::Rank d = 0; d < nodes; ++d) {
      ASSERT_EQ(st.bytes(s, d), mt.bytes(s, d))
          << "pair (" << s << " -> " << d << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, ParallelEquivalence,
                         ::testing::Values(StrategyKind::kMpi,
                                           StrategyKind::kAdaptiveRandom,
                                           StrategyKind::kTwoPhase,
                                           StrategyKind::kVirtualMesh));

TEST(ParallelCore, SameSeedSameThreadsBitExact) {
  const RunResult a = run_threaded(StrategyKind::kAdaptiveRandom, 4, nullptr);
  const RunResult b = run_threaded(StrategyKind::kAdaptiveRandom, 4, nullptr);
  ASSERT_TRUE(a.drained);
  EXPECT_EQ(a.sim_threads, 4);
  EXPECT_EQ(a.elapsed_cycles, b.elapsed_cycles);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.payload_bytes, b.payload_bytes);
}

TEST(ParallelCore, ThreadCountCappedBySlabAxisExtent) {
  // 4x4x8 partitions along z (extent 8): more workers than slabs is clamped.
  const RunResult r = run_threaded(StrategyKind::kMpi, 64, nullptr);
  ASSERT_TRUE(r.drained);
  EXPECT_EQ(r.sim_threads, 8);
}

TEST(ParallelCore, FaultRunsStayOnTheParallelEngine) {
  AlltoallOptions options;
  options.net.shape = topo::parse_shape("4x4x4");
  options.net.seed = 7;
  options.net.sim_threads = 4;
  options.net.faults.link_fail = 0.05;
  options.msg_bytes = 240;
  const RunResult r = run_alltoall(StrategyKind::kAdaptiveRandom, options);
  ASSERT_TRUE(r.drained);
  EXPECT_EQ(r.sim_threads, 4);
  EXPECT_EQ(r.sim_threads_reason, net::ThreadFallbackReason::kNone);
}

TEST(ParallelCore, EveryRegistryStrategyRunsOnTheParallelEngine) {
  // With the bespoke clients retired, every registry strategy expands to a
  // CommSchedule and is slab-eligible on a fault-free run.
  AlltoallOptions options;
  options.net.shape = topo::parse_shape("4x4x8");
  options.net.seed = 7;
  options.net.sim_threads = 4;
  options.msg_bytes = 240;
  const RunResult r = run_alltoall(StrategyKind::kMpi, options);
  ASSERT_TRUE(r.drained);
  EXPECT_EQ(r.sim_threads, 4);
}

// --- mid-collective fail-stop (fail_at > 0) --------------------------------

TEST(MidRunStrike, BlindPlanningQuiescesAndReportsStrandedRelayBytes) {
  AlltoallOptions options;
  options.net.shape = topo::parse_shape("4x4x4");
  options.net.seed = 13;
  options.msg_bytes = 2048;
  options.verify = true;
  const RunResult healthy = run_alltoall(StrategyKind::kTwoPhase, options);
  ASSERT_TRUE(healthy.drained);
  ASSERT_TRUE(healthy.reachable_complete);

  // Strike one node a quarter of the way into the healthy run: phase-1
  // forwards are in flight and (for this seed) some sit in the victim's
  // custody at the strike instant. Deterministic — not timing-flaky.
  // No repair epoch: this test pins the struck epoch 0 alone (recovery
  // semantics have their own suite in recovery_test.cpp).
  options.net.faults.max_retries = 0;
  options.net.faults.node_fail = 1;
  options.net.faults.fail_at = healthy.elapsed_cycles / 4;
  const RunResult r = run_alltoall(StrategyKind::kTwoPhase, options);

  // The run must quiesce by itself (sweeps), not by watchdog.
  EXPECT_TRUE(r.drained);
  EXPECT_FALSE(r.timed_out);
  EXPECT_EQ(r.epochs.epochs, 1);
  // Planning was blind: nothing was steered around the future fault, so
  // the strike shows up as a delivery shortfall, with the stranded relay
  // payload accounting for part of it. Only the pairs of the dead node it
  // left short become unreachable; the survivors' short pairs are
  // reported abandoned.
  EXPECT_FALSE(r.reachable_complete);
  EXPECT_GT(r.faults.stranded_relay_bytes, 0u);
  const auto nodes = static_cast<std::uint64_t>(options.net.shape.nodes());
  EXPECT_GT(r.unreachable_pairs, 0u);
  EXPECT_LE(r.unreachable_pairs, 2 * (nodes - 1));
  EXPECT_GT(r.abandoned_pairs, 0u);
  EXPECT_GT(r.pairs_complete, 0u);
  EXPECT_EQ(r.pairs_complete + r.abandoned_pairs + r.unreachable_pairs, nodes * (nodes - 1));
}

TEST(MidRunStrike, ImmediateStrikeStillPlansAroundFaults) {
  // fail_at == 0 keeps the existing semantics: the plan is visible to the
  // builders and unreachable pairs are skipped at the source.
  AlltoallOptions options;
  options.net.shape = topo::parse_shape("4x4x4");
  options.net.seed = 5;
  options.msg_bytes = 300;
  options.verify = true;
  options.net.faults.node_fail = 2;
  const RunResult r = run_alltoall(StrategyKind::kAdaptiveRandom, options);
  EXPECT_TRUE(r.drained);
  EXPECT_GT(r.unreachable_pairs, 0u);
  EXPECT_TRUE(r.reachable_complete);
  EXPECT_EQ(r.faults.stranded_relay_bytes, 0u);
}

}  // namespace
}  // namespace bgl::coll
