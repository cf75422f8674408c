// Slab-parallel simulator core and the bugfix-sweep regressions that ride
// with it:
//  - A multi-slab run preserves the per-pair delivery matrix and the
//    delivered packet/byte totals of the one-slab run exactly, and is
//    deterministic for a fixed (seed, threads).
//  - Fault runs are parallel-eligible (counter-based fault draws, slab-owned
//    fault state); the remaining ineligible configuration (cross-node
//    extra_deps) runs as one slab and reports sim_threads == 1 with the
//    cause in sim_threads_reason.
//  - A delayed permanent strike (fail_at > 0) is planned blind, quiesces
//    without tripping the watchdog, and reports the relay payload stranded
//    in dead custodians.
//  - CommSchedule::extra_deps are enforced on ordered relay-free schedules
//    and rejected everywhere else.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "src/coll/alltoall.hpp"
#include "src/coll/registry.hpp"
#include "src/coll/schedule.hpp"
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

TEST(ParallelCore, FallbackReasonNamesCrossNodeDeps) {
  net::NetworkConfig net;
  net.shape = topo::parse_shape("4x1x1");
  net.seed = 3;
  net.sim_threads = 4;
  AlltoallOptions options;
  options.net = net;
  options.msg_bytes = 240;
  options.order = OrderPolicy::kRotation;
  CommSchedule sched =
      build_schedule(StrategyKind::kMpi, net, options.msg_bytes, options, nullptr);
  sched.extra_deps = {{5, 0}};
  const RunResult r = run_schedule(std::move(sched), options, "deps");
  ASSERT_TRUE(r.drained);
  EXPECT_EQ(r.sim_threads, 1);
  EXPECT_EQ(r.sim_threads_reason, net::ThreadFallbackReason::kCrossNodeDeps);
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
  // Recovery off: this test pins the raw struck-epoch contract (recovery
  // semantics have their own suite in recovery_test.cpp).
  options.recover = false;
  options.net.faults.node_fail = 1;
  options.net.faults.fail_at = healthy.elapsed_cycles / 4;
  const RunResult r = run_alltoall(StrategyKind::kTwoPhase, options);

  // The run must quiesce by itself (give-ups + sweeps), not by watchdog.
  EXPECT_TRUE(r.drained);
  EXPECT_FALSE(r.timed_out);
  // Planning was blind: nothing was steered around the future fault...
  EXPECT_EQ(r.unreachable_pairs, 0u);
  // ...so the strike shows up as a delivery shortfall, with the stranded
  // relay payload accounting for part of it.
  EXPECT_FALSE(r.reachable_complete);
  EXPECT_GT(r.faults.stranded_relay_bytes, 0u);
  const auto nodes = static_cast<std::uint64_t>(options.net.shape.nodes());
  EXPECT_GT(r.pairs_complete, 0u);
  EXPECT_LT(r.pairs_complete, nodes * (nodes - 1));
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

// --- extra_deps execution --------------------------------------------------

/// Direct single-phase schedule on a 4-node ring with the deterministic
/// rotation order: node n sends to n+1, n+2, n+3 in turn. Transfer ids are
/// node-major: node 0 emits ids 0..2, node 1 ids 3..5 (id 5 = 1 -> 0), etc.
CommSchedule ring_schedule(const net::NetworkConfig& net, std::uint64_t msg_bytes) {
  AlltoallOptions options;
  options.net = net;
  options.msg_bytes = msg_bytes;
  options.order = OrderPolicy::kRotation;
  return build_schedule(StrategyKind::kMpi, net, msg_bytes, options, nullptr);
}

struct HopLog {
  std::uint64_t counter = 0;
  std::uint64_t first_0to1 = 0;       // first hop grant of any (0 -> 1) packet
  std::uint64_t last_1to0_delivery = 0;  // last delivery grant of (1 -> 0)
};

void observe_hops(net::Fabric& fabric, HopLog& log) {
  fabric.set_hop_observer(
      [&log](const net::Packet& packet, topo::Rank, int, int target) {
        ++log.counter;
        if ((packet.tag >> 62) != 0) return;  // kFinal only
        const auto orig = static_cast<topo::Rank>((packet.tag >> 24) & 0xffffff);
        const auto dst = static_cast<topo::Rank>(packet.tag & 0xffffff);
        if (orig == 0 && dst == 1 && log.first_0to1 == 0) {
          log.first_0to1 = log.counter;
        }
        if (orig == 1 && dst == 0 && target == -1) {  // delivery grant
          log.last_1to0_delivery = log.counter;
        }
      });
}

TEST(ExtraDeps, GateHoldsTransferUntilDependencyDelivered) {
  net::NetworkConfig net;
  net.shape = topo::parse_shape("4x1x1");
  net.seed = 3;
  const std::uint64_t msg_bytes = 480;

  // Baseline: without the dependency, (0 -> 1) — node 0's first transfer —
  // is injected long before (1 -> 0), node 1's last, finishes.
  {
    CommSchedule sched = ring_schedule(net, msg_bytes);
    ScheduleExecutor exec(net, sched, nullptr);
    net::Fabric fabric(net, exec);
    exec.bind(fabric);
    HopLog log;
    observe_hops(fabric, log);
    ASSERT_TRUE(fabric.run(Tick{1} << 40));
    ASSERT_GT(log.last_1to0_delivery, 0u);
    ASSERT_GT(log.first_0to1, 0u);
    EXPECT_LT(log.first_0to1, log.last_1to0_delivery);
  }

  // With "(1 -> 0) before (0 -> 1)", node 0's whole stream parks until the
  // full dependency message has been delivered, then completes normally.
  {
    CommSchedule sched = ring_schedule(net, msg_bytes);
    sched.extra_deps = {{5, 0}};
    DeliveryMatrix matrix(4);
    ScheduleExecutor exec(net, sched, &matrix);
    net::Fabric fabric(net, exec);
    exec.bind(fabric);
    HopLog log;
    observe_hops(fabric, log);
    ASSERT_TRUE(fabric.run(Tick{1} << 40));
    ASSERT_GT(log.last_1to0_delivery, 0u);
    ASSERT_GT(log.first_0to1, 0u);
    EXPECT_GT(log.first_0to1, log.last_1to0_delivery);
    EXPECT_TRUE(matrix.complete(msg_bytes)) << matrix.first_error(msg_bytes);
  }
}

TEST(ExtraDeps, RejectedOnRelaySchedules) {
  net::NetworkConfig net;
  net.shape = topo::parse_shape("4x4x4");
  net.seed = 3;
  AlltoallOptions options;
  options.net = net;
  options.msg_bytes = 300;
  CommSchedule sched =
      build_schedule(StrategyKind::kTwoPhase, net, options.msg_bytes, options, nullptr);
  sched.extra_deps = {{0, 1}};
  EXPECT_THROW(ScheduleExecutor(net, std::move(sched), nullptr), std::invalid_argument);
}

TEST(ExtraDeps, RejectedOnExplicitSchedules) {
  net::NetworkConfig net;
  net.shape = topo::parse_shape("4x4x4");
  net.seed = 3;
  AlltoallOptions options;
  options.net = net;
  options.msg_bytes = 300;
  CommSchedule sched = build_schedule(StrategyKind::kVirtualMesh, net,
                                      options.msg_bytes, options, nullptr);
  ASSERT_EQ(sched.form, StreamForm::kExplicit);
  sched.extra_deps = {{0, 1}};
  EXPECT_THROW(ScheduleExecutor(net, std::move(sched), nullptr), std::invalid_argument);
}

TEST(ExtraDeps, RejectedWhenOutOfRangeOrSelfReferential) {
  net::NetworkConfig net;
  net.shape = topo::parse_shape("4x1x1");
  net.seed = 3;
  {
    CommSchedule sched = ring_schedule(net, 240);
    sched.extra_deps = {{0, 9999}};
    EXPECT_THROW(ScheduleExecutor(net, std::move(sched), nullptr),
                 std::invalid_argument);
  }
  {
    CommSchedule sched = ring_schedule(net, 240);
    sched.extra_deps = {{2, 2}};
    EXPECT_THROW(ScheduleExecutor(net, std::move(sched), nullptr),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace bgl::coll
