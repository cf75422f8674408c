// Unit tests for the direct strategy family's schedule builder and tuning
// knobs, driven through the ScheduleExecutor.
#include "src/coll/direct.hpp"

#include <gtest/gtest.h>

#include <map>

#include "src/coll/alltoall.hpp"
#include "src/coll/schedule.hpp"
#include "src/network/fabric.hpp"

namespace bgl::coll {
namespace {

net::NetworkConfig make_config(const char* shape, std::uint64_t seed = 1) {
  net::NetworkConfig config;
  config.shape = topo::parse_shape(shape);
  config.seed = seed;
  return config;
}

/// Drains an executor's schedule for one node without a fabric, collecting
/// the emitted (dst, payload, first-packet) sequence.
struct Emitted {
  topo::Rank dst;
  std::uint32_t payload;
  bool has_alpha;
};

std::vector<Emitted> drain_node(ScheduleExecutor& client, topo::Rank node) {
  std::vector<Emitted> out;
  net::InjectDesc desc;
  while (client.next_packet(node, desc)) {
    out.push_back({desc.dst, desc.payload_bytes, desc.extra_cpu_cycles >= 450});
    EXPECT_LT(out.size(), 100000u) << "schedule does not terminate";
    if (out.size() >= 100000u) break;
  }
  return out;
}

TEST(DirectSchedule, CoversAllDestinationsOnce) {
  const auto config = make_config("4x4x4");
  ScheduleExecutor client(config, build_direct_schedule(config, 100, DirectTuning::ar()),
                          nullptr);
  const auto emitted = drain_node(client, 0);
  ASSERT_EQ(emitted.size(), 63u);  // 100 B = 1 packet per destination
  std::map<topo::Rank, int> counts;
  std::uint64_t payload = 0;
  for (const auto& e : emitted) {
    ++counts[e.dst];
    payload += e.payload;
    EXPECT_TRUE(e.has_alpha) << "every first packet carries alpha";
  }
  EXPECT_EQ(counts.size(), 63u);
  EXPECT_EQ(counts.count(0), 0u) << "never sends to self";
  EXPECT_EQ(payload, 63u * 100u);
}

TEST(DirectSchedule, Burst1InterleavesPacketsAcrossDestinations) {
  // 700 B = 208 + 240 + 240 + 12 -> 4 packets; with burst 1 each round
  // visits every destination before any destination sees its next packet.
  const auto config = make_config("4x4x4");
  ScheduleExecutor client(config, build_direct_schedule(config, 700, DirectTuning::ar()),
                          nullptr);
  const auto emitted = drain_node(client, 5);
  ASSERT_EQ(emitted.size(), 63u * 4u);
  // The first 63 sends are all distinct destinations (round 0).
  std::map<topo::Rank, int> first_round;
  for (std::size_t i = 0; i < 63; ++i) ++first_round[emitted[i].dst];
  EXPECT_EQ(first_round.size(), 63u);
  // Alpha charged only in round 0.
  for (std::size_t i = 63; i < emitted.size(); ++i) {
    EXPECT_FALSE(emitted[i].has_alpha);
  }
}

TEST(DirectSchedule, Burst2SendsPairsBeforeMovingOn) {
  const auto config = make_config("4x4x4");
  ScheduleExecutor client(config, build_direct_schedule(config, 700, DirectTuning::mpi()),
                          nullptr);  // burst 2
  const auto emitted = drain_node(client, 5);
  ASSERT_EQ(emitted.size(), 63u * 4u);
  // Round 0 sends packets 0 and 1 back-to-back per destination.
  for (std::size_t i = 0; i + 1 < 126; i += 2) {
    EXPECT_EQ(emitted[i].dst, emitted[i + 1].dst) << "burst pair split at " << i;
  }
}

TEST(DirectSchedule, RandomizedOrderDiffersAcrossNodes) {
  const auto config = make_config("4x4x4");
  ScheduleExecutor client(config, build_direct_schedule(config, 32, DirectTuning::ar()),
                          nullptr);
  const auto a = drain_node(client, 1);
  const auto b = drain_node(client, 2);
  ASSERT_EQ(a.size(), b.size());
  int same_position = 0;
  for (std::size_t i = 0; i < a.size(); ++i) same_position += (a[i].dst == b[i].dst);
  EXPECT_LT(same_position, 20) << "per-node orders should be (mostly) different";
}

TEST(DirectSchedule, ThrottleAddsPacingCost) {
  const auto config = make_config("8x8x8");
  ScheduleExecutor paced(
      config, build_direct_schedule(config, 240, DirectTuning::throttled(1.0)), nullptr);
  ScheduleExecutor unpaced(config, build_direct_schedule(config, 240, DirectTuning::ar()),
                           nullptr);
  net::InjectDesc a, b;
  ASSERT_TRUE(paced.next_packet(0, a));
  ASSERT_TRUE(unpaced.next_packet(0, b));
  EXPECT_GT(a.extra_cpu_cycles, b.extra_cpu_cycles);
}

TEST(DirectSchedule, DeliveriesMatchScheduleShape) {
  const auto config = make_config("4x2x2");
  const CommSchedule sched = build_direct_schedule(config, 700, DirectTuning::ar());
  const std::uint64_t packets_per_message = sched.phases[0].packets.size();
  ScheduleExecutor client(config, sched, nullptr);
  net::NetworkConfig fabric_config = config;
  net::Fabric fabric(fabric_config, client);
  client.bind(fabric);
  EXPECT_TRUE(fabric.run());
  const std::uint64_t expected = 16u * 15u * packets_per_message;
  EXPECT_EQ(fabric.stats().packets_delivered, expected);
  EXPECT_EQ(client.completion_cycles(), fabric.stats().last_delivery);
}

TEST(DirectSchedule, DeterministicModeSetsRoutingMode) {
  const auto config = make_config("4x4x4");
  ScheduleExecutor client(config, build_direct_schedule(config, 64, DirectTuning::dr()),
                          nullptr);
  net::InjectDesc desc;
  ASSERT_TRUE(client.next_packet(0, desc));
  EXPECT_EQ(desc.mode, net::RoutingMode::kDeterministic);
}

}  // namespace
}  // namespace bgl::coll
