// Tests for the fabric's client-facing API surface: timers, FIFO queries,
// wake semantics and run-result accounting.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/coll/alltoall.hpp"
#include "src/network/fabric.hpp"

namespace bgl::net {
namespace {

NetworkConfig make_config(const char* shape) {
  NetworkConfig config;
  config.shape = topo::parse_shape(shape);
  config.seed = 1;
  return config;
}

/// Client that exercises timers and deferred injection via wake_cpu.
class TimerClient : public Client {
 public:
  bool next_packet(topo::Rank node, InjectDesc& out) override {
    if (node != 0) return false;
    if (!armed_) {
      // First ask: refuse and arm a timer instead; the packet goes out only
      // after the timer wakes us.
      armed_ = true;
      fabric->schedule_timer(0, 5000, /*cookie=*/77);
      return false;
    }
    if (!timer_fired_ || sent_) return false;
    sent_ = true;
    out.dst = 1;
    out.wire_chunks = 1;
    out.payload_bytes = 32;
    return true;
  }

  void on_timer(topo::Rank node, std::uint64_t cookie) override {
    EXPECT_EQ(node, 0);
    EXPECT_EQ(cookie, 77u);
    timer_fired_ = true;
    fire_time = fabric->now();
    fabric->wake_cpu(node);
  }

  void on_delivery(topo::Rank node, const Packet&) override {
    EXPECT_EQ(node, 1);
    delivery_time = fabric->now();
  }

  Fabric* fabric = nullptr;
  Tick fire_time = 0;
  Tick delivery_time = 0;

 private:
  bool armed_ = false;
  bool timer_fired_ = false;
  bool sent_ = false;
};

TEST(FabricApi, TimerFiresAndWakesTheCore) {
  auto config = make_config("4x1x1");
  TimerClient client;
  Fabric fabric(config, client);
  client.fabric = &fabric;
  EXPECT_TRUE(fabric.run());
  EXPECT_GE(client.fire_time, 5000u);
  EXPECT_GT(client.delivery_time, client.fire_time)
      << "the deferred packet must go out only after the wake";
}

/// Floods one FIFO so occupancy queries have something to see.
class FloodClient : public Client {
 public:
  explicit FloodClient(int count) : remaining_(count) {}
  bool next_packet(topo::Rank node, InjectDesc& out) override {
    if (node != 0 || remaining_ == 0) return false;
    --remaining_;
    out.dst = 1;
    out.wire_chunks = 8;
    out.payload_bytes = 240;
    out.fifo = 3;
    return true;
  }
  void on_delivery(topo::Rank, const Packet&) override {}

 private:
  int remaining_;
};

TEST(FabricApi, FifoQueriesSeeOccupancy) {
  auto config = make_config("4x1x1");
  FloodClient client(20);
  Fabric fabric(config, client);
  EXPECT_EQ(fabric.fifo_free_chunks(0, 3), config.injection_fifo_chunks);
  // Run a slice: FIFO 3 backs up behind the single serialized link.
  fabric.run(3000);
  EXPECT_LT(fabric.fifo_free_chunks(0, 3), config.injection_fifo_chunks);
  // pick_fifo avoids the crowded one.
  const int picked = fabric.pick_fifo(0, 0, config.injection_fifos);
  EXPECT_NE(picked, 3);
  EXPECT_TRUE(fabric.run());
  EXPECT_EQ(fabric.fifo_free_chunks(0, 3), config.injection_fifo_chunks);
}

TEST(FabricApi, RunResultAccountingConsistent) {
  coll::AlltoallOptions options;
  options.net.shape = topo::parse_shape("4x4x2");
  options.net.seed = 2;
  options.msg_bytes = 500;
  const auto result = coll::run_alltoall(coll::StrategyKind::kAdaptiveRandom, options);
  ASSERT_TRUE(result.drained);
  const auto nodes = static_cast<std::uint64_t>(options.net.shape.nodes());
  // Payload accounting: every ordered pair moved exactly msg_bytes.
  EXPECT_EQ(result.payload_bytes, nodes * (nodes - 1) * 500u);
  // 500 B = 3 packets per pair.
  EXPECT_EQ(result.packets_delivered, nodes * (nodes - 1) * 3u);
  // Unit conversions.
  EXPECT_NEAR(result.elapsed_us, static_cast<double>(result.elapsed_cycles) / 700.0, 1e-9);
  const double expected_rate =
      static_cast<double>((nodes - 1) * 500u) / result.elapsed_us;
  EXPECT_NEAR(result.per_node_mbps, expected_rate, 1e-6);
  EXPECT_GT(result.events, result.packets_delivered);
}

TEST(FabricApi, CollectLinkStatsOffLeavesCountersEmpty) {
  coll::AlltoallOptions options;
  options.net.shape = topo::parse_shape("4x2x2");
  options.net.collect_link_stats = false;
  options.msg_bytes = 100;
  const auto result = coll::run_alltoall(coll::StrategyKind::kAdaptiveRandom, options);
  EXPECT_TRUE(result.drained);
  EXPECT_DOUBLE_EQ(result.links.overall_mean, 0.0);
}

TEST(FabricApi, DeadlinePreventsRunawayRuns) {
  coll::AlltoallOptions options;
  options.net.shape = topo::parse_shape("4x4x4");
  options.msg_bytes = 4096;
  options.deadline = 1000;  // absurdly tight: must report non-drained
  const auto result = coll::run_alltoall(coll::StrategyKind::kAdaptiveRandom, options);
  EXPECT_FALSE(result.drained);
}

TEST(FabricApi, DeadlineStopsBeforeLaterEvents) {
  auto config = make_config("4x1x1");
  TimerClient client;
  Fabric fabric(config, client);
  client.fabric = &fabric;
  // The timer armed at the first core pump (tick 0) is due at tick 5000.
  EXPECT_FALSE(fabric.run(4999));
  EXPECT_EQ(client.fire_time, 0u) << "an event past the deadline ran";
  // A deadline is inclusive: resuming up to 5000 fires it exactly on time.
  EXPECT_FALSE(fabric.run(5000));
  EXPECT_EQ(client.fire_time, 5000u);
  EXPECT_EQ(client.delivery_time, 0u);
  EXPECT_TRUE(fabric.run());
  EXPECT_GT(client.delivery_time, client.fire_time);
}

/// Every node sends `per_node` packets to the nodes after it (cyclically)
/// and logs, in callback order, the time of each delivery.
class RingTrafficClient : public Client {
 public:
  RingTrafficClient(std::int32_t nodes, int per_node)
      : nodes_(nodes), sent_(static_cast<std::size_t>(nodes), 0), per_node_(per_node) {}

  bool next_packet(topo::Rank node, InjectDesc& out) override {
    int& sent = sent_[static_cast<std::size_t>(node)];
    if (sent == per_node_) return false;
    ++sent;
    out.dst = static_cast<topo::Rank>((node + 1 + sent % (nodes_ - 1)) % nodes_);
    out.wire_chunks = static_cast<std::uint16_t>(1 + sent % 8);
    out.payload_bytes = out.wire_chunks * 32u;
    out.fifo = static_cast<std::uint8_t>(sent % 6);
    out.tag = static_cast<std::uint64_t>(node) * 1000u + static_cast<std::uint64_t>(sent);
    return true;
  }

  void on_delivery(topo::Rank, const Packet& packet) override {
    delivered.push_back(packet.tag);
    if (fabric != nullptr) delivery_times.push_back(fabric->now());
  }

  Fabric* fabric = nullptr;
  std::vector<std::uint64_t> delivered;
  std::vector<Tick> delivery_times;

 private:
  std::int32_t nodes_;
  std::vector<int> sent_;
  int per_node_;
};

TEST(FabricApi, DeadlineSlicedRunMatchesUnslicedRun) {
  auto config = make_config("4x4x2");
  const auto nodes = static_cast<std::int32_t>(config.shape.nodes());

  RingTrafficClient whole_client(nodes, 40);
  Fabric whole(config, whole_client);
  whole_client.fabric = &whole;
  ASSERT_TRUE(whole.run());

  RingTrafficClient sliced_client(nodes, 40);
  Fabric sliced(config, sliced_client);
  sliced_client.fabric = &sliced;
  bool drained = false;
  int slices = 0;
  for (Tick deadline = 700; !drained && slices < 10000; deadline += 700, ++slices) {
    const std::size_t before = sliced_client.delivery_times.size();
    drained = sliced.run(deadline);
    for (std::size_t i = before; i < sliced_client.delivery_times.size(); ++i) {
      ASSERT_LE(sliced_client.delivery_times[i], deadline) << "slice " << slices;
    }
  }
  ASSERT_TRUE(drained);
  EXPECT_GT(slices, 1) << "the slices must actually cut the run";

  // Stopping at a deadline and resuming is invisible to the simulation.
  EXPECT_EQ(sliced_client.delivered, whole_client.delivered);
  EXPECT_EQ(sliced_client.delivery_times, whole_client.delivery_times);
  EXPECT_EQ(sliced.events_processed(), whole.events_processed());
  EXPECT_EQ(sliced.stats().arb_grants, whole.stats().arb_grants);
  EXPECT_EQ(sliced.stats().chunk_hops, whole.stats().chunk_hops);
  EXPECT_EQ(sliced.stats().active_span(), whole.stats().active_span());
}

TEST(FabricApi, QuiescentRunLeavesNothingToDo) {
  auto config = make_config("4x4x2");
  const auto nodes = static_cast<std::int32_t>(config.shape.nodes());
  RingTrafficClient client(nodes, 20);
  Fabric fabric(config, client);
  ASSERT_TRUE(fabric.run());
  EXPECT_EQ(client.delivered.size(), static_cast<std::size_t>(nodes) * 20u);
  EXPECT_EQ(fabric.packets_in_network(), 0);
  EXPECT_EQ(fabric.check_invariants(/*quiescent=*/true), "");

  // Nothing is left queued: another run drains at once without an event.
  const std::uint64_t events = fabric.events_processed();
  const Tick span = fabric.stats().active_span();
  EXPECT_TRUE(fabric.run());
  EXPECT_EQ(fabric.events_processed(), events);
  EXPECT_EQ(fabric.stats().active_span(), span);
  EXPECT_EQ(client.delivered.size(), static_cast<std::size_t>(nodes) * 20u);
}

TEST(FabricApi, OneSlabHopObserverRunsInlineInGrantOrder) {
  auto config = make_config("4x4x2");
  config.sim_threads = 1;
  const auto nodes = static_cast<std::int32_t>(config.shape.nodes());
  RingTrafficClient client(nodes, 20);
  Fabric fabric(config, client);
  client.fabric = &fabric;
  ASSERT_EQ(fabric.effective_sim_threads(), 1);

  // Inline means the observer runs inside the grant's own handler: it can
  // read the slab clock, sees grants in time order, and sees a packet's
  // delivery grant before the client sees the delivery.
  Tick last_grant = 0;
  bool out_of_order = false;
  std::map<std::uint64_t, Tick> delivery_grant;
  fabric.set_hop_observer([&](const Packet& packet, topo::Rank, int, int target) {
    const Tick at = fabric.now();
    if (at < last_grant) out_of_order = true;
    last_grant = at;
    if (target == -1) delivery_grant.emplace(packet.tag, at);  // delivery grant
  });
  ASSERT_TRUE(fabric.run());
  EXPECT_FALSE(out_of_order) << "observer calls are not in grant order";
  ASSERT_EQ(client.delivered.size(), static_cast<std::size_t>(nodes) * 20u);
  EXPECT_EQ(delivery_grant.size(), client.delivered.size());
  for (std::size_t i = 0; i < client.delivered.size(); ++i) {
    const auto it = delivery_grant.find(client.delivered[i]);
    ASSERT_NE(it, delivery_grant.end()) << "delivery before its grant was observed";
    EXPECT_LE(it->second, client.delivery_times[i]);
  }
}

}  // namespace
}  // namespace bgl::net
