// The fault-injection plan: strict --faults spec parsing, deterministic
// expansion of a FaultConfig over a Shape, and the minimal-path routability
// oracle that strategies and verification share.
#include "src/network/faults.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "src/topology/torus.hpp"

namespace bgl::net {
namespace {

// --- parse_fault_spec ------------------------------------------------------

TEST(ParseFaultSpec, ParsesEveryKey) {
  const FaultConfig c = parse_fault_spec(
      "link:0.02,tlink=0.01,repair:1000,fail_at:5,degrade:0.1,degrade_mult:8,"
      "node:3,drop:1e-5,corrupt:2e-4,seed:7,rto:2000,retries:4,stuck:9000");
  EXPECT_DOUBLE_EQ(c.link_fail, 0.02);
  EXPECT_DOUBLE_EQ(c.link_transient, 0.01);
  EXPECT_EQ(c.repair_cycles, 1000);
  EXPECT_EQ(c.fail_at, 5);
  EXPECT_DOUBLE_EQ(c.degrade, 0.1);
  EXPECT_EQ(c.degrade_mult, 8u);
  EXPECT_EQ(c.node_fail, 3);
  EXPECT_DOUBLE_EQ(c.drop_prob, 1e-5);
  EXPECT_DOUBLE_EQ(c.corrupt_prob, 2e-4);
  EXPECT_EQ(c.seed, 7u);
  EXPECT_EQ(c.retrans_timeout, 2000);
  EXPECT_EQ(c.max_retries, 4);
  EXPECT_EQ(c.stuck_drop_cycles, 9000);
  EXPECT_TRUE(c.enabled());
}

TEST(ParseFaultSpec, EmptySpecIsDisabled) {
  EXPECT_FALSE(parse_fault_spec("").enabled());
}

TEST(ParseFaultSpec, ParsesCorruptProbability) {
  const FaultConfig c = parse_fault_spec("corrupt:0.01");
  EXPECT_DOUBLE_EQ(c.corrupt_prob, 0.01);
  EXPECT_TRUE(c.enabled());
  EXPECT_DOUBLE_EQ(parse_fault_spec("corrupt:0").corrupt_prob, 0.0);
  EXPECT_DOUBLE_EQ(parse_fault_spec("drop:0.001,corrupt:1e-3").corrupt_prob, 1e-3);
}

TEST(ParseFaultSpec, RejectsDuplicateKeys) {
  EXPECT_THROW(parse_fault_spec("link:0.1,link:0.2"), std::runtime_error);
  EXPECT_THROW(parse_fault_spec("drop:0.1,corrupt:0.1,drop:0.1"),
               std::runtime_error);
  // Mixed key:value / key=value syntax is still the same key.
  EXPECT_THROW(parse_fault_spec("node:1,node=2"), std::runtime_error);
  try {
    parse_fault_spec("corrupt:0.1,corrupt:0.1");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("duplicate"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("corrupt"), std::string::npos);
  }
}

TEST(ParseFaultSpec, RejectsOutOfRangeProbabilities) {
  EXPECT_THROW(parse_fault_spec("corrupt:1.5"), std::runtime_error);
  EXPECT_THROW(parse_fault_spec("corrupt:-0.1"), std::runtime_error);
  EXPECT_THROW(parse_fault_spec("drop:1.0001"), std::runtime_error);
  EXPECT_THROW(parse_fault_spec("tlink:2"), std::runtime_error);
  // The bounds themselves are legal.
  EXPECT_DOUBLE_EQ(parse_fault_spec("corrupt:1").corrupt_prob, 1.0);
  EXPECT_DOUBLE_EQ(parse_fault_spec("drop:1,corrupt:0").drop_prob, 1.0);
}

TEST(ParseFaultSpec, RejectsMalformedInput) {
  EXPECT_THROW(parse_fault_spec("link"), std::runtime_error);          // no value
  EXPECT_THROW(parse_fault_spec("link:"), std::runtime_error);         // empty value
  EXPECT_THROW(parse_fault_spec(":0.1"), std::runtime_error);          // empty key
  EXPECT_THROW(parse_fault_spec("link:0.1,,drop:0"), std::runtime_error);
  EXPECT_THROW(parse_fault_spec("warp:0.5"), std::runtime_error);      // unknown key
  EXPECT_THROW(parse_fault_spec("link:zebra"), std::runtime_error);    // not a number
  EXPECT_THROW(parse_fault_spec("link:1.5"), std::runtime_error);      // > 1
  EXPECT_THROW(parse_fault_spec("drop:-0.1"), std::runtime_error);     // < 0
  EXPECT_THROW(parse_fault_spec("node:-2"), std::runtime_error);
  EXPECT_THROW(parse_fault_spec("repair:0"), std::runtime_error);
  EXPECT_THROW(parse_fault_spec("rto:0"), std::runtime_error);
  EXPECT_THROW(parse_fault_spec("degrade_mult:1"), std::runtime_error);
  EXPECT_THROW(parse_fault_spec("link:0.1 "), std::runtime_error);     // trailing junk
}

TEST(ParseFaultSpec, ErrorMessagesNameTheOption) {
  try {
    parse_fault_spec("bogus:1");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("--faults"), std::string::npos);
  }
}

// --- FaultPlan expansion ---------------------------------------------------

NetworkConfig config_for(const std::string& spec, std::uint64_t seed = 1) {
  NetworkConfig net;
  net.shape = topo::parse_shape("4x4x4");
  net.seed = seed;
  net.faults = parse_fault_spec(spec);
  return net;
}

TEST(FaultPlan, DisabledConfigYieldsEmptyPlan) {
  const NetworkConfig net = config_for("");
  const FaultPlan plan(net, net.shape);
  EXPECT_FALSE(plan.enabled());
  EXPECT_EQ(plan.dead_link_count(), 0u);
  EXPECT_EQ(plan.dead_node_count(), 0u);
  EXPECT_TRUE(plan.node_alive(0));
  EXPECT_EQ(plan.link_health(0), LinkHealth::kUp);
}

TEST(FaultPlan, PureFunctionOfConfigAndShape) {
  const NetworkConfig net = config_for("link:0.05,tlink:0.05,node:2,degrade:0.1");
  const FaultPlan a(net, net.shape);
  const FaultPlan b(net, net.shape);
  ASSERT_TRUE(a.enabled());
  EXPECT_EQ(a.derived_seed(), b.derived_seed());
  EXPECT_EQ(a.dead_link_count(), b.dead_link_count());
  EXPECT_EQ(a.degraded_link_count(), b.degraded_link_count());
  EXPECT_EQ(a.dead_node_count(), b.dead_node_count());
  ASSERT_EQ(a.transients().size(), b.transients().size());
  for (std::size_t i = 0; i < a.transients().size(); ++i) {
    EXPECT_EQ(a.transients()[i].link, b.transients()[i].link);
    EXPECT_EQ(a.transients()[i].down_at, b.transients()[i].down_at);
    EXPECT_EQ(a.transients()[i].up_at, b.transients()[i].up_at);
  }
  const int links = static_cast<int>(net.shape.nodes()) * net.shape.directions();
  for (int link = 0; link < links; ++link) {
    EXPECT_EQ(a.link_health(link), b.link_health(link));
  }
}

TEST(FaultPlan, SeedZeroDerivesFromNetworkSeed) {
  const FaultPlan a(config_for("link:0.05", 1), topo::parse_shape("4x4x4"));
  const FaultPlan b(config_for("link:0.05", 2), topo::parse_shape("4x4x4"));
  EXPECT_NE(a.derived_seed(), b.derived_seed());

  // An explicit fault seed pins the placement regardless of the network seed.
  const FaultPlan c(config_for("link:0.05,seed:9", 1), topo::parse_shape("4x4x4"));
  const FaultPlan d(config_for("link:0.05,seed:9", 2), topo::parse_shape("4x4x4"));
  EXPECT_EQ(c.derived_seed(), 9u);
  EXPECT_EQ(c.dead_link_count(), d.dead_link_count());
  const int links = 4 * 4 * 4 * topo::parse_shape("4x4x4").directions();
  for (int link = 0; link < links; ++link) {
    EXPECT_EQ(c.link_health(link), d.link_health(link));
  }
}

TEST(FaultPlan, FailsBothDirectionsOfAnUndirectedLink) {
  const NetworkConfig net = config_for("link:0.10");
  const FaultPlan plan(net, net.shape);
  const topo::Torus torus(net.shape);
  ASSERT_GT(plan.dead_link_count(), 0u);
  std::size_t directed_dead = 0;
  for (topo::Rank n = 0; n < torus.nodes(); ++n) {
    for (int d = 0; d < torus.directions(); ++d) {
      if (!plan.link_dead(plan.link_id(n, d))) continue;
      ++directed_dead;
      const topo::Rank peer = torus.neighbor(n, topo::Direction::from_index(d));
      ASSERT_GE(peer, 0);
      // The reverse port on the peer must be dead too.
      const int reverse = d ^ 1;
      EXPECT_TRUE(plan.link_dead(plan.link_id(peer, reverse)));
    }
  }
  EXPECT_EQ(directed_dead, 2 * plan.dead_link_count());
}

TEST(FaultPlan, NodeFailureCountsMatch) {
  const NetworkConfig net = config_for("node:3");
  const FaultPlan plan(net, net.shape);
  EXPECT_EQ(plan.dead_node_count(), 3u);
  std::size_t dead = 0;
  for (topo::Rank n = 0; n < net.shape.nodes(); ++n) {
    if (!plan.node_alive(n)) ++dead;
  }
  EXPECT_EQ(dead, 3u);
}

// --- routability oracle ----------------------------------------------------

TEST(FaultPlan, PairRoutableRespectsDeadEndpoints) {
  const NetworkConfig net = config_for("node:2");
  const FaultPlan plan(net, net.shape);
  topo::Rank dead = -1;
  for (topo::Rank n = 0; n < net.shape.nodes(); ++n) {
    if (!plan.node_alive(n)) { dead = n; break; }
  }
  ASSERT_GE(dead, 0);
  const topo::Rank alive = plan.node_alive(0) ? 0 : 1;
  ASSERT_TRUE(plan.node_alive(alive));
  EXPECT_FALSE(plan.pair_routable(alive, dead, RoutingMode::kAdaptive));
  EXPECT_FALSE(plan.pair_routable(dead, alive, RoutingMode::kAdaptive));
}

TEST(FaultPlan, AdaptiveSurvivesFaultsThatKillDeterministicPaths) {
  // With only link faults (all nodes alive), adaptive minimal routing on a
  // torus finds a detour for most pairs, while dimension-order loses every
  // pair whose single path crosses a dead link. Adaptive routability must
  // be a superset of deterministic routability.
  const NetworkConfig net = config_for("link:0.08");
  const FaultPlan plan(net, net.shape);
  ASSERT_GT(plan.dead_link_count(), 0u);
  std::size_t det_lost = 0;
  for (topo::Rank s = 0; s < net.shape.nodes(); ++s) {
    for (topo::Rank d = 0; d < net.shape.nodes(); ++d) {
      if (s == d) continue;
      const bool adaptive = plan.pair_routable(s, d, RoutingMode::kAdaptive);
      const bool det = plan.pair_routable(s, d, RoutingMode::kDeterministic);
      if (det) EXPECT_TRUE(adaptive) << "pair " << s << "->" << d;
      if (!det) ++det_lost;
    }
  }
  EXPECT_GT(det_lost, 0u);  // 8% dead links must cut some dimension-order path
}

TEST(FaultPlan, RoutabilityIsStableAcrossCalls) {
  const NetworkConfig net = config_for("link:0.05,node:1");
  const FaultPlan plan(net, net.shape);
  for (topo::Rank s = 0; s < 8; ++s) {
    for (topo::Rank d = 56; d < net.shape.nodes(); ++d) {
      if (s == d) continue;
      const bool first = plan.pair_routable(s, d, RoutingMode::kAdaptive);
      plan.invalidate_routes();
      EXPECT_EQ(plan.pair_routable(s, d, RoutingMode::kAdaptive), first);
    }
  }
}

TEST(FaultPlan, RouteMemoKeysAreExactAcrossGrowthAndClear) {
  // Keys that differ only in mode, in the sign of one hop, or in which axis
  // holds a hop must never alias, before and after the table grows, and
  // clear() must forget every answer.
  FaultPlan::RouteMemo memo;
  const auto answer = [](topo::Rank node, int mode, int h) {
    return ((node * 7 + mode * 3 + h) % 5) < 2;
  };
  const auto hops_for = [](int h) {
    return HopVec{static_cast<std::int16_t>(h), static_cast<std::int16_t>(-h),
                  static_cast<std::int16_t>(h % 3), static_cast<std::int16_t>(-(h % 4))};
  };
  for (topo::Rank node = 0; node < 40; ++node) {
    for (int mode = 0; mode < 2; ++mode) {
      for (int h = -20; h <= 20; ++h) {
        const auto m = static_cast<RoutingMode>(mode);
        ASSERT_EQ(memo.find(node, m, hops_for(h)), -1);
        memo.insert(node, m, hops_for(h), answer(node, mode, h));
      }
    }
  }
  for (topo::Rank node = 0; node < 40; ++node) {
    for (int mode = 0; mode < 2; ++mode) {
      for (int h = -20; h <= 20; ++h) {
        EXPECT_EQ(memo.find(node, static_cast<RoutingMode>(mode), hops_for(h)),
                  answer(node, mode, h) ? 1 : 0);
      }
    }
  }
  EXPECT_EQ(memo.find(40, RoutingMode::kAdaptive, hops_for(1)), -1);
  EXPECT_EQ(memo.find(0, RoutingMode::kAdaptive, HopVec{0, 1, 0, 0}), -1);
  memo.clear();
  EXPECT_EQ(memo.find(3, RoutingMode::kDeterministic, hops_for(5)), -1);
  memo.insert(3, RoutingMode::kDeterministic, hops_for(5), true);
  EXPECT_EQ(memo.find(3, RoutingMode::kDeterministic, hops_for(5)), 1);
  EXPECT_EQ(memo.find(3, RoutingMode::kAdaptive, hops_for(5)), -1);
}

}  // namespace
}  // namespace bgl::net
