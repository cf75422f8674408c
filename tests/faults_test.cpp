// The fault-injection plan: strict --faults spec parsing, deterministic
// expansion of a FaultConfig over a Shape, and the minimal-path routability
// oracle that strategies and verification share.
#include "src/network/faults.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <numeric>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/topology/torus.hpp"

namespace bgl::net {
namespace {

// --- parse_fault_spec ------------------------------------------------------

TEST(ParseFaultSpec, ParsesEveryKey) {
  const FaultConfig c = parse_fault_spec(
      "link:0.02,tlink=0.01,repair:1000,fail_at:5,degrade:0.1,degrade_mult:8,"
      "node:3,drop:1e-5,corrupt:2e-4,seed:7,retries:4,stuck:9000");
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
  EXPECT_THROW(parse_fault_spec("stuck:0"), std::runtime_error);
  // The retransmission timeout went with per-packet retransmission.
  EXPECT_THROW(parse_fault_spec("rto:1"), std::runtime_error);
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

NetworkConfig config_for(const std::string& spec, std::uint64_t seed = 1,
                         const std::string& shape = "4x4x4") {
  NetworkConfig net;
  net.shape = topo::parse_shape(shape);
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
      EXPECT_EQ(plan.pair_routable(s, d, RoutingMode::kAdaptive), first);
    }
  }
}

// --- routability against an uncached reference ------------------------------

constexpr std::array<RoutingMode, 2> kModes{RoutingMode::kAdaptive,
                                            RoutingMode::kDeterministic};

/// Uncached reference for route_live: floods the box of minimal-path
/// positions (hops taken per axis) from `node`, fresh for every query. A
/// step adds one to a single axis, so ascending position index is a
/// topological order of the minimal DAG.
bool reference_live(const FaultPlan& plan, topo::Rank node, const HopVec& hops,
                    RoutingMode mode) {
  const topo::Torus& torus = plan.torus();
  const int axes = torus.axis_count();
  std::array<std::size_t, topo::kMaxAxes> stride{};
  std::size_t cells = 1;
  for (int a = 0; a < axes; ++a) {
    stride[static_cast<std::size_t>(a)] = cells;
    cells *= static_cast<std::size_t>(std::abs(hops[static_cast<std::size_t>(a)]) + 1);
  }
  std::vector<topo::Rank> at(cells, -1);  // node reached at each position
  if (plan.node_alive(node)) at[0] = node;
  for (std::size_t cell = 0; cell + 1 < cells; ++cell) {
    if (at[cell] < 0) continue;
    for (int a = 0; a < axes; ++a) {
      const auto ax = static_cast<std::size_t>(a);
      const int len = std::abs(hops[ax]);
      if (static_cast<int>(cell / stride[ax] % static_cast<std::size_t>(len + 1)) == len) {
        continue;  // axis finished
      }
      const topo::Direction dir{a, hops[ax] > 0 ? +1 : -1};
      const topo::Rank peer = torus.neighbor(at[cell], dir);
      if (peer >= 0 && !plan.link_dead(plan.link_id(at[cell], dir.index())) &&
          plan.node_alive(peer)) {
        at[cell + stride[ax]] = peer;
      }
      // Dimension order: only the first unfinished axis may move.
      if (mode == RoutingMode::kDeterministic) break;
    }
  }
  return at[cells - 1] >= 0;
}

/// Uncached reference for pair_routable: any tie resolution with a live
/// minimal path between two live endpoints.
bool reference_pair(const FaultPlan& plan, topo::Rank src, topo::Rank dst,
                    RoutingMode mode) {
  if (!plan.node_alive(src) || !plan.node_alive(dst)) return false;
  const topo::Torus& torus = plan.torus();
  const topo::Coord a = torus.coord_of(src);
  const topo::Coord b = torus.coord_of(dst);
  const int axes = torus.axis_count();
  for (int combo = 0; combo < (1 << axes); ++combo) {
    HopVec hops{};
    bool valid = true;
    for (int axis = 0; axis < axes; ++axis) {
      int h = torus.hops_signed(a[axis], b[axis], axis);
      if ((combo >> axis) & 1) {
        valid = valid && torus.is_halfway_tie(a[axis], b[axis], axis);
        h = -h;
      }
      hops[static_cast<std::size_t>(axis)] = static_cast<std::int16_t>(h);
    }
    if (valid && reference_live(plan, src, hops, mode)) return true;
  }
  return false;
}

/// Every hop vector a minimal path can hold on `torus`: per axis
/// [-floor(k/2), floor(k/2)] on a torus, [-(k-1), k-1] on a mesh. On a mesh
/// axis some of them step off the edge from some nodes: no path.
std::vector<HopVec> all_hop_vectors(const topo::Torus& torus) {
  std::vector<HopVec> out{HopVec{}};
  for (int a = 0; a < torus.axis_count(); ++a) {
    const auto ax = static_cast<std::size_t>(a);
    const int k = torus.shape().dim[ax];
    const int reach = torus.shape().wrap[ax] ? k / 2 : k - 1;
    std::vector<HopVec> next;
    for (const HopVec& base : out) {
      for (int h = -reach; h <= reach; ++h) {
        HopVec v = base;
        v[ax] = static_cast<std::int16_t>(h);
        next.push_back(v);
      }
    }
    out = std::move(next);
  }
  return out;
}

/// One routability state (node, hop vector, mode).
struct RouteState {
  topo::Rank node;
  HopVec hops;
  RoutingMode mode;
};

std::vector<RouteState> all_states(const topo::Torus& torus) {
  std::vector<RouteState> out;
  const std::vector<HopVec> hop_vectors = all_hop_vectors(torus);
  for (const RoutingMode mode : kModes) {
    for (topo::Rank node = 0; node < torus.nodes(); ++node) {
      for (const HopVec& hops : hop_vectors) out.push_back({node, hops, mode});
    }
  }
  return out;
}

class FaultPlanReference : public ::testing::TestWithParam<const char*> {};

TEST_P(FaultPlanReference, EveryStateAndPairMatchesTheUncachedWalk) {
  // Dead links plus one dead node; the seed is fixed per shape so the
  // severed states below are the same on every run.
  const NetworkConfig net = config_for("link:0.06,node:1,seed:3", 1, GetParam());
  const FaultPlan plan(net, net.shape);
  ASSERT_GT(plan.dead_link_count(), 0u);
  ASSERT_EQ(plan.dead_node_count(), 1u);
  const topo::Torus& torus = plan.torus();

  std::size_t live = 0;
  std::size_t severed = 0;
  for (const RouteState& st : all_states(torus)) {
    const bool want = reference_live(plan, st.node, st.hops, st.mode);
    ASSERT_EQ(plan.route_live(st.node, st.hops, st.mode), want)
        << "node " << st.node << " hops " << st.hops[0] << "," << st.hops[1] << ","
        << st.hops[2] << "," << st.hops[3] << " mode " << static_cast<int>(st.mode);
    ++(want ? live : severed);
  }
  EXPECT_GT(live, 0u);
  EXPECT_GT(severed, 0u);  // the faults must sever something to be a test

  for (const RoutingMode mode : kModes) {
    for (topo::Rank s = 0; s < torus.nodes(); ++s) {
      for (topo::Rank d = 0; d < torus.nodes(); ++d) {
        if (s == d) continue;
        ASSERT_EQ(plan.pair_routable(s, d, mode), reference_pair(plan, s, d, mode))
            << "pair " << s << "->" << d << " mode " << static_cast<int>(mode);
      }
    }
  }
}

// 7x7x7 has no half-way ties and 8x8x8 has them on every axis; 16 is a
// ring, 4x4Mx4 has a mesh axis and 4x4x4x4 four dimensions.
INSTANTIATE_TEST_SUITE_P(Shapes, FaultPlanReference,
                         ::testing::Values("7x7x7", "8x8x8", "4x4x8", "8x8", "16",
                                           "4x4Mx4", "4x4x4x4"),
                         [](const ::testing::TestParamInfo<const char*>& param) {
                           std::string name = param.param;
                           std::replace(name.begin(), name.end(), 'x', '_');
                           return name.insert(0, 1, 's');
                         });

TEST(FaultPlan, ConcurrentQueriesInAnyOrderMatchTheReference) {
  const NetworkConfig net = config_for("link:0.06,node:1,seed:3", 1, "7x7x7");
  const FaultPlan plan(net, net.shape);
  const std::vector<RouteState> states = all_states(plan.torus());
  std::vector<char> want(states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    want[i] = reference_live(plan, states[i].node, states[i].hops, states[i].mode) ? 1 : 0;
  }

  // `plan` has answered nothing yet: four threads fill its one table at
  // once, each walking the states in its own order.
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::size_t> order(states.size());
      std::iota(order.begin(), order.end(), std::size_t{0});
      if (t == 1) std::reverse(order.begin(), order.end());
      if (t >= 2) std::shuffle(order.begin(), order.end(), std::mt19937_64(t));
      for (const std::size_t i : order) {
        const RouteState& st = states[i];
        if (plan.route_live(st.node, st.hops, st.mode) != (want[i] != 0)) ++mismatches;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(FaultPlan, RouteLiveRejectsStatesOutsideTheShape) {
  const NetworkConfig net = config_for("link:0.05", 1, "7x7x7");
  const FaultPlan plan(net, net.shape);
  EXPECT_NO_THROW(plan.route_live(0, HopVec{3, -3, 3, 0}, RoutingMode::kAdaptive));
  EXPECT_THROW(plan.route_live(0, HopVec{4, 0, 0, 0}, RoutingMode::kAdaptive),
               std::out_of_range);
  EXPECT_THROW(plan.route_live(0, HopVec{0, -4, 0, 0}, RoutingMode::kDeterministic),
               std::out_of_range);
  EXPECT_THROW(plan.route_live(0, HopVec{0, 0, 0, 1}, RoutingMode::kAdaptive),
               std::out_of_range);  // a 3-D shape has no fourth axis
  EXPECT_THROW(plan.route_live(343, HopVec{1, 0, 0, 0}, RoutingMode::kAdaptive),
               std::out_of_range);
  EXPECT_THROW(plan.route_live(-1, HopVec{1, 0, 0, 0}, RoutingMode::kAdaptive),
               std::out_of_range);

  // A mesh axis reaches k - 1 hops.
  const NetworkConfig mesh = config_for("link:0.05", 1, "4x4Mx4");
  const FaultPlan mesh_plan(mesh, mesh.shape);
  EXPECT_NO_THROW(mesh_plan.route_live(0, HopVec{2, 3, -2, 0}, RoutingMode::kAdaptive));
  EXPECT_THROW(mesh_plan.route_live(0, HopVec{0, 4, 0, 0}, RoutingMode::kAdaptive),
               std::out_of_range);
  EXPECT_THROW(mesh_plan.route_live(0, HopVec{3, 0, 0, 0}, RoutingMode::kAdaptive),
               std::out_of_range);
}

TEST(FaultPlan, DisabledPlanRoutesEverything) {
  const NetworkConfig net = config_for("");
  const FaultPlan plan(net, net.shape);
  EXPECT_TRUE(plan.route_live(0, HopVec{2, 2, 2, 0}, RoutingMode::kDeterministic));
  EXPECT_TRUE(plan.pair_routable(0, 63, RoutingMode::kAdaptive));
}

}  // namespace
}  // namespace bgl::net
