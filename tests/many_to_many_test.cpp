#include "src/coll/many_to_many.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>

#include "src/coll/schedule_lint.hpp"
#include "src/network/faults.hpp"
#include "tests/many_to_many_cases.hpp"

namespace bgl::coll {
namespace {

AlltoallOptions make_options(const char* shape, std::uint64_t msg_bytes = 240) {
  AlltoallOptions options;
  options.net.shape = topo::parse_shape(shape);
  options.net.seed = 1;
  options.msg_bytes = msg_bytes;
  return options;
}

RunResult run_pattern(StrategyKind kind, const Pattern& pattern,
                      const AlltoallOptions& options) {
  return run_schedule(build_pattern_schedule(kind, options.net, pattern, options.msg_bytes),
                      options, strategy_name(kind));
}

TEST(Pattern, RandomSubsetHasExactFanout) {
  const auto pattern = Pattern::random_subset(64, 5, 9);
  ASSERT_EQ(pattern.dests.size(), 64u);
  for (std::size_t n = 0; n < 64; ++n) {
    EXPECT_EQ(pattern.dests[n].size(), 5u);
    std::set<topo::Rank> unique(pattern.dests[n].begin(), pattern.dests[n].end());
    EXPECT_EQ(unique.size(), 5u);
    EXPECT_EQ(unique.count(static_cast<topo::Rank>(n)), 0u);
  }
  EXPECT_EQ(pattern.total_messages(), 64u * 5u);
}

TEST(Pattern, RandomSubsetRejectsFanoutAbovePeers) {
  EXPECT_EQ(Pattern::random_subset(64, 63, 9).total_messages(), 64u * 63u);
  EXPECT_THROW(Pattern::random_subset(64, 64, 9), std::invalid_argument);
  EXPECT_THROW(Pattern::random_subset(64, -1, 9), std::invalid_argument);
}

TEST(Pattern, HaloMatchesTorusNeighbors) {
  const auto shape = topo::parse_shape("4x4x4");
  const auto pattern = Pattern::halo(shape);
  for (const auto& dests : pattern.dests) EXPECT_EQ(dests.size(), 6u);

  // On a 2-extent dimension +/- reach the same node: deduplicated.
  const auto thin = Pattern::halo(topo::parse_shape("4x4x2"));
  for (const auto& dests : thin.dests) EXPECT_EQ(dests.size(), 5u);

  // Mesh corner has fewer neighbors.
  const auto mesh = Pattern::halo(topo::parse_shape("4Mx4x4"));
  const topo::Torus torus{topo::parse_shape("4Mx4x4")};
  const topo::Rank corner = torus.rank_of({{0, 0, 0}});
  EXPECT_EQ(mesh.dests[static_cast<std::size_t>(corner)].size(), 5u);
}

TEST(Pattern, GridPartnersRowAndColumn) {
  const auto pattern = Pattern::grid_partners(16, 4);
  // Each of 16 ranks talks to 3 row + 3 column partners.
  for (const auto& dests : pattern.dests) EXPECT_EQ(dests.size(), 6u);
  // Rank 5 (row 1, col 1): row partners 4,6,7; column partners 1,9,13.
  const std::set<topo::Rank> expected = {4, 6, 7, 1, 9, 13};
  const std::set<topo::Rank> actual(pattern.dests[5].begin(), pattern.dests[5].end());
  EXPECT_EQ(actual, expected);
}

TEST(Pattern, GridPartnersRejectsColumnsThatDoNotDivide) {
  // 10 ranks in 4 columns would name ranks 10 and 11; 0 columns divides by 0.
  EXPECT_THROW(Pattern::grid_partners(10, 4), std::invalid_argument);
  EXPECT_THROW(Pattern::grid_partners(16, 0), std::invalid_argument);
  EXPECT_THROW(Pattern::grid_partners(16, -4), std::invalid_argument);
}

class M2MTransport : public ::testing::TestWithParam<bool> {};

TEST_P(M2MTransport, DeliversEveryMessageExactlyOnce) {
  const StrategyKind kind =
      GetParam() ? StrategyKind::kTwoPhase : StrategyKind::kAdaptiveRandom;
  AlltoallOptions options = make_options("4x4x8", 333);
  DeliveryMatrix matrix(static_cast<std::int32_t>(options.net.shape.nodes()));
  options.deliveries = &matrix;

  const auto pattern = Pattern::random_subset(128, 7, 3);
  const RunResult result = run_pattern(kind, pattern, options);
  EXPECT_TRUE(result.drained);
  EXPECT_TRUE(result.reachable_complete);
  EXPECT_EQ(result.pairs_complete, 128u * 7u);
  // Pairs outside the pattern are not owed.
  EXPECT_EQ(result.unreachable_pairs, 128u * 127u - 128u * 7u);

  // Exactly the patterned pairs received exactly msg_bytes.
  for (topo::Rank s = 0; s < 128; ++s) {
    std::set<topo::Rank> expected(pattern.dests[static_cast<std::size_t>(s)].begin(),
                                  pattern.dests[static_cast<std::size_t>(s)].end());
    for (topo::Rank d = 0; d < 128; ++d) {
      const std::uint64_t want = expected.count(d) ? 333u : 0u;
      ASSERT_EQ(matrix.bytes(s, d), want) << s << " -> " << d;
    }
  }
}

TEST_P(M2MTransport, HaloCompletes) {
  const StrategyKind kind =
      GetParam() ? StrategyKind::kTwoPhase : StrategyKind::kAdaptiveRandom;
  AlltoallOptions options = make_options("4x4x4", 1024);
  options.verify = true;
  const RunResult result = run_pattern(kind, Pattern::halo(options.net.shape), options);
  EXPECT_TRUE(result.drained);
  EXPECT_TRUE(result.reachable_complete);
  EXPECT_GT(result.elapsed_cycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(DirectAndTwoPhase, M2MTransport, ::testing::Bool());

TEST(M2M, TwoPhaseUsesChosenLinearAxis) {
  const AlltoallOptions options = make_options("4x4x8");
  const CommSchedule sched =
      build_pattern_schedule(StrategyKind::kTwoPhase, options.net,
                             Pattern::random_subset(128, 3, 1), options.msg_bytes);
  EXPECT_EQ(sched.stream.relay, RelayRule::kLinearAxis);
  EXPECT_EQ(sched.stream.relay_axis, topo::kZ);
  EXPECT_TRUE(schedule_lint(sched).ok());
}

TEST(M2M, DeterministicRoutingWorksToo) {
  AlltoallOptions options = make_options("4x4x4", 100);
  options.verify = true;
  const RunResult result = run_pattern(StrategyKind::kDeterministic,
                                       Pattern::random_subset(64, 4, 5), options);
  EXPECT_TRUE(result.drained);
  EXPECT_TRUE(result.reachable_complete);
  EXPECT_EQ(result.packets_delivered, 64u * 4u);
}

TEST(M2M, EmptyPatternFinishesImmediately) {
  const AlltoallOptions options = make_options("4x4x4");
  Pattern pattern;
  pattern.dests.resize(64);
  const RunResult result = run_pattern(StrategyKind::kAdaptiveRandom, pattern, options);
  EXPECT_TRUE(result.drained);
  EXPECT_EQ(result.elapsed_cycles, 0u);
  EXPECT_EQ(pattern.total_messages(), 0u);
}

TEST(M2M, PatternScheduleRejectsOtherStrategies) {
  const AlltoallOptions options = make_options("4x4x4");
  const Pattern pattern = Pattern::halo(options.net.shape);
  for (const StrategyKind kind : {StrategyKind::kMpi, StrategyKind::kThrottled,
                                  StrategyKind::kVirtualMesh, StrategyKind::kBest}) {
    EXPECT_THROW(build_pattern_schedule(kind, options.net, pattern, 240),
                 std::invalid_argument)
        << strategy_name(kind);
  }
}

TEST(M2M, PatternScheduleRejectsMalformedPatterns) {
  const AlltoallOptions options = make_options("4x4x4");
  const auto build = [&](const Pattern& pattern) {
    return build_pattern_schedule(StrategyKind::kAdaptiveRandom, options.net, pattern, 240);
  };
  Pattern short_pattern;
  short_pattern.dests.resize(63);
  EXPECT_THROW(build(short_pattern), std::invalid_argument);

  Pattern out_of_range;
  out_of_range.dests.resize(64);
  out_of_range.dests[3] = {1, 64};
  EXPECT_THROW(build(out_of_range), std::invalid_argument);
  out_of_range.dests[3] = {-1};
  EXPECT_THROW(build(out_of_range), std::invalid_argument);

  Pattern twice;
  twice.dests.resize(64);
  twice.dests[7] = {2, 9, 2};
  EXPECT_THROW(build(twice), std::invalid_argument);
}

// Pattern runs join the fault and repair contracts: under
// each spec every case lints clean against what planning sees, drains,
// delivers every pair it still owes exactly once, rejects every corrupted
// payload, and accounts every ordered pair as complete or not owed.
struct M2MFaultCase {
  const char* name;
  const char* spec;
  int threads;
};

const M2MFaultCase kM2MFaultCases[] = {
    {"dead_links_t1", "link:0.03", 1},
    {"dead_links_t4", "link:0.03", 4},
    {"lossy_t1", "link:0.02,drop:1e-3,corrupt:5e-4", 1},
    {"lossy_t4", "link:0.02,drop:1e-3,corrupt:5e-4", 4},
    {"node_strike_t1", "node:1,fail_at:3000", 1},
    {"node_strike_t4", "node:1,fail_at:3000", 4},
};

class ManyToManyFaults : public ::testing::TestWithParam<M2MFaultCase> {};

TEST_P(ManyToManyFaults, PatternsKeepTheDeliveryContract) {
  const M2MFaultCase& fc = GetParam();
  const M2MCase runs[] = {
      {"ar_random7_4x4x8", StrategyKind::kAdaptiveRandom, "4x4x8", M2MPattern::kRandom, 7, 480, 1},
      {"dr_halo_4x4x8", StrategyKind::kDeterministic, "4x4x8", M2MPattern::kHalo, 0, 480, 1},
      {"tps_random16_4x4x8", StrategyKind::kTwoPhase, "4x4x8", M2MPattern::kRandom, 16, 480, 1},
      {"tps_grid_4Mx4x4", StrategyKind::kTwoPhase, "4Mx4x4", M2MPattern::kGrid, 8, 480, 1},
  };
  for (const M2MCase& run : runs) {
    SCOPED_TRACE(run.name);
    AlltoallOptions options = make_options(run.shape, run.msg_bytes);
    options.net.sim_threads = fc.threads;
    options.net.faults = net::parse_fault_spec(fc.spec);
    options.verify = true;

    CommSchedule sched =
        build_pattern_schedule(run.kind, options.net, m2m_pattern(run), options.msg_bytes);
    const net::FaultPlan plan(options.net, options.net.shape);
    const bool blind = options.net.faults.fail_at > 0;
    const LintReport lint = schedule_lint(sched, blind ? nullptr : &plan);
    EXPECT_TRUE(lint.ok()) << lint.to_string();

    const RunResult result = run_schedule(std::move(sched), options, strategy_name(run.kind));
    const auto nodes = static_cast<std::uint64_t>(options.net.shape.nodes());
    EXPECT_TRUE(result.drained);
    EXPECT_TRUE(result.verified);
    EXPECT_TRUE(result.reachable_complete);
    EXPECT_EQ(result.reliability.corrupt_rejected, result.faults.corrupted_payloads);
    EXPECT_EQ(result.pairs_complete + result.unreachable_pairs, nodes * (nodes - 1));
    EXPECT_GT(result.pairs_complete, 0u);
    EXPECT_EQ(result.faults.stranded_relay_bytes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Specs, ManyToManyFaults, ::testing::ValuesIn(kM2MFaultCases),
    [](const ::testing::TestParamInfo<M2MFaultCase>& param) {
      return std::string(param.param.name);
    });

// Every pattern case must reproduce, bit for bit, the record pinned from the
// SparseClient transport in tests/golden/many_to_many_equivalence.txt
// (regenerate only for an intentional behavior change, with
// tools/equivalence_golden many_to_many, and say so in the commit).
const std::map<std::string, std::string>& m2m_golden() {
  static const std::map<std::string, std::string> records = [] {
    std::map<std::string, std::string> out;
    const std::string path =
        std::string(BGL_TEST_GOLDEN_DIR) + "/many_to_many_equivalence.txt";
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      const std::size_t space = line.find(' ');
      out[line.substr(0, space)] = line.substr(space + 1);
    }
    return out;
  }();
  return records;
}

class ManyToManyEquivalence : public ::testing::TestWithParam<M2MCase> {};

TEST_P(ManyToManyEquivalence, MatchesGolden) {
  const M2MCase& c = GetParam();
  const auto it = m2m_golden().find(c.name);
  ASSERT_NE(it, m2m_golden().end()) << "no golden record for " << c.name;
  const M2MRecord record = run_m2m_case(c);
  EXPECT_TRUE(record.drained);
  EXPECT_TRUE(record.reachable_complete);
  EXPECT_EQ(record.to_string(), it->second)
      << "fields: elapsed events packets payload links_mean matrix_fnv";
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, ManyToManyEquivalence, ::testing::ValuesIn(kM2MCases),
    [](const ::testing::TestParamInfo<M2MCase>& param) {
      return std::string(param.param.name);
    });

TEST(ManyToManyEquivalenceGolden, CoversEveryCase) {
  EXPECT_EQ(m2m_golden().size(), std::size(kM2MCases));
}

}  // namespace
}  // namespace bgl::coll
