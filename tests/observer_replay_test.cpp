// The hop observer's call sequence on multi-slab runs: every case in
// tests/observer_cases.hpp must reproduce, bit for bit, the grant count and
// order hash stored in tests/golden/observer_replay_order.txt. The slabs
// buffer their grants and the observer sees them in (tick, link id) order;
// the hash covers (node, dir, target, tag, hops) of every call, so a
// replay that drops, repeats or reorders one call fails here. Regenerate
// only for an intentional behavior change (tools/equivalence_golden
// observer) and say so in the commit.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <ostream>
#include <string>

#include "tests/observer_cases.hpp"

namespace bgl::coll {

// Found by argument-dependent lookup, so it sits in ObserverCase's namespace.
void PrintTo(const ObserverCase& c, std::ostream* os) { *os << c.name; }

namespace {

const std::map<std::string, std::string>& observer_golden() {
  static const std::map<std::string, std::string> records = [] {
    std::map<std::string, std::string> out;
    const std::string path =
        std::string(BGL_TEST_GOLDEN_DIR) + "/observer_replay_order.txt";
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

class ObserverReplayEquivalence : public ::testing::TestWithParam<ObserverCase> {};

TEST_P(ObserverReplayEquivalence, MatchesGolden) {
  const ObserverCase& c = GetParam();
  const auto it = observer_golden().find(c.name);
  ASSERT_NE(it, observer_golden().end()) << "no golden record for " << c.name;
  const ObserverRecord record = run_observer_case(c);
  EXPECT_TRUE(record.drained);
  EXPECT_TRUE(record.reachable_complete);
  EXPECT_EQ(record.threads_used, c.threads) << "the case must run on several slabs";
  EXPECT_EQ(record.to_string(), it->second) << "fields: grants order_fnv";
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ObserverReplayEquivalence, ::testing::ValuesIn(kObserverCases),
    [](const ::testing::TestParamInfo<ObserverCase>& param) {
      return std::string(param.param.name);
    });

TEST(ObserverReplayGolden, CoversEveryCase) {
  EXPECT_EQ(observer_golden().size(), std::size(kObserverCases));
}

}  // namespace
}  // namespace bgl::coll
