// The reliability layer's behavioral contract: every case in
// tests/reliability_cases.hpp, at 1 and 4 slab threads, must reproduce
// bit-identically the record stored in
// tests/golden/reliability_equivalence.txt — cycles, events, packets, every
// ReliabilityStats and FaultStats counter, abandoned pairs, and FNV hashes of
// the delivery matrix and reachable mask. Timing-coupled counters
// (retransmits, acks, duplicates) depend on the exact order in which the
// sender scans its flows and packets, so this pins that order too.
// Regenerate only for an intentional behavior change
// (tools/equivalence_golden reliability) and say so in the commit.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "src/coll/alltoall.hpp"
#include "tests/reliability_cases.hpp"

namespace bgl::coll {
namespace {

const std::map<std::string, std::string>& golden() {
  static const std::map<std::string, std::string> records = [] {
    std::map<std::string, std::string> out;
    const std::string path =
        std::string(BGL_TEST_GOLDEN_DIR) + "/reliability_equivalence.txt";
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      const auto first = line.find(' ');
      const auto second = line.find(' ', first + 1);
      EXPECT_NE(second, std::string::npos) << "malformed golden line: " << line;
      if (second == std::string::npos) continue;
      out[line.substr(0, first) + "/" + line.substr(first + 1, second - first - 1)] =
          line.substr(second + 1);
    }
    return out;
  }();
  return records;
}

struct RelParam {
  RelCase c;
  int threads;
};

void PrintTo(const RelParam& param, std::ostream* os) {
  *os << param.c.name << " at " << param.threads << " thread(s)";
}

class ReliabilityEquivalence : public ::testing::TestWithParam<RelParam> {};

TEST_P(ReliabilityEquivalence, MatchesGolden) {
  const RelCase& c = GetParam().c;
  const int threads = GetParam().threads;
  const std::string key = std::string(c.name) + "/" + std::to_string(threads);
  const auto it = golden().find(key);
  ASSERT_NE(it, golden().end()) << "no golden record for " << key;

  AlltoallOptions options = rel_options(c, threads);
  DeliveryMatrix matrix(static_cast<std::int32_t>(options.net.shape.nodes()));
  options.deliveries = &matrix;
  const RunResult result = run_alltoall(c.kind, options);
  ASSERT_TRUE(result.drained);
  EXPECT_EQ(rel_record(result, matrix), it->second);
}

std::vector<RelParam> all_params() {
  std::vector<RelParam> out;
  for (const RelCase& c : kRelCases) {
    for (const int threads : kRelThreads) out.push_back({c, threads});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    AllCases, ReliabilityEquivalence, ::testing::ValuesIn(all_params()),
    [](const ::testing::TestParamInfo<RelParam>& param) {
      return std::string(param.param.c.name) + "_t" + std::to_string(param.param.threads);
    });

TEST(ReliabilityEquivalenceGolden, CoversEveryCase) {
  EXPECT_EQ(golden().size(), std::size(kRelCases) * std::size(kRelThreads));
}

}  // namespace
}  // namespace bgl::coll
