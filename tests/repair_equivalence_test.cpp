// The repair epochs' behavioral contract: every case in
// tests/repair_cases.hpp, at 1 and 4 slab threads, must reproduce
// bit-identically the record stored in tests/golden/repair_equivalence.txt —
// cycles, events, packets, the epoch and repair counters, every FaultStats
// counter, abandoned pairs, and FNV hashes of the delivery matrix and
// reachable mask. Independently of the golden, every run must drain, reject
// every corrupted payload and never deliver a byte twice, and every case
// with a retry budget must deliver exactly the owed bytes to every
// reachable pair. Regenerate only for an intentional behavior change
// (tools/equivalence_golden repair) and say so in the commit.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "src/coll/alltoall.hpp"
#include "tests/repair_cases.hpp"

namespace bgl::coll {
namespace {

const std::map<std::string, std::string>& golden() {
  static const std::map<std::string, std::string> records = [] {
    std::map<std::string, std::string> out;
    const std::string path = std::string(BGL_TEST_GOLDEN_DIR) + "/repair_equivalence.txt";
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

struct RepairParam {
  RepairCase c;
  int threads;
};

void PrintTo(const RepairParam& param, std::ostream* os) {
  *os << param.c.name << " at " << param.threads << " thread(s)";
}

class RepairEquivalence : public ::testing::TestWithParam<RepairParam> {};

TEST_P(RepairEquivalence, MatchesGolden) {
  const RepairCase& c = GetParam().c;
  const int threads = GetParam().threads;
  const std::string key = std::string(c.name) + "/" + std::to_string(threads);
  const auto it = golden().find(key);
  ASSERT_NE(it, golden().end()) << "no golden record for " << key;

  AlltoallOptions options = repair_options(c, threads);
  DeliveryMatrix matrix(static_cast<std::int32_t>(options.net.shape.nodes()));
  options.deliveries = &matrix;
  const RunResult result = run_alltoall(c.kind, options);
  ASSERT_TRUE(result.drained);
  EXPECT_EQ(result.faults.corrupted_payloads, result.reliability.corrupt_rejected);
  EXPECT_EQ(result.reliability.duplicates_dropped, 0u);
  if (options.net.faults.max_retries > 0) {
    EXPECT_TRUE(result.reachable_complete);
    EXPECT_EQ(result.abandoned_pairs, 0u);
  } else {
    // No repair epoch: the run drains and names the pairs it left short.
    const auto pairs = static_cast<std::uint64_t>(matrix.nodes()) *
                       static_cast<std::uint64_t>(matrix.nodes() - 1);
    EXPECT_EQ(result.epochs.epochs, 1);
    EXPECT_GT(result.abandoned_pairs, 0u);
    EXPECT_EQ(result.abandoned_pairs, pairs - result.unreachable_pairs - result.pairs_complete);
  }
  EXPECT_EQ(repair_record(result, matrix), it->second);
}

std::vector<RepairParam> all_params() {
  std::vector<RepairParam> out;
  for (const RepairCase& c : kRepairCases) {
    for (const int threads : kRepairThreads) out.push_back({c, threads});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    AllCases, RepairEquivalence, ::testing::ValuesIn(all_params()),
    [](const ::testing::TestParamInfo<RepairParam>& param) {
      return std::string(param.param.c.name) + "_t" + std::to_string(param.param.threads);
    });

TEST(RepairEquivalenceGolden, CoversEveryCase) {
  EXPECT_EQ(golden().size(), std::size(kRepairCases) * std::size(kRepairThreads));
}

}  // namespace
}  // namespace bgl::coll
