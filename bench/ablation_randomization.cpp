// Ablation: destination-order randomization in the direct strategies.
//
// The production MPI all-to-all and the paper's AR scheme inject packets in
// a random permutation "to smoothen the areas of link contention". This
// bench removes that: `rotation` visits self+1, self+2, ... (the classic
// structured order) and `identity` makes every node target node 0 first —
// serializing the whole machine on one reception hotspot after another.
#include <cstdio>

#include "bench/bench_util.hpp"

int main(int argc, char** argv) {
  using namespace bgl;
  util::Cli cli(argc, argv);
  auto ctx = bench::BenchContext::from_cli(cli);
  cli.describe("bytes", "payload per destination (default 240)");
  cli.validate();
  const auto bytes =
      static_cast<std::uint64_t>(cli.get_int("bytes", 240, 0, coll::kMaxMsgBytes));

  bench::print_header("Ablation — destination-order randomization (AR strategy)",
                      "percent of Eq. 2 peak by ordering policy");

  const char* shapes[] = {"8x8x8", "8x8x16", "16x16", "16"};
  const coll::OrderPolicy policies[] = {coll::OrderPolicy::kRandom,
                                        coll::OrderPolicy::kRotation,
                                        coll::OrderPolicy::kIdentity};

  harness::Sweep sweep;
  for (const char* spec : shapes) {
    const auto shape = topo::parse_shape(spec);
    for (const auto policy : policies) {
      auto options = bench::base_options(shape, bytes, ctx);
      options.order = policy;
      sweep.add(coll::StrategyKind::kAdaptiveRandom, options);
    }
  }
  const auto results = ctx.run(sweep);

  util::Table table({"partition", "random *", "rotation", "identity"});
  std::size_t job = 0;
  for (const char* spec : shapes) {
    std::vector<std::string> row = {spec};
    for (std::size_t p = 0; p < std::size(policies); ++p) {
      row.push_back(util::fmt(results[job++].run.percent_peak, 1));
    }
    table.add_row(std::move(row));
  }
  table.print();
  std::printf("\nReading: the identity order turns the all-to-all into a rolling\n"
              "congestion hotspot; rotation is balanced in aggregate but phase-locks\n"
              "nodes onto the same links. Randomization decorrelates both — the paper's\n"
              "premise for AR and the production MPI implementation.\n");
  return 0;
}
