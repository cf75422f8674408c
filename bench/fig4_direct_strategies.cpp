// Figure 4: percent of peak for large messages and the direct strategies —
// AR (adaptive routing), DR (deterministic routing) and throttled AR.
//
// Paper landmarks: DR > 90% on 2n x n x n partitions (X longest) but worse
// when the long dimension is Y or Z (packets enter on X); on 8x32x16 DR
// beats AR (86 vs 77) while on 8x16x16 DR loses (67 vs 86); throttling buys
// only ~2-3% on 1024 nodes.
#include <cstdio>

#include "bench/bench_util.hpp"

int main(int argc, char** argv) {
  using namespace bgl;
  util::Cli cli(argc, argv);
  auto ctx = bench::BenchContext::from_cli(cli);
  cli.describe("bytes", "payload per destination");
  cli.validate();

  bench::print_header("Figure 4 — direct strategies, % of peak for large messages",
                      "AR vs DR vs throttled AR across partition shapes");

  struct Row {
    const char* shape;
    double paper_ar;  // approximate values read off the paper's Figure 4
    double paper_dr;
  };
  const Row rows[] = {
      {"8x8x8", 99.0, 90.0},   {"16x8x8", 81.0, 93.0},  {"8x16x8", 82.0, 75.0},
      {"8x8x16", 81.0, 70.0},  {"8x16x16", 86.0, 67.0}, {"8x32x16", 77.0, 86.0},
  };

  harness::Sweep sweep;
  for (const Row& row : rows) {
    const auto shape = ctx.runnable(topo::parse_shape(row.shape));
    const std::uint64_t bytes = static_cast<std::uint64_t>(
        cli.get_int("bytes", shape.nodes() <= 512 ? 960 : 240, 0, coll::kMaxMsgBytes));
    const auto options = bench::base_options(shape, bytes, ctx);
    sweep.add(coll::StrategyKind::kAdaptiveRandom, options);
    sweep.add(coll::StrategyKind::kDeterministic, options);
    sweep.add(coll::StrategyKind::kThrottled, options);
  }
  const auto results = ctx.run(sweep);

  util::Table table({"partition", "run as", "AR %", "DR %", "throttle %", "paper AR",
                     "paper DR"});
  std::size_t job = 0;
  for (const Row& row : rows) {
    const auto paper_shape = topo::parse_shape(row.shape);
    const auto shape = ctx.runnable(paper_shape);
    const auto& ar = results[job++].run;
    const auto& dr = results[job++].run;
    const auto& th = results[job++].run;
    table.add_row({row.shape, bench::shape_note(paper_shape, shape),
                   util::fmt(ar.percent_peak, 1), util::fmt(dr.percent_peak, 1),
                   util::fmt(th.percent_peak, 1), util::fmt(row.paper_ar, 0),
                   util::fmt(row.paper_dr, 0)});
  }
  table.print();
  std::printf("\nPaper claims to check: DR wins when X is the longest dimension and loses\n"
              "when it is not; throttling barely helps; no direct strategy is best on\n"
              "every shape (motivating the Two Phase Schedule).\n");
  return 0;
}
