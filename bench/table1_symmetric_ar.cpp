// Table 1: all-to-all peak performance of the AR strategy on symmetric
// lines, planes and cubes.
//
//   Partition   paper AR % of peak
//   8           98.2     16          97.7
//   8x8         98.7     16x16       99.7
//   8x8x8       99.0     16x16x16    99.0
#include <cstdio>

#include "bench/bench_util.hpp"

int main(int argc, char** argv) {
  using namespace bgl;
  util::Cli cli(argc, argv);
  auto ctx = bench::BenchContext::from_cli(cli);
  cli.describe("bytes", "payload per destination (default: large-message proxy)");
  cli.validate();

  bench::print_header("Table 1 — AR % of peak on symmetric partitions (large messages)",
                      "paper-reported vs simulated percent of the Eq. 2 peak");

  struct Row {
    const char* shape;
    double paper;
  };
  const Row rows[] = {{"8", 98.2},       {"16", 97.7},      {"8x8", 98.7},
                      {"16x16", 99.7},   {"8x8x8", 99.0},   {"16x16x16", 99.0}};

  harness::Sweep sweep;
  for (const Row& row : rows) {
    const auto run_shape = ctx.runnable(topo::parse_shape(row.shape));
    const std::uint64_t default_bytes = run_shape.nodes() <= 512 ? 3840 : 960;
    const auto bytes = static_cast<std::uint64_t>(
        cli.get_int("bytes", static_cast<std::int64_t>(default_bytes), 0, coll::kMaxMsgBytes));
    sweep.add(coll::StrategyKind::kAdaptiveRandom,
              bench::base_options(run_shape, bytes, ctx));
  }
  const auto results = ctx.run(sweep);

  util::Table table({"partition", "run as", "paper %", "measured %", "elapsed us"});
  std::size_t job = 0;
  for (const Row& row : rows) {
    const auto paper_shape = topo::parse_shape(row.shape);
    const auto run_shape = ctx.runnable(paper_shape);
    const auto& result = results[job++].run;
    table.add_row({row.shape, bench::shape_note(paper_shape, run_shape),
                   util::fmt(row.paper, 1), util::fmt(result.percent_peak, 1),
                   util::fmt(result.elapsed_us, 1)});
  }
  table.print();
  std::printf("\nPaper claim: randomization + adaptive routing reach 97-99+%% of peak on\n"
              "every symmetric partition (no persistent hot-spots).\n");
  return 0;
}
