// Table 2: AR % of peak for large messages on asymmetric meshes and tori —
// the motivating degradation ("M" marks a mesh dimension).
#include <cstdio>

#include "bench/bench_util.hpp"

int main(int argc, char** argv) {
  using namespace bgl;
  util::Cli cli(argc, argv);
  auto ctx = bench::BenchContext::from_cli(cli);
  cli.describe("bytes", "payload per destination");
  cli.validate();

  bench::print_header("Table 2 — AR % of peak on asymmetric partitions (large messages)",
                      "paper-reported vs simulated; the asymmetry-induced degradation");

  struct Row {
    const char* shape;
    double paper;
  };
  const Row rows[] = {
      {"8x2M", 91.8},      {"8x4M", 89.0},     {"8x16", 85.7},     {"8x32", 84.0},
      {"8x8x2M", 90.1},    {"8x8x4M", 87.7},   {"8x8x16", 81.0},   {"8x16x16", 87.0},
      {"8x32x16", 73.3},   {"16x32x16", 71.0}, {"32x32x16", 73.6},
  };

  harness::Sweep sweep;
  for (const Row& row : rows) {
    const auto run_shape = ctx.runnable(topo::parse_shape(row.shape));
    const std::uint64_t bytes = static_cast<std::uint64_t>(
        cli.get_int("bytes", run_shape.nodes() <= 512 ? 960 : 240, 0, coll::kMaxMsgBytes));
    sweep.add(coll::StrategyKind::kAdaptiveRandom,
              bench::base_options(run_shape, bytes, ctx));
  }
  const auto results = ctx.run(sweep);

  util::Table table({"partition", "run as", "paper %", "measured %", "X/Y/Z link util %"});
  std::size_t job = 0;
  for (const Row& row : rows) {
    const auto paper_shape = topo::parse_shape(row.shape);
    const auto run_shape = ctx.runnable(paper_shape);
    const auto& result = results[job++].run;
    const auto& links = result.links.axis;
    table.add_row({row.shape, bench::shape_note(paper_shape, run_shape),
                   util::fmt(row.paper, 1), util::fmt(result.percent_peak, 1),
                   util::fmt(100 * links[0].mean, 0) + "/" + util::fmt(100 * links[1].mean, 0) +
                       "/" + util::fmt(100 * links[2].mean, 0)});
  }
  table.print();
  std::printf("\nPaper claim: AR falls from ~99%% (symmetric) to 71-92%% as asymmetry or\n"
              "mesh dimensions load the longest dimension's links unevenly.\n");
  return 0;
}
