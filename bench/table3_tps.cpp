// Table 3: all-to-all performance of the Two Phase Schedule (TPS) for long
// messages, with the chosen phase-1 (linear) dimension.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "src/coll/tps.hpp"

int main(int argc, char** argv) {
  using namespace bgl;
  util::Cli cli(argc, argv);
  auto ctx = bench::BenchContext::from_cli(cli);
  cli.describe("bytes", "payload per destination");
  cli.validate();

  bench::print_header("Table 3 — Two Phase Schedule % of peak for long messages",
                      "paper-reported vs simulated, with the selected linear dimension");

  struct Row {
    const char* shape;
    double paper;
    char paper_dim;
  };
  const Row rows[] = {
      {"8x8x8", 77.2, 'Z'},     {"16x8x8", 99.0, 'X'},   {"8x16x8", 98.9, 'Y'},
      {"8x8x16", 97.9, 'Z'},    {"16x16x8", 97.5, 'Z'},  {"16x8x16", 97.4, 'Y'},
      {"8x16x16", 97.2, 'X'},   {"8x32x16", 99.5, 'Y'},  {"16x16x16", 96.1, 'X'},
      {"16x32x16", 99.8, 'Y'},  {"32x16x16", 99.8, 'X'}, {"32x32x16", 96.8, 'Z'},
      {"40x32x16", 99.5, 'X'},
  };

  harness::Sweep sweep;
  for (const Row& row : rows) {
    const auto shape = ctx.runnable(topo::parse_shape(row.shape));
    const std::uint64_t bytes = static_cast<std::uint64_t>(
        cli.get_int("bytes", shape.nodes() <= 512 ? 960 : 240, 0, coll::kMaxMsgBytes));
    const auto options = bench::base_options(shape, bytes, ctx);
    sweep.add(coll::StrategyKind::kTwoPhase, options);
    sweep.add(coll::StrategyKind::kAdaptiveRandom, options);
  }
  const auto results = ctx.run(sweep);

  util::Table table({"partition", "run as", "paper %", "measured %", "dim (paper)",
                     "dim (ours)", "AR %"});
  std::size_t job = 0;
  for (const Row& row : rows) {
    const auto paper_shape = topo::parse_shape(row.shape);
    const auto shape = ctx.runnable(paper_shape);
    const auto& tps = results[job++].run;
    const auto& ar = results[job++].run;
    const char dim = "XYZ"[coll::choose_linear_axis(shape)];
    table.add_row({row.shape, bench::shape_note(paper_shape, shape),
                   util::fmt(row.paper, 1), util::fmt(tps.percent_peak, 1),
                   std::string(1, row.paper_dim), std::string(1, dim),
                   util::fmt(ar.percent_peak, 1)});
  }
  table.print();
  std::printf("\nPaper claims to check: TPS reaches the high 90s on every asymmetric\n"
              "partition (vs 71-88%% for AR), and dips on 8x8x8 where forwarding\n"
              "saturates the core (the direct strategy already wins there).\n"
              "For cubes every linear dimension is equivalent; we always pick Z.\n");
  return 0;
}
