// Figure 2: AR strategy performance and prediction on a 16x16x16 partition
// (4096 nodes). Scaled to 8x8x8 by default; --full runs the paper size.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "src/model/predict.hpp"

int main(int argc, char** argv) {
  using namespace bgl;
  util::Cli cli(argc, argv);
  auto ctx = bench::BenchContext::from_cli(cli);
  cli.describe("sizes", "comma-separated payload sizes in bytes");
  cli.validate();

  const auto paper_shape = topo::parse_shape("16x16x16");
  const auto shape = ctx.runnable(paper_shape);
  bench::print_header("Figure 2 — AR all-to-all on 16x16x16 (4096 nodes)",
                      ("running on " + bench::shape_note(paper_shape, shape) +
                       "; measured vs Eq. 3 model vs Eq. 2 peak (us)")
                          .c_str());

  std::vector<std::int64_t> sizes = {8, 64, 240, 960};
  if (shape.nodes() > 1024) sizes = {8, 64, 240};  // keep default runs snappy
  if (cli.has("sizes")) sizes = cli.get_int_list("sizes", "", 0, coll::kMaxMsgBytes);

  harness::Sweep sweep;
  for (const std::int64_t size : sizes) {
    const auto m = static_cast<std::uint64_t>(size);
    sweep.add(coll::StrategyKind::kAdaptiveRandom, bench::base_options(shape, m, ctx));
  }
  const auto results = ctx.run(sweep);

  util::Table table({"msg bytes", "measured us", "model us", "peak us", "% of peak"});
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const auto m = static_cast<std::uint64_t>(sizes[i]);
    const auto& result = results[i].run;
    table.add_row({util::fmt_bytes(m), util::fmt(result.elapsed_us, 1),
                   util::fmt(model::direct_aa_time_us(shape, m), 1),
                   util::fmt(model::peak_aa_time_us(shape, m), 1),
                   util::fmt(result.percent_peak, 1)});
  }
  table.print();
  std::printf("\nPaper: the Eq. 3 model tracks AR on the symmetric 4096-node torus and\n"
              "large messages approach the Eq. 2 peak.\n");
  return 0;
}
