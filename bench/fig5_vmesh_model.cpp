// Figure 5: analytical prediction (Eq. 4) of the 2-D virtual-mesh all-to-all
// on 512 nodes with a 32x16 virtual mesh — pure model, no simulation, with
// the simulator's measurement alongside for reference.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "src/model/predict.hpp"

int main(int argc, char** argv) {
  using namespace bgl;
  util::Cli cli(argc, argv);
  auto ctx = bench::BenchContext::from_cli(cli);
  cli.describe("sizes", "comma-separated payload sizes in bytes");
  cli.validate();

  const auto shape = topo::parse_shape("8x8x8");
  bench::print_header("Figure 5 — VMesh (32x16) prediction on 512 nodes",
                      "Eq. 4 predicted time vs simulated VMesh time (us)");

  std::vector<std::int64_t> sizes = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  if (cli.has("sizes")) sizes = cli.get_int_list("sizes", "", 0, coll::kMaxMsgBytes);

  harness::Sweep sweep;
  for (const std::int64_t size : sizes) {
    auto options = bench::base_options(shape, static_cast<std::uint64_t>(size), ctx);
    options.pvx = 32;
    options.pvy = 16;
    sweep.add(coll::StrategyKind::kVirtualMesh, options);
  }
  const auto results = ctx.run(sweep);

  util::Table table({"msg bytes", "Eq.4 predicted us", "simulated us", "ratio"});
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const auto m = static_cast<std::uint64_t>(sizes[i]);
    const double predicted = model::vmesh_aa_time_us(shape, 32, 16, m);
    const auto& result = results[i].run;
    table.add_row({util::fmt_bytes(m), util::fmt(predicted, 1),
                   util::fmt(result.elapsed_us, 1),
                   util::fmt(result.elapsed_us / predicted, 2)});
  }
  table.print();
  std::printf("\nPaper: Eq. 4 with alpha=1.7us, beta=6.48ns/B, gamma=1.6ns/B predicts the\n"
              "two-phase combining time; the (Pvx+Pvy)*alpha term dominates tiny sizes.\n");
  return 0;
}
