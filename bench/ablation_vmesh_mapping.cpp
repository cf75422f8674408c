// Ablation: virtual-mesh <-> physical-torus alignment (paper Section 4.2).
//
// The paper carefully maps virtual-mesh rows onto compact physical regions
// ("the 32 processors of each row ... are spread out on half of an XY plane
// of the physical 3D torus"). This bench lays the same 2-D virtual mesh
// over the torus in three different axis orders and measures the cost of
// misalignment, plus the row/column aspect-ratio sensitivity the paper
// notes ("for the best performance the sizes of rows and columns should be
// similar").
#include <cstdio>

#include "bench/bench_util.hpp"
#include "src/coll/vmesh.hpp"

int main(int argc, char** argv) {
  using namespace bgl;
  util::Cli cli(argc, argv);
  auto ctx = bench::BenchContext::from_cli(cli);
  cli.describe("bytes", "payload per destination (default 16)");
  cli.validate();
  const auto bytes =
      static_cast<std::uint64_t>(cli.get_int("bytes", 16, 0, coll::kMaxMsgBytes));

  bench::print_header("Ablation — virtual-mesh mapping and aspect ratio",
                      "short-message VMesh all-to-all time (us) on the 8x8x8 midplane");

  const auto shape = topo::parse_shape("8x8x8");
  const std::vector<std::pair<int, int>> aspects = {
      {32, 16}, {64, 8}, {128, 4}, {256, 2}, {16, 32}};

  harness::Sweep sweep;
  for (int mapping = 0; mapping < 3; ++mapping) {
    auto options = bench::base_options(shape, bytes, ctx);
    options.vmesh_mapping = mapping;
    sweep.add(coll::StrategyKind::kVirtualMesh, options);
  }
  for (const auto& [pvx, pvy] : aspects) {
    auto options = bench::base_options(shape, bytes, ctx);
    options.pvx = pvx;
    options.pvy = pvy;
    sweep.add(coll::StrategyKind::kVirtualMesh, options);
  }
  const auto results = ctx.run(sweep);
  std::size_t job = 0;

  {
    const auto [pvx, pvy] = coll::vmesh_factorize(static_cast<std::int32_t>(shape.nodes()));
    util::Table table({"partition", "mesh", "XYZ map us *", "ZYX map us", "YXZ map us"});
    std::vector<std::string> row = {"8x8x8",
                                    std::to_string(pvx) + "x" + std::to_string(pvy)};
    for (int mapping = 0; mapping < 3; ++mapping) {
      row.push_back(util::fmt(results[job++].run.elapsed_us, 1));
    }
    table.add_row(std::move(row));
    table.print();
    std::printf("\n");
  }
  {
    util::Table table({"mesh (pvx x pvy)", "time us", "phase msgs per node"});
    for (const auto& [pvx, pvy] : aspects) {
      table.add_row({std::to_string(pvx) + "x" + std::to_string(pvy),
                     util::fmt(results[job++].run.elapsed_us, 1),
                     std::to_string(pvx - 1 + pvy - 1)});
    }
    table.print();
  }
  std::printf("\nReading: near-square decompositions minimize (Pvx+Pvy)*alpha, matching\n"
              "the paper's \"rows and columns should be about the same\"; mapping order\n"
              "moves row traffic between compact planes and scattered lines.\n");
  return 0;
}
