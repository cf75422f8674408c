// Figure 7: all-to-all time on the asymmetric 8x32x16 partition (4096
// nodes): AR vs Two Phase Schedule vs a 128x32 virtual mesh, short messages.
//
// Paper landmarks at 8 B: VMesh ~2x faster than TPS and ~3x faster than AR;
// the TPS/VMesh change-over is at 64 B; AR trails even at 80 B because of
// network contention on the asymmetric torus.
#include <cstdio>

#include "bench/bench_util.hpp"

int main(int argc, char** argv) {
  using namespace bgl;
  util::Cli cli(argc, argv);
  auto ctx = bench::BenchContext::from_cli(cli);
  cli.describe("sizes", "comma-separated payload sizes in bytes");
  cli.validate();

  const auto paper_shape = topo::parse_shape("8x32x16");
  const auto shape = ctx.runnable(paper_shape);
  bench::print_header("Figure 7 — AR vs TPS vs VMesh on 8x32x16 (4096 nodes), time in us",
                      ("running on " + bench::shape_note(paper_shape, shape)).c_str());

  // The paper maps a 128x32 virtual mesh: rows are the planes perpendicular
  // to the bottleneck (Y) dimension, columns are the Y lines. Scale that
  // mapping with the partition.
  const int longest = shape.longest_axis();
  const int pvy = shape.dim[static_cast<std::size_t>(longest)];
  const int pvx = static_cast<int>(shape.nodes()) / pvy;

  std::vector<std::int64_t> sizes = {1, 8, 16, 32, 64, 128, 240};
  if (cli.has("sizes")) sizes = cli.get_int_list("sizes", "", 0, coll::kMaxMsgBytes);

  harness::Sweep sweep;
  for (const std::int64_t size : sizes) {
    auto options = bench::base_options(shape, static_cast<std::uint64_t>(size), ctx);
    sweep.add(coll::StrategyKind::kAdaptiveRandom, options);
    sweep.add(coll::StrategyKind::kTwoPhase, options);
    options.pvx = pvx;
    options.pvy = pvy;
    sweep.add(coll::StrategyKind::kVirtualMesh, options);
  }
  const auto results = ctx.run(sweep);

  util::Table table({"msg bytes", "AR us", "TPS us", "VMesh us", "winner"});
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const auto m = static_cast<std::uint64_t>(sizes[i]);
    const auto& ar = results[3 * i].run;
    const auto& tps = results[3 * i + 1].run;
    const auto& vm = results[3 * i + 2].run;

    const char* winner = "AR";
    if (tps.elapsed_cycles <= ar.elapsed_cycles && tps.elapsed_cycles <= vm.elapsed_cycles) {
      winner = "TPS";
    } else if (vm.elapsed_cycles <= ar.elapsed_cycles) {
      winner = "VMesh";
    }
    table.add_row({util::fmt_bytes(m), util::fmt(ar.elapsed_us, 1),
                   util::fmt(tps.elapsed_us, 1), util::fmt(vm.elapsed_us, 1), winner});
  }
  table.print();
  std::printf("\nPaper claims to check: VMesh wins the shortest sizes, TPS takes over at\n"
              "~64 B, and AR trails throughout on this asymmetric partition.\n");
  return 0;
}
