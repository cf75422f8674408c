// Figure 6: all-to-all time on 512 nodes (8x8x8), AR direct vs the 32x16
// virtual-mesh combining scheme, across short message sizes.
//
// Paper landmarks: VMesh ~2x faster than AR for very short messages; the
// change-over sits between 32 and 64 bytes; for large messages VMesh takes
// ~2x AR's time (every byte is injected twice).
#include <cstdio>

#include "bench/bench_util.hpp"

int main(int argc, char** argv) {
  using namespace bgl;
  util::Cli cli(argc, argv);
  auto ctx = bench::BenchContext::from_cli(cli);
  cli.describe("sizes", "comma-separated payload sizes in bytes");
  cli.validate();

  const auto shape = topo::parse_shape("8x8x8");
  bench::print_header("Figure 6 — AR vs VMesh on 512 nodes (8x8x8), time in us",
                      "short-message regime; crossover expected between 32 and 64 B");

  std::vector<std::int64_t> sizes = {1, 8, 16, 32, 64, 128, 240, 480, 960, 4096};
  if (cli.has("sizes")) sizes = cli.get_int_list("sizes", "", 0, coll::kMaxMsgBytes);

  harness::Sweep sweep;
  for (const std::int64_t size : sizes) {
    auto options = bench::base_options(shape, static_cast<std::uint64_t>(size), ctx);
    sweep.add(coll::StrategyKind::kAdaptiveRandom, options);
    options.pvx = 32;
    options.pvy = 16;
    sweep.add(coll::StrategyKind::kVirtualMesh, options);
  }
  const auto results = ctx.run(sweep);

  util::Table table({"msg bytes", "AR us", "VMesh us", "VMesh/AR", "winner"});
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const auto m = static_cast<std::uint64_t>(sizes[i]);
    const auto& ar = results[2 * i].run;
    const auto& vm = results[2 * i + 1].run;
    table.add_row({util::fmt_bytes(m), util::fmt(ar.elapsed_us, 1),
                   util::fmt(vm.elapsed_us, 1),
                   util::fmt(vm.elapsed_us / ar.elapsed_us, 2),
                   vm.elapsed_cycles < ar.elapsed_cycles ? "VMesh" : "AR"});
  }
  table.print();
  std::printf("\nPaper claims to check: combining wins below ~32-64 B (message startup\n"
              "amortized over 31 messages instead of 511), loses ~2x for large sizes.\n");
  return 0;
}
