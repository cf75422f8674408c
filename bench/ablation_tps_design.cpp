// Ablation: the Two Phase Schedule's design choices (paper Section 4.1).
//
//   - reserved injection-FIFO groups vs shared FIFOs (the paper's argument:
//     phase-1 packets must never queue behind phase-2 packets);
//   - the linear-dimension choice: the paper's rule vs each forced axis;
//   - the forwarding software cost (the 8x8x8 dip is CPU-bound).
// All three sub-sweeps run as one harness batch.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "src/coll/tps.hpp"

int main(int argc, char** argv) {
  using namespace bgl;
  util::Cli cli(argc, argv);
  auto ctx = bench::BenchContext::from_cli(cli);
  cli.describe("bytes", "payload per destination (default 240)");
  cli.validate();
  const auto bytes =
      static_cast<std::uint64_t>(cli.get_int("bytes", 240, 0, coll::kMaxMsgBytes));

  bench::print_header("Ablation — Two Phase Schedule design choices",
                      "percent of Eq. 2 peak; default configuration marked *");

  const char* fifo_shapes[] = {"8x8x16", "8x16x8", "16x8x8"};
  const char* axis_shapes[] = {"8x8x16", "16x8x8", "8x16x8"};
  const std::uint32_t forward_costs[] = {0u, 200u, 800u};
  const auto midplane = topo::parse_shape("8x8x8");

  harness::Sweep sweep;
  for (const char* spec : fifo_shapes) {
    auto options = bench::base_options(topo::parse_shape(spec), bytes, ctx);
    sweep.add(coll::StrategyKind::kTwoPhase, options);  // reserved (default)
    options.reserved_fifos = false;
    sweep.add(coll::StrategyKind::kTwoPhase, options);  // shared
  }
  for (const char* spec : axis_shapes) {
    auto options = bench::base_options(topo::parse_shape(spec), bytes, ctx);
    sweep.add(coll::StrategyKind::kTwoPhase, options);  // paper rule
    for (int axis = 0; axis < 3; ++axis) {
      options.linear_axis = axis;
      sweep.add(coll::StrategyKind::kTwoPhase, options);
    }
  }
  for (const std::uint32_t cost : forward_costs) {
    auto options = bench::base_options(midplane, bytes, ctx);
    options.forward_cpu_cycles = cost;
    sweep.add(coll::StrategyKind::kTwoPhase, options);
  }
  const auto results = ctx.run(sweep);
  std::size_t job = 0;

  {
    util::Table table({"partition", "reserved FIFOs *", "shared FIFOs"});
    for (const char* spec : fifo_shapes) {
      const auto& reserved = results[job++].run;
      const auto& shared = results[job++].run;
      table.add_row({spec, util::fmt(reserved.percent_peak, 1),
                     util::fmt(shared.percent_peak, 1)});
    }
    table.print();
    std::printf("\n");
  }
  {
    util::Table table({"partition", "rule (axis)", "force X", "force Y", "force Z"});
    for (const char* spec : axis_shapes) {
      const auto shape = topo::parse_shape(spec);
      std::vector<std::string> row = {spec};
      const auto& rule = results[job++].run;
      row.push_back(util::fmt(rule.percent_peak, 1) + " (" +
                    "XYZ"[coll::choose_linear_axis(shape)] + std::string(")"));
      for (int axis = 0; axis < 3; ++axis) {
        row.push_back(util::fmt(results[job++].run.percent_peak, 1));
      }
      table.add_row(std::move(row));
    }
    table.print();
    std::printf("\n");
  }
  {
    util::Table table({"forward cost (cycles)", "8x8x8 TPS %"});
    for (const std::uint32_t cost : forward_costs) {
      table.add_row({std::to_string(cost) + (cost == 200 ? " *" : ""),
                     util::fmt(results[job++].run.percent_peak, 1)});
    }
    table.print();
  }
  std::printf("\nReading: the paper's linear-axis rule matches the best forced axis; the\n"
              "midplane dip (Table 3's 77%%) scales directly with the per-packet\n"
              "forwarding cost — the core, not the network, is the limiter there.\n");
  return 0;
}
