// Section 2.1 — "Measuring model parameters": the ping-pong size sweep that
// recovers alpha and beta, run against the simulator instead of hardware.
//
// The paper measured alpha ~= 450 cycles per destination and beta = 6.48
// ns/byte on BG/L. The simulator's ground truth is 450 cycles of charged
// software startup plus a 0.25 B/cycle link (5.71 ns/B raw, ~6 ns/B with
// the 16 B per-packet hardware header) — the fit should land close to both.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "src/harness/runner.hpp"
#include "src/model/calibrate.hpp"
#include "src/model/constants.hpp"

int main(int argc, char** argv) {
  using namespace bgl;
  util::Cli cli(argc, argv);
  // The fit reads one ping per size on a healthy one-slab fabric, printed as
  // a table: no sweep sinks, repeats, shards, faults, slab threads or
  // watchdog apply.
  auto ctx = bench::BenchContext::from_cli(
      cli, {"csv", "json", "repeats", "shard", "resume", "host-timing", "faults",
            "sim-threads", "timeout"});
  cli.validate();

  bench::print_header("Section 2.1 — model-parameter calibration by ping-pong",
                      "one-way neighbor message times, least-squares alpha/beta fit");

  net::NetworkConfig config;
  config.shape = topo::parse_shape("8x8x8");
  config.seed = ctx.seed();

  const std::vector<std::uint64_t> sizes = {64,   128,  256,  512,   1024,
                                            2048, 4096, 8192, 16384, 32768};
  // Every ping is a self-contained run on an idle fabric, so the size sweep
  // runs on the harness pool (--jobs). The least-squares fit consumes the
  // index-ordered sample vector and its sums are symmetric in the samples,
  // so the fitted alpha/beta are identical to the old serial loop's.
  const auto [src, dst] = model::calibration_pair(config);
  const auto calibration = model::fit_calibration(harness::run_ordered(
      sizes.size(), ctx.sweep.jobs, [&](std::size_t i) {
        return model::PingPongSample{
            sizes[i], model::ping_message_cycles(config, src, dst, sizes[i])};
      }));

  util::Table table({"msg bytes", "one-way us", "fit us"});
  for (const auto& sample : calibration.samples) {
    const double measured_us = static_cast<double>(sample.one_way_cycles) / 700.0;
    const double fit_us = (calibration.alpha_cycles +
                           calibration.beta_cycles_per_byte *
                               static_cast<double>(sample.payload_bytes)) /
                          700.0;
    table.add_row({util::fmt_bytes(sample.payload_bytes), util::fmt(measured_us, 2),
                   util::fmt(fit_us, 2)});
  }
  table.print();

  std::printf("\nfitted alpha: %.0f cycles (%.2f us)   paper: %.0f cycles (%.2f us)\n",
              calibration.alpha_cycles, calibration.alpha_cycles / 700.0,
              model::kPaper.alpha_ar_cycles, model::kPaper.alpha_ar_us());
  std::printf("fitted beta:  %.2f ns/byte            paper: %.2f ns/byte\n",
              calibration.beta_ns_per_byte, model::kPaper.beta_ns_per_byte);
  std::printf("\nThe fitted beta reflects the simulated 0.25 B/cycle links plus packet\n"
              "header overhead; the fitted alpha recovers the charged 450-cycle\n"
              "software startup plus pipeline latency.\n");
  return 0;
}
