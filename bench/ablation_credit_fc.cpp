// Section 5 (future work) ablation: credit-based flow control bounding the
// memory that TPS intermediates need for store-and-forward packets.
//
// Paper sketch: one 32 B credit packet per ten 256 B data packets is ~1%
// bandwidth overhead; the open question is the trade between intermediate
// memory (the credit window) and performance. This bench measures it.
//
// Runs the strategy client directly (it needs client-side stats the
// RunResult does not carry), so it parallelizes the window sweep through
// the generic harness runner rather than a Sweep.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "src/coll/tps.hpp"
#include "src/coll/schedule.hpp"
#include "src/harness/runner.hpp"
#include "src/network/fabric.hpp"
#include "src/util/shape_arg.hpp"

int main(int argc, char** argv) {
  using namespace bgl;
  util::Cli cli(argc, argv);
  // The windows run through harness::run_ordered on a healthy one-slab
  // fabric and print as a table: no sweep sinks, repeats, shards, faults,
  // slab threads or watchdog apply.
  auto ctx = bench::BenchContext::from_cli(
      cli, {"csv", "json", "repeats", "shard", "resume", "host-timing", "faults",
            "sim-threads", "timeout"});
  cli.describe("shape", "partition (default 8x8x16)");
  cli.describe("bytes", "payload per destination (default 960)");
  cli.validate();

  const auto shape = util::shape_arg_or_exit(cli.get("shape", "8x8x16"), cli.program());
  const auto bytes =
      static_cast<std::uint64_t>(cli.get_int("bytes", 960, 0, coll::kMaxMsgBytes));
  bench::print_header("Ablation — TPS credit-based flow control (paper Section 5)",
                      ("partition " + shape.to_string() + ", " + std::to_string(bytes) +
                       " B per destination; window 0 = unbounded (no flow control)")
                          .c_str());

  const int windows[] = {0, 8, 32};

  struct WindowResult {
    int batch = 0;
    double pct = 0.0;
    std::uint64_t backlog = 0;
    std::uint64_t credit_packets = 0;
    double overhead = 0.0;
  };
  const auto results = harness::run_ordered(
      std::size(windows), ctx.sweep.jobs, [&](std::size_t index) {
        const int window = windows[index];
        net::NetworkConfig config;
        config.shape = shape;
        config.seed = harness::derive_seed(ctx.seed(), index);
        coll::TpsTuning tuning;
        tuning.credit_window = window;
        tuning.credit_batch = window > 0 ? std::max(1, window / 2) : 10;
        coll::ScheduleExecutor client(
            config, coll::build_tps_schedule(config, bytes, tuning), nullptr);
        net::Fabric fabric(config, client);
        client.bind(fabric);
        const bool drained = fabric.run();
        const double peak = coll::peak_cycles_for(shape, bytes, config.chunk_cycles);

        WindowResult result;
        result.batch = tuning.credit_batch;
        result.pct = drained && client.completion_cycles() > 0
                         ? 100.0 * peak / static_cast<double>(client.completion_cycles())
                         : 0.0;
        result.backlog = client.max_forward_backlog();
        result.credit_packets = client.credit_packets_sent();
        result.overhead = 100.0 * static_cast<double>(client.credit_packets_sent()) /
                          static_cast<double>(fabric.stats().packets_injected);
        return result;
      });

  util::Table table({"credit window", "batch", "% of peak", "max fwd backlog (pkts)",
                     "credit pkts", "credit overhead %"});
  for (std::size_t i = 0; i < std::size(windows); ++i) {
    const auto& r = results[i];
    table.add_row({windows[i] == 0 ? std::string("unbounded") : std::to_string(windows[i]),
                   std::to_string(r.batch), util::fmt(r.pct, 1),
                   std::to_string(r.backlog), std::to_string(r.credit_packets),
                   util::fmt(r.overhead, 2)});
  }
  table.print();
  std::printf("\nExpected: small windows bound intermediate memory sharply with modest\n"
              "throughput cost; the credit-packet overhead stays in the low percents\n"
              "(the paper estimates ~1%% for one 32 B credit per ten 256 B packets).\n");
  return 0;
}
