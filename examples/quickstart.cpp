// Quickstart: run one all-to-all on a simulated BG/L partition and print the
// headline numbers.
//
//   ./quickstart --shape 8x8x8 --strategy ar --bytes 4096
//
// Strategies: mpi, ar, dr, throttle, tps, vmesh, best.
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>

#include "src/coll/alltoall.hpp"
#include "src/coll/selector.hpp"
#include "src/network/fabric.hpp"
#include "src/network/faults.hpp"
#include "src/trace/stats.hpp"
#include "src/util/cli.hpp"
#include "src/util/shape_arg.hpp"

namespace {

bgl::coll::StrategyKind parse_strategy(const bgl::util::Cli& cli) {
  const std::string name = cli.get("strategy", "best");
  using bgl::coll::StrategyKind;
  if (name == "mpi") return StrategyKind::kMpi;
  if (name == "ar") return StrategyKind::kAdaptiveRandom;
  if (name == "dr") return StrategyKind::kDeterministic;
  if (name == "throttle") return StrategyKind::kThrottled;
  if (name == "tps") return StrategyKind::kTwoPhase;
  if (name == "vmesh") return StrategyKind::kVirtualMesh;
  if (name == "best") return StrategyKind::kBest;
  cli.fail("unknown strategy: " + name);
}

}  // namespace

int main(int argc, char** argv) {
  bgl::util::Cli cli(argc, argv);
  cli.describe("shape", "partition, e.g. 8x8x8 or 8x8x2M (default 8x8x8)");
  cli.describe("strategy", "mpi|ar|dr|throttle|tps|vmesh|best (default best)");
  cli.describe("bytes", "message payload per destination (default 4096)");
  cli.describe("seed", "simulation seed (default 1)");
  cli.describe("vc", "VC buffer capacity in 32 B chunks");
  cli.describe("vcs", "number of dynamic VCs");
  cli.describe("fifos", "injection FIFOs per node");
  cli.describe("fifosize", "injection FIFO capacity in chunks");
  cli.describe("cpulinks", "links the core can keep busy");
  cli.describe("faults", "fault spec, e.g. link:0.02,drop:1e-5 (see --faults "
                         "in any bench)");
  cli.describe("sim-threads", "simulator slab workers; results are "
                              "deterministic per (seed, N) (default 1)");
  cli.describe("verify", "check every pair's payload arrived exactly once");
  cli.validate();

  bgl::coll::AlltoallOptions options;
  options.net.shape = bgl::util::shape_arg_or_exit(cli.get("shape", "8x8x8"), "quickstart");
  options.net.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  // Each value must fit its config field: a narrowing cast would wrap it.
  options.net.vc_capacity_chunks = static_cast<std::uint16_t>(
      cli.get_int("vc", options.net.vc_capacity_chunks, 1, UINT16_MAX));
  options.net.dynamic_vcs = static_cast<std::uint8_t>(
      cli.get_int("vcs", options.net.dynamic_vcs, 1, UINT8_MAX));
  options.net.injection_fifos = static_cast<std::uint8_t>(
      cli.get_int("fifos", options.net.injection_fifos, 1, UINT8_MAX));
  options.net.injection_fifo_chunks = static_cast<std::uint16_t>(
      cli.get_int("fifosize", options.net.injection_fifo_chunks, 1, UINT16_MAX));
  options.net.cpu_links = cli.get_double("cpulinks", options.net.cpu_links);
  options.net.sim_threads =
      static_cast<int>(cli.get_int("sim-threads", 1, 1, INT32_MAX));
  options.msg_bytes = static_cast<std::uint64_t>(
      cli.get_int("bytes", 4096, 0, bgl::coll::kMaxMsgBytes));
  const std::string fault_spec = cli.get("faults", "");
  try {
    if (!fault_spec.empty()) {
      options.net.faults = bgl::net::parse_fault_spec(fault_spec);
      options.verify = true;
    }
    bgl::net::check_config(options.net);
  } catch (const std::exception& error) {
    cli.fail(error.what());
  }
  if (cli.get_bool("verify", false)) options.verify = true;
  const auto kind = parse_strategy(cli);

  if (kind == bgl::coll::StrategyKind::kBest) {
    const bgl::net::FaultPlan plan(options.net, options.net.shape);
    const auto selection = bgl::coll::select_strategy(
        options.net.shape, options.msg_bytes, plan.enabled() ? &plan : nullptr);
    std::printf("selector: %s (%s)\n",
                bgl::coll::strategy_name(selection.kind).c_str(),
                selection.rationale.c_str());
  }

  const auto result = bgl::coll::run_alltoall(kind, options);

  std::printf("strategy        %s\n", result.strategy.c_str());
  std::printf("partition       %s (%lld nodes)\n", result.shape.to_string().c_str(),
              static_cast<long long>(result.shape.nodes()));
  std::printf("message         %llu bytes per destination\n",
              static_cast<unsigned long long>(result.msg_bytes));
  std::printf("completed       %s\n", result.drained ? "yes" : "NO (stalled!)");
  std::printf("elapsed         %.1f us (%llu cycles)\n", result.elapsed_us,
              static_cast<unsigned long long>(result.elapsed_cycles));
  std::printf("percent of peak %.1f%%\n", result.percent_peak);
  std::printf("per-node rate   %.1f MB/s\n", result.per_node_mbps);
  std::printf("packets         %llu delivered, %llu sim events\n",
              static_cast<unsigned long long>(result.packets_delivered),
              static_cast<unsigned long long>(result.events));
  if (options.verify || options.net.sim_threads > 1) {
    std::printf("sim threads     %d (%s)\n", result.sim_threads,
                bgl::net::to_string(result.sim_threads_reason));
  }
  std::printf("link util       %s\n", result.links.to_string().c_str());
  if (!fault_spec.empty()) {
    const bgl::net::FaultPlan plan(options.net, options.net.shape);
    const std::string report =
        bgl::trace::summarize_faults(plan, result.faults, result.reliability);
    if (!report.empty()) std::printf("%s\n", report.c_str());
    const std::string recovery = bgl::trace::summarize_recovery(
        result.epochs.epochs, result.epochs.replans, result.epochs.replan_cycles,
        result.epochs.residual_pairs, result.epochs.recovered_bytes,
        result.abandoned_pairs);
    if (!recovery.empty()) std::printf("%s\n", recovery.c_str());
    std::printf("delivery        %llu/%llu pairs complete, %llu unreachable%s\n",
                static_cast<unsigned long long>(result.pairs_complete),
                static_cast<unsigned long long>(
                    static_cast<std::uint64_t>(result.shape.nodes()) *
                    static_cast<std::uint64_t>(result.shape.nodes() - 1)),
                static_cast<unsigned long long>(result.unreachable_pairs),
                result.reachable_complete ? "" : "  [reachable pairs MISSING]");
  }
  return result.drained ? 0 : 1;
}
