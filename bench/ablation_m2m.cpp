// Extension bench: the paper's techniques applied to many-to-many patterns
// (introduction / Section 5: "we hope the performance analysis and the
// optimization techniques ... can also be applied for more complex
// many-to-many communication patterns").
//
// Sweeps the fan-out of a random-subset pattern on an asymmetric torus and
// compares direct adaptive routing against two-phase (TPS-style) routing.
// Each (pattern, routing) cell is an independent run_schedule of the
// pattern's schedule, so the grid runs through the generic harness runner
// with per-job derived seeds and honors --faults, --sim-threads and
// --timeout. Under --faults every run verifies delivery; the bench exits 1
// when a run does not drain or leaves a reachable pair short.
#include <cstdio>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/coll/many_to_many.hpp"
#include "src/harness/runner.hpp"
#include "src/util/shape_arg.hpp"

int main(int argc, char** argv) {
  using namespace bgl;
  util::Cli cli(argc, argv);
  // Pattern runs go through harness::run_ordered, not a Sweep, so the sweep
  // sinks, repeats, shards and resume do not apply.
  auto ctx = bench::BenchContext::from_cli(
      cli, {"csv", "json", "repeats", "shard", "resume", "host-timing"});
  cli.describe("shape", "partition (default 8x8x16)");
  cli.describe("bytes", "message bytes per destination (default 960)");
  cli.validate();

  const auto shape = util::shape_arg_or_exit(cli.get("shape", "8x8x16"), cli.program());
  const auto bytes =
      static_cast<std::uint64_t>(cli.get_int("bytes", 960, 0, coll::kMaxMsgBytes));
  const auto nodes = static_cast<std::int32_t>(shape.nodes());

  bench::print_header("Extension — many-to-many fan-out sweep, direct vs two-phase",
                      ("partition " + shape.to_string() + ", " + std::to_string(bytes) +
                       " B per message")
                          .c_str());

  struct Case {
    std::string name;
    coll::Pattern pattern;
  };
  std::vector<Case> cases;
  cases.push_back({"halo", coll::Pattern::halo(shape)});
  for (const int fanout : {4, 16, 64}) {
    if (fanout >= nodes) continue;  // more peers than the partition has
    cases.push_back({"random k=" + std::to_string(fanout),
                     coll::Pattern::random_subset(nodes, fanout, ctx.seed() ^ 0x777)});
  }

  // Two jobs per case: [2i] direct, [2i+1] two-phase.
  const coll::StrategyKind kinds[] = {coll::StrategyKind::kAdaptiveRandom,
                                      coll::StrategyKind::kTwoPhase};
  const auto results = harness::run_ordered(
      cases.size() * 2, ctx.sweep.jobs, [&](std::size_t index) {
        coll::AlltoallOptions options = ctx.base_options(shape, bytes);
        options.net.seed = harness::derive_seed(ctx.seed(), index / 2);
        options.wall_timeout_ms = ctx.sweep.timeout_ms;
        const coll::StrategyKind kind = kinds[index % 2];
        return coll::run_schedule(
            coll::build_pattern_schedule(kind, options.net, cases[index / 2].pattern, bytes),
            options, coll::strategy_name(kind));
      });

  bool ok = true;
  for (std::size_t index = 0; index < results.size(); ++index) {
    const coll::RunResult& r = results[index];
    if (r.drained && (!r.verified || r.reachable_complete)) continue;
    const char* why = r.timed_out ? "hit --timeout"
                      : r.drained ? "left a reachable pair short"
                                  : "did not drain";
    std::fprintf(stderr, "%s: %s / %s %s\n", cli.program().c_str(),
                 cases[index / 2].name.c_str(), r.strategy.c_str(), why);
    ok = false;
  }

  util::Table table({"pattern", "messages", "direct us", "two-phase us", "2ph speedup",
                     "bottleneck axis util %"});
  const int axis = shape.longest_axis();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& direct = results[2 * i];
    const auto& tps = results[2 * i + 1];
    table.add_row({cases[i].name, std::to_string(cases[i].pattern.total_messages()),
                   util::fmt(direct.elapsed_us, 1), util::fmt(tps.elapsed_us, 1),
                   util::fmt(direct.elapsed_us / tps.elapsed_us, 2),
                   util::fmt(100.0 * direct.links.axis[static_cast<std::size_t>(axis)].mean, 1)});
  }
  table.print();
  std::printf("\nExpected shape: sparse fan-outs are latency-bound (two-phase's extra hop\n"
              "hurts); dense fan-outs on an asymmetric torus congest like all-to-all\n"
              "and two-phase routing wins — the paper's claim carried beyond AA.\n");
  return ok ? 0 : 1;
}
