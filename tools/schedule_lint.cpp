// schedule_lint: static validation and inspection of strategy schedules.
//
//   schedule_lint --strategy TPS --shape 8x4x4 --size 300
//   schedule_lint --strategy VMesh --shape 4x4x4 --faults node:2,seed:7
//   schedule_lint --strategy AR --shape 2x2x1 --dump-csv
//   schedule_lint --list
//
// Builds the named strategy's CommSchedule for the shape/size (under an
// optional fault plan) and runs the static linter: structure, pair coverage,
// FIFO budget, relay liveness. No simulation is run.
//
// Exit codes: 0 = schedule lints clean, 1 = lint issues found, 2 = usage error.
#include <cstdio>
#include <exception>
#include <string>

#include "src/coll/registry.hpp"
#include "src/coll/schedule_lint.hpp"
#include "src/util/shape_arg.hpp"
#include "src/util/cli.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace bgl;

  util::Cli cli(argc, argv);
  cli.describe("list", "list registered strategies and exit");
  cli.describe("strategy", "strategy name (see --list); required unless --list");
  cli.describe("shape", "partition shape, e.g. 8x4x4 (default 4x4x4)");
  cli.describe("size", "message bytes per destination (default 300)");
  cli.describe("seed", "schedule randomization seed (default 1)");
  cli.describe("faults", "fault spec, e.g. link:0.05,node:2,seed:7 (see faults.hpp)");
  cli.describe("dump-csv", "print the transfer table as CSV to stdout");
  cli.describe("dump-json", "print the schedule summary + transfers as JSON");
  cli.describe("quiet", "suppress the report line; exit code only");
  cli.validate();

  if (cli.get_bool("list", false)) {
    for (const coll::StrategyInfo& info : coll::strategy_registry()) {
      std::printf("%-12s %s\n", info.name, info.summary);
    }
    return 0;
  }

  const std::string name = cli.get("strategy", "");
  if (name.empty()) {
    std::fprintf(stderr, "%s: --strategy is required (try --list)\n",
                 cli.program().c_str());
    return 2;
  }
  const coll::StrategyInfo* info = coll::find_strategy(name);
  if (info == nullptr) {
    std::fprintf(stderr, "%s: unknown strategy '%s' (try --list)\n",
                 cli.program().c_str(), name.c_str());
    return 2;
  }

  coll::AlltoallOptions options;
  options.net.shape = util::shape_arg_or_exit(cli.get("shape", "4x4x4"), cli.program());
  options.net.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  options.msg_bytes =
      static_cast<std::uint64_t>(cli.get_int("size", 300, 0, coll::kMaxMsgBytes));

  const std::string fault_spec = cli.get("faults", "");
  if (!fault_spec.empty()) options.net.faults = net::parse_fault_spec(fault_spec);
  const net::FaultPlan plan(options.net, options.net.shape);
  const net::FaultPlan* faults = plan.enabled() ? &plan : nullptr;

  const coll::CommSchedule sched =
      info->build(options.net, options.msg_bytes, options, faults);
  const coll::LintReport report = coll::schedule_lint(sched, faults);

  if (cli.get_bool("dump-csv", false)) {
    std::fputs(sched.to_csv(faults).c_str(), stdout);
  } else if (cli.get_bool("dump-json", false)) {
    std::fputs(sched.to_json(faults).c_str(), stdout);
  }
  if (!cli.get_bool("quiet", false)) {
    std::fprintf(stderr, "%s %s size=%llu: %lld transfers, %llu covered pairs\n%s\n",
                 info->name, options.net.shape.to_string().c_str(),
                 static_cast<unsigned long long>(options.msg_bytes),
                 static_cast<long long>(report.transfers),
                 static_cast<unsigned long long>(report.covered_pairs),
                 report.to_string().c_str());
  }
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "schedule_lint: %s\n", e.what());
    return 2;
  }
}
