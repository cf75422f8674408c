// schedule_synth: beam-search synthesis of CommSchedule programs.
//
//   schedule_synth --shape 4x4x8 --size 240
//   schedule_synth --shape 4x4x8 --size 64 --faults node:2,seed:7 --jobs 8
//   schedule_synth --shape 8x4x4 --beam 6 --generations 4 --sa 32 --dump-csv
//   schedule_synth --shape 4x4x8 --cache /tmp/synth-cache
//
// Runs the seeded beam search over the genome space (direct / relay /
// 2-D combine / 3-D combine families), lint-gating every candidate and
// scoring survivors by short simulations through the harness thread pool.
// Prints the winning genome, its simulated cycles and the best registry
// baseline for the same problem. With --cache DIR, consults/updates the
// content-addressed winner store so repeated queries are O(1).
//
// The search is deterministic per (--search-seed, budget knobs): --jobs
// only changes wall-clock, never the winner.
//
// Exit codes: 0 = winner found and lints clean, 1 = no viable schedule
// found within budget, 2 = usage error.
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>

#include "src/coll/schedule_lint.hpp"
#include "src/coll/synth.hpp"
#include "src/util/shape_arg.hpp"
#include "src/util/cli.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace bgl;

  util::Cli cli(argc, argv);
  cli.describe("shape", "partition shape, e.g. 4x4x8 (default 4x4x4)");
  cli.describe("size", "message bytes per destination (default 240)");
  cli.describe("seed", "evaluation network seed (default 1)");
  cli.describe("search-seed", "beam/SA randomization seed (default 1)");
  cli.describe("faults", "fault spec, e.g. link:0.05,node:2,seed:7 (see faults.hpp)");
  cli.describe("beam", "beam width (default 4)");
  cli.describe("generations", "beam generations (default 3)");
  cli.describe("mutations", "mutations per survivor per generation (default 4)");
  cli.describe("sa", "simulated-annealing refinement steps (default 0)");
  cli.describe("jobs", "scoring worker threads; never changes the winner (default 1)");
  cli.describe("sim-threads",
               "simulator slab workers per scoring run; deterministic per "
               "(seed, N) (default 1)");
  cli.describe("timeout-ms", "per-candidate wall-clock kill switch (default off)");
  cli.describe("cache", "winner-cache directory; hit skips the search");
  cli.describe("dump-csv", "print the winning schedule's transfer table as CSV");
  cli.describe("dump-json", "print the winning schedule as JSON");
  cli.describe("quiet", "suppress the report lines; exit code only");
  cli.validate();

  coll::synth::SynthOptions opts;
  opts.net.shape = util::shape_arg_or_exit(cli.get("shape", "4x4x4"), cli.program());
  opts.net.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  opts.msg_bytes =
      static_cast<std::uint64_t>(cli.get_int("size", 240, 0, coll::kMaxMsgBytes));
  opts.seed = static_cast<std::uint64_t>(cli.get_int("search-seed", 1));
  opts.beam_width = static_cast<int>(cli.get_int("beam", 4, 1, INT32_MAX));
  opts.generations = static_cast<int>(cli.get_int("generations", 3, 0, INT32_MAX));
  opts.mutations_per_survivor =
      static_cast<int>(cli.get_int("mutations", 4, 0, INT32_MAX));
  opts.sa_steps = static_cast<int>(cli.get_int("sa", 0, 0, INT32_MAX));
  opts.jobs = static_cast<int>(cli.get_int("jobs", 1, 1, INT32_MAX));
  opts.sim_threads = static_cast<int>(cli.get_int("sim-threads", 1, 1, INT32_MAX));
  opts.wall_timeout_ms = cli.get_double("timeout-ms", 0.0);

  const std::string fault_spec = cli.get("faults", "");
  if (!fault_spec.empty()) opts.net.faults = net::parse_fault_spec(fault_spec);

  const std::string cache_dir = cli.get("cache", "");
  coll::synth::SynthResult result;
  bool cache_hit = false;
  if (!cache_dir.empty()) {
    const coll::synth::SynthCache cache(cache_dir);
    const std::string key = coll::synth::SynthCache::problem_key(
        opts.net.shape, opts.msg_bytes, opts.net.faults);
    coll::synth::CacheEntry probe;
    cache_hit = cache.lookup(key, probe);
    result = coll::synth::synthesize_cached(opts, cache);
  } else {
    result = coll::synth::synthesize(opts);
  }

  const bool viable = result.best.lint_ok && result.best.drained;
  const bool quiet = cli.get_bool("quiet", false);

  if (viable && (cli.get_bool("dump-csv", false) || cli.get_bool("dump-json", false))) {
    // Rebuild the winner exactly as it was scored: same planning-fault rule
    // as run_schedule (a delayed strike is invisible at plan time).
    const net::FaultPlan plan(opts.net, opts.net.shape);
    const net::FaultPlan* faults = plan.enabled() ? &plan : nullptr;
    const net::FaultPlan* planning =
        (faults != nullptr && opts.net.faults.fail_at > 0) ? nullptr : faults;
    const coll::CommSchedule sched = coll::synth::build_genome_schedule(
        result.best.genome, opts.net, opts.msg_bytes, planning);
    if (cli.get_bool("dump-csv", false)) {
      std::fputs(sched.to_csv(planning).c_str(), stdout);
    } else {
      std::fputs(sched.to_json(planning).c_str(), stdout);
    }
  }

  if (!quiet) {
    if (viable) {
      std::fprintf(stderr, "winner %s: %llu cycles%s\n",
                   result.best.genome.key().c_str(),
                   static_cast<unsigned long long>(result.best.cycles),
                   cache_hit ? " (cached)" : "");
    } else {
      std::fprintf(stderr, "no viable schedule found within budget\n");
    }
    if (!result.baseline_name.empty()) {
      std::fprintf(stderr, "baseline %s: %llu cycles\n", result.baseline_name.c_str(),
                   static_cast<unsigned long long>(result.baseline_cycles));
    }
    if (!cache_hit) {
      std::fprintf(stderr, "evaluated %d candidates (%d lint-rejected)\n",
                   result.evaluated, result.lint_rejected);
    }
  }
  return viable ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "schedule_synth: %s\n", e.what());
    return 2;
  }
}
