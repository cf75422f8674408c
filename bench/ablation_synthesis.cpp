// Ablation — schedule synthesis vs the hand-built registry.
//
// For a set of (shape, message size, fault plan) problems — including
// fault plans and shapes the paper never measured — runs the beam search
// with a fixed budget and compares the synthesized winner against the best
// of the six registry strategies on the same pinned evaluation config.
// With --cache DIR the winners land in the content-addressed store, so a
// second invocation resolves every problem in O(1) (the "cached" column).
//
//   ablation_synthesis --jobs 16
//   ablation_synthesis --jobs 16 --cache /tmp/synth-cache --sa 8
//
// The search is deterministic per (--seed, budget knobs) at any --jobs.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/coll/synth.hpp"
#include "src/util/table.hpp"

int main(int argc, char** argv) {
  using namespace bgl;
  util::Cli cli(argc, argv);
  cli.describe("jobs", "scoring worker threads (default 8)");
  cli.describe("sim-threads",
               "simulator slab workers per scoring run; the pool budget "
               "shrinks so jobs x sim-threads fits the host (default 1)");
  cli.describe("seed", "search seed (default 2)");
  cli.describe("beam", "beam width (default 3)");
  cli.describe("generations", "beam generations (default 2)");
  cli.describe("mutations", "mutations per survivor (default 3)");
  cli.describe("sa", "simulated-annealing steps on the winner (default 0)");
  cli.describe("cache", "winner-cache directory (default: search every time)");
  cli.validate();

  const int jobs = static_cast<int>(cli.get_int("jobs", 8, 1, INT32_MAX));
  const int sim_threads = static_cast<int>(cli.get_int("sim-threads", 1, 1, INT32_MAX));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 2));
  const int beam = static_cast<int>(cli.get_int("beam", 3, 1, INT32_MAX));
  const int generations = static_cast<int>(cli.get_int("generations", 2, 0, INT32_MAX));
  const int mutations = static_cast<int>(cli.get_int("mutations", 3, 0, INT32_MAX));
  const int sa_steps = static_cast<int>(cli.get_int("sa", 0, 0, INT32_MAX));
  const std::string cache_dir = cli.get("cache", "");

  bench::print_header("Ablation — schedule synthesis vs the registry",
                      "beam-searched CommSchedule programs against the best "
                      "hand-built strategy");

  struct Problem {
    const char* shape;
    std::uint64_t bytes;
    const char* faults;  // parse_fault_spec text; "" = healthy
    const char* note;
  };
  // The first two shapes bracket the paper's asymmetric story; the faulted
  // rows are (shape, fault plan) points the paper never measured.
  const Problem problems[] = {
      {"4x4x8", 64, "", "paper-adjacent, healthy"},
      {"4x4x16", 240, "", "TPS territory, healthy"},
      {"4x4x8", 240, "node:2,seed:7", "unmeasured: dead nodes"},
      {"8x8x4", 240, "link:0.02,seed:11", "unmeasured: dead links"},
      {"4x4x16", 240, "node:1,seed:5", "unmeasured: dead node in TPS territory"},
  };

  util::Table table({"problem", "faults", "registry best", "cycles", "synthesized",
                     "cycles", "gain", "cached"});
  bool synthesized_win_outside_paper = false;
  for (const Problem& p : problems) {
    coll::synth::SynthOptions opts;
    opts.net.shape = topo::parse_shape(p.shape);
    opts.net.seed = 1;
    opts.msg_bytes = p.bytes;
    if (p.faults[0] != '\0') opts.net.faults = net::parse_fault_spec(p.faults);
    opts.seed = seed;
    opts.beam_width = beam;
    opts.generations = generations;
    opts.mutations_per_survivor = mutations;
    opts.sa_steps = sa_steps;
    opts.jobs = jobs;
    opts.sim_threads = sim_threads;

    coll::synth::SynthResult result;
    bool cached = false;
    if (!cache_dir.empty()) {
      const coll::synth::SynthCache cache(cache_dir);
      coll::synth::CacheEntry probe;
      cached = cache.lookup(coll::synth::SynthCache::problem_key(
                                opts.net.shape, opts.msg_bytes, opts.net.faults),
                            probe);
      result = coll::synth::synthesize_cached(opts, cache);
    } else {
      result = coll::synth::synthesize(opts);
    }

    const bool viable = result.best.lint_ok && result.best.drained;
    const double gain =
        viable && result.baseline_cycles > 0 &&
                result.baseline_cycles != ~std::uint64_t{0}
            ? 100.0 * (static_cast<double>(result.baseline_cycles) -
                       static_cast<double>(result.best.cycles)) /
                  static_cast<double>(result.baseline_cycles)
            : 0.0;
    if (gain > 0.0 && p.faults[0] != '\0') synthesized_win_outside_paper = true;
    table.add_row({std::string(p.shape) + " m" + std::to_string(p.bytes),
                   p.faults[0] == '\0' ? "-" : p.faults, result.baseline_name,
                   std::to_string(result.baseline_cycles),
                   viable ? result.best.genome.key() : "(none)",
                   viable ? std::to_string(result.best.cycles) : "-",
                   util::fmt(gain, 2) + "%", cached ? "hit" : "miss"});
  }
  table.print();
  std::printf(
      "\nGain: registry-best cycles vs synthesized cycles (positive = the\n"
      "search beat every hand-built strategy). Budget bw%d:g%d:m%d:sa%d,\n"
      "search seed %llu; winners are bit-identical at any --jobs count.\n",
      beam, generations, mutations, sa_steps,
      static_cast<unsigned long long>(seed));
  if (synthesized_win_outside_paper) {
    std::printf("Synthesis beat the registry on at least one fault plan the "
                "paper never measured.\n");
  }
  return 0;
}
