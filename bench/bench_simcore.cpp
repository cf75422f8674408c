// Simulator-core throughput: host-side packets-simulated/sec of a one-slab
// run vs the same engine cut into N slabs, written as a machine-readable
// perf artifact (BENCH_simcore.json) for CI trend tracking.
//
// Three variants exercise the engine's hot paths:
//   clean     fault-free AR all-to-all (the historical bench point)
//   faulted   dead links + probabilistic drops + corruption, repaired by
//             repair epochs
//   observer  fault-free with a hop observer attached (inline on one slab;
//             with several, per-slab ordered logs replayed during the next
//             window)
// Each variant runs at 1, 2, 4 and --sim-threads/hardware threads
// (deduplicated), reporting packets/sec per thread count.
//
// This measures the *simulator*, not the simulated network: delivered
// results are thread-invariant (the equivalence and mt_faults suites check
// the delivery matrices); only wall time may differ. Each observer run
// counts its grants, and the bench exits 1 when a count is zero or differs
// from the 1-thread row's: minimal routing fixes the hops per packet, so a
// replay that drops or repeats a grant shows as a different count.
//
// --baseline OLD.json re-reads a previous artifact and exits nonzero if any
// (variant, threads) point regressed by more than 10% packets/sec — the CI
// perf gate.
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/coll/alltoall.hpp"
#include "src/network/faults.hpp"
#include "src/util/shape_arg.hpp"

namespace {

struct Run {
  std::string variant;
  int requested = 0;
  int used = 0;
  bool drained = false;
  bool complete = false;
  double wall_ms = 0.0;
  std::uint64_t packets = 0;
  std::uint64_t events = 0;
  std::uint64_t grants = 0;  // observer calls (observer variant only)
  double packets_per_sec = 0.0;
};

/// Minimal scan of a previous BENCH_simcore.json: pulls (variant,
/// sim_threads, packets_per_sec) out of each run line. Tolerant of the old
/// pre-variant schema (such lines parse with variant "clean").
struct BaselinePoint {
  std::string variant;
  int threads = 0;
  double packets_per_sec = 0.0;
};

std::vector<BaselinePoint> load_baseline(const std::string& path) {
  std::vector<BaselinePoint> points;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const auto tpos = line.find("\"sim_threads\":");
    const auto ppos = line.find("\"packets_per_sec\":");
    if (tpos == std::string::npos || ppos == std::string::npos) continue;
    BaselinePoint p;
    p.variant = "clean";
    if (const auto vpos = line.find("\"variant\": \""); vpos != std::string::npos) {
      const auto begin = vpos + 12;
      const auto end = line.find('"', begin);
      if (end != std::string::npos) p.variant = line.substr(begin, end - begin);
    }
    p.threads = std::atoi(line.c_str() + tpos + 14);
    p.packets_per_sec = std::atof(line.c_str() + ppos + 18);
    points.push_back(p);
  }
  return points;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bgl;
  util::Cli cli(argc, argv);
  // The variants run one by one, outside the sweep machinery, on their own
  // fault specs: the shared sweep, sink and fault options do not apply.
  auto ctx = bench::BenchContext::from_cli(
      cli, {"full", "budget", "jobs", "shard", "repeats", "progress", "csv", "json",
            "host-timing", "timeout", "resume", "faults"});
  cli.describe("shape", "partition (default 8x8x8; the paper-scale point is 32x32x20)");
  cli.describe("bytes", "payload per destination (default 240)");
  cli.describe("out", "perf artifact path (default BENCH_simcore.json)");
  cli.describe("baseline",
               "previous BENCH_simcore.json; exit 1 if any (variant, threads) "
               "point lost more than 10% packets/sec against it");
  cli.describe("verify",
               "also check the delivery matrix is complete in every run "
               "(default 1; costs nodes^2 words of memory at large shapes)");
  cli.validate();

  const auto shape = util::shape_arg_or_exit(cli.get("shape", "8x8x8"), cli.program());
  const auto bytes =
      static_cast<std::uint64_t>(cli.get_int("bytes", 240, 0, coll::kMaxMsgBytes));
  const std::string out_path = cli.get("out", "BENCH_simcore.json");
  const std::string baseline_path = cli.get("baseline", "");
  const bool verify = cli.get_int("verify", 1) != 0;
  const int parallel = ctx.sim_threads > 1
                           ? ctx.sim_threads
                           : static_cast<int>(
                                 std::max(2u, std::thread::hardware_concurrency()));
  bench::print_header(
      "Simulator core throughput — one slab vs slab-parallel",
      ("partition " + shape.to_string() + ", " + std::to_string(bytes) +
       " B per destination, AR; clean / faulted / observer variants, up to " +
       std::to_string(parallel) + " threads")
          .c_str());

  std::vector<int> thread_counts;
  for (const int t : {1, 2, 4, parallel}) {
    bool seen = false;
    for (const int have : thread_counts) seen = seen || have == t;
    if (!seen && t <= parallel) thread_counts.push_back(t);
  }

  const char* kFaultSpec = "link:0.02,drop:1e-4,corrupt:5e-5,seed:9";

  std::vector<Run> runs;
  for (const char* variant : {"clean", "faulted", "observer"}) {
    for (const int threads : thread_counts) {
      coll::AlltoallOptions options = ctx.base_options(shape, bytes);
      options.net.sim_threads = threads;
      options.verify = verify;
      const bool faulted = std::string(variant) == "faulted";
      if (faulted) options.net.faults = net::parse_fault_spec(kFaultSpec);
      std::uint64_t grants = 0;
      if (std::string(variant) == "observer") {
        options.hop_observer = [&grants](const net::Packet&, topo::Rank, int, int) {
          ++grants;
        };
      }
      const auto start = std::chrono::steady_clock::now();
      const coll::RunResult r =
          coll::run_alltoall(coll::StrategyKind::kAdaptiveRandom, options);
      const std::chrono::duration<double, std::milli> wall =
          std::chrono::steady_clock::now() - start;
      Run run;
      run.variant = variant;
      run.requested = threads;
      run.used = r.sim_threads;
      run.drained = r.drained;
      run.complete = !verify || r.reachable_complete;
      run.wall_ms = wall.count();
      run.packets = r.packets_delivered;
      run.events = r.events;
      run.grants = grants;
      run.packets_per_sec =
          wall.count() > 0.0
              ? 1000.0 * static_cast<double>(r.packets_delivered) / wall.count()
              : 0.0;
      runs.push_back(run);
    }
  }

  util::Table table({"variant", "threads (used)", "drained", "complete",
                     "wall ms", "packets", "packets/sec", "events", "grants"});
  for (const Run& r : runs) {
    table.add_row({r.variant,
                   std::to_string(r.requested) + " (" + std::to_string(r.used) + ")",
                   r.drained ? "yes" : "NO",
                   verify ? (r.complete ? "yes" : "NO") : "-",
                   util::fmt(r.wall_ms, 1), std::to_string(r.packets),
                   util::fmt(r.packets_per_sec, 0), std::to_string(r.events),
                   r.variant == "observer" ? std::to_string(r.grants) : "-"});
  }
  table.print();

  // Per-variant speedup of the widest run against its own single-thread row.
  double faulted_speedup = 0.0;
  for (const char* variant : {"clean", "faulted", "observer"}) {
    double base_ms = 0.0, wide_ms = 0.0;
    int wide_threads = 0;
    for (const Run& r : runs) {
      if (r.variant != variant) continue;
      if (r.requested == 1) base_ms = r.wall_ms;
      if (r.requested >= wide_threads) {
        wide_threads = r.requested;
        wide_ms = r.wall_ms;
      }
    }
    const double speedup = wide_ms > 0.0 ? base_ms / wide_ms : 0.0;
    if (std::string(variant) == "faulted") faulted_speedup = speedup;
    std::printf("%-9s speedup: %.2fx at %d threads\n", variant, speedup,
                wide_threads);
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"simcore\",\n  \"shape\": \"%s\",\n"
                    "  \"msg_bytes\": %llu,\n  \"runs\": [\n",
               shape.to_string().c_str(),
               static_cast<unsigned long long>(bytes));
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& r = runs[i];
    std::fprintf(out,
                 "    {\"variant\": \"%s\", \"sim_threads\": %d, "
                 "\"sim_threads_used\": %d, \"drained\": %s, \"complete\": %s, "
                 "\"wall_ms\": %.3f, \"packets\": %llu, "
                 "\"packets_per_sec\": %.1f, \"events\": %llu, "
                 "\"grants\": %llu}%s\n",
                 r.variant.c_str(), r.requested, r.used,
                 r.drained ? "true" : "false", r.complete ? "true" : "false",
                 r.wall_ms, static_cast<unsigned long long>(r.packets),
                 r.packets_per_sec, static_cast<unsigned long long>(r.events),
                 static_cast<unsigned long long>(r.grants),
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"verified\": %s,\n  \"faulted_speedup\": %.3f\n}\n",
               verify ? "true" : "false", faulted_speedup);
  std::fclose(out);
  std::printf("Wrote %s\n", out_path.c_str());

  for (const Run& r : runs) {
    if (!r.drained || !r.complete) {
      std::fprintf(stderr, "FAIL: %s run at %d threads %s\n", r.variant.c_str(),
                   r.requested,
                   r.drained ? "left the delivery matrix incomplete"
                             : "did not drain");
      return 1;
    }
  }
  // thread_counts starts with 1, so the first observer row is the 1-thread
  // run, whose observer is called inline at every grant.
  const Run* observer_1t = nullptr;
  for (const Run& r : runs) {
    if (r.variant != "observer") continue;
    if (observer_1t == nullptr) observer_1t = &r;
    if (r.grants == 0 || r.grants != observer_1t->grants) {
      std::fprintf(stderr,
                   "FAIL: observer run at %d threads saw %llu grants, the "
                   "1-thread run %llu\n",
                   r.requested, static_cast<unsigned long long>(r.grants),
                   static_cast<unsigned long long>(observer_1t->grants));
      return 1;
    }
  }

  if (!baseline_path.empty()) {
    const auto baseline = load_baseline(baseline_path);
    if (baseline.empty()) {
      std::fprintf(stderr, "FAIL: baseline %s has no parseable run lines\n",
                   baseline_path.c_str());
      return 1;
    }
    bool regressed = false;
    for (const BaselinePoint& b : baseline) {
      for (const Run& r : runs) {
        if (r.variant != b.variant || r.requested != b.threads) continue;
        if (b.packets_per_sec > 0.0 &&
            r.packets_per_sec < 0.9 * b.packets_per_sec) {
          std::fprintf(stderr,
                       "REGRESSION: %s @%d threads: %.0f -> %.0f packets/sec "
                       "(-%.1f%%)\n",
                       b.variant.c_str(), b.threads, b.packets_per_sec,
                       r.packets_per_sec,
                       100.0 * (1.0 - r.packets_per_sec / b.packets_per_sec));
          regressed = true;
        }
      }
    }
    if (regressed) return 1;
    std::printf("Baseline check passed against %s (%zu points).\n",
                baseline_path.c_str(), baseline.size());
  }
  return 0;
}
