#include "src/harness/bench.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>

#include <unistd.h>

#include "src/harness/pool.hpp"
#include "src/harness/resume.hpp"
#include "src/network/faults.hpp"

namespace bgl::harness {

BenchContext BenchContext::from_cli(util::Cli& cli) {
  cli.describe("full", "run paper-exact partition sizes (slow)");
  cli.describe("budget", "max nodes before scaling a row down");
  cli.describe("seed", "base seed; run i of the sweep uses splitmix64(seed, i)");
  cli.describe("jobs", "worker threads for simulation jobs (default: all cores)");
  cli.describe("shard", "run slice i of N of the sweep (format i/N); shard "
                        "CSV/JSON outputs merge bit-identically");
  cli.describe("repeats", "run every point R times; sinks carry "
                          "min/mean/max/stddev per point");
  cli.describe("progress", "rows done / total + ETA on stderr "
                           "(default: on when stderr is a terminal)");
  cli.describe("csv", "also write machine-readable rows to this CSV file");
  cli.describe("json", "also write machine-readable rows to this JSON file");
  cli.describe("host-timing", "append nondeterministic wall_ms/events_per_sec "
                              "columns to per-run sink rows");
  cli.describe("timeout", "per-job wall-clock watchdog in seconds; a job "
                          "exceeding it is marked failed and excluded from "
                          "aggregates (default: none)");
  cli.describe("faults", "fault-injection spec, e.g. link:0.02,drop:1e-5,seed:7 "
                         "(keys: link tlink repair fail_at degrade degrade_mult "
                         "node drop seed rto retries stuck)");
  cli.describe("sim-threads", "slab-parallel worker threads inside each "
                              "simulation (default 1 = one slab; "
                              "see --jobs for across-point parallelism)");
  cli.describe("resume", "partial CSV/JSON output of an interrupted run; "
                         "already-completed points are skipped and the sinks "
                         "write the merged result");
  BenchContext ctx;
  try {
    ctx.full = cli.get_bool("full", false);
    ctx.node_budget = cli.get_int("budget", kDefaultNodeBudget);
    ctx.sweep.base_seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    ctx.sweep.jobs = static_cast<int>(cli.get_int("jobs", 0));
    if (cli.has("jobs") && ctx.sweep.jobs < 1) {
      throw std::runtime_error(
          "option --jobs: must be >= 1 (omit the flag for one worker per "
          "hardware thread)");
    }
    ctx.sim_threads = static_cast<int>(cli.get_int("sim-threads", 1));
    if (ctx.sim_threads < 1) {
      throw std::runtime_error("option --sim-threads: must be >= 1, got " +
                               std::to_string(ctx.sim_threads));
    }
    ctx.sweep.repeats = static_cast<int>(cli.get_int("repeats", 1));
    if (ctx.sweep.repeats < 1) {
      throw std::runtime_error("option --repeats: must be >= 1, got " +
                               std::to_string(ctx.sweep.repeats));
    }
    const std::string shard = cli.get("shard", "");
    if (!shard.empty() || cli.has("shard")) {
      const ShardSpec spec = parse_shard(shard);
      ctx.sweep.shard_index = spec.index;
      ctx.sweep.shard_count = spec.count;
    }
    ctx.sweep.progress = cli.get_bool("progress", ::isatty(2) != 0);
    ctx.csv_path = cli.get("csv", "");
    ctx.json_path = cli.get("json", "");
    ctx.host_timing = cli.get_bool("host-timing", false);
    const double timeout_s = cli.get_double("timeout", 0.0);
    if (cli.has("timeout") && timeout_s <= 0.0) {
      throw std::runtime_error("option --timeout: must be > 0 seconds, got " +
                               cli.get("timeout", ""));
    }
    ctx.sweep.timeout_ms = timeout_s * 1000.0;
    const std::string fault_spec = cli.get("faults", "");
    if (!fault_spec.empty() || cli.has("faults")) {
      ctx.faults = net::parse_fault_spec(fault_spec);
    }
    ctx.resume_path = cli.get("resume", "");
    if (cli.has("resume")) {
      if (ctx.resume_path.empty()) {
        throw std::runtime_error("option --resume: needs the partial output file");
      }
      if (ctx.csv_path.empty() && ctx.json_path.empty()) {
        throw std::runtime_error(
            "option --resume: needs --csv or --json to write the merged output");
      }
      if (ctx.sweep.repeats > 1) {
        throw std::runtime_error(
            "option --resume: aggregated --repeats output has no per-run rows "
            "to resume from");
      }
      if (ctx.host_timing) {
        throw std::runtime_error(
            "option --resume: --host-timing rows are nondeterministic and "
            "cannot merge byte-identically");
      }
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s: error: %s\n", cli.program().c_str(), error.what());
    std::exit(2);
  }
  return ctx;
}

topo::Shape BenchContext::runnable(const topo::Shape& paper_shape) const {
  if (full) return paper_shape;
  topo::Shape shape = paper_shape;
  // Ratio-preserving halving divides a 3-D shape by 8, so allow 25% slack
  // rather than overshooting to 1/8th of the budget.
  while (shape.nodes() > node_budget + node_budget / 4) {
    bool all_halvable = true;
    for (int a = 0; a < paper_shape.axis_count(); ++a) {
      const int extent = shape.dim[static_cast<std::size_t>(a)];
      if (extent > 1 && (extent < 4 || extent % 2 != 0)) all_halvable = false;
    }
    if (all_halvable) {
      for (int a = 0; a < paper_shape.axis_count(); ++a) {
        auto& extent = shape.dim[static_cast<std::size_t>(a)];
        if (extent > 1) extent /= 2;
      }
      continue;
    }
    int axis = -1;
    for (int a = 0; a < paper_shape.axis_count(); ++a) {
      const int extent = shape.dim[static_cast<std::size_t>(a)];
      if (extent >= 4 && extent % 2 == 0 &&
          (axis < 0 || extent > shape.dim[static_cast<std::size_t>(axis)])) {
        axis = a;
      }
    }
    if (axis < 0) break;
    shape.dim[static_cast<std::size_t>(axis)] /= 2;
  }
  return shape;
}

coll::AlltoallOptions BenchContext::base_options(const topo::Shape& shape,
                                                 std::uint64_t msg_bytes) const {
  coll::AlltoallOptions options;
  options.net.shape = shape;
  options.net.seed = sweep.base_seed;
  options.net.faults = faults;
  // Under --faults every point verifies per-pair delivery, so a drained but
  // short run surfaces as reason == "incomplete" in the sinks instead of
  // passing silently (the chaos-smoke CI gate keys off that column).
  options.verify = faults.enabled();
  options.net.sim_threads = sim_threads;
  options.msg_bytes = msg_bytes;
  return options;
}

std::vector<SimResult> BenchContext::run(const Sweep& sweep_jobs) const {
  using clock = std::chrono::steady_clock;

  // --resume: skip every slot whose drained row the partial output already
  // carries; the sinks then splice those rows back in (byte-identically).
  std::optional<ResumePlan> resume;
  SweepOptions sweep_options = sweep;
  if (!resume_path.empty()) {
    resume = plan_resume(load_resume_log(resume_path), sweep_jobs, sweep);
    sweep_options.skip_slots = &resume->skip;
  }

  const auto start = clock::now();
  auto runs = sweep_jobs.run(sweep_options);
  const std::chrono::duration<double, std::milli> wall = clock::now() - start;

  CsvSink csv(csv_path);
  JsonSink json(json_path);
  MultiSink sinks;
  if (!csv_path.empty()) sinks.attach(&csv);
  if (!json_path.empty()) sinks.attach(&json);
  if (!sinks.empty()) {
    if (resume.has_value()) {
      emit_merged(runs, *resume, sweep.repeats, sinks);
    } else if (sweep.repeats == 1) {
      emit(runs, sinks, host_timing);
    } else {
      emit_aggregate(aggregate(runs), sinks);
    }
  }

  const int threads =
      sweep.jobs > 0 ? sweep.jobs : ThreadPool::default_threads();
  const auto used = static_cast<int>(
      std::min<std::size_t>(runs.size(), static_cast<std::size_t>(threads)));
  const std::string footer = throughput_summary(runs, used, wall.count());
  std::size_t timed_out = 0;
  for (const auto& result : runs) {
    if (result.run.timed_out) ++timed_out;
  }

  // One representative row per sweep point for the paper-facing tables:
  // the repeat-0 run where available, a zeroed `ran == false` placeholder
  // for points outside this shard.
  std::vector<SimResult> table(sweep_jobs.size());
  for (auto& result : runs) {
    if (result.repeat == 0) table[result.index] = std::move(result);
  }
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (!table[i].ran) {
      table[i].index = i;
      table[i].label = sweep_jobs.jobs()[i].label;
    }
  }

  if (sweep.shard_count > 1) {
    const auto range =
        shard_range(sweep_jobs.size(), sweep.shard_index, sweep.shard_count);
    std::printf("[harness] shard %d/%d: points %zu..%zu of %zu "
                "(rows outside the shard print as zero)\n",
                sweep.shard_index, sweep.shard_count, range.begin, range.end,
                sweep_jobs.size());
  }
  if (sweep.repeats > 1) {
    std::printf("[harness] repeats %d: tables show the first repeat; sinks "
                "carry min/mean/max/stddev per point\n",
                sweep.repeats);
  }
  if (resume.has_value()) {
    std::printf("[harness] resume: reused %zu of %zu rows from %s "
                "(reused points print as zero in the tables)\n",
                resume->reused, runs.size(), resume_path.c_str());
  }
  if (timed_out > 0) {
    std::printf("[harness] %zu run(s) hit --timeout (%.1fs): marked failed "
                "(drained=0) and excluded from aggregates\n",
                timed_out, sweep.timeout_ms / 1000.0);
  }
  std::printf("[harness] %s\n", footer.c_str());
  return table;
}

}  // namespace bgl::harness
