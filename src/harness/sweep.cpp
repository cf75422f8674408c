#include "src/harness/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <stdexcept>

#include "src/harness/runner.hpp"
#include "src/util/table.hpp"

namespace bgl::harness {

namespace {

/// Throttled "rows done / total, ETA" line on stderr. tick() is
/// thread-safe; output is host-side only and never touches results.
class ProgressMeter {
 public:
  ProgressMeter(std::size_t total, bool enabled)
      : total_(total), enabled_(enabled), start_(clock::now()) {}

  ~ProgressMeter() {
    if (enabled_ && printed_) std::fputc('\n', stderr);
  }

  void tick() {
    const std::size_t done = done_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mutex_);
    const auto now = clock::now();
    if (done != total_ && now - last_print_ < std::chrono::milliseconds(100)) {
      return;
    }
    last_print_ = now;
    printed_ = true;
    const double elapsed_s =
        std::chrono::duration<double>(now - start_).count();
    const double eta_s =
        elapsed_s / static_cast<double>(done) * static_cast<double>(total_ - done);
    std::fprintf(stderr, "\r[harness] %zu/%zu rows (%d%%), ETA %ds   ", done,
                 total_, static_cast<int>(100 * done / total_),
                 static_cast<int>(eta_s + 0.5));
    std::fflush(stderr);
  }

 private:
  using clock = std::chrono::steady_clock;
  std::size_t total_;
  bool enabled_;
  clock::time_point start_;
  std::atomic<std::size_t> done_{0};
  std::mutex mutex_;
  clock::time_point last_print_{};
  bool printed_ = false;
};

void validate_skips(const SweepOptions& options, std::size_t points) {
  if (options.skip_slots != nullptr &&
      options.skip_slots->size() !=
          points * static_cast<std::size_t>(options.repeats)) {
    throw std::invalid_argument(
        "sweep: skip_slots must have points * repeats entries, got " +
        std::to_string(options.skip_slots->size()));
  }
}

void validate(const SweepOptions& options) {
  if (options.repeats < 1) {
    throw std::invalid_argument("sweep: repeats must be >= 1, got " +
                                std::to_string(options.repeats));
  }
  if (options.shard_count < 1 || options.shard_index < 1 ||
      options.shard_index > options.shard_count) {
    throw std::invalid_argument(
        "sweep: shard must satisfy 1 <= i <= N, got " +
        std::to_string(options.shard_index) + "/" +
        std::to_string(options.shard_count));
  }
}

}  // namespace

ShardSpec parse_shard(const std::string& text) {
  const auto slash = text.find('/');
  const auto all_digits = [](const std::string& s) {
    if (s.empty()) return false;
    for (const char c : s) {
      if (c < '0' || c > '9') return false;
    }
    return true;
  };
  if (slash == std::string::npos || !all_digits(text.substr(0, slash)) ||
      !all_digits(text.substr(slash + 1))) {
    throw std::runtime_error("option --shard: expected i/N with positive integers, got '" +
                             text + "'");
  }
  ShardSpec spec;
  spec.index = static_cast<int>(std::stoll(text.substr(0, slash)));
  spec.count = static_cast<int>(std::stoll(text.substr(slash + 1)));
  if (spec.count < 1 || spec.index < 1 || spec.index > spec.count) {
    throw std::runtime_error("option --shard: shard index runs 1..N, got '" + text +
                             "'");
  }
  return spec;
}

ShardRange shard_range(std::size_t points, int shard_index, int shard_count) {
  if (shard_count < 1 || shard_index < 1 || shard_index > shard_count) {
    throw std::invalid_argument("shard_range: need 1 <= i <= N, got " +
                                std::to_string(shard_index) + "/" +
                                std::to_string(shard_count));
  }
  const auto i = static_cast<std::size_t>(shard_index);
  const auto n = static_cast<std::size_t>(shard_count);
  return ShardRange{points * (i - 1) / n, points * i / n};
}

std::size_t Sweep::add(coll::StrategyKind kind, const coll::AlltoallOptions& options,
                       std::string label) {
  SimJob job;
  job.label = std::move(label);
  job.kind = kind;
  job.options = options;
  if (job.label.empty()) {
    job.label = options.net.shape.to_string() + "/" +
                util::fmt_bytes(options.msg_bytes) + "/" + strategy_name(kind);
  }
  const auto nodes = static_cast<std::uint64_t>(options.net.shape.nodes());
  job.cost = nodes * std::max<std::uint64_t>(options.msg_bytes, 1);
  jobs_.push_back(std::move(job));
  return jobs_.size() - 1;
}

std::vector<SimResult> Sweep::run(const SweepOptions& options) const {
  using clock = std::chrono::steady_clock;
  validate(options);
  validate_skips(options, jobs_.size());
  const ShardRange range =
      shard_range(jobs_.size(), options.shard_index, options.shard_count);
  const auto repeats = static_cast<std::size_t>(options.repeats);
  const std::size_t total = range.size() * repeats;

  std::vector<std::uint64_t> costs;
  costs.reserve(total);
  for (std::size_t point = range.begin; point < range.end; ++point) {
    for (std::size_t repeat = 0; repeat < repeats; ++repeat) {
      costs.push_back(jobs_[point].cost);
    }
  }

  ProgressMeter meter(total, options.progress);
  return run_ordered(
      total, options.jobs,
      [&](std::size_t slot) {
        const std::size_t point = range.begin + slot / repeats;
        const std::size_t repeat = slot % repeats;
        const SimJob& job = jobs_[point];
        SimResult result;
        result.index = point;
        result.repeat = static_cast<int>(repeat);
        result.ran = true;
        result.label = job.label;

        const std::size_t global = point * repeats + repeat;
        if (options.skip_slots != nullptr && (*options.skip_slots)[global]) {
          // Resumed slot: the caller already has this row (resume.hpp).
          result.ran = false;
          result.seed = derive_seed(options.base_seed, global);
          meter.tick();
          return result;
        }

        auto sim_options = job.options;
        if (sim_options.wall_timeout_ms <= 0.0 && options.timeout_ms > 0.0) {
          sim_options.wall_timeout_ms = options.timeout_ms;
        }
        // The *global* run index, so shard results are bit-identical to the
        // same rows of an unsharded run.
        sim_options.net.seed = derive_seed(options.base_seed, global);
        result.seed = sim_options.net.seed;

        const auto start = clock::now();
        result.run = coll::run_alltoall(job.kind, sim_options);
        const std::chrono::duration<double, std::milli> wall = clock::now() - start;
        result.wall_ms = wall.count();
        result.events_per_sec =
            result.wall_ms > 0.0
                ? static_cast<double>(result.run.events) / (result.wall_ms / 1000.0)
                : 0.0;
        meter.tick();
        return result;
      },
      costs);
}

std::vector<std::string> result_columns(bool host_timing) {
  std::vector<std::string> columns = {
      "label",         "repeat",     "strategy", "shape",
      "msg_bytes",     "elapsed_us", "percent_peak", "per_node_mbps",
      "packets_delivered", "events", "drained",  "reason", "seed"};
  if (host_timing) {
    columns.push_back("wall_ms");
    columns.push_back("events_per_sec");
  }
  return columns;
}

std::string failure_reason(const coll::RunResult& run) {
  if (run.timed_out) return "timeout";
  if (!run.drained) return "aborted";
  if (run.verified && !run.reachable_complete) return "incomplete";
  return "";
}

std::vector<std::string> result_cells(const SimResult& result, bool host_timing) {
  const auto& run = result.run;
  std::vector<std::string> cells = {result.label,
                                    std::to_string(result.repeat),
                                    run.strategy,
                                    run.shape.to_string(),
                                    std::to_string(run.msg_bytes),
                                    util::fmt(run.elapsed_us, 3),
                                    util::fmt(run.percent_peak, 2),
                                    util::fmt(run.per_node_mbps, 1),
                                    std::to_string(run.packets_delivered),
                                    std::to_string(run.events),
                                    run.drained ? "1" : "0",
                                    failure_reason(run),
                                    std::to_string(result.seed)};
  if (host_timing) {
    cells.push_back(util::fmt(result.wall_ms, 3));
    cells.push_back(util::fmt(result.events_per_sec, 0));
  }
  return cells;
}

void emit(const std::vector<SimResult>& results, ResultSink& sink,
          bool host_timing) {
  sink.begin(result_columns(host_timing));
  for (const auto& result : results) sink.row(result_cells(result, host_timing));
  sink.end();
}

MetricStats summarize(const std::vector<double>& samples) {
  MetricStats stats;
  if (samples.empty()) return stats;
  stats.min = samples.front();
  stats.max = samples.front();
  double sum = 0.0;
  for (const double v : samples) {
    stats.min = std::min(stats.min, v);
    stats.max = std::max(stats.max, v);
    sum += v;
  }
  const double n = static_cast<double>(samples.size());
  stats.mean = sum / n;
  double sq = 0.0;
  for (const double v : samples) sq += (v - stats.mean) * (v - stats.mean);
  stats.stddev = std::sqrt(sq / n);  // population stddev: R == 1 gives 0
  return stats;
}

std::vector<PointStats> aggregate(const std::vector<SimResult>& results) {
  std::vector<PointStats> out;
  std::size_t i = 0;
  while (i < results.size()) {
    const std::size_t point = results[i].index;
    PointStats stats;
    stats.index = point;
    stats.label = results[i].label;
    stats.strategy = results[i].run.strategy;
    stats.shape = results[i].run.shape.to_string();
    stats.msg_bytes = results[i].run.msg_bytes;

    std::vector<double> elapsed, peak, mbps;
    for (; i < results.size() && results[i].index == point; ++i) {
      ++stats.repeats;
      if (!results[i].run.drained) continue;  // failed repeat: not in the stats
      ++stats.repeats_ok;
      elapsed.push_back(results[i].run.elapsed_us);
      peak.push_back(results[i].run.percent_peak);
      mbps.push_back(results[i].run.per_node_mbps);
    }
    stats.elapsed_us = summarize(elapsed);
    stats.percent_peak = summarize(peak);
    stats.per_node_mbps = summarize(mbps);
    out.push_back(std::move(stats));
  }
  return out;
}

std::vector<std::string> aggregate_columns() {
  return {"label",
          "strategy",
          "shape",
          "msg_bytes",
          "repeats",
          "repeats_ok",
          "elapsed_us_min",
          "elapsed_us_mean",
          "elapsed_us_max",
          "elapsed_us_stddev",
          "percent_peak_min",
          "percent_peak_mean",
          "percent_peak_max",
          "percent_peak_stddev",
          "per_node_mbps_min",
          "per_node_mbps_mean",
          "per_node_mbps_max",
          "per_node_mbps_stddev"};
}

std::vector<std::string> aggregate_cells(const PointStats& stats) {
  const auto metric = [](std::vector<std::string>& cells, const MetricStats& m,
                         int precision) {
    cells.push_back(util::fmt(m.min, precision));
    cells.push_back(util::fmt(m.mean, precision));
    cells.push_back(util::fmt(m.max, precision));
    cells.push_back(util::fmt(m.stddev, precision));
  };
  std::vector<std::string> cells = {stats.label, stats.strategy, stats.shape,
                                    std::to_string(stats.msg_bytes),
                                    std::to_string(stats.repeats),
                                    std::to_string(stats.repeats_ok)};
  metric(cells, stats.elapsed_us, 3);
  metric(cells, stats.percent_peak, 2);
  metric(cells, stats.per_node_mbps, 1);
  return cells;
}

void emit_aggregate(const std::vector<PointStats>& stats, ResultSink& sink) {
  sink.begin(aggregate_columns());
  for (const auto& point : stats) sink.row(aggregate_cells(point));
  sink.end();
}

std::string throughput_summary(const std::vector<SimResult>& results, int threads,
                               double sweep_wall_ms) {
  double sim_ms = 0.0;
  double events = 0.0;
  for (const auto& result : results) {
    sim_ms += result.wall_ms;
    events += static_cast<double>(result.run.events);
  }
  const double mev_per_sec =
      sweep_wall_ms > 0.0 ? events / 1000.0 / sweep_wall_ms : 0.0;
  return std::to_string(results.size()) + " jobs on " + std::to_string(threads) +
         " thread(s): " + util::fmt(sweep_wall_ms, 0) + " ms wall (" +
         util::fmt(sim_ms, 0) + " ms of simulation, " + util::fmt(mev_per_sec, 2) +
         " Mevents/s)";
}

}  // namespace bgl::harness
