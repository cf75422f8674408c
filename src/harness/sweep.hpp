// A sweep of independent all-to-all simulation jobs run on the harness.
//
// Benches build a Sweep (one job per simulated point), run it, and format
// their paper-facing tables from the ordered results. Each job runs a
// private Fabric + strategy client on a worker thread with a seed derived
// from (base_seed, global run index) — see runner.hpp — so the result
// vector is bit-identical for any worker count. Host wall time and
// simulator events/second are metered per run for the perf trajectory;
// they are the only nondeterministic fields and are excluded from the sink
// schema by default.
//
// v2 sweep engine:
//  - Size-aware scheduling: every job carries a cost hint (nodes x
//    msg_bytes) and the pool dispatches longest-first.
//  - Sharding: shard i/N runs the contiguous slice shard_range(points, i, N)
//    of the point list while keeping the *global* run indices for seed
//    derivation, so shard sink outputs concatenate bit-identically into the
//    unsharded run (see sink.hpp merge_csv_shards/merge_json_shards).
//  - Repeats: every point runs R times with independent derived seeds
//    (global run index = point * R + repeat); aggregate() folds the runs
//    into per-point min/mean/max/stddev for error bars.
//  - Progress: rows done / total with an ETA on stderr for long sweeps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/coll/alltoall.hpp"
#include "src/harness/sink.hpp"

namespace bgl::harness {

struct SimJob {
  std::string label;  // free-form row tag, e.g. "8x8x8/240B"
  coll::StrategyKind kind = coll::StrategyKind::kAdaptiveRandom;
  coll::AlltoallOptions options;
  /// Scheduling hint (nodes x msg_bytes, floored at nodes); bigger runs
  /// dispatch first. Never affects results.
  std::uint64_t cost = 0;
};

struct SimResult {
  std::size_t index = 0;  // sweep point (not the expanded run index)
  int repeat = 0;         // 0-based repeat number within the point
  bool ran = false;       // false in slots a shard skipped
  std::string label;
  std::uint64_t seed = 0;  // the seed the run actually used
  coll::RunResult run;
  // Host-side metering (nondeterministic; excluded from determinism checks
  // and, by default, from the sinks).
  double wall_ms = 0.0;
  double events_per_sec = 0.0;
};

/// Which shard of a sweep to run: slice `index` of `count`, 1-based.
struct ShardSpec {
  int index = 1;
  int count = 1;
};

/// Parses "i/N" (e.g. "2/3"). Throws std::runtime_error with a clear
/// message on malformed input or when i is outside 1..N.
ShardSpec parse_shard(const std::string& text);

/// The contiguous [begin, end) slice of `points` covered by shard i/N.
/// Shards are balanced to within one point and together cover every point
/// exactly once. Throws std::invalid_argument on an invalid spec.
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t size() const { return end - begin; }
};
ShardRange shard_range(std::size_t points, int shard_index, int shard_count);

struct SweepOptions {
  /// Worker threads; 0 = one per hardware thread.
  int jobs = 0;
  /// Run `point * repeats + repeat` uses seed derive_seed(base_seed, that).
  std::uint64_t base_seed = 1;
  /// Times each point runs (with independent derived seeds). Must be >= 1.
  int repeats = 1;
  /// Slice of the point list to run; defaults to the whole sweep.
  int shard_index = 1;
  int shard_count = 1;
  /// Rows done / total + ETA on stderr while the sweep runs.
  bool progress = false;
  /// Per-job host wall-clock watchdog in milliseconds; 0 = none. A job
  /// exceeding it is aborted and reported with run.timed_out == true and
  /// run.drained == false (aggregate() then excludes it from the stats).
  /// Jobs that carry their own options.wall_timeout_ms keep it.
  double timeout_ms = 0.0;
  /// Resume support: one flag per *global* run slot (point * repeats +
  /// repeat). Slots marked true are not simulated; their result comes back
  /// with `ran == false` and the caller splices the previously-written row
  /// in (see resume.hpp). nullptr = run everything. Must have exactly
  /// size() * repeats entries when set.
  const std::vector<bool>* skip_slots = nullptr;
};

class Sweep {
 public:
  /// Appends a job and returns its index (== its slot in run()'s result).
  std::size_t add(coll::StrategyKind kind, const coll::AlltoallOptions& options,
                  std::string label = "");

  std::size_t size() const { return jobs_.size(); }
  bool empty() const { return jobs_.empty(); }
  const std::vector<SimJob>& jobs() const { return jobs_; }

  /// Runs every in-shard (point, repeat) pair on the pool; results are
  /// ordered by point then repeat, so with repeats == 1 and no sharding
  /// this is one result per job exactly as added. An empty sweep (or an
  /// empty shard) returns an empty vector. Job exceptions propagate
  /// (lowest run index first), after all jobs have run. Throws
  /// std::invalid_argument on invalid repeats/shard options.
  std::vector<SimResult> run(const SweepOptions& options = {}) const;

 private:
  std::vector<SimJob> jobs_;
};

/// The stable machine-readable schema shared by every bench. Pass
/// host_timing = true to append the nondeterministic wall_ms /
/// events_per_sec columns (off by default so rows — and therefore shard
/// files — are bit-identical for any worker count).
std::vector<std::string> result_columns(bool host_timing = false);
std::vector<std::string> result_cells(const SimResult& result,
                                      bool host_timing = false);

/// The row's "reason" cell: why the run failed, or "" for a healthy run.
///   "timeout"    killed by the wall-clock watchdog (metrics are garbage);
///   "aborted"    never quiesced before the cycle deadline (wedged);
///   "incomplete" drained, but per-pair verification found reachable pairs
///                short of their payload (only runs that recorded a
///                delivery matrix can report this).
std::string failure_reason(const coll::RunResult& run);

/// Streams `results` through a sink (begin/rows/end).
void emit(const std::vector<SimResult>& results, ResultSink& sink,
          bool host_timing = false);

// --- repeated-seed aggregation ---------------------------------------------

/// min/mean/max/stddev (population, so n == 1 gives 0) over a sample set.
/// Empty input yields all zeros — never NaN.
struct MetricStats {
  double min = 0.0;
  double mean = 0.0;
  double max = 0.0;
  double stddev = 0.0;
};
MetricStats summarize(const std::vector<double>& samples);

/// Per-point statistics over repeated runs. Only drained (successful) runs
/// enter the stats; `repeats_ok` counts them, `repeats` counts attempts.
struct PointStats {
  std::size_t index = 0;
  std::string label;
  std::string strategy;
  std::string shape;
  std::uint64_t msg_bytes = 0;
  int repeats = 0;
  int repeats_ok = 0;
  MetricStats elapsed_us;
  MetricStats percent_peak;
  MetricStats per_node_mbps;
};

/// Folds per-run results (as returned by Sweep::run, ordered point-major)
/// into one PointStats per distinct point, in point order.
std::vector<PointStats> aggregate(const std::vector<SimResult>& results);

/// Machine-readable schema for aggregated rows (fully deterministic).
std::vector<std::string> aggregate_columns();
std::vector<std::string> aggregate_cells(const PointStats& stats);
void emit_aggregate(const std::vector<PointStats>& stats, ResultSink& sink);

/// One-line throughput footer: job count, worker threads, total host wall
/// time and aggregate simulator event rate.
std::string throughput_summary(const std::vector<SimResult>& results, int threads,
                               double sweep_wall_ms);

}  // namespace bgl::harness
