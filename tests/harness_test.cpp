// The parallel experiment harness: deterministic seeding, the worker pool,
// ordered result collection, exception propagation and the result sinks.
#include "src/harness/bench.hpp"
#include "src/harness/pool.hpp"
#include "src/harness/runner.hpp"
#include "src/harness/sink.hpp"
#include "src/harness/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace bgl::harness {
namespace {

// --- derive_seed -----------------------------------------------------------

TEST(DeriveSeed, PureFunctionOfBaseAndIndex) {
  EXPECT_EQ(derive_seed(1, 0), derive_seed(1, 0));
  EXPECT_EQ(derive_seed(42, 17), derive_seed(42, 17));
}

TEST(DeriveSeed, DistinctIndicesAndBasesDecorrelate) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t base : {1ull, 2ull, 0xdeadbeefull}) {
    for (std::uint64_t index = 0; index < 64; ++index) {
      seeds.insert(derive_seed(base, index));
    }
  }
  EXPECT_EQ(seeds.size(), 3u * 64u);  // no collisions across the grid
}

TEST(DeriveSeed, IndexZeroIsNotTheBaseSeed) {
  for (std::uint64_t base : {0ull, 1ull, 7ull, ~0ull}) {
    EXPECT_NE(derive_seed(base, 0), base);
  }
}

// --- ThreadPool ------------------------------------------------------------

TEST(ThreadPool, RunsEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.threads(), 4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ZeroAndNegativeClampToOneWorker) {
  EXPECT_EQ(ThreadPool(0).threads(), 1);
  EXPECT_EQ(ThreadPool(-3).threads(), 1);
}

TEST(ThreadPool, WaitWithNoTasksReturns) {
  ThreadPool pool(2);
  pool.wait();  // must not deadlock
}

TEST(ThreadPool, DispatchesHighestCostFirst) {
  // One worker, blocked on a gate while the costed tasks queue up; once the
  // gate opens the worker must drain them in descending-cost order.
  ThreadPool pool(1);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  pool.submit([opened] { opened.wait(); });

  std::mutex order_mutex;
  std::vector<std::uint64_t> order;
  for (const std::uint64_t cost : {5ull, 500ull, 50ull, 500ull}) {
    pool.submit(
        [cost, &order, &order_mutex] {
          std::lock_guard<std::mutex> lock(order_mutex);
          order.push_back(cost);
        },
        cost);
  }
  gate.set_value();
  pool.wait();
  // Equal costs keep submission order (the first 500 before the second).
  EXPECT_EQ(order, (std::vector<std::uint64_t>{500, 500, 50, 5}));
}

// --- run_indexed / run_ordered ---------------------------------------------

TEST(Runner, OrderedResultsForAnyWorkerCount) {
  for (const int jobs : {1, 2, 8}) {
    const auto results =
        run_ordered(16, jobs, [](std::size_t index) { return index * index; });
    ASSERT_EQ(results.size(), 16u);
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i], i * i);
    }
  }
}

TEST(Runner, EmptyJobListIsANoOp) {
  bool ran = false;
  run_indexed(0, 8, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
  EXPECT_TRUE(run_ordered(0, 8, [](std::size_t i) { return i; }).empty());
}

TEST(Runner, LowestIndexExceptionWinsAndLaterJobsStillRun) {
  std::atomic<int> completed{0};
  try {
    run_indexed(8, 4, [&](std::size_t index) {
      if (index == 2 || index == 5) {
        throw std::runtime_error("job " + std::to_string(index));
      }
      completed.fetch_add(1, std::memory_order_relaxed);
    });
    FAIL() << "expected the job exception to propagate";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "job 2");
  }
  EXPECT_EQ(completed.load(), 6);  // non-throwing jobs all ran to completion
}

// --- Sweep -----------------------------------------------------------------

Sweep small_sweep() {
  Sweep sweep;
  for (const char* spec : {"4x4", "2x2x2", "8"}) {
    for (const std::uint64_t bytes : {32ull, 240ull}) {
      coll::AlltoallOptions options;
      options.net.shape = topo::parse_shape(spec);
      options.msg_bytes = bytes;
      sweep.add(coll::StrategyKind::kAdaptiveRandom, options);
    }
  }
  return sweep;
}

/// The default machine-readable row excludes the host-timing columns, so it
/// is exactly what must be bit-identical across worker counts and shards.
std::vector<std::string> deterministic_cells(const SimResult& result) {
  return result_cells(result);
}

TEST(Sweep, ResultRowsAreBitIdenticalAcrossWorkerCounts) {
  const auto sweep = small_sweep();
  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions parallel;
  parallel.jobs = 8;

  const auto a = sweep.run(serial);
  const auto b = sweep.run(parallel);
  ASSERT_EQ(a.size(), sweep.size());
  ASSERT_EQ(b.size(), sweep.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, i);
    EXPECT_EQ(deterministic_cells(a[i]), deterministic_cells(b[i])) << "job " << i;
  }
}

TEST(Sweep, PerJobSeedsAreDerivedFromBaseAndIndex) {
  const auto sweep = small_sweep();
  SweepOptions options;
  options.jobs = 2;
  options.base_seed = 99;
  const auto results = sweep.run(options);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].seed, derive_seed(99, i));
  }
}

TEST(Sweep, EmptySweepReturnsEmptyResults) {
  const Sweep sweep;
  EXPECT_TRUE(sweep.run({}).empty());
}

TEST(Sweep, JobExceptionPropagatesAfterAllJobsRan) {
  // Job 1 is invalid (single-node all-to-all); run_alltoall throws and the
  // sweep must surface that exception rather than return a partial vector.
  Sweep sweep;
  coll::AlltoallOptions good;
  good.net.shape = topo::parse_shape("4x4");
  good.msg_bytes = 32;
  coll::AlltoallOptions bad;
  bad.net.shape = topo::parse_shape("1x1x1");
  bad.msg_bytes = 32;
  sweep.add(coll::StrategyKind::kAdaptiveRandom, good);
  sweep.add(coll::StrategyKind::kAdaptiveRandom, bad);
  SweepOptions options;
  options.jobs = 2;
  EXPECT_THROW(sweep.run(options), std::invalid_argument);
}

TEST(Sweep, AutoLabelsAndSchemaAgree) {
  const auto sweep = small_sweep();
  EXPECT_EQ(sweep.jobs()[0].label, topo::parse_shape("4x4").to_string() + "/32B/AR");
  const auto results = sweep.run({});
  const auto columns = result_columns();
  for (const auto& result : results) {
    EXPECT_EQ(result_cells(result).size(), columns.size());
  }
}

TEST(Sweep, JobsCarryNodesTimesBytesCostHints) {
  Sweep sweep;
  coll::AlltoallOptions options;
  options.net.shape = topo::parse_shape("4x4x4");
  options.msg_bytes = 240;
  sweep.add(coll::StrategyKind::kAdaptiveRandom, options);
  options.msg_bytes = 0;  // floored so empty payloads still scale with nodes
  sweep.add(coll::StrategyKind::kAdaptiveRandom, options);
  EXPECT_EQ(sweep.jobs()[0].cost, 64u * 240u);
  EXPECT_EQ(sweep.jobs()[1].cost, 64u);
}

TEST(Sweep, HostTimingColumnsAreOptIn) {
  const auto base = result_columns();
  const auto timed = result_columns(true);
  ASSERT_EQ(timed.size(), base.size() + 2);
  EXPECT_EQ(timed[timed.size() - 2], "wall_ms");
  EXPECT_EQ(timed.back(), "events_per_sec");
  SimResult result;
  EXPECT_EQ(result_cells(result).size(), base.size());
  EXPECT_EQ(result_cells(result, true).size(), timed.size());
}

// --- sharding ---------------------------------------------------------------

TEST(ShardRange, CoversEveryPointExactlyOnce) {
  for (const std::size_t points : {0u, 1u, 5u, 12u, 100u}) {
    for (const int count : {1, 2, 3, 7}) {
      std::size_t covered = 0;
      std::size_t expected_begin = 0;
      for (int i = 1; i <= count; ++i) {
        const auto range = shard_range(points, i, count);
        EXPECT_EQ(range.begin, expected_begin);  // contiguous, in order
        EXPECT_LE(range.begin, range.end);
        covered += range.size();
        expected_begin = range.end;
      }
      EXPECT_EQ(covered, points);
      EXPECT_EQ(expected_begin, points);
    }
  }
}

TEST(ShardRange, BalancedToWithinOnePoint) {
  for (int i = 1; i <= 3; ++i) {
    const auto range = shard_range(10, i, 3);
    EXPECT_GE(range.size(), 3u);
    EXPECT_LE(range.size(), 4u);
  }
}

TEST(ShardRange, RejectsInvalidSpecs) {
  EXPECT_THROW(shard_range(10, 0, 3), std::invalid_argument);
  EXPECT_THROW(shard_range(10, 4, 3), std::invalid_argument);
  EXPECT_THROW(shard_range(10, 1, 0), std::invalid_argument);
}

TEST(ParseShard, AcceptsWellFormedSpecs) {
  const auto spec = parse_shard("2/3");
  EXPECT_EQ(spec.index, 2);
  EXPECT_EQ(spec.count, 3);
  EXPECT_EQ(parse_shard("1/1").count, 1);
}

TEST(ParseShard, RejectsMalformedSpecsWithClearErrors) {
  for (const char* bad : {"a/b", "2", "", "1/", "/3", "1//3", "-1/3", "1/-3",
                          "0/3", "4/3", "1/0"}) {
    EXPECT_THROW(parse_shard(bad), std::runtime_error) << "'" << bad << "'";
  }
  try {
    parse_shard("0/3");
    FAIL() << "expected parse_shard to reject 0/3";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("1..N"), std::string::npos);
  }
}

TEST(Sweep, ShardResultsConcatenateToTheUnshardedRun) {
  const auto sweep = small_sweep();
  SweepOptions options;
  options.jobs = 4;
  const auto full = sweep.run(options);

  std::vector<SimResult> concatenated;
  for (int i = 1; i <= 3; ++i) {
    auto shard_options = options;
    shard_options.shard_index = i;
    shard_options.shard_count = 3;
    auto part = sweep.run(shard_options);
    for (auto& result : part) concatenated.push_back(std::move(result));
  }
  ASSERT_EQ(concatenated.size(), full.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(full[i].index, concatenated[i].index);
    EXPECT_EQ(full[i].seed, concatenated[i].seed);
    EXPECT_EQ(deterministic_cells(full[i]), deterministic_cells(concatenated[i]));
  }
}

TEST(Sweep, InvalidOptionsThrow) {
  const auto sweep = small_sweep();
  SweepOptions bad_repeats;
  bad_repeats.repeats = 0;
  EXPECT_THROW(sweep.run(bad_repeats), std::invalid_argument);
  SweepOptions bad_shard;
  bad_shard.shard_index = 3;
  bad_shard.shard_count = 2;
  EXPECT_THROW(sweep.run(bad_shard), std::invalid_argument);
}

// --- repeats ----------------------------------------------------------------

TEST(Sweep, RepeatsExpandPointMajorWithGlobalRunSeeds) {
  const auto sweep = small_sweep();
  SweepOptions options;
  options.jobs = 2;
  options.base_seed = 7;
  options.repeats = 3;
  const auto results = sweep.run(options);
  ASSERT_EQ(results.size(), sweep.size() * 3);
  for (std::size_t slot = 0; slot < results.size(); ++slot) {
    const auto& result = results[slot];
    EXPECT_EQ(result.index, slot / 3);
    EXPECT_EQ(result.repeat, static_cast<int>(slot % 3));
    // Seed = derive_seed(base, global run index): what makes shard and
    // unsharded runs agree, and distinct repeats independent.
    EXPECT_EQ(result.seed, derive_seed(7, result.index * 3 +
                                              static_cast<std::size_t>(result.repeat)));
  }
}

TEST(Sweep, RepeatsOfOnePreserveTheLegacySeedMapping) {
  const auto sweep = small_sweep();
  SweepOptions options;
  options.base_seed = 42;
  options.repeats = 1;
  const auto results = sweep.run(options);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].seed, derive_seed(42, i));
  }
}

TEST(Sweep, RepeatedRunsAreDeterministicAcrossWorkerCounts) {
  Sweep sweep;
  coll::AlltoallOptions options;
  options.net.shape = topo::parse_shape("4x4");
  options.msg_bytes = 64;
  sweep.add(coll::StrategyKind::kAdaptiveRandom, options);
  sweep.add(coll::StrategyKind::kTwoPhase, options);

  SweepOptions serial;
  serial.repeats = 4;
  serial.jobs = 1;
  auto parallel = serial;
  parallel.jobs = 8;
  const auto a = sweep.run(serial);
  const auto b = sweep.run(parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(deterministic_cells(a[i]), deterministic_cells(b[i])) << "slot " << i;
  }
}

// --- sinks -----------------------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(Sinks, CsvAndJsonCarryTheSameRows) {
  const std::string csv_path = testing::TempDir() + "harness_test_rows.csv";
  const std::string json_path = testing::TempDir() + "harness_test_rows.json";
  CsvSink csv(csv_path);
  JsonSink json(json_path);
  MultiSink multi;
  multi.attach(&csv);
  multi.attach(&json);
  EXPECT_FALSE(multi.empty());

  multi.begin({"label", "value", "note"});
  multi.row({"a", "1.5", "plain"});
  multi.row({"b", "-7", "needs,quoting"});
  multi.end();
  EXPECT_EQ(csv.rows_written(), 2u);
  EXPECT_EQ(json.rows_written(), 2u);

  const auto csv_text = slurp(csv_path);
  EXPECT_NE(csv_text.find("label,value,note"), std::string::npos);
  EXPECT_NE(csv_text.find("\"needs,quoting\""), std::string::npos);

  const auto json_text = slurp(json_path);
  EXPECT_NE(json_text.find("\"value\": 1.5"), std::string::npos);   // numeric: bare
  EXPECT_NE(json_text.find("\"value\": -7"), std::string::npos);
  EXPECT_NE(json_text.find("\"note\": \"plain\""), std::string::npos);
  EXPECT_EQ(json_text.front(), '[');
  std::remove(csv_path.c_str());
  std::remove(json_path.c_str());
}

TEST(Sinks, RowWidthMismatchThrows) {
  const std::string path = testing::TempDir() + "harness_test_width.json";
  JsonSink json(path);
  json.begin({"a", "b"});
  EXPECT_THROW(json.row({"only-one"}), std::invalid_argument);
  json.end();
  std::remove(path.c_str());
}

// --- BenchContext ----------------------------------------------------------

TEST(BenchContext, CliRoundTrip) {
  const char* argv[] = {"bench",  "--jobs", "3",          "--seed",
                        "7",      "--full", "--budget",   "512",
                        "--csv",  "x.csv",  "--json",     "y.json"};
  util::Cli cli(static_cast<int>(std::size(argv)), argv);
  const auto ctx = BenchContext::from_cli(cli);
  EXPECT_EQ(ctx.sweep.jobs, 3);
  EXPECT_EQ(ctx.seed(), 7u);
  EXPECT_TRUE(ctx.full);
  EXPECT_EQ(ctx.node_budget, 512);
  EXPECT_EQ(ctx.csv_path, "x.csv");
  EXPECT_EQ(ctx.json_path, "y.json");
  EXPECT_EQ(ctx.sweep.repeats, 1);
  EXPECT_EQ(ctx.sweep.shard_index, 1);
  EXPECT_EQ(ctx.sweep.shard_count, 1);
  EXPECT_FALSE(ctx.host_timing);
}

TEST(BenchContext, CliRoundTripForShardingAndRepeats) {
  const char* argv[] = {"bench",     "--repeats", "4",     "--shard",
                        "2/3",       "--jobs",    "2",     "--host-timing",
                        "--progress"};
  util::Cli cli(static_cast<int>(std::size(argv)), argv);
  const auto ctx = BenchContext::from_cli(cli);
  EXPECT_EQ(ctx.sweep.repeats, 4);
  EXPECT_EQ(ctx.sweep.shard_index, 2);
  EXPECT_EQ(ctx.sweep.shard_count, 3);
  EXPECT_TRUE(ctx.host_timing);
  EXPECT_TRUE(ctx.sweep.progress);
}

// from_cli reports bad flags as `prog: error: ...` on stderr and exits with
// status 2 — the contract scripts and CI rely on.
void expect_cli_rejected(std::vector<const char*> argv, const char* pattern) {
  argv.insert(argv.begin(), "bench");
  EXPECT_EXIT(
      {
        util::Cli cli(static_cast<int>(argv.size()), argv.data());
        BenchContext::from_cli(cli);
      },
      ::testing::ExitedWithCode(2), pattern);
}

TEST(BenchContextDeathTest, ExplicitZeroJobsIsAnError) {
  expect_cli_rejected({"--jobs", "0"}, "error: .*--jobs");
}

TEST(BenchContextDeathTest, ZeroRepeatsIsAnError) {
  expect_cli_rejected({"--repeats", "0"}, "error: .*--repeats");
}

TEST(BenchContextDeathTest, MalformedShardSpecsAreErrors) {
  expect_cli_rejected({"--shard", "a/b"}, "error: .*shard");
  expect_cli_rejected({"--shard", "0/3"}, "error: .*shard");
  expect_cli_rejected({"--shard", "4/3"}, "error: .*shard");
}

TEST(BenchContextDeathTest, NonNumericSeedIsAnError) {
  expect_cli_rejected({"--seed", "12x"}, "error: .*--seed");
}

TEST(BenchContextDeathTest, NonPositiveTimeoutIsAnError) {
  expect_cli_rejected({"--timeout", "0"}, "error: .*--timeout");
  expect_cli_rejected({"--timeout", "-3"}, "error: .*--timeout");
}

TEST(BenchContextDeathTest, MalformedFaultSpecIsAnError) {
  expect_cli_rejected({"--faults", "link:2.0"}, "error: .*--faults");
  expect_cli_rejected({"--faults", "warp:0.5"}, "error: .*--faults");
}

TEST(BenchContextDeathTest, UnsupportedSharedOptionIsAnError) {
  // A bench that cannot honor a shared option names it; giving it exits 2
  // instead of being silently ignored.
  const auto parse = [](const char* flag) {
    const char* argv[] = {"bench", flag, "x.csv"};
    util::Cli cli(3, argv);
    BenchContext::from_cli(cli, {"csv", "json", "resume"});
  };
  for (const char* flag : {"--csv", "--resume"}) {
    EXPECT_EXIT(parse(flag), ::testing::ExitedWithCode(2),
                std::string("bench: error: option ") + flag +
                    " is not supported by this bench");
  }
}

TEST(BenchContextDeathTest, BadSinkOrResumePathFailsBeforeAnySweepJob) {
  // The sinks open their files only after the sweep, so from_cli checks
  // the paths first. The one job exits 3 from its hop observer if it runs.
  const auto bench = [](std::vector<const char*> argv) {
    argv.insert(argv.begin(), "bench");
    argv.insert(argv.end(), {"--jobs", "1"});
    util::Cli cli(static_cast<int>(argv.size()), argv.data());
    const BenchContext ctx = BenchContext::from_cli(cli);
    coll::AlltoallOptions options = ctx.base_options(topo::parse_shape("4x4"), 32);
    options.hop_observer = [](const net::Packet&, topo::Rank, int, int) { std::_Exit(3); };
    Sweep sweep;
    sweep.add(coll::StrategyKind::kAdaptiveRandom, options);
    ctx.run(sweep);
  };
  EXPECT_EXIT(bench({}), ::testing::ExitedWithCode(3), "");  // the probe works
  EXPECT_EXIT(bench({"--csv", "/nonexistent/dir/x.csv"}), ::testing::ExitedWithCode(2),
              "bench: error: option --csv: cannot write /nonexistent/dir/x.csv");
  EXPECT_EXIT(bench({"--json", "/nonexistent/dir/x.json"}), ::testing::ExitedWithCode(2),
              "bench: error: option --json: cannot write /nonexistent/dir/x.json");
  const std::string csv = testing::TempDir() + "harness_test_resumed.csv";
  EXPECT_EXIT(bench({"--csv", csv.c_str(), "--resume", "/nonexistent.csv"}),
              ::testing::ExitedWithCode(2),
              "bench: error: option --resume: cannot read /nonexistent.csv");
}

TEST(BenchContext, SinkPathCheckLeavesFilesAsTheyWere) {
  // A sink path may also be the --resume input: the check must not
  // truncate it, and must not leave behind a file it created.
  const std::string kept = testing::TempDir() + "harness_test_kept.csv";
  const std::string fresh = testing::TempDir() + "harness_test_fresh.json";
  std::remove(fresh.c_str());
  { std::ofstream(kept) << "partial\n"; }
  const char* argv[] = {"bench", "--csv", kept.c_str(), "--json", fresh.c_str()};
  util::Cli cli(5, argv);
  const auto ctx = BenchContext::from_cli(cli);
  EXPECT_EQ(ctx.csv_path, kept);
  std::ifstream in(kept);
  std::string line;
  EXPECT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "partial");
  EXPECT_FALSE(std::ifstream(fresh).good());
  std::remove(kept.c_str());
}

TEST(BenchContext, UnsupportedOptionsLeaveTheOthersWorking) {
  const char* argv[] = {"bench", "--jobs", "2", "--seed", "5"};
  util::Cli cli(5, argv);
  const auto ctx = BenchContext::from_cli(cli, {"csv", "json"});
  EXPECT_EQ(ctx.sweep.jobs, 2);
  EXPECT_EQ(ctx.seed(), 5u);
  EXPECT_TRUE(ctx.csv_path.empty());
}

TEST(BenchContext, FaultSpecReachesBaseOptions) {
  const char* argv[] = {"bench", "--faults", "link:0.02,drop:1e-4"};
  util::Cli cli(3, argv);
  const auto ctx = BenchContext::from_cli(cli);
  const auto options = ctx.base_options(topo::parse_shape("4x4"), 64);
  EXPECT_DOUBLE_EQ(options.net.faults.link_fail, 0.02);
  EXPECT_DOUBLE_EQ(options.net.faults.drop_prob, 1e-4);
  EXPECT_TRUE(options.net.faults.enabled());
}

// --- per-job wall-clock watchdog -------------------------------------------

TEST(SweepTimeout, WedgedJobIsKilledAndExcludedFromAggregates) {
  // One job far too big to finish inside the watchdog, surrounded by jobs
  // that finish in milliseconds. The sweep must complete, mark only the big
  // job as timed out (drained == false), and aggregate() must keep it out
  // of the statistics while the healthy points aggregate normally.
  Sweep sweep;
  coll::AlltoallOptions tiny;
  tiny.net.shape = topo::parse_shape("2x2x2");
  tiny.msg_bytes = 32;
  coll::AlltoallOptions huge;
  huge.net.shape = topo::parse_shape("10x10x10");
  huge.msg_bytes = 4096;
  sweep.add(coll::StrategyKind::kAdaptiveRandom, tiny);
  sweep.add(coll::StrategyKind::kAdaptiveRandom, huge);
  sweep.add(coll::StrategyKind::kAdaptiveRandom, tiny);

  SweepOptions options;
  options.jobs = 2;
  options.timeout_ms = 150.0;
  const auto results = sweep.run(options);
  ASSERT_EQ(results.size(), 3u);

  EXPECT_TRUE(results[0].run.drained);
  EXPECT_FALSE(results[0].run.timed_out);
  EXPECT_FALSE(results[1].run.drained);
  EXPECT_TRUE(results[1].run.timed_out);
  EXPECT_TRUE(results[2].run.drained);
  EXPECT_FALSE(results[2].run.timed_out);

  const auto stats = aggregate(results);
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_EQ(stats[0].repeats_ok, 1);
  EXPECT_EQ(stats[1].repeats, 1);
  EXPECT_EQ(stats[1].repeats_ok, 0);  // failed run: not in the stats
  EXPECT_EQ(stats[2].repeats_ok, 1);
}

TEST(SweepTimeout, PerJobTimeoutOverridesTheSweepDefault) {
  // A job that already carries its own wall_timeout_ms keeps it.
  Sweep sweep;
  coll::AlltoallOptions options;
  options.net.shape = topo::parse_shape("2x2x2");
  options.msg_bytes = 32;
  options.wall_timeout_ms = 60'000.0;  // generous: the job must NOT time out
  sweep.add(coll::StrategyKind::kAdaptiveRandom, options);
  SweepOptions sweep_options;
  sweep_options.jobs = 1;
  sweep_options.timeout_ms = 0.001;  // would kill the job if it applied
  const auto results = sweep.run(sweep_options);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].run.drained);
  EXPECT_FALSE(results[0].run.timed_out);
}

}  // namespace
}  // namespace bgl::harness
