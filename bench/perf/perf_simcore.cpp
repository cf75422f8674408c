// perf_simcore: the simulator benchmark. Each invocation runs ONE named workload in its
// own process, so no workload inherits another's warmed caches or heap:
//
//   perf_simcore --workload NAME [--seed S] [--seconds T] [--repeats R]
//                [--trace 0|1] [--out FILE] [--shape S] [--bytes B]
//
// It runs one untimed warm-up, then timed repetitions until at least R reps
// and T seconds are done, checks every rep, and prints per metric the median,
// quartiles, extremes and sample count. The last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}; --out appends the full
// report (config, host fingerprint, quantiles and every span) as one JSON
// line to FILE. Exit 0 when every check passed, 1 when one failed, 2 on a bad
// command line. --shape / --bytes are smoke overrides; the report stamps them.
//
// Why each workload exists (the host time it stresses, and what it bypasses):
//   ar_sym_clean       8x8x8, 240 B, AR, 4 slab threads, healthy. Work is the
//                      event wheel, router arbitration, the schedule executor
//                      and the slab barrier. The reliability wrapper, fault
//                      draws and hop observer are bypassed, so an optimisation
//                      of those must show no change here. The reference point.
//   ar_sym_faulted     7x7x7 AR with 2 % dead links, per-hop drops and
//                      payload corruption: every packet goes through the
//                      reliability wrapper (sequence numbers, acks, checksums,
//                      retransmits, duplicate and corruption rejection) and AR
//                      reroutes around the dead links. Its ns/event gap to
//                      ar_sym_clean is the reliability and fault cost. It
//                      ignores --seed: which packets are lost and when sets a
//                      retransmit-timeout tail that moves pct_peak between
//                      seeds by up to a quarter, so the net seed and the fault
//                      seed are pinned. 7x7x7 rather than 8x8x8 keeps a rep
//                      under a second, so a run holds enough reps for a steady
//                      median on a slow host.
//   tps_asym_observed  4x8x16 asymmetric torus under TPS (the paper's §4.1
//                      relay path) with a bench-owned per-link grant counter
//                      attached, so the barrier-time observer replay is on the
//                      hot path. An observer-scaling fix shows here only.
//   synth_faulted      A beam search on a 4x4x8, 64 B problem with dead links:
//                      many short 1-thread simulations, each gated by lint,
//                      scored on 4 pool workers. Per-run fixed cost (fabric
//                      construction, builders, lint, matrices) weighs heavily,
//                      so work moved into set-up, or a change that helps only
//                      long runs, shows as a loss here. It ignores --seed: any
//                      seed changes the search's path, and with it the number
//                      and mix of candidates, so its cost would differ by tens
//                      of percent between seeds.
//
// Every layer is timed from outside through its public function, each call in
// its own span: FaultPlan and build_schedule (plan), schedule_lint (lint),
// run_schedule (simulate), DeliveryMatrix::complete_reachable on a bench-owned
// matrix (verify), synthesize and build_genome_schedule (synth). End-to-end
// metrics come from an untraced run; their host times are scaled to a
// reference host speed by a probe run between reps (HostProbe, and the
// reason at kProbeReferenceS). --trace 1 alternates untraced and traced
// reps (the traced ones also count heap allocations and CPU time), reports
// the per-layer metrics of the traced reps and their overhead against the
// untraced ones, and runs two extra probes: the schedule at 1 slab thread and
// with the grant observer toggled. See bench/perf/README.md for every metric.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/perf/heap.hpp"
#include "bench/perf/json.hpp"
#include "bench/perf/span.hpp"
#include "bench/perf/stats.hpp"
#include "src/coll/alltoall.hpp"
#include "src/coll/registry.hpp"
#include "src/coll/schedule_lint.hpp"
#include "src/coll/synth.hpp"
#include "src/network/faults.hpp"
#include "src/util/cli.hpp"
#include "src/util/shape_arg.hpp"

namespace {

using namespace bgl;

struct Workload {
  const char* name;
  const char* shape;
  std::uint64_t bytes;
  coll::StrategyKind strategy;  // unused by the search workload
  const char* faults;           // fault spec without its seed; "" = healthy
  int sim_threads;              // slab threads per simulation
  bool observed;                // per-link grant counter attached
  bool synth;                   // beam search instead of one collective
  bool seeded;                  // --seed drives the net, fault and search seeds
  int repeats;                  // default minimum of timed reps
};

constexpr Workload kWorkloads[] = {
    {"ar_sym_clean", "8x8x8", 240, coll::StrategyKind::kAdaptiveRandom, "", 4, false,
     false, true, 15},
    {"ar_sym_faulted", "7x7x7", 240, coll::StrategyKind::kAdaptiveRandom,
     "link:0.02,drop:1e-4,corrupt:5e-5", 4, false, false, false, 9},
    {"tps_asym_observed", "4x8x16", 240, coll::StrategyKind::kTwoPhase, "", 4, true, false,
     true, 9},
    {"synth_faulted", "4x4x8", 64, coll::StrategyKind::kBest, "link:0.02", 1, false, true,
     false, 9},
};

// Seed of the workloads that do not take --seed.
constexpr std::uint64_t kPinnedSeed = 1;

// Search budget of synth_faulted; the pool's 4 workers x 1 slab thread keep
// the process at 4 threads like the simulation workloads.
constexpr int kSynthBeam = 4;
constexpr int kSynthGenerations = 3;
constexpr int kSynthMutations = 4;
constexpr int kSynthJobs = 4;

// One set-up call takes about a millisecond, so each setup_s sample is the
// mean of kSetupCalls calls; one sample is taken before every rep.
constexpr int kSetupCalls = 20;

// Timed reps stop here even when --repeats is not reached, so a run on a slow
// host still ends well inside a 180 s budget.
constexpr double kMaxMeasureSeconds = 120.0;

// Host-speed probe (HostProbe). On the shared 4-vCPU VM these numbers come
// from, the host's speed drifted between runs minutes apart: over ten runs
// the probe's median moved by 18 % (q3 - q1 over the median), and rep walls
// moved with it. So each rep's and set-up sample's wall time is scaled by
// kProbeReferenceS over the mean of the probes taken just before and just
// after it. The end-to-end times then read as seconds on that VM at the
// probe's reference speed. On ar_sym_clean that cut the spread of the run
// time between runs from 13-21 % to 3-4 %; bench/perf/README.md has the
// other workloads and the cases the probe does not cover.
constexpr std::size_t kProbeWords = std::size_t{1} << 18;  // 2 MiB per CPU
constexpr int kProbeSteps = 1 << 21;
constexpr double kProbeReferenceS = 0.03;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0;  // ru_maxrss is KiB
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
  }
  return "unknown";
}

#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

/// CPUs this process may run on; empty when the set cannot be read.
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Pins the calling thread to one CPU for its lifetime, then restores the
/// thread's previous CPU set (threads started later inherit the restored
/// set). A CPU that cannot be pinned leaves the thread where it was.
class PinnedTo {
 public:
  explicit PinnedTo(int cpu) {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  PinnedTo(const PinnedTo&) = delete;
  PinnedTo& operator=(const PinnedTo&) = delete;
  ~PinnedTo() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// Host-speed probe: a fixed kernel that uses none of the simulator's code,
/// pseudo-random read-modify-writes over a 2 MiB table, run on every allowed
/// CPU at once with one pinned thread each. Its time moves only with the
/// host's speed. The tables are allocated and touched once, so they add a
/// constant bytes() to the process's resident set.
class HostProbe {
 public:
  explicit HostProbe(std::vector<int> cpus)
      : cpus_(std::move(cpus)),
        tables_(std::max<std::size_t>(1, cpus_.size()),
                std::vector<std::uint64_t>(kProbeWords, 1)) {}

  /// Seconds of one kernel, averaged over the CPUs.
  double seconds() {
    std::vector<double> seconds(tables_.size(), 0.0);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < tables_.size(); ++i) {
      threads.emplace_back([this, &seconds, i] {
        std::optional<PinnedTo> pin;
        if (!cpus_.empty()) pin.emplace(cpus_[i]);
        std::vector<std::uint64_t>& table = tables_[i];
        const auto start = std::chrono::steady_clock::now();
        std::uint64_t x = 0x9e3779b97f4a7c15ULL + i;
        for (int step = 0; step < kProbeSteps; ++step) {
          const std::size_t at = static_cast<std::size_t>(x >> 40) & (kProbeWords - 1);
          x = x * 6364136223846793005ULL + table[at];
          table[at] ^= x;
        }
        seconds[i] = seconds_since(start);
      });
    }
    for (std::thread& t : threads) t.join();
    double mean = 0.0;
    for (const double v : seconds) mean += v / static_cast<double>(seconds.size());
    return mean;
  }

  double bytes() const {
    return static_cast<double>(tables_.size() * kProbeWords * sizeof(std::uint64_t));
  }

 private:
  std::vector<int> cpus_;
  std::vector<std::vector<std::uint64_t>> tables_;
};

/// Order-insensitive per-link grant counter, the kind of accumulator a link
/// heatmap is. The fabric calls it serially (replayed at slab barriers).
class GrantProbe {
 public:
  explicit GrantProbe(const topo::Shape& shape)
      : directions_(shape.directions()),
        per_link_(static_cast<std::size_t>(shape.nodes() * shape.directions()), 0) {}
  GrantProbe(const GrantProbe&) = delete;
  GrantProbe& operator=(const GrantProbe&) = delete;

  net::Fabric::HopObserver observer() {
    return [this](const net::Packet&, topo::Rank node, int dir, int) {
      ++per_link_[static_cast<std::size_t>(node * directions_ + dir)];
    };
  }
  void reset() { std::fill(per_link_.begin(), per_link_.end(), 0); }
  std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (const std::uint64_t n : per_link_) sum += n;
    return sum;
  }

 private:
  int directions_;
  std::vector<std::uint64_t> per_link_;
};

/// One schedule taken through plan -> build -> lint -> simulate -> verify.
struct Scored {
  coll::RunResult run;
  coll::LintReport lint;
  bool complete = false;
  double simulate_s = 0.0;
  double cpu_s = 0.0;
  perf::heap::Snapshot heap{};
  std::uint64_t grants = 0;
};

/// The delivery contract every run must meet; "" when it holds.
std::string contract_error(const coll::RunResult& r, bool complete) {
  if (!r.drained || r.timed_out) return "did not drain";
  if (!complete) return "a reachable pair is not delivered exactly once";
  if (r.faults.corrupted_payloads != r.reliability.corrupt_rejected) {
    return "corrupted payloads " + std::to_string(r.faults.corrupted_payloads) +
           " != rejected " + std::to_string(r.reliability.corrupt_rejected);
  }
  if (r.abandoned_pairs != 0) {
    return std::to_string(r.abandoned_pairs) + " pairs abandoned";
  }
  return "";
}

std::string check(const Scored& s) {
  if (!s.lint.ok()) return "lint: " + s.lint.to_string();
  return contract_error(s.run, s.complete);
}

/// "" when two runs simulated the same thing: cycles, events, packets, bytes.
std::string mismatch(const coll::RunResult& got, const coll::RunResult& want) {
  const auto field = [](const char* what, std::uint64_t a, std::uint64_t b) {
    return std::string(what) + " " + std::to_string(a) + " != " + std::to_string(b);
  };
  if (got.elapsed_cycles != want.elapsed_cycles) {
    return field("cycles", got.elapsed_cycles, want.elapsed_cycles);
  }
  if (got.events != want.events) return field("events", got.events, want.events);
  if (got.packets_delivered != want.packets_delivered) {
    return field("packets", got.packets_delivered, want.packets_delivered);
  }
  if (got.payload_bytes != want.payload_bytes) {
    return field("payload bytes", got.payload_bytes, want.payload_bytes);
  }
  return "";
}

/// Named samples in first-seen order.
class Metrics {
 public:
  struct Entry {
    std::string name;
    std::string unit;
    std::vector<double> samples;
  };

  void add(const std::string& name, const char* unit, double value) {
    for (Entry& e : entries_) {
      if (e.name == name) {
        e.samples.push_back(value);
        return;
      }
    }
    entries_.push_back({name, unit, {value}});
  }
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

struct Rep {
  bool traced = false;
  int span = -1;  // the rep's span id
  Scored scored;  // the schedule under test: the strategy, or the search winner
  coll::synth::SynthResult search;  // search workload only
};

class Bench {
 public:
  Bench(const Workload& w, topo::Shape shape, std::uint64_t bytes, std::uint64_t seed,
        bool trace)
      : w_(w),
        seed_(w.seeded ? seed : kPinnedSeed),
        trace_(trace),
        probe_(shape),
        cpus_(allowed_cpus()),
        host_(cpus_) {
    options_.msg_bytes = bytes;
    options_.net.shape = shape;
    options_.net.seed = seed_;
    options_.net.sim_threads = w.sim_threads;
    if (w.faults[0] != '\0') {
      options_.net.faults = net::parse_fault_spec(w.faults);
      options_.net.faults.seed = seed_;
    }
    label_ = w.synth ? "synth" : coll::strategy_name(w.strategy);
  }

  void run(int min_reps, double seconds) {
    warm_up();
    const auto start = std::chrono::steady_clock::now();
    probe_s_.push_back(host_.seconds());
    // Traced runs alternate untraced and traced reps, so both halves see the
    // same host conditions and their difference is the tracing overhead.
    for (int done = 0; (done < min_reps || seconds_since(start) < seconds) &&
                       seconds_since(start) < kMaxMeasureSeconds;
         ++done) {
      setup_sample();
      rep(trace_ && done % 2 == 1);
      probe_s_.push_back(host_.seconds());
    }
    measured_s_ = seconds_since(start);
    if (trace_) probes();
  }

  /// --trace 0: the end-to-end metrics; --trace 1: the per-layer metrics.
  Metrics metrics() const { return trace_ ? layer_metrics() : end_to_end_metrics(); }

  /// The unscaled wall times behind run_s and setup_s, and the probe's.
  Metrics wall_times() const {
    Metrics m;
    for (std::size_t i = 0; i < reps_.size(); ++i) {
      m.add("run_wall_s", "s", rec_.at(reps_[i].span).seconds());
      m.add("setup_wall_s", "s", setup_s_[i]);
    }
    for (const double s : probe_s_) m.add("probe_s", "s", s);
    return m;
  }

  std::uint64_t seed() const { return seed_; }
  int attempted() const { return attempted_; }
  int failed() const { return failed_; }
  const perf::SpanRecorder& spans() const { return rec_; }
  const coll::RunResult& reference() const { return reference_; }
  const std::string& winner() const { return winner_; }
  std::size_t reps() const { return reps_.size(); }
  double measured_s() const { return measured_s_; }

 private:
  void outcome(const std::string& what, const std::string& error) {
    ++attempted_;
    if (error.empty()) return;
    ++failed_;
    std::fprintf(stderr, "FAIL: %s: %s\n", what.c_str(), error.c_str());
  }

  coll::synth::SynthOptions synth_options() const {
    coll::synth::SynthOptions so;
    so.net = options_.net;
    so.msg_bytes = options_.msg_bytes;
    so.seed = seed_;
    so.beam_width = kSynthBeam;
    so.generations = kSynthGenerations;
    so.mutations_per_survivor = kSynthMutations;
    so.jobs = kSynthJobs;
    so.sim_threads = w_.sim_threads;
    return so;
  }

  /// The schedule under test: the workload's strategy, or the search winner.
  coll::CommSchedule build(const coll::AlltoallOptions& options,
                           const net::FaultPlan* faults) const {
    if (w_.synth) {
      return coll::synth::build_genome_schedule(genome_, options.net, options.msg_bytes,
                                                faults);
    }
    return coll::build_schedule(w_.strategy, options.net, options.msg_bytes, options, faults);
  }

  /// Takes the schedule under test through the layers in order, each in a
  /// span under the span open now. With `traced` the simulate step also
  /// counts heap allocations and process CPU time.
  Scored score(coll::AlltoallOptions options, bool traced, GrantProbe* probe) {
    Scored out;
    std::optional<net::FaultPlan> plan;
    {
      auto span = rec_.open("fault_plan");
      plan.emplace(options.net, options.net.shape);
    }
    const net::FaultPlan* faults = plan->enabled() ? &*plan : nullptr;
    coll::CommSchedule schedule;
    {
      auto span = rec_.open("build");
      schedule = build(options, faults);
    }
    {
      auto span = rec_.open("lint");
      out.lint = coll::schedule_lint(schedule, faults);
      span.count("transfers", static_cast<double>(out.lint.transfers));
    }
    coll::DeliveryMatrix matrix(static_cast<std::int32_t>(options.net.shape.nodes()));
    options.deliveries = &matrix;
    if (probe != nullptr) {
      probe->reset();
      options.hop_observer = probe->observer();
    }
    {
      auto span = rec_.open("simulate");
      const perf::heap::Snapshot heap0 = perf::heap::snapshot();
      const double cpu0 = traced ? cpu_seconds() : 0.0;
      perf::heap::counting.store(traced, std::memory_order_relaxed);
      const auto start = std::chrono::steady_clock::now();
      out.run = coll::run_schedule(std::move(schedule), options, label_);
      out.simulate_s = seconds_since(start);
      perf::heap::counting.store(false, std::memory_order_relaxed);
      if (traced) out.cpu_s = cpu_seconds() - cpu0;
      const perf::heap::Snapshot heap1 = perf::heap::snapshot();
      out.heap = {heap1.allocations - heap0.allocations, heap1.bytes - heap0.bytes};
      span.count("events", static_cast<double>(out.run.events));
      span.count("packets", static_cast<double>(out.run.packets_delivered));
    }
    if (probe != nullptr) out.grants = probe->total();
    {
      auto span = rec_.open("verify");
      out.complete = matrix.complete_reachable(options.msg_bytes, out.run.reachable);
    }
    return out;
  }

  GrantProbe* own_probe() { return w_.observed ? &probe_ : nullptr; }

  // Untimed: pays first-touch and lazy set-up costs, and fixes the reference
  // every timed rep must reproduce exactly.
  void warm_up() {
    auto span = rec_.open("warm_up");
    if (w_.synth) {
      const coll::synth::SynthResult result = coll::synth::synthesize(synth_options());
      genome_ = result.best.genome;
      winner_ = genome_.key();
      winner_cycles_ = result.best.cycles;
      const Scored s = score(options_, false, nullptr);
      reference_ = s.run;
      std::string error = check(s);
      if (error.empty() && s.run.elapsed_cycles != winner_cycles_) {
        error = "winner re-run took " + std::to_string(s.run.elapsed_cycles) +
                " cycles, the search scored " + std::to_string(winner_cycles_);
      }
      outcome("warm-up winner " + winner_, error);
      return;
    }
    coll::AlltoallOptions options = options_;
    options.verify = true;
    if (GrantProbe* probe = own_probe()) options.hop_observer = probe->observer();
    reference_ = coll::run_alltoall(w_.strategy, options);
    reference_grants_ = probe_.total();
    outcome("warm-up run_alltoall", contract_error(reference_, reference_.reachable_complete));
  }

  // One setup_s sample: the mean of kSetupCalls FaultPlan + schedule builds.
  // Successive calls are pinned to successive CPUs: on a shared host the
  // vCPUs run at speeds up to 2x apart that change over seconds, so calls
  // left on one CPU would measure that CPU.
  void setup_sample() {
    auto span = rec_.open("setup");
    std::int64_t sink = 0;
    double total_s = 0.0;
    for (int call = 0; call < kSetupCalls; ++call) {
      std::optional<PinnedTo> pin;
      if (!cpus_.empty()) pin.emplace(cpus_[next_cpu_++ % cpus_.size()]);
      const auto start = std::chrono::steady_clock::now();
      const net::FaultPlan plan(options_.net, options_.net.shape);
      sink += build(options_, plan.enabled() ? &plan : nullptr).nodes();
      total_s += seconds_since(start);
    }
    setup_s_.push_back(total_s / kSetupCalls);
    span.count("calls", kSetupCalls);
    span.count("nodes", static_cast<double>(sink));
  }

  void rep(bool traced) {
    Rep r;
    r.traced = traced;
    auto span = rec_.open(traced ? "rep_traced" : "rep");
    r.span = span.id();
    std::string error;
    if (w_.synth) {
      {
        auto search = rec_.open("search");
        r.search = coll::synth::synthesize(synth_options());
        search.count("evaluated", r.search.evaluated);
        search.count("lint_rejected", r.search.lint_rejected);
      }
      if (r.search.best.genome.key() != winner_) {
        error = "winner " + r.search.best.genome.key() + " != warm-up winner " + winner_;
      } else if (r.search.best.cycles != winner_cycles_) {
        error = "winner scored " + std::to_string(r.search.best.cycles) + " cycles, not " +
                std::to_string(winner_cycles_);
      }
    }
    r.scored = score(options_, traced, own_probe());
    if (error.empty()) error = check(r.scored);
    if (error.empty()) error = mismatch(r.scored.run, reference_);
    if (error.empty() && w_.observed && r.scored.grants != reference_grants_) {
      error = "observed " + std::to_string(r.scored.grants) + " grants, reference " +
              std::to_string(reference_grants_);
    }
    outcome(std::string(traced ? "traced rep " : "rep ") + std::to_string(reps_.size()),
            error);
    reps_.push_back(std::move(r));
  }

  // Traced-run probes of the schedule under test: the speedup of the slab
  // engine over 1 thread, and the cost of the per-link grant observer
  // (observed minus unobserved simulate wall).
  void probes() {
    auto span = rec_.open("probes");
    const double own_s = median_of(false, [](const Rep& r) { return r.scored.simulate_s; });
    if (options_.net.sim_threads > 1) {
      coll::AlltoallOptions one = options_;
      one.net.sim_threads = 1;
      auto probe_span = rec_.open("one_thread");
      // 1 thread may time credit returns differently (cycles), so only the
      // delivery contract is checked.
      const Scored s = score(one, false, own_probe());
      outcome("1-thread probe", check(s));
      speedup_vs_1t_ = own_s > 0.0 ? s.simulate_s / own_s : 0.0;
    } else {
      speedup_vs_1t_ = 1.0;
    }
    {
      auto probe_span = rec_.open("observer_toggled");
      const Scored s = score(options_, false, w_.observed ? nullptr : &probe_);
      std::string error = check(s);
      if (error.empty()) error = mismatch(s.run, reference_);
      outcome("observer probe", error);
      observer_cost_s_ = w_.observed ? own_s - s.simulate_s : s.simulate_s - own_s;
      observer_grants_ = w_.observed ? reference_grants_ : s.grants;
    }
  }

  template <typename Fn>
  double median_of(bool traced, Fn&& fn) const {
    std::vector<double> values;
    for (const Rep& r : reps_) {
      if (r.traced == traced) values.push_back(fn(r));
    }
    return perf::summarize(std::move(values)).median;
  }

  /// Reference over measured host speed around rep i (and its set-up sample).
  double host_scale(std::size_t i) const {
    return kProbeReferenceS / (0.5 * (probe_s_[i] + probe_s_[i + 1]));
  }

  Metrics end_to_end_metrics() const {
    Metrics m;
    for (std::size_t i = 0; i < reps_.size(); ++i) {
      const double scale = host_scale(i);
      m.add("run_s", "s", rec_.at(reps_[i].span).seconds() * scale);
      m.add("pct_peak", "%", reps_[i].scored.run.percent_peak);
      m.add("setup_s", "s", setup_s_[i] * scale);
    }
    m.add("peak_rss_mb", "MB", (peak_rss_bytes() - host_.bytes()) / 1e6);
    return m;
  }

  Metrics layer_metrics() const {
    const auto ratio = [](double num, double den) { return den != 0.0 ? num / den : 0.0; };
    const auto wall = [this](const Rep& r) { return rec_.at(r.span).seconds(); };
    Metrics m;
    m.add("trace.overhead_frac", "ratio", ratio(median_of(true, wall), median_of(false, wall)) - 1.0);
    for (const Rep& r : reps_) {
      if (!r.traced) continue;
      const Scored& s = r.scored;
      const coll::RunResult& run = s.run;
      const double packets = static_cast<double>(run.packets_delivered);
      const double events = static_cast<double>(run.events);
      const double build_s = rec_.child_seconds(r.span, "build");
      const double lint_s = rec_.child_seconds(r.span, "lint");

      m.add("plan.fault_plan_s", "s", rec_.child_seconds(r.span, "fault_plan"));
      m.add("plan.build_s", "s", build_s);
      m.add("lint.s", "s", lint_s);
      m.add("lint.transfers", "count", static_cast<double>(s.lint.transfers));

      m.add("sim.s", "s", s.simulate_s);
      m.add("sim.packets_per_s", "pkt/s", ratio(packets, s.simulate_s));
      m.add("sim.events", "count", events);
      m.add("sim.events_per_packet", "ratio", ratio(events, packets));
      m.add("sim.ns_per_event", "ns", ratio(1e9 * s.simulate_s, events));
      m.add("sim.threads_used", "count", run.sim_threads);
      m.add("sim.cpu_util", "ratio", ratio(s.cpu_s, s.simulate_s));

      m.add("links.util_mean", "ratio", run.links.overall_mean);
      m.add("links.util_max", "ratio", run.links.overall_max);
      for (int axis = 0; axis < topo::kMaxAxes; ++axis) {
        m.add("links.util_axis" + std::to_string(axis), "ratio",
              run.links.axis[static_cast<std::size_t>(axis)].mean);
      }

      const net::FaultStats& f = run.faults;
      m.add("faults.dropped_prob", "count", static_cast<double>(f.dropped_prob));
      m.add("faults.dropped_in_flight", "count", static_cast<double>(f.dropped_in_flight));
      m.add("faults.dropped_stuck", "count", static_cast<double>(f.dropped_stuck));
      m.add("faults.corrupted", "count", static_cast<double>(f.corrupted_payloads));
      m.add("faults.reroute_vetoes", "count", static_cast<double>(f.reroute_vetoes));
      m.add("faults.unroutable", "count", static_cast<double>(f.unroutable_at_injection));

      const rt::ReliabilityStats& rel = run.reliability;
      m.add("rel.data_sequenced", "count", static_cast<double>(rel.data_sequenced));
      m.add("rel.retransmits", "count", static_cast<double>(rel.retransmits));
      m.add("rel.acks_standalone", "count", static_cast<double>(rel.acks_standalone));
      m.add("rel.acks_piggybacked", "count", static_cast<double>(rel.acks_piggybacked));
      m.add("rel.duplicates_dropped", "count", static_cast<double>(rel.duplicates_dropped));
      m.add("rel.corrupt_rejected", "count", static_cast<double>(rel.corrupt_rejected));
      m.add("rel.overhead_ratio", "ratio",
            ratio(static_cast<double>(rel.retransmits + rel.acks_standalone +
                                      rel.duplicates_dropped),
                  static_cast<double>(rel.data_sequenced)));

      m.add("alloc.per_packet", "count", ratio(static_cast<double>(s.heap.allocations), packets));
      m.add("alloc.bytes_per_packet", "B", ratio(static_cast<double>(s.heap.bytes), packets));

      m.add("verify.s", "s", rec_.child_seconds(r.span, "verify"));
      const double nodes = static_cast<double>(options_.net.shape.nodes());
      m.add("verify.matrix_mb", "MB", nodes * nodes * 8.0 / 1e6);

      // Zero where the search is bypassed (the simulation workloads).
      const coll::synth::SynthResult& sr = r.search;
      const bool searched = w_.synth;
      m.add("synth.evaluated", "count", searched ? sr.evaluated : 0);
      m.add("synth.lint_rejected", "count", searched ? sr.lint_rejected : 0);
      // synthesize() also scores every registry strategy for its baseline.
      const double candidates =
          sr.evaluated + static_cast<double>(coll::strategy_registry().size());
      m.add("synth.candidates_per_s", "1/s",
            searched ? ratio(candidates, rec_.child_seconds(r.span, "search")) : 0.0);
      m.add("synth.winner_cycles", "cycles",
            searched ? static_cast<double>(sr.best.cycles) : 0.0);
      m.add("synth.gain_vs_baseline", "ratio",
            searched ? ratio(static_cast<double>(sr.baseline_cycles),
                             static_cast<double>(sr.best.cycles)) -
                           1.0
                     : 0.0);
      m.add("synth.winner_setup_share", "ratio",
            searched ? ratio(build_s + lint_s, build_s + lint_s + s.simulate_s) : 0.0);
    }
    m.add("observer.grants", "count", static_cast<double>(observer_grants_));
    m.add("observer.cost_s", "s", observer_cost_s_);
    m.add("slab.speedup_vs_1t", "x", speedup_vs_1t_);
    return m;
  }

  const Workload& w_;
  std::uint64_t seed_;
  bool trace_;
  coll::AlltoallOptions options_;
  std::string label_;
  GrantProbe probe_;
  perf::SpanRecorder rec_;
  std::vector<int> cpus_;
  std::size_t next_cpu_ = 0;
  HostProbe host_;

  coll::RunResult reference_;
  std::uint64_t reference_grants_ = 0;
  coll::synth::Genome genome_{};
  std::string winner_;
  std::uint64_t winner_cycles_ = 0;

  std::vector<double> setup_s_;
  std::vector<double> probe_s_;  // one before the first rep, one after each
  std::vector<Rep> reps_;
  double measured_s_ = 0.0;
  double speedup_vs_1t_ = 0.0;
  double observer_cost_s_ = 0.0;
  std::uint64_t observer_grants_ = 0;
  int attempted_ = 0;
  int failed_ = 0;
};

int usage_error(const std::string& program, const std::string& message) {
  std::fprintf(stderr, "%s: error: %s\n", program.c_str(), message.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  cli.describe("workload", "ar_sym_clean | ar_sym_faulted | tps_asym_observed | synth_faulted");
  cli.describe("seed", "net seed, fault-plan seed and search seed (default 1)");
  cli.describe("seconds", "measure for at least this long (default 0)");
  cli.describe("repeats", "at least this many timed reps (default per workload)");
  cli.describe("trace", "1 = report per-layer metrics from traced reps (default 0)");
  cli.describe("out", "append the full JSON report as one line to this file");
  cli.describe("shape", "smoke override of the workload's partition (stamps overridden)");
  cli.describe("bytes", "smoke override of the payload per destination (stamps overridden)");

  const Workload* workload = nullptr;
  topo::Shape shape{};
  std::uint64_t bytes = 0;
  std::uint64_t seed = 1;
  int repeats = 0;
  double seconds = 0.0;
  bool trace = false;
  try {
    cli.validate();
    const std::string name = cli.get("workload", "");
    for (const Workload& w : kWorkloads) {
      if (name == w.name) workload = &w;
    }
    if (workload == nullptr) {
      return usage_error(cli.program(), "unknown --workload '" + name + "'");
    }
    shape = util::shape_arg_or_exit(cli.get("shape", workload->shape), cli.program());
    const std::int64_t b = cli.get_int("bytes", static_cast<std::int64_t>(workload->bytes));
    const std::int64_t s = cli.get_int("seed", 1);
    const std::int64_t r = cli.get_int("repeats", workload->repeats);
    const std::int64_t t = cli.get_int("trace", 0);
    seconds = cli.get_double("seconds", 0.0);
    if (b < 1) return usage_error(cli.program(), "--bytes must be at least 1");
    if (s < 0) return usage_error(cli.program(), "--seed must not be negative");
    if (r < 1 || r > 10000) return usage_error(cli.program(), "--repeats must be 1..10000");
    if (t != 0 && t != 1) return usage_error(cli.program(), "--trace must be 0 or 1");
    if (!(seconds >= 0.0 && seconds <= kMaxMeasureSeconds)) {
      return usage_error(cli.program(), "--seconds must be 0..120");
    }
    bytes = static_cast<std::uint64_t>(b);
    seed = static_cast<std::uint64_t>(s);
    repeats = static_cast<int>(r);
    trace = t == 1;
    // Both halves of a traced run need samples.
    if (trace) repeats = std::max(repeats, 4);
  } catch (const std::exception& error) {
    return usage_error(cli.program(), error.what());
  }
  const bool overridden = cli.has("shape") || cli.has("bytes");

  try {
    Bench bench(*workload, shape, bytes, seed, trace);
    bench.run(repeats, seconds);
    const coll::RunResult& ref = bench.reference();
    const bool correct = bench.failed() == 0;
    const Metrics metrics = bench.metrics();
    const std::string compiler = __VERSION__;
    const std::string cpu = cpu_model();
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    const int jobs = workload->synth ? kSynthJobs : 1;
    const std::string strategy =
        workload->synth ? "beam search" : coll::strategy_name(workload->strategy);

    std::printf("# workload %s: %s, %llu B, %s, faults \"%s\", %d job(s) x sim_threads %d%s%s\n",
                workload->name, shape.to_string().c_str(),
                static_cast<unsigned long long>(bytes), strategy.c_str(), workload->faults, jobs,
                workload->sim_threads, workload->observed ? ", grant observer" : "",
                overridden ? ", OVERRIDDEN" : "");
    std::printf("# host: nproc %u, cpu \"%s\", compiler %s, NDEBUG %d, seed %llu, "
                "threads used %d (%s)\n",
                nproc, cpu.c_str(), compiler.c_str(), kNdebug ? 1 : 0,
                static_cast<unsigned long long>(bench.seed()), ref.sim_threads,
                net::to_string(ref.sim_threads_reason));
    std::printf("# reference: %llu cycles, %llu events, %llu packets, %.2f %% of peak%s%s\n",
                static_cast<unsigned long long>(ref.elapsed_cycles),
                static_cast<unsigned long long>(ref.events),
                static_cast<unsigned long long>(ref.packets_delivered), ref.percent_peak,
                bench.winner().empty() ? "" : ", winner ", bench.winner().c_str());
    std::printf("# %zu timed reps in %.2f s after one warm-up%s; %d checked, %d failed\n",
                bench.reps(), bench.measured_s(), trace ? " (alternating traced)" : "",
                bench.attempted(), bench.failed());
    const Metrics walls = bench.wall_times();
    std::printf("%-28s %-7s %14s %14s %14s %14s %14s %4s\n", "metric", "unit", "median", "q1",
                "q3", "min", "max", "n");
    for (const Metrics* table : {&metrics, &walls}) {
      if (table == &walls) std::printf("# unscaled wall times and the host probe:\n");
      for (const Metrics::Entry& e : table->entries()) {
        const perf::Summary s = perf::summarize(e.samples);
        std::printf("%-28s %-7s %14.6g %14.6g %14.6g %14.6g %14.6g %4zu\n", e.name.c_str(),
                    e.unit.c_str(), s.median, s.q1, s.q3, s.min, s.max, s.n);
      }
    }

    if (cli.has("out")) {
      perf::JsonWriter report;
      report.begin_object();
      report.key("workload").value(workload->name);
      report.key("config").begin_object();
      report.key("shape").value(shape.to_string());
      report.key("bytes").value(bytes);
      report.key("strategy").value(strategy);
      report.key("faults").value(workload->faults);
      report.key("jobs").value(jobs);
      report.key("sim_threads").value(workload->sim_threads);
      report.key("observed").value(workload->observed);
      report.key("seed").value(bench.seed());
      report.key("overridden").value(overridden);
      report.key("trace").value(trace);
      report.end_object();
      report.key("host").begin_object();
      report.key("nproc").value(static_cast<int>(nproc));
      report.key("cpu").value(cpu);
      report.key("compiler").value(compiler);
      report.key("ndebug").value(kNdebug);
      report.key("sim_threads_used").value(ref.sim_threads);
      report.key("sim_threads_reason").value(net::to_string(ref.sim_threads_reason));
      report.end_object();
      // The reference run's simulated outcome; every rep reproduced it, and
      // for a fixed config it does not depend on the host. compare.py
      // requires it to be identical.
      report.key("simulated").begin_object();
      report.key("cycles").value(ref.elapsed_cycles);
      report.key("events").value(ref.events);
      report.key("packets").value(ref.packets_delivered);
      report.key("payload_bytes").value(ref.payload_bytes);
      report.key("pct_peak").value(ref.percent_peak);
      report.key("winner").value(bench.winner());
      report.key("dropped_prob").value(ref.faults.dropped_prob);
      report.key("dropped_in_flight").value(ref.faults.dropped_in_flight);
      report.key("dropped_stuck").value(ref.faults.dropped_stuck);
      report.key("corrupted").value(ref.faults.corrupted_payloads);
      report.key("reroute_vetoes").value(ref.faults.reroute_vetoes);
      report.key("retransmits").value(ref.reliability.retransmits);
      report.key("duplicates_dropped").value(ref.reliability.duplicates_dropped);
      report.key("corrupt_rejected").value(ref.reliability.corrupt_rejected);
      report.end_object();
      report.key("correct").value(correct);
      report.key("attempted").value(bench.attempted());
      report.key("failed").value(bench.failed());
      for (const Metrics* table : {&metrics, &walls}) {
        report.key(table == &metrics ? "metrics" : "wall_times").begin_object();
        for (const Metrics::Entry& e : table->entries()) {
          const perf::Summary s = perf::summarize(e.samples);
          report.key(e.name).begin_object();
          report.key("unit").value(e.unit);
          report.key("median").value(s.median);
          report.key("q1").value(s.q1);
          report.key("q3").value(s.q3);
          report.key("min").value(s.min);
          report.key("max").value(s.max);
          report.key("n").value(static_cast<std::uint64_t>(s.n));
          report.end_object();
        }
        report.end_object();
      }
      report.key("spans");
      bench.spans().write(report);
      report.end_object();
      const std::string path = cli.get("out", "");
      std::ofstream out(path, std::ios::app);
      out << report.str() << '\n';
      if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
        return 1;
      }
    }

    perf::JsonWriter result;
    result.begin_object();
    result.key("correct").value(correct);
    result.key("attempted").value(bench.attempted());
    result.key("failed").value(bench.failed());
    result.key("metrics").begin_object();
    for (const Metrics::Entry& e : metrics.entries()) {
      result.key(e.name).begin_object();
      result.key("value").value(perf::summarize(e.samples).median);
      result.key("unit").value(e.unit);
      result.end_object();
    }
    result.end_object();
    result.end_object();
    std::printf("%s\n", result.str().c_str());
    return correct ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
