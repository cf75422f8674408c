#include "src/coll/synth.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/coll/direct.hpp"
#include "src/coll/registry.hpp"
#include "src/coll/schedule_lint.hpp"
#include "src/coll/tps.hpp"
#include "src/coll/vmesh.hpp"
#include "src/harness/runner.hpp"
#include "src/runtime/packetizer.hpp"
#include "src/util/rng.hpp"

namespace bgl::coll::synth {

namespace {

constexpr std::uint64_t kNoScore = ~std::uint64_t{0};

// --- genome encoding --------------------------------------------------------

const char* family_code(GenomeFamily family) {
  switch (family) {
    case GenomeFamily::kDirect: return "D";
    case GenomeFamily::kRelay: return "R";
    case GenomeFamily::kCombine2D: return "C2";
    case GenomeFamily::kCombine3D: return "C3";
  }
  return "?";
}

bool parse_field(const std::string& text, std::size_t& pos, char tag,
                 std::uint64_t& value, bool last) {
  if (pos >= text.size() || text[pos] != tag) return false;
  ++pos;
  const std::size_t end = last ? text.size() : text.find(',', pos);
  if (end == std::string::npos || end == pos) return false;
  std::uint64_t v = 0;
  for (std::size_t i = pos; i < end; ++i) {
    if (text[i] < '0' || text[i] > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(text[i] - '0');
  }
  value = v;
  pos = end + (last ? 0 : 1);
  return true;
}

}  // namespace

std::string Genome::key() const {
  std::string out = family_code(family);
  out += ':';
  const auto num = [](std::uint64_t v) { return std::to_string(v); };
  switch (family) {
    case GenomeFamily::kDirect:
      out += "m" + num(static_cast<std::uint64_t>(mode)) + ",o" +
             num(static_cast<std::uint64_t>(order)) + ",b" +
             num(static_cast<std::uint64_t>(burst)) + ",s" + num(salt);
      break;
    case GenomeFamily::kRelay:
      out += "a" + num(static_cast<std::uint64_t>(relay_axis)) + ",f" +
             num(static_cast<std::uint64_t>(fifo_split)) + ",c" +
             num(static_cast<std::uint64_t>(credit_window)) + ",s" + num(salt);
      break;
    case GenomeFamily::kCombine2D:
      out += "p" + num(static_cast<std::uint64_t>(mapping)) + ",f" +
             num(static_cast<std::uint64_t>(factor_index)) + ",s" + num(salt);
      break;
    case GenomeFamily::kCombine3D:
      out += "p" + num(static_cast<std::uint64_t>(mapping)) + ",s" + num(salt);
      break;
  }
  return out;
}

bool genome_from_key(const std::string& key, Genome& out) {
  Genome g;
  std::size_t pos = key.find(':');
  if (pos == std::string::npos) return false;
  const std::string code = key.substr(0, pos);
  ++pos;
  std::uint64_t a = 0, b = 0, c = 0, s = 0;
  if (code == "D") {
    g.family = GenomeFamily::kDirect;
    if (!parse_field(key, pos, 'm', a, false) || !parse_field(key, pos, 'o', b, false) ||
        !parse_field(key, pos, 'b', c, false) || !parse_field(key, pos, 's', s, true)) {
      return false;
    }
    g.mode = static_cast<int>(a);
    g.order = static_cast<int>(b);
    g.burst = static_cast<int>(c);
  } else if (code == "R") {
    g.family = GenomeFamily::kRelay;
    if (!parse_field(key, pos, 'a', a, false) || !parse_field(key, pos, 'f', b, false) ||
        !parse_field(key, pos, 'c', c, false) || !parse_field(key, pos, 's', s, true)) {
      return false;
    }
    g.relay_axis = static_cast<int>(a);
    g.fifo_split = static_cast<int>(b);
    g.credit_window = static_cast<int>(c);
  } else if (code == "C2") {
    g.family = GenomeFamily::kCombine2D;
    if (!parse_field(key, pos, 'p', a, false) || !parse_field(key, pos, 'f', b, false) ||
        !parse_field(key, pos, 's', s, true)) {
      return false;
    }
    g.mapping = static_cast<int>(a);
    g.factor_index = static_cast<int>(b);
  } else if (code == "C3") {
    g.family = GenomeFamily::kCombine3D;
    if (!parse_field(key, pos, 'p', a, false) || !parse_field(key, pos, 's', s, true)) {
      return false;
    }
    g.mapping = static_cast<int>(a);
  } else {
    return false;
  }
  g.salt = s;
  if (g.key() != key) return false;  // reject non-canonical spellings
  out = g;
  return true;
}

std::vector<std::pair<int, int>> mesh_factor_ladder(std::int32_t nodes) {
  std::vector<std::pair<int, int>> ladder;
  const int root =
      static_cast<int>(std::ceil(std::sqrt(static_cast<double>(nodes))));
  for (int pvx = root; pvx <= nodes; ++pvx) {
    if (nodes % pvx == 0) ladder.emplace_back(pvx, nodes / pvx);
  }
  return ladder;
}

// --- genome -> CommSchedule -------------------------------------------------

namespace {

/// Salt != 0 re-seeds the builder's per-node RNG streams; salt == 0 keeps
/// them bit-identical to the registry builder for the same options.
net::NetworkConfig salted(const net::NetworkConfig& net, std::uint64_t salt) {
  net::NetworkConfig cfg = net;
  if (salt != 0) cfg.seed = harness::derive_seed(net.seed, salt);
  return cfg;
}

}  // namespace

CommSchedule build_combine3d_schedule(const net::NetworkConfig& config,
                                      std::uint64_t msg_bytes, int mapping,
                                      const net::FaultPlan* faults) {
  const auto nodes = static_cast<std::int32_t>(config.shape.nodes());
  const int axes = config.shape.axis_count();
  // Stage g moves blocks along physical axis ax[g]; the mapping permutes
  // which axis each stage walks (same encoding as the 2-D virtual mesh).
  const std::vector<int> ax =
      mesh_axis_order(static_cast<MeshMapping>(mapping % 3), axes);
  std::array<int, topo::kMaxAxes> v{1, 1, 1, 1};
  for (int i = 0; i < axes; ++i) {
    v[static_cast<std::size_t>(i)] =
        config.shape.dim[static_cast<std::size_t>(ax[static_cast<std::size_t>(i)])];
  }
  // VMesh's cost constants (paper Section 4.2): the combining runtime pays
  // the message alpha per combined message and gamma per re-sorted byte.
  const VmeshTuning costs{};
  const double gamma_cycles_per_byte = costs.gamma_ns_per_byte * costs.clock_ghz;
  const double alpha = costs.alpha_msg_cycles;

  CommSchedule sched;
  sched.shape = config.shape;
  sched.torus = topo::Torus{config.shape};
  sched.msg_bytes = msg_bytes;
  sched.injection_fifos = config.injection_fifos;
  sched.form = StreamForm::kExplicit;

  const bool faulted = faults != nullptr && faults->enabled();
  const auto alive = [&](topo::Rank r) {
    return !faulted || faults->node_alive(r);
  };
  const auto leg_ok = [&](topo::Rank from, topo::Rank to) {
    if (!faulted || from == to) return true;
    return faults->pair_routable(from, to, net::RoutingMode::kAdaptive);
  };
  const auto peer_at = [&](topo::Rank n, int stage, int k) {
    topo::Coord c = sched.torus.coord_of(n);
    c[ax[static_cast<std::size_t>(stage)]] = k;
    return sched.torus.rank_of(c);
  };
  // The route of block (s -> d): relay i matches d's first i+1 mapped
  // coordinates (r1 matches ax0, r2 additionally ax1, ...), ending at d
  // after the last stage. The block finalizes at the first hop equal to d;
  // chain_ok is the one predicate ops, finalize lists and the coverage
  // mask all derive from, so lint/execution/verification agree. The linter
  // sees only the finalizing op's sender as the relay, hence the extra
  // leg_ok(s, prev) on chains of three or more legs.
  const auto chain_ok = [&](topo::Rank s, topo::Rank d) {
    if (s == d) return false;
    if (!faulted) return true;
    if (!alive(s) || !alive(d)) return false;
    topo::Coord c = sched.torus.coord_of(s);
    const topo::Coord cd = sched.torus.coord_of(d);
    topo::Rank prev = s;
    for (int stage = 0; stage < axes; ++stage) {
      const int a = ax[static_cast<std::size_t>(stage)];
      c[a] = cd[a];
      const topo::Rank next = sched.torus.rank_of(c);
      if (next == d) {
        if (prev != s && !leg_ok(s, prev)) return false;
        return leg_ok(prev, d);
      }
      if (!alive(next) || !leg_ok(prev, next)) return false;
      prev = next;
    }
    return false;  // unreachable: the last stage always lands on d
  };

  // Stage message shapes: stage 0 carries every block sharing the
  // destination's ax0 coordinate (nodes / v0 blocks), and so on.
  std::array<std::uint64_t, topo::kMaxAxes> stage_blocks{};
  for (int stage = 0; stage < axes; ++stage) {
    stage_blocks[static_cast<std::size_t>(stage)] =
        static_cast<std::uint64_t>(nodes) /
        static_cast<std::uint64_t>(v[static_cast<std::size_t>(stage)]);
  }
  for (int stage = 0; stage < axes; ++stage) {
    PhaseSpec phase;
    phase.gate = stage == 0 ? PhaseGate::kPipelined : PhaseGate::kLocalBarrier;
    phase.mode = net::RoutingMode::kAdaptive;
    phase.fifo_class = 0;
    phase.packets = rt::packetize(
        stage_blocks[static_cast<std::size_t>(stage)] * msg_bytes,
        rt::WireFormat::combining());
    phase.first_packet_extra_cycles =
        stage == 0 ? alpha + gamma_cycles_per_byte *
                                 static_cast<double>(stage_blocks[0] * msg_bytes)
                   : alpha;
    sched.phases.push_back(std::move(phase));
  }
  sched.fifo_classes.push_back(FifoClass{0, 0, FifoPolicy::kPositional, false});

  std::vector<BarrierSpec> barriers(static_cast<std::size_t>(axes - 1));
  for (int g = 0; g < axes - 1; ++g) {
    barriers[static_cast<std::size_t>(g)].phase = g + 1;
    barriers[static_cast<std::size_t>(g)].expected.resize(
        static_cast<std::size_t>(nodes));
    barriers[static_cast<std::size_t>(g)].compute_cycles.resize(
        static_cast<std::size_t>(nodes));
  }
  sched.op_begin.reserve(static_cast<std::size_t>(nodes) + 1);
  sched.op_begin.push_back(0);
  if (faulted) sched.covered = PairMask(nodes);

  util::Xoshiro256StarStar master(config.seed ^ 0xc3d17aULL);
  std::vector<topo::Rank> peers;
  std::vector<topo::Rank> origs;
  for (std::int32_t n = 0; n < nodes; ++n) {
    auto rng = master.fork();
    const topo::Coord cn = sched.torus.coord_of(n);

    // Barrier g is armed by stage-(g-1) arrivals: one op per live sender,
    // each a full stage-(g-1) message. Compute cost models the re-sort of
    // the received bytes before the next stage's combined messages go out.
    for (int g = 1; g < axes; ++g) {
      const int stage = g - 1;
      const int extent = v[static_cast<std::size_t>(stage)];
      std::uint64_t senders = 0;
      for (int k = 0; k < extent; ++k) {
        const topo::Rank peer = peer_at(n, stage, k);
        if (peer == n) continue;
        // Sender-side emission condition, mirrored: stage-0 ops exist iff
        // chain_ok (finalize-self), stage-1 ops iff the leg is routable.
        const bool sends = stage == 0 ? chain_ok(peer, n) : leg_ok(peer, n);
        if (sends) ++senders;
      }
      BarrierSpec& barrier = barriers[static_cast<std::size_t>(g - 1)];
      barrier.expected[static_cast<std::size_t>(n)] =
          senders * sched.phases[static_cast<std::size_t>(stage)].packets.size();
      barrier.compute_cycles[static_cast<std::size_t>(n)] =
          static_cast<net::Tick>(std::llround(
              gamma_cycles_per_byte *
              static_cast<double>(senders *
                                  stage_blocks[static_cast<std::size_t>(stage)] *
                                  msg_bytes)));
    }

    for (int stage = 0; stage < axes; ++stage) {
      const int extent = v[static_cast<std::size_t>(stage)];
      peers.clear();
      for (int k = 0; k < extent; ++k) {
        const topo::Rank peer = peer_at(n, stage, k);
        if (peer == n) continue;
        const bool send = stage == 0 ? chain_ok(n, peer) : leg_ok(n, peer);
        if (send) peers.push_back(peer);
      }
      rng.shuffle(peers);
      for (std::size_t i = 0; i < peers.size(); ++i) {
        SendOp op;
        op.dst = peers[i];
        op.phase = static_cast<std::uint8_t>(stage);
        op.peer_index = static_cast<std::uint16_t>(i);
        if (stage == 0) {
          op.flags = SendOp::kFinalizeSelf;
        } else {
          // Blocks this combined message completes: originals whose route
          // parks them at this node for exactly this hop — the subcube
          // spanned by the already-walked axes ax[0..stage-1] through n
          // (stage 1: n's ax0-line; stage 2: n's ax0 x ax1 plane; ...).
          op.finalize_begin = static_cast<std::int32_t>(sched.finalize_pool.size());
          origs.clear();
          {
            topo::Coord c = cn;
            std::array<int, topo::kMaxAxes> idx{};
            int total = 1;
            for (int j = 0; j < stage; ++j) total *= v[static_cast<std::size_t>(j)];
            for (int t = 0; t < total; ++t) {
              for (int j = 0; j < stage; ++j) {
                c[ax[static_cast<std::size_t>(j)]] = idx[static_cast<std::size_t>(j)];
              }
              origs.push_back(sched.torus.rank_of(c));
              for (int j = 0; j < stage; ++j) {
                auto& digit = idx[static_cast<std::size_t>(j)];
                if (++digit < v[static_cast<std::size_t>(j)]) break;
                digit = 0;
              }
            }
          }
          for (const topo::Rank orig : origs) {
            if (chain_ok(orig, peers[i])) sched.finalize_pool.push_back(orig);
          }
          op.finalize_count =
              static_cast<std::int32_t>(sched.finalize_pool.size()) -
              op.finalize_begin;
        }
        sched.ops.push_back(op);
      }
    }
    sched.op_begin.push_back(static_cast<std::uint32_t>(sched.ops.size()));
  }
  for (auto& barrier : barriers) sched.barriers.push_back(std::move(barrier));

  if (faulted) {
    for (topo::Rank s = 0; s < nodes; ++s) {
      for (topo::Rank d = 0; d < nodes; ++d) {
        if (s != d && !chain_ok(s, d)) sched.covered.set_unreachable(s, d);
      }
    }
  }
  return sched;
}

CommSchedule build_genome_schedule(const Genome& genome,
                                   const net::NetworkConfig& net,
                                   std::uint64_t msg_bytes,
                                   const net::FaultPlan* faults) {
  const net::NetworkConfig cfg = salted(net, genome.salt);
  switch (genome.family) {
    case GenomeFamily::kDirect: {
      DirectTuning tuning;
      tuning.mode = genome.mode == 0 ? net::RoutingMode::kAdaptive
                                     : net::RoutingMode::kDeterministic;
      tuning.order = genome.order == 0 ? OrderPolicy::kRandom : OrderPolicy::kRotation;
      tuning.burst = std::max(1, genome.burst);
      return build_direct_schedule(cfg, msg_bytes, tuning);
    }
    case GenomeFamily::kRelay: {
      TpsTuning tuning;
      tuning.linear_axis = genome.relay_axis;
      tuning.reserved_fifos = genome.fifo_split != 0;
      tuning.credit_window = genome.credit_window;
      CommSchedule sched = build_tps_schedule(cfg, msg_bytes, tuning);
      const int fifos = sched.injection_fifos;
      if (genome.fifo_split != 0 && genome.fifo_split != fifos / 2) {
        // Re-balance the reserved split: phase 1 keeps [0, split), phase 2
        // gets the rest (the builder's default is the even half split).
        const int split = std::clamp(genome.fifo_split, 1, fifos - 1);
        sched.fifo_classes.clear();
        sched.fifo_classes.push_back(
            FifoClass{0, split, FifoPolicy::kRoundRobin, true});
        sched.fifo_classes.push_back(
            FifoClass{split, fifos - split, FifoPolicy::kRoundRobin, true});
      }
      return sched;
    }
    case GenomeFamily::kCombine2D: {
      VmeshTuning tuning;
      tuning.mapping = static_cast<MeshMapping>(genome.mapping % 3);
      const auto ladder = mesh_factor_ladder(net.shape.nodes());
      const auto index = static_cast<std::size_t>(
          std::clamp<int>(genome.factor_index, 0,
                          static_cast<int>(ladder.size()) - 1));
      tuning.pvx = ladder[index].first;
      tuning.pvy = ladder[index].second;
      return build_vmesh_schedule(cfg, msg_bytes, tuning, faults);
    }
    case GenomeFamily::kCombine3D:
      return build_combine3d_schedule(cfg, msg_bytes, genome.mapping, faults);
  }
  throw std::invalid_argument("unknown genome family");
}

// --- search -----------------------------------------------------------------

namespace {

struct EvalOut {
  std::uint64_t cycles = kNoScore;
  bool lint_ok = false;
  bool drained = false;
};

/// Builds, lints and (when lint passes) simulates one genome. Pure function
/// of (genome, opts) — the property the memo table and any `jobs` count rely
/// on. Scoring honors opts.sim_threads: the parallel engine is deterministic
/// per (seed, N), so the winner is reproducible from the recorded budget
/// (which includes the thread count).
EvalOut evaluate_genome(const Genome& genome, const SynthOptions& opts) {
  net::NetworkConfig net = opts.net;
  net.sim_threads = std::max(1, opts.sim_threads);
  const net::FaultPlan plan(net, net.shape);
  const net::FaultPlan* faults = plan.enabled() ? &plan : nullptr;
  const bool blind_strike = faults != nullptr && net.faults.fail_at > 0;
  const net::FaultPlan* planning = blind_strike ? nullptr : faults;

  EvalOut out;
  CommSchedule sched;
  try {
    sched = build_genome_schedule(genome, net, opts.msg_bytes, planning);
  } catch (const std::exception&) {
    return out;  // unbuildable genome scores as rejected
  }
  if (!schedule_lint(sched, planning).ok()) return out;
  out.lint_ok = true;

  AlltoallOptions run_opts;
  run_opts.net = net;
  run_opts.msg_bytes = opts.msg_bytes;
  run_opts.wall_timeout_ms = opts.wall_timeout_ms;
  const RunResult r = run_schedule(std::move(sched), run_opts, genome.key());
  out.drained = r.drained && !r.timed_out;
  if (out.drained) out.cycles = r.elapsed_cycles;
  return out;
}

std::vector<Genome> seed_genomes() {
  std::vector<Genome> seeds;
  Genome direct;
  direct.family = GenomeFamily::kDirect;
  seeds.push_back(direct);
  Genome relay;
  relay.family = GenomeFamily::kRelay;
  relay.relay_axis = 0;  // deliberately not the paper's rule — the search
                         // has to rediscover the right axis on its own
  seeds.push_back(relay);
  Genome c2;
  c2.family = GenomeFamily::kCombine2D;
  seeds.push_back(c2);
  Genome c3;
  c3.family = GenomeFamily::kCombine3D;
  seeds.push_back(c3);
  return seeds;
}

Genome mutate(const Genome& base, util::Xoshiro256StarStar& rng,
              int factor_choices, int axes) {
  Genome g = base;
  switch (g.family) {
    case GenomeFamily::kDirect:
      switch (rng.below(4)) {
        case 0: g.mode ^= 1; break;
        case 1: g.order ^= 1; break;
        case 2: g.burst = 1 << rng.below(3); break;
        default: g.salt = 1 + rng.below(0xFFFF); break;
      }
      break;
    case GenomeFamily::kRelay:
      switch (rng.below(4)) {
        case 0:
          g.relay_axis = static_cast<int>(rng.below(static_cast<std::uint64_t>(axes)));
          break;
        case 1: g.fifo_split = static_cast<int>(2 * rng.below(4)); break;
        case 2: g.credit_window = static_cast<int>(16 * rng.below(3)); break;
        default: g.salt = 1 + rng.below(0xFFFF); break;
      }
      break;
    case GenomeFamily::kCombine2D:
      switch (rng.below(3)) {
        case 0: g.mapping = static_cast<int>(rng.below(3)); break;
        case 1:
          g.factor_index = static_cast<int>(
              rng.below(static_cast<std::uint64_t>(std::max(1, factor_choices))));
          break;
        default: g.salt = 1 + rng.below(0xFFFF); break;
      }
      break;
    case GenomeFamily::kCombine3D:
      if (rng.below(2) == 0) {
        g.mapping = static_cast<int>(rng.below(3));
      } else {
        g.salt = 1 + rng.below(0xFFFF);
      }
      break;
  }
  return g;
}

bool better(const Candidate& a, const Candidate& b) {
  if (a.cycles != b.cycles) return a.cycles < b.cycles;
  return a.genome.key() < b.genome.key();
}

}  // namespace

SynthResult synthesize(const SynthOptions& opts) {
  if (opts.net.shape.nodes() < 2) {
    throw std::invalid_argument("synthesize: shape needs at least 2 nodes");
  }
  if (opts.beam_width < 1 || opts.generations < 0 ||
      opts.mutations_per_survivor < 0 || opts.sa_steps < 0) {
    throw std::invalid_argument("synthesize: malformed search budget");
  }

  SynthResult result;
  // Nested-parallelism budget: each scoring run may itself spawn
  // opts.sim_threads slab workers, so shrink the pool's job count until
  // jobs x sim_threads fits the host. jobs never changes results, so this
  // only trades wall clock.
  const int sim_threads = std::max(1, opts.sim_threads);
  int jobs = std::max(1, opts.jobs);
  if (sim_threads > 1) {
    const int hw =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    jobs = std::max(1, std::min(jobs, hw / sim_threads));
  }
  // Score the registry strategies for the baseline column. Same evaluation
  // config as the candidates, so the comparison is apples to apples.
  if (opts.score_baselines) {
    const auto& registry = strategy_registry();
    const auto scores = harness::run_ordered(
        registry.size(), jobs, [&](std::size_t i) -> std::uint64_t {
          AlltoallOptions run_opts;
          run_opts.net = opts.net;
          run_opts.net.sim_threads = sim_threads;
          run_opts.msg_bytes = opts.msg_bytes;
          run_opts.wall_timeout_ms = opts.wall_timeout_ms;
          const RunResult r = run_alltoall(registry[i].kind, run_opts);
          return (r.drained && !r.timed_out) ? r.elapsed_cycles : kNoScore;
        });
    for (std::size_t i = 0; i < registry.size(); ++i) {
      if (scores[i] < result.baseline_cycles) {
        result.baseline_cycles = scores[i];
        result.baseline_name = registry[i].name;
      }
    }
  }

  const int factor_choices = std::min(
      6, static_cast<int>(mesh_factor_ladder(opts.net.shape.nodes()).size()));
  const int axes = opts.net.shape.axis_count();

  // key -> score memo. Lint rejections are memoized too, so a rejected
  // genome never costs twice; only fresh keys are simulated.
  std::map<std::string, EvalOut> memo;
  const auto evaluate_batch = [&](const std::vector<Genome>& genomes) {
    std::vector<Genome> fresh;
    for (const Genome& g : genomes) {
      const std::string key = g.key();
      if (memo.count(key) == 0) {
        memo.emplace(key, EvalOut{});  // reserve so duplicates stay out
        fresh.push_back(g);
      }
    }
    const auto outs =
        harness::run_ordered(fresh.size(), jobs, [&](std::size_t i) {
          return evaluate_genome(fresh[i], opts);
        });
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      memo[fresh[i].key()] = outs[i];
      if (outs[i].lint_ok) {
        ++result.evaluated;
      } else {
        ++result.lint_rejected;
      }
    }
  };
  const auto candidate_of = [&](const Genome& g) {
    const EvalOut& out = memo.at(g.key());
    return Candidate{g, out.cycles, out.lint_ok, out.drained};
  };

  // Generation 0: the four family seeds.
  std::vector<Genome> population = seed_genomes();
  evaluate_batch(population);
  std::vector<Candidate> beam;
  for (const Genome& g : population) beam.push_back(candidate_of(g));
  std::sort(beam.begin(), beam.end(), better);
  if (beam.size() > static_cast<std::size_t>(opts.beam_width)) {
    beam.resize(static_cast<std::size_t>(opts.beam_width));
  }

  for (int gen = 0; gen < opts.generations; ++gen) {
    std::vector<Genome> mutants;
    for (std::size_t i = 0; i < beam.size(); ++i) {
      // One RNG stream per (generation, survivor), derived from the search
      // seed — mutation proposals never depend on evaluation order or jobs.
      util::Xoshiro256StarStar rng(harness::derive_seed(
          opts.seed, (static_cast<std::uint64_t>(gen) << 8) | i));
      for (int m = 0; m < opts.mutations_per_survivor; ++m) {
        mutants.push_back(mutate(beam[i].genome, rng, factor_choices, axes));
      }
    }
    evaluate_batch(mutants);
    std::vector<Candidate> pool = beam;
    for (const Genome& g : mutants) pool.push_back(candidate_of(g));
    std::sort(pool.begin(), pool.end(), better);
    pool.erase(std::unique(pool.begin(), pool.end(),
                           [](const Candidate& a, const Candidate& b) {
                             return a.genome == b.genome;
                           }),
               pool.end());
    if (pool.size() > static_cast<std::size_t>(opts.beam_width)) {
      pool.resize(static_cast<std::size_t>(opts.beam_width));
    }
    beam = std::move(pool);
  }

  // Optional simulated-annealing refinement of the beam winner: sequential
  // Metropolis walk with a linearly decaying temperature. Evaluations go
  // through the same memo, so repeats are free and the walk is
  // deterministic (jobs plays no role in a single-candidate evaluation).
  if (opts.sa_steps > 0 && !beam.empty() && beam.front().cycles != kNoScore) {
    util::Xoshiro256StarStar rng(harness::derive_seed(opts.seed, 0x5a11edULL));
    Candidate current = beam.front();
    Candidate best = current;
    const double t0 = std::max(1.0, static_cast<double>(current.cycles) * 0.05);
    for (int step = 0; step < opts.sa_steps; ++step) {
      const Genome next = mutate(current.genome, rng, factor_choices, axes);
      evaluate_batch({next});
      const Candidate cand = candidate_of(next);
      const double temp =
          t0 * (1.0 - static_cast<double>(step) / static_cast<double>(opts.sa_steps)) +
          1e-9;
      bool accept = false;
      if (cand.cycles != kNoScore) {
        if (cand.cycles <= current.cycles) {
          accept = true;
        } else {
          const double delta = static_cast<double>(cand.cycles - current.cycles);
          accept = rng.unit() < std::exp(-delta / temp);
        }
      }
      if (accept) current = cand;
      if (better(current, best)) best = current;
    }
    if (better(best, beam.front())) {
      beam.insert(beam.begin(), best);
      beam.erase(std::unique(beam.begin(), beam.end(),
                             [](const Candidate& a, const Candidate& b) {
                               return a.genome == b.genome;
                             }),
                 beam.end());
      if (beam.size() > static_cast<std::size_t>(opts.beam_width)) {
        beam.resize(static_cast<std::size_t>(opts.beam_width));
      }
    }
  }

  result.beam = beam;
  if (!beam.empty()) result.best = beam.front();
  return result;
}

// --- winner cache -----------------------------------------------------------

namespace {

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : text) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty()) return false;
  std::uint64_t v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  out = v;
  return true;
}

}  // namespace

SynthCache::SynthCache(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);  // best effort; store() reports
}

std::string SynthCache::problem_key(const topo::Shape& shape,
                                    std::uint64_t msg_bytes,
                                    const net::FaultConfig& faults) {
  // Every FaultConfig field is spelled out: two plans that differ anywhere
  // must never share a cache slot.
  std::string key = shape.to_string() + "|m" + std::to_string(msg_bytes) + "|";
  key += "link=" + fmt_double(faults.link_fail);
  key += ",tlink=" + fmt_double(faults.link_transient);
  key += ",repair=" + std::to_string(faults.repair_cycles);
  key += ",fail_at=" + std::to_string(faults.fail_at);
  key += ",degrade=" + fmt_double(faults.degrade);
  key += ",degrade_mult=" + std::to_string(faults.degrade_mult);
  key += ",node=" + std::to_string(faults.node_fail);
  key += ",drop=" + fmt_double(faults.drop_prob);
  key += ",corrupt=" + fmt_double(faults.corrupt_prob);
  key += ",fseed=" + std::to_string(faults.seed);
  key += ",retries=" + std::to_string(faults.max_retries);
  key += ",stuck=" + std::to_string(faults.stuck_drop_cycles);
  return key;
}

std::string SynthCache::path_for(const std::string& key) const {
  return dir_ + "/" + hex64(fnv1a64(key)) + ".synth";
}

bool SynthCache::lookup(const std::string& key, CacheEntry& out) const {
  std::ifstream in(path_for(key), std::ios::binary);
  if (!in) return false;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  // The last line must be "sum <hex fnv of everything before it>".
  const std::size_t sum_pos = text.rfind("sum ");
  if (sum_pos == std::string::npos || sum_pos == 0 || text[sum_pos - 1] != '\n') {
    return false;
  }
  std::string sum_line = text.substr(sum_pos + 4);
  while (!sum_line.empty() && (sum_line.back() == '\n' || sum_line.back() == '\r')) {
    sum_line.pop_back();
  }
  if (sum_line != hex64(fnv1a64(text.substr(0, sum_pos)))) return false;

  CacheEntry entry;
  std::string genome_key;
  bool have_key = false, have_genome = false, have_bytes = false,
       have_cycles = false, have_baseline_cycles = false;
  std::istringstream lines(text.substr(0, sum_pos));
  std::string line;
  if (!std::getline(lines, line) || line != "bgl-synth-cache v1") return false;
  while (std::getline(lines, line)) {
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) return false;
    const std::string field = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    std::uint64_t v = 0;
    if (field == "key") {
      entry.key = value;
      have_key = true;
    } else if (field == "genome") {
      genome_key = value;
      have_genome = true;
    } else if (field == "msg_bytes") {
      if (!parse_u64(value, entry.msg_bytes)) return false;
      have_bytes = true;
    } else if (field == "cycles") {
      if (!parse_u64(value, entry.cycles)) return false;
      have_cycles = true;
    } else if (field == "baseline") {
      entry.baseline_name = value;
    } else if (field == "baseline_cycles") {
      if (!parse_u64(value, entry.baseline_cycles)) return false;
      have_baseline_cycles = true;
    } else if (field == "net_seed") {
      if (!parse_u64(value, v)) return false;
      entry.net_seed = v;
    } else if (field == "search_seed") {
      if (!parse_u64(value, v)) return false;
      entry.search_seed = v;
    } else if (field == "budget") {
      entry.budget = value;
    } else {
      return false;  // unknown field: treat as corruption, not extension
    }
  }
  if (!have_key || !have_genome || !have_bytes || !have_cycles ||
      !have_baseline_cycles || entry.key != key) {
    return false;
  }
  if (!genome_from_key(genome_key, entry.genome)) return false;
  out = entry;
  return true;
}

void SynthCache::store(const CacheEntry& entry) const {
  std::string body = "bgl-synth-cache v1\n";
  body += "key " + entry.key + "\n";
  body += "genome " + entry.genome.key() + "\n";
  body += "msg_bytes " + std::to_string(entry.msg_bytes) + "\n";
  body += "cycles " + std::to_string(entry.cycles) + "\n";
  body += "baseline " + entry.baseline_name + "\n";
  body += "baseline_cycles " + std::to_string(entry.baseline_cycles) + "\n";
  body += "net_seed " + std::to_string(entry.net_seed) + "\n";
  body += "search_seed " + std::to_string(entry.search_seed) + "\n";
  body += "budget " + entry.budget + "\n";
  const std::string full = body + "sum " + hex64(fnv1a64(body)) + "\n";

  const std::string path = path_for(entry.key);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("synth cache: cannot write " + tmp);
    out << full;
    if (!out) throw std::runtime_error("synth cache: short write to " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) throw std::runtime_error("synth cache: rename failed: " + ec.message());
}

SynthResult synthesize_cached(const SynthOptions& opts, const SynthCache& cache) {
  const std::string key =
      SynthCache::problem_key(opts.net.shape, opts.msg_bytes, opts.net.faults);
  CacheEntry entry;
  if (cache.lookup(key, entry)) {
    SynthResult result;
    result.best = Candidate{entry.genome, entry.cycles, true,
                            entry.cycles != kNoScore};
    result.baseline_name = entry.baseline_name;
    result.baseline_cycles = entry.baseline_cycles;
    return result;
  }
  SynthResult result = synthesize(opts);
  entry.key = key;
  entry.genome = result.best.genome;
  entry.msg_bytes = opts.msg_bytes;
  entry.cycles = result.best.cycles;
  entry.baseline_name = result.baseline_name;
  entry.baseline_cycles = result.baseline_cycles;
  entry.net_seed = opts.net.seed;
  entry.search_seed = opts.seed;
  entry.budget = "bw" + std::to_string(opts.beam_width) + ":g" +
                 std::to_string(opts.generations) + ":m" +
                 std::to_string(opts.mutations_per_survivor) + ":sa" +
                 std::to_string(opts.sa_steps) + ":t" +
                 std::to_string(std::max(1, opts.sim_threads));
  cache.store(entry);
  return result;
}

CommSchedule build_cached_schedule(const CacheEntry& entry,
                                   const net::NetworkConfig& net,
                                   const net::FaultPlan* faults) {
  net::NetworkConfig cfg = net;
  cfg.seed = entry.net_seed;
  return build_genome_schedule(entry.genome, cfg, entry.msg_bytes, faults);
}

CachedSelection select_strategy_cached(const topo::Shape& shape,
                                       std::uint64_t msg_bytes,
                                       const net::FaultPlan* faults,
                                       const SynthCache& cache) {
  CachedSelection selection;
  selection.registry = select_strategy(shape, msg_bytes, faults);
  const net::FaultConfig fault_config =
      faults != nullptr ? faults->config() : net::FaultConfig{};
  CacheEntry entry;
  if (cache.lookup(SynthCache::problem_key(shape, msg_bytes, fault_config), entry) &&
      entry.cycles < entry.baseline_cycles) {
    selection.use_synth = true;
    selection.entry = entry;
  }
  return selection;
}

}  // namespace bgl::coll::synth
