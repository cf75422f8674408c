// The many-to-many equivalence cases, shared by the equivalence test and
// tools/equivalence_golden, which regenerates the pinned metrics under
// tests/golden/many_to_many_equivalence.txt. The golden was captured from the
// hand-written SparseClient transport that pattern schedules replaced; they
// must keep reproducing it bit for bit.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "src/coll/many_to_many.hpp"
#include "tests/equivalence_cases.hpp"

namespace bgl::coll {

enum class M2MPattern { kHalo, kRandom, kGrid };

struct M2MCase {
  const char* name;
  StrategyKind kind;  // kAdaptiveRandom, kDeterministic or kTwoPhase
  const char* shape;
  M2MPattern pattern;
  int param;  // fan-out (kRandom) or grid columns (kGrid)
  std::uint64_t msg_bytes;
  int threads;
};

inline const M2MCase kM2MCases[] = {
    {"ar_halo_4x4x8", StrategyKind::kAdaptiveRandom, "4x4x8", M2MPattern::kHalo, 0, 480, 1},
    {"tps_halo_4x4x8", StrategyKind::kTwoPhase, "4x4x8", M2MPattern::kHalo, 0, 480, 1},
    {"ar_random7_4x4x8", StrategyKind::kAdaptiveRandom, "4x4x8", M2MPattern::kRandom, 7, 333, 1},
    {"dr_random7_4x4x8", StrategyKind::kDeterministic, "4x4x8", M2MPattern::kRandom, 7, 333, 1},
    {"tps_random16_4x4x8_t2", StrategyKind::kTwoPhase, "4x4x8", M2MPattern::kRandom, 16, 960, 2},
    {"ar_grid_4Mx4x4", StrategyKind::kAdaptiveRandom, "4Mx4x4", M2MPattern::kGrid, 8, 240, 1},
    {"tps_grid_4Mx4x4", StrategyKind::kTwoPhase, "4Mx4x4", M2MPattern::kGrid, 8, 240, 1},
    {"dr_halo_8x8", StrategyKind::kDeterministic, "8x8", M2MPattern::kHalo, 0, 240, 1},
    {"tps_random8_8x8", StrategyKind::kTwoPhase, "8x8", M2MPattern::kRandom, 8, 480, 1},
    {"ar_grid_4x4x4x4", StrategyKind::kAdaptiveRandom, "4x4x4x4", M2MPattern::kGrid, 16, 240, 1},
    {"tps_random12_4x4x4x4_t2", StrategyKind::kTwoPhase, "4x4x4x4", M2MPattern::kRandom, 12, 300,
     2},
    {"tps_random16_8x8x16_t4", StrategyKind::kTwoPhase, "8x8x16", M2MPattern::kRandom, 16, 960, 4},
};

inline Pattern m2m_pattern(const M2MCase& c) {
  const topo::Shape shape = topo::parse_shape(c.shape);
  const auto nodes = static_cast<std::int32_t>(shape.nodes());
  switch (c.pattern) {
    case M2MPattern::kHalo: return Pattern::halo(shape);
    case M2MPattern::kRandom: return Pattern::random_subset(nodes, c.param, 0x777);
    case M2MPattern::kGrid: return Pattern::grid_partners(nodes, c.param);
  }
  return Pattern{};
}

struct M2MRecord {
  bool drained = false;
  bool reachable_complete = false;  // every pattern pair whole, nothing else
  std::uint64_t elapsed = 0;
  std::uint64_t events = 0;
  std::uint64_t packets = 0;
  std::uint64_t payload = 0;
  double links_mean = 0.0;
  std::uint64_t matrix_fnv = 0;

  /// "elapsed events packets payload links_mean matrix_fnv", the golden
  /// file's field order.
  std::string to_string() const {
    char line[256];
    std::snprintf(line, sizeof line, "%llu %llu %llu %llu %.17g %llx",
                  static_cast<unsigned long long>(elapsed),
                  static_cast<unsigned long long>(events),
                  static_cast<unsigned long long>(packets),
                  static_cast<unsigned long long>(payload), links_mean,
                  static_cast<unsigned long long>(matrix_fnv));
    return line;
  }
};

/// Runs one case's pattern schedule through run_schedule with delivery
/// recording (seed 1234, the case's slab-thread count).
inline M2MRecord run_m2m_case(const M2MCase& c) {
  AlltoallOptions options;
  options.net.shape = topo::parse_shape(c.shape);
  options.net.seed = 1234;
  options.net.sim_threads = c.threads;
  options.msg_bytes = c.msg_bytes;
  DeliveryMatrix matrix(static_cast<std::int32_t>(options.net.shape.nodes()));
  options.deliveries = &matrix;
  const RunResult result = run_schedule(
      build_pattern_schedule(c.kind, options.net, m2m_pattern(c), c.msg_bytes), options,
      strategy_name(c.kind));

  M2MRecord r;
  r.drained = result.drained;
  r.reachable_complete = result.reachable_complete;
  r.elapsed = result.elapsed_cycles;
  r.events = result.events;
  r.packets = result.packets_delivered;
  r.payload = result.payload_bytes;
  r.links_mean = result.links.overall_mean;
  r.matrix_fnv = equiv_matrix_fnv(matrix);
  return r;
}

}  // namespace bgl::coll
