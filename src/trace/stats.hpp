// Post-run instrumentation: per-dimension link utilization summaries.
//
// The paper's contention analysis (Sections 3.2 and 4.1) is about *which*
// links saturate: on a 2n x n x n torus the X links carry twice the load of
// Y and Z. These summaries let examples and benches show exactly that.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "src/network/fabric.hpp"
#include "src/runtime/reliability.hpp"
#include "src/topology/torus.hpp"

namespace bgl::trace {

struct AxisUtilization {
  double mean = 0.0;  // average utilization of the axis' directed links
  double max = 0.0;   // most-loaded directed link
  double min = 0.0;   // least-loaded directed link (0 if axis has no links)
};

struct LinkReport {
  std::array<AxisUtilization, topo::kMaxAxes> axis{};
  /// Axes of the summarized fabric (entries beyond it are all-zero).
  int axes = topo::kMaxAxes;
  double overall_mean = 0.0;
  double overall_max = 0.0;

  std::string to_string() const;
};

/// Summarizes fabric link busy-cycle counters over `elapsed` cycles.
/// Mesh-edge pseudo links (which do not exist) are excluded.
LinkReport summarize_links(const net::Fabric& fabric, net::Tick elapsed);

/// Utilization histogram over all existing directed links (for ablations).
std::vector<int> utilization_histogram(const net::Fabric& fabric, net::Tick elapsed,
                                       int buckets);

/// One-paragraph human-readable summary of a degraded run: plan size (dead /
/// degraded links, dead nodes, transient outages), fabric drop and reroute
/// counters, checksum rejections and the packets the repair epochs re-sent.
/// Returns "" for a disabled plan with all-zero counters.
std::string summarize_faults(const net::FaultPlan& plan, const net::FaultStats& faults,
                             const rt::ReliabilityStats& reliability);

/// One-line summary of a run's repair epochs (scalars rather than the coll
/// layer's EpochStats — trace sits below coll). Returns "" for a run whose
/// epoch 0 left nothing short.
std::string summarize_recovery(int epochs, int replans, net::Tick replan_cycles,
                               std::uint64_t residual_pairs,
                               std::uint64_t recovered_bytes,
                               std::uint64_t abandoned_pairs);

}  // namespace bgl::trace
