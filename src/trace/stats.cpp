#include "src/trace/stats.hpp"

#include <algorithm>
#include <cstdio>

namespace bgl::trace {

LinkReport summarize_links(const net::Fabric& fabric, net::Tick elapsed) {
  LinkReport report;
  const auto& torus = fabric.torus();
  const int dirs = torus.directions();
  report.axes = torus.axis_count();
  if (elapsed == 0) return report;
  const auto& busy = fabric.link_busy_cycles();

  std::array<double, topo::kMaxAxes> sum{};
  std::array<int, topo::kMaxAxes> count{};
  for (auto& a : report.axis) {
    a.min = 1.0;
  }

  for (topo::Rank n = 0; n < torus.nodes(); ++n) {
    for (int d = 0; d < dirs; ++d) {
      if (torus.neighbor(n, topo::Direction::from_index(d)) < 0) continue;  // mesh edge
      const double util =
          static_cast<double>(busy[static_cast<std::size_t>(n * dirs + d)]) /
          static_cast<double>(elapsed);
      const int axis = d / 2;
      const auto ax = static_cast<std::size_t>(axis);
      sum[ax] += util;
      ++count[ax];
      report.axis[ax].max = std::max(report.axis[ax].max, util);
      report.axis[ax].min = std::min(report.axis[ax].min, util);
      report.overall_max = std::max(report.overall_max, util);
    }
  }

  double total = 0.0;
  int links = 0;
  for (int a = 0; a < topo::kMaxAxes; ++a) {
    const auto ax = static_cast<std::size_t>(a);
    if (count[ax] == 0) {
      report.axis[ax].min = 0.0;
      continue;
    }
    report.axis[ax].mean = sum[ax] / count[ax];
    total += sum[ax];
    links += count[ax];
  }
  if (links > 0) report.overall_mean = total / links;
  return report;
}

std::vector<int> utilization_histogram(const net::Fabric& fabric, net::Tick elapsed,
                                       int buckets) {
  std::vector<int> histogram(static_cast<std::size_t>(buckets), 0);
  if (elapsed == 0 || buckets <= 0) return histogram;
  const auto& busy = fabric.link_busy_cycles();
  const auto& torus = fabric.torus();
  const int dirs = torus.directions();
  for (topo::Rank n = 0; n < torus.nodes(); ++n) {
    for (int d = 0; d < dirs; ++d) {
      if (torus.neighbor(n, topo::Direction::from_index(d)) < 0) continue;
      const double util =
          static_cast<double>(busy[static_cast<std::size_t>(n * dirs + d)]) /
          static_cast<double>(elapsed);
      int bucket = static_cast<int>(util * buckets);
      bucket = std::clamp(bucket, 0, buckets - 1);
      ++histogram[static_cast<std::size_t>(bucket)];
    }
  }
  return histogram;
}

std::string summarize_faults(const net::FaultPlan& plan, const net::FaultStats& faults,
                             const rt::ReliabilityStats& reliability) {
  if (!plan.enabled() && faults.total_dropped() == 0 &&
      faults.unroutable_at_injection == 0 && reliability.retransmits == 0) {
    return "";
  }
  char buf[512];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "faults: %zu dead / %zu degraded links, %zu dead nodes, "
                "%zu transient outages (%llu strikes, %llu cycles down)\n",
                plan.dead_link_count(), plan.degraded_link_count(), plan.dead_node_count(),
                plan.transients().size(),
                static_cast<unsigned long long>(faults.transient_strikes),
                static_cast<unsigned long long>(faults.link_down_cycles));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "drops: %llu in flight, %llu lost, %llu stuck; "
                "%llu corrupted in flight, %llu unroutable at injection, "
                "%llu reroute vetoes\n",
                static_cast<unsigned long long>(faults.dropped_in_flight),
                static_cast<unsigned long long>(faults.dropped_prob),
                static_cast<unsigned long long>(faults.dropped_stuck),
                static_cast<unsigned long long>(faults.corrupted_payloads),
                static_cast<unsigned long long>(faults.unroutable_at_injection),
                static_cast<unsigned long long>(faults.reroute_vetoes));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "repair: %llu corrupt rejected, %llu packets re-sent by repair epochs",
                static_cast<unsigned long long>(reliability.corrupt_rejected),
                static_cast<unsigned long long>(reliability.retransmits));
  out += buf;
  return out;
}

std::string summarize_recovery(int epochs, int replans, net::Tick replan_cycles,
                               std::uint64_t residual_pairs,
                               std::uint64_t recovered_bytes,
                               std::uint64_t abandoned_pairs) {
  if (epochs <= 1 && residual_pairs == 0) return "";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "recovery: %d epochs (%d re-plans, %llu cycles), "
                "%llu residual pairs, %llu bytes recovered, %llu pairs abandoned",
                epochs, replans, static_cast<unsigned long long>(replan_cycles),
                static_cast<unsigned long long>(residual_pairs),
                static_cast<unsigned long long>(recovered_bytes),
                static_cast<unsigned long long>(abandoned_pairs));
  return buf;
}

std::string LinkReport::to_string() const {
  char buf[256];
  std::string out;
  static constexpr const char* kNames[topo::kMaxAxes] = {"X", "Y", "Z", "W"};
  for (int a = 0; a < axes; ++a) {
    const auto& ax = axis[static_cast<std::size_t>(a)];
    std::snprintf(buf, sizeof(buf), "%s: mean %.1f%% max %.1f%%  ", kNames[a],
                  100.0 * ax.mean, 100.0 * ax.max);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "overall mean %.1f%%", 100.0 * overall_mean);
  out += buf;
  return out;
}

}  // namespace bgl::trace
