// Deterministic fault injection for the simulated torus.
//
// A FaultPlan expands a FaultConfig into concrete faults on a concrete
// Shape: which undirected links are permanently dead or degraded, which
// nodes are down, and when each transient link failure strikes and repairs.
// The expansion is a pure function of (config, shape), so a sweep is
// bit-identical for any worker count. A collective expands it once: its
// planning, the Fabric of every epoch and its repair residual read that one
// plan, and copies share its routability table.
//
// The plan also carries the minimal-path routability oracle used by
//  - strategy clients, to skip destinations that cannot be reached and to
//    re-pick live intermediates (TPS),
//  - the fabric, to refuse grants that would walk a packet into a dead end
//    it could never leave, and
//  - verification, to define the "reachable pairs" a degraded run must
//    still deliver exactly.
// Routability is evaluated against the *permanent* fault state: transient
// link failures heal, so they delay or drop packets (which the repair epochs
// re-send) without making a pair unreachable.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/network/config.hpp"
#include "src/topology/torus.hpp"

namespace bgl::net {

/// Counter-based (stateless) fault randomness: a splitmix64-style mix of a
/// seed and two key words. Every stochastic per-packet fault decision (drop,
/// corruption) is a pure function of (fault seed, packet identity, epoch,
/// hop) through this hash, never a draw from a sequential RNG stream — so
/// the realization is independent of event-processing order and a run
/// reproduces the same faults at any `--sim-threads N`.
inline std::uint64_t fault_hash(std::uint64_t seed, std::uint64_t a,
                                std::uint64_t b) noexcept {
  std::uint64_t x = seed ^ (a * 0x9e3779b97f4a7c15ULL) ^ (b * 0xc2b2ae3d27d4eb4fULL);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// The hash as a uniform draw in [0, 1) (53 mantissa bits).
inline double fault_unit(std::uint64_t seed, std::uint64_t a,
                         std::uint64_t b) noexcept {
  return static_cast<double>(fault_hash(seed, a, b) >> 11) * 0x1.0p-53;
}

/// Parses the CLI fault spec: a comma-separated list of key:value (or
/// key=value) entries, e.g. "link:0.02,drop:1e-5,seed=7".
///   link:F          fraction of undirected links failed permanently
///   tlink:F         fraction of undirected links failing transiently
///   repair:T        transient downtime in cycles
///   fail_at:T       strike tick for permanent faults (default 0)
///   degrade:F       fraction of undirected links degraded
///   degrade_mult:K  chunk-cycle multiplier on degraded links
///   node:N          number of failed nodes
///   drop:P          per-arrival packet drop probability
///   corrupt:P       per-delivery payload corruption probability
///   seed:S          fault-plan seed (0 derives from the network seed)
///   retries:N       repair epochs after epoch 0 (default 10)
///   stuck:T         stuck-head sweep age in cycles (default 2,000,000)
/// Throws std::runtime_error with a message naming --faults on malformed
/// input (unknown key, bad number, out-of-range value).
FaultConfig parse_fault_spec(const std::string& text);

/// State of one directed link under the plan.
enum class LinkHealth : std::uint8_t {
  kUp = 0,
  kDegraded = 1,   // serialization takes degrade_mult x chunk_cycles
  kTransient = 2,  // scheduled to fail and repair once
  kDead = 3,       // permanently down from fail_at on
};

/// One transient link outage (applies to both directions of the link).
struct TransientOutage {
  std::int32_t link = 0;  // directed link id of the + direction end
  Tick down_at = 0;
  Tick up_at = 0;
};

class FaultPlan {
 public:
  FaultPlan() = default;

  /// Expands `config.faults` over `shape`. A disabled config yields an
  /// empty plan (`enabled() == false`).
  FaultPlan(const NetworkConfig& config, const topo::Shape& shape);

  bool enabled() const noexcept { return enabled_; }
  const FaultConfig& config() const noexcept { return faults_; }
  const topo::Torus& torus() const noexcept { return torus_; }

  /// Seed the plan actually used (faults.seed, or the value derived from the
  /// network seed when faults.seed == 0); consumers needing more fault
  /// randomness (the fabric's drop and corruption draws) fork from this.
  std::uint64_t derived_seed() const noexcept { return derived_seed_; }

  /// Directed link id, mirroring Fabric::link_id (2n directions per node).
  int link_id(topo::Rank node, int dir) const noexcept {
    return node * torus_.directions() + dir;
  }

  /// Permanent health of a directed link (kTransient links count as up).
  LinkHealth link_health(int link) const noexcept {
    return enabled_ ? static_cast<LinkHealth>(link_state_[static_cast<std::size_t>(link)])
                    : LinkHealth::kUp;
  }
  bool link_dead(int link) const noexcept {
    return link_health(link) == LinkHealth::kDead;
  }
  bool node_alive(topo::Rank node) const noexcept {
    return !enabled_ || node_dead_[static_cast<std::size_t>(node)] == 0;
  }

  const std::vector<TransientOutage>& transients() const noexcept { return transients_; }
  std::size_t dead_link_count() const noexcept { return dead_links_; }
  std::size_t degraded_link_count() const noexcept { return degraded_links_; }
  std::size_t dead_node_count() const noexcept { return dead_nodes_; }

  /// True when a packet at `node` with remaining signed hops `hops` can
  /// still reach its destination over live links and nodes under `mode`
  /// (adaptive: any live path in the minimal DAG; deterministic: the single
  /// dimension-order path; a hop off a mesh edge leads nowhere). Always
  /// true on a disabled plan. Every answer is cached in the plan's
  /// routability table, so this and the two queries below are safe to call
  /// from any number of threads at once. Throws std::out_of_range when
  /// `node` is not a rank of the shape or a hop exceeds a minimal path's
  /// reach on its axis (floor(k/2) on a torus axis, k - 1 on a mesh axis).
  bool route_live(topo::Rank node, const HopVec& hops, RoutingMode mode) const;

  /// True when (src, dst) is deliverable under `mode`: both endpoints are
  /// alive and some choice of half-way tie directions yields a live minimal
  /// path. Always true on a disabled plan (src != dst assumed).
  bool pair_routable(topo::Rank src, topo::Rank dst, RoutingMode mode) const;

  /// Signed hop vector for (src, dst) with half-way ties resolved toward a
  /// live route when possible; ambiguous live ties are broken with `coin`.
  HopVec choose_hops(topo::Rank src, topo::Rank dst, RoutingMode mode,
                     const std::function<bool()>& coin) const;

 private:
  /// route_live without the range check: the recursion over the minimal
  /// DAG only ever shrinks a hop toward zero, so it stays in range.
  bool walk(topo::Rank node, const HopVec& hops, RoutingMode mode) const;
  /// The table index of state (mode, node, hops).
  std::size_t state_index(topo::Rank node, const HopVec& hops,
                          RoutingMode mode) const noexcept;

  bool enabled_ = false;
  FaultConfig faults_{};
  std::uint64_t derived_seed_ = 0;
  topo::Torus torus_{};
  std::vector<std::uint8_t> link_state_;  // per directed link, LinkHealth
  std::vector<std::uint8_t> node_dead_;
  std::vector<TransientOutage> transients_;
  std::size_t dead_links_ = 0;
  std::size_t degraded_links_ = 0;
  std::size_t dead_nodes_ = 0;

  // Routability table of an enabled plan: 2 bits (known, live) per state
  // (mode, node, hop vector) at index (mode * P + node) * H + the hop
  // offset, where the hop offset sums (hop_a + reach_a) * stride_a and H is
  // the number of hop vectors. calloc'ed, not initialised element-wise, so
  // a large table's pages stay untouched until a state on them is queried
  // (and a disabled plan allocates none). Answers are a pure function
  // of the immutable link and node state, so every thread and every copy of
  // the plan shares one table and fill order never changes an answer.
  std::shared_ptr<std::uint64_t[]> routes_;
  std::array<std::int32_t, topo::kMaxAxes> hop_reach_{};
  std::array<std::size_t, topo::kMaxAxes> hop_stride_{};
  std::size_t hop_states_ = 0;  // H
};

}  // namespace bgl::net
