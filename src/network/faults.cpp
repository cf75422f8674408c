#include "src/network/faults.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "src/util/cli.hpp"
#include "src/util/rng.hpp"

namespace bgl::net {
namespace {

[[noreturn]] void spec_error(const std::string& detail) {
  throw std::runtime_error("option --faults: " + detail);
}

double fraction(const std::string& value, const std::string& key) {
  const double f = util::parse_strict_double(value, "option --faults " + key);
  if (!(f >= 0.0 && f <= 1.0)) {
    spec_error(key + " must be in [0, 1], got '" + value + "'");
  }
  return f;
}

std::int64_t non_negative(const std::string& value, const std::string& key) {
  const std::int64_t n = util::parse_strict_int(value, "option --faults " + key);
  if (n < 0) spec_error(key + " must be >= 0, got '" + value + "'");
  return n;
}

}  // namespace

FaultConfig parse_fault_spec(const std::string& text) {
  FaultConfig out;
  std::vector<std::string> seen;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const auto comma = text.find(',', pos);
    const auto entry =
        text.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? text.size() + 1 : comma + 1;
    if (entry.empty()) {
      if (text.empty()) break;
      spec_error("empty entry in '" + text + "'");
    }
    auto sep = entry.find(':');
    if (sep == std::string::npos) sep = entry.find('=');
    if (sep == std::string::npos || sep == 0 || sep + 1 >= entry.size()) {
      spec_error("expected key:value, got '" + entry + "'");
    }
    const std::string key = entry.substr(0, sep);
    const std::string value = entry.substr(sep + 1);
    // Last-wins would make "link:0.1,link:0" silently disable the fault the
    // user thought they configured; duplicates are always a spec bug.
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) {
      spec_error("duplicate key '" + key + "' in '" + text + "'");
    }
    seen.push_back(key);
    if (key == "link") {
      out.link_fail = fraction(value, key);
    } else if (key == "tlink") {
      out.link_transient = fraction(value, key);
    } else if (key == "repair") {
      const auto n = non_negative(value, key);
      if (n == 0) spec_error("repair must be > 0");
      out.repair_cycles = n;
    } else if (key == "fail_at") {
      out.fail_at = non_negative(value, key);
    } else if (key == "degrade") {
      out.degrade = fraction(value, key);
    } else if (key == "degrade_mult") {
      const auto n = non_negative(value, key);
      if (n < 2 || n > 1024) spec_error("degrade_mult must be in [2, 1024]");
      out.degrade_mult = static_cast<std::uint32_t>(n);
    } else if (key == "node") {
      out.node_fail = static_cast<int>(non_negative(value, key));
    } else if (key == "drop") {
      out.drop_prob = fraction(value, key);
    } else if (key == "corrupt") {
      out.corrupt_prob = fraction(value, key);
    } else if (key == "seed") {
      out.seed = static_cast<std::uint64_t>(
          util::parse_strict_int(value, "option --faults seed"));
    } else if (key == "rto") {
      const auto n = non_negative(value, key);
      if (n == 0) spec_error("rto must be > 0");
      out.retrans_timeout = n;
    } else if (key == "retries") {
      out.max_retries = static_cast<int>(non_negative(value, key));
    } else if (key == "stuck") {
      out.stuck_drop_cycles = non_negative(value, key);
    } else {
      spec_error("unknown key '" + key + "' (expected link, tlink, repair, fail_at, " +
                 "degrade, degrade_mult, node, drop, corrupt, seed, rto, retries, stuck)");
    }
  }
  return out;
}

FaultPlan::FaultPlan(const NetworkConfig& config, const topo::Shape& shape)
    : torus_(shape) {
  faults_ = config.faults;
  enabled_ = faults_.enabled();
  if (!enabled_) return;

  const std::size_t links = static_cast<std::size_t>(torus_.nodes()) *
                            static_cast<std::size_t>(torus_.directions());
  link_state_.assign(links, static_cast<std::uint8_t>(LinkHealth::kUp));
  node_dead_.assign(static_cast<std::size_t>(torus_.nodes()), 0);

  // seed 0 derives from the network seed, so repeated sweep jobs sample
  // independent fault placements while staying reproducible.
  derived_seed_ =
      faults_.seed != 0 ? faults_.seed : (config.seed ^ 0x6661756c74ULL);  // "fault"
  std::uint64_t sm = derived_seed_;
  util::Xoshiro256StarStar rng(util::splitmix64(sm));

  // Enumerate undirected links as (node, +axis) ports that have a peer; the
  // paired (-axis) port on the peer is derived, so failing an entry always
  // fails both directions.
  std::vector<std::pair<topo::Rank, int>> undirected;
  for (topo::Rank node = 0; node < torus_.nodes(); ++node) {
    for (int axis = 0; axis < torus_.axis_count(); ++axis) {
      const topo::Direction plus{axis, +1};
      if (torus_.neighbor(node, plus) >= 0) undirected.emplace_back(node, axis);
    }
  }
  rng.shuffle(undirected);

  const auto count = [&](double frac) {
    return std::min(undirected.size(),
                    static_cast<std::size_t>(
                        std::llround(frac * static_cast<double>(undirected.size()))));
  };
  const std::size_t n_dead = count(faults_.link_fail);
  const std::size_t n_trans = count(faults_.link_transient);
  const std::size_t n_degr = count(faults_.degrade);

  const auto mark_both = [&](std::size_t idx, LinkHealth health) {
    const auto [node, axis] = undirected[idx];
    const topo::Direction plus{axis, +1};
    const topo::Rank peer = torus_.neighbor(node, plus);
    link_state_[static_cast<std::size_t>(link_id(node, plus.index()))] =
        static_cast<std::uint8_t>(health);
    link_state_[static_cast<std::size_t>(
        link_id(peer, topo::Direction{axis, -1}.index()))] =
        static_cast<std::uint8_t>(health);
  };

  // The shuffled list is consumed in disjoint segments: dead, then transient,
  // then degraded, clamped to the number of links available.
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < n_dead && cursor < undirected.size(); ++i, ++cursor) {
    mark_both(cursor, LinkHealth::kDead);
    ++dead_links_;
  }
  for (std::size_t i = 0; i < n_trans && cursor < undirected.size(); ++i, ++cursor) {
    mark_both(cursor, LinkHealth::kTransient);
    const auto [node, axis] = undirected[cursor];
    TransientOutage outage;
    outage.link = link_id(node, topo::Direction{axis, +1}.index());
    outage.down_at =
        faults_.fail_at + static_cast<Tick>(rng.below(
                              static_cast<std::uint64_t>(faults_.repair_cycles)));
    outage.up_at = outage.down_at + faults_.repair_cycles;
    transients_.push_back(outage);
  }
  for (std::size_t i = 0; i < n_degr && cursor < undirected.size(); ++i, ++cursor) {
    mark_both(cursor, LinkHealth::kDegraded);
    ++degraded_links_;
  }

  // Node failures kill every incident directed link (both in and out), so all
  // fault checks in the fabric reduce to link checks.
  if (faults_.node_fail > 0) {
    std::vector<topo::Rank> nodes(static_cast<std::size_t>(torus_.nodes()));
    for (topo::Rank r = 0; r < torus_.nodes(); ++r) nodes[static_cast<std::size_t>(r)] = r;
    rng.shuffle(nodes);
    const std::size_t n_nodes =
        std::min(nodes.size(), static_cast<std::size_t>(faults_.node_fail));
    for (std::size_t i = 0; i < n_nodes; ++i) {
      const topo::Rank victim = nodes[i];
      node_dead_[static_cast<std::size_t>(victim)] = 1;
      ++dead_nodes_;
      for (int d = 0; d < torus_.directions(); ++d) {
        const topo::Direction dir = topo::Direction::from_index(d);
        const topo::Rank peer = torus_.neighbor(victim, dir);
        if (peer < 0) continue;
        link_state_[static_cast<std::size_t>(link_id(victim, d))] =
            static_cast<std::uint8_t>(LinkHealth::kDead);
        link_state_[static_cast<std::size_t>(
            link_id(peer, topo::Direction{dir.axis, -dir.sign}.index()))] =
            static_cast<std::uint8_t>(LinkHealth::kDead);
      }
    }
  }

  // Drop transients whose link a permanent fault already killed (segment
  // overlap cannot happen, but a node failure can land on a transient link).
  std::erase_if(transients_, [&](const TransientOutage& t) {
    return link_state_[static_cast<std::size_t>(t.link)] !=
           static_cast<std::uint8_t>(LinkHealth::kTransient);
  });
  std::sort(transients_.begin(), transients_.end(),
            [](const TransientOutage& a, const TransientOutage& b) {
              return a.down_at != b.down_at ? a.down_at < b.down_at : a.link < b.link;
            });
}

std::uint64_t FaultPlan::RouteMemo::pack_hops(const HopVec& hops) noexcept {
  std::uint64_t packed = 0;
  for (std::size_t a = 0; a < hops.size(); ++a) {
    packed |= static_cast<std::uint64_t>(static_cast<std::uint16_t>(hops[a])) << (16 * a);
  }
  return packed;
}

std::size_t FaultPlan::RouteMemo::home(std::uint64_t hops,
                                       std::uint32_t node_mode) const noexcept {
  // Two multiplicative rounds, then Fibonacci hashing: the top bits of the
  // product depend on every key bit.
  const std::uint64_t h =
      ((hops * 0x9e3779b97f4a7c15ULL) ^ node_mode) * 0xc2b2ae3d27d4eb4fULL;
  return static_cast<std::size_t>(h >> shift_);
}

int FaultPlan::RouteMemo::find(topo::Rank node, RoutingMode mode,
                               const HopVec& hops) const noexcept {
  if (used_ == 0) return -1;
  const std::uint64_t key_hops = pack_hops(hops);
  const std::uint32_t key_nm = pack_node_mode(node, mode);
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(key_hops, key_nm);; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.node_mode == kEmpty) return -1;
    if (slot.node_mode == key_nm && slot.hops == key_hops) {
      return static_cast<int>(slot.live);
    }
  }
}

void FaultPlan::RouteMemo::insert(topo::Rank node, RoutingMode mode,
                                  const HopVec& hops, bool live) {
  // Load factor <= 1/2 keeps probe chains short and guarantees a free slot.
  if (2 * (used_ + 1) > slots_.size()) grow();
  place(Slot{pack_hops(hops), pack_node_mode(node, mode), live ? 1u : 0u});
  ++used_;
}

void FaultPlan::RouteMemo::place(const Slot& slot) noexcept {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(slot.hops, slot.node_mode);
  while (slots_[i].node_mode != kEmpty) i = (i + 1) & mask;
  slots_[i] = slot;
}

void FaultPlan::RouteMemo::clear() noexcept {
  if (used_ == 0) return;
  std::fill(slots_.begin(), slots_.end(), Slot{});
  used_ = 0;
}

void FaultPlan::RouteMemo::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? kInitialSlots : old.size() * 2, Slot{});
  shift_ = 64 - std::countr_zero(slots_.size());
  for (const Slot& slot : old) {
    if (slot.node_mode != kEmpty) place(slot);
  }
}

bool FaultPlan::route_live(topo::Rank node, const HopVec& hops, RoutingMode mode,
                           RouteMemo* memo) const {
  if (!node_alive(node)) return false;
  if (hops[0] == 0 && hops[1] == 0 && hops[2] == 0 && hops[3] == 0) return true;

  RouteMemo& cache = memo != nullptr ? *memo : route_memo_;
  if (const int cached = cache.find(node, mode, hops); cached >= 0) {
    return cached != 0;
  }

  bool live = false;
  for (int axis = 0; axis < torus_.axis_count() && !live; ++axis) {
    if (hops[static_cast<std::size_t>(axis)] == 0) continue;
    const int sign = hops[static_cast<std::size_t>(axis)] > 0 ? +1 : -1;
    const topo::Direction dir{axis, sign};
    if (link_state_[static_cast<std::size_t>(link_id(node, dir.index()))] !=
        static_cast<std::uint8_t>(LinkHealth::kDead)) {
      auto next = hops;
      next[static_cast<std::size_t>(axis)] =
          static_cast<std::int16_t>(next[static_cast<std::size_t>(axis)] - sign);
      live = route_live(torus_.neighbor(node, dir), next, mode, memo);
    }
    // Dimension-ordered routing has no second choice: only the first
    // unfinished axis may move.
    if (mode == RoutingMode::kDeterministic) break;
  }
  cache.insert(node, mode, hops, live);
  return live;
}

bool FaultPlan::pair_routable(topo::Rank src, topo::Rank dst, RoutingMode mode,
                              RouteMemo* memo) const {
  if (!enabled_) return true;
  if (!node_alive(src) || !node_alive(dst)) return false;
  if (src == dst) return true;

  const topo::Coord a = torus_.coord_of(src);
  const topo::Coord b = torus_.coord_of(dst);
  const int axes = torus_.axis_count();
  HopVec hops{};
  std::array<bool, topo::kMaxAxes> tie{};
  for (int axis = 0; axis < axes; ++axis) {
    hops[static_cast<std::size_t>(axis)] =
        static_cast<std::int16_t>(torus_.hops_signed(a[axis], b[axis], axis));
    tie[static_cast<std::size_t>(axis)] = torus_.is_halfway_tie(a[axis], b[axis], axis);
  }
  // Try every sign assignment of the half-way tie axes: a pair is routable
  // when any minimal path under any legal tie resolution survives.
  for (int combo = 0; combo < (1 << axes); ++combo) {
    auto trial = hops;
    bool valid = true;
    for (int axis = 0; axis < axes; ++axis) {
      const bool flip = (combo >> axis) & 1;
      if (flip && !tie[static_cast<std::size_t>(axis)]) {
        valid = false;
        break;
      }
      if (flip) {
        trial[static_cast<std::size_t>(axis)] =
            static_cast<std::int16_t>(-trial[static_cast<std::size_t>(axis)]);
      }
    }
    if (valid && route_live(src, trial, mode, memo)) return true;
  }
  return false;
}

HopVec FaultPlan::choose_hops(topo::Rank src, topo::Rank dst, RoutingMode mode,
                              const std::function<bool()>& coin,
                              RouteMemo* memo) const {
  const topo::Coord a = torus_.coord_of(src);
  const topo::Coord b = torus_.coord_of(dst);
  const int axes = torus_.axis_count();
  HopVec hops{};
  std::array<bool, topo::kMaxAxes> tie{};
  bool any_tie = false;
  for (int axis = 0; axis < axes; ++axis) {
    hops[static_cast<std::size_t>(axis)] =
        static_cast<std::int16_t>(torus_.hops_signed(a[axis], b[axis], axis));
    tie[static_cast<std::size_t>(axis)] = torus_.is_halfway_tie(a[axis], b[axis], axis);
    any_tie = any_tie || tie[static_cast<std::size_t>(axis)];
  }
  if (!any_tie) return hops;

  // Draw the tie coins the same way the fault-free injector does, then keep
  // the draw only if it leads somewhere; otherwise fall back to the first
  // live tie resolution in a fixed enumeration order.
  auto preferred = hops;
  for (int axis = 0; axis < axes; ++axis) {
    if (tie[static_cast<std::size_t>(axis)] && coin()) {
      preferred[static_cast<std::size_t>(axis)] =
          static_cast<std::int16_t>(-preferred[static_cast<std::size_t>(axis)]);
    }
  }
  if (!enabled_ || route_live(src, preferred, mode, memo)) return preferred;
  for (int combo = 0; combo < (1 << axes); ++combo) {
    auto trial = hops;
    bool valid = true;
    for (int axis = 0; axis < axes; ++axis) {
      const bool flip = (combo >> axis) & 1;
      if (flip && !tie[static_cast<std::size_t>(axis)]) {
        valid = false;
        break;
      }
      if (flip) {
        trial[static_cast<std::size_t>(axis)] =
            static_cast<std::int16_t>(-trial[static_cast<std::size_t>(axis)]);
      }
    }
    if (valid && route_live(src, trial, mode, memo)) return trial;
  }
  // No live resolution: return the coin draw; callers gate on pair_routable.
  return preferred;
}

}  // namespace bgl::net
