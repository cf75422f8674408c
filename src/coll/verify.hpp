// Correctness checking for all-to-all runs.
//
// In verification mode every *final* delivery is recorded per (source,
// destination) pair; a complete all-to-all of m bytes must put exactly m
// bytes in every off-diagonal cell. Indirect strategies record the original
// source (carried in the packet tag), not the forwarding intermediate, so
// the check also catches mis-forwarded data.
#pragma once

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "src/topology/torus.hpp"

namespace bgl::coll {

/// A set of ordered (src, dst) pairs: the pairs a schedule carries, or the
/// pairs a run owes (those it carries and can still serve under the run's
/// fault plan). Default-constructed (or nodes() == 0) means "every pair" —
/// the fault-free all-to-all costs nothing. ScheduleExecutor::mark_reachable
/// fills a run's mask from CommSchedule::pair_covered.
class PairMask {
 public:
  PairMask() = default;
  explicit PairMask(std::int32_t nodes, bool reachable = true)
      : nodes_(nodes),
        reachable_(static_cast<std::size_t>(nodes) * static_cast<std::size_t>(nodes),
                   reachable ? 1 : 0) {}

  void set_unreachable(topo::Rank src, topo::Rank dst) {
    reachable_[index(src, dst)] = 0;
  }

  /// Re-marks a pair reachable (sparse coverage masks built bottom-up, e.g.
  /// a repair schedule's residual or a many-to-many pattern).
  void set_reachable(topo::Rank src, topo::Rank dst) {
    reachable_[index(src, dst)] = 1;
  }

  bool reachable(topo::Rank src, topo::Rank dst) const {
    if (nodes_ == 0) return true;  // empty mask: no faults, all pairs live
    return reachable_[index(src, dst)] != 0;
  }

  /// Off-diagonal pairs marked unreachable.
  std::uint64_t unreachable_pairs() const {
    std::uint64_t count = 0;
    for (topo::Rank s = 0; s < nodes_; ++s) {
      for (topo::Rank d = 0; d < nodes_; ++d) {
        if (s != d && reachable_[index(s, d)] == 0) ++count;
      }
    }
    return count;
  }

  std::int32_t nodes() const { return nodes_; }

 private:
  std::size_t index(topo::Rank src, topo::Rank dst) const {
    return static_cast<std::size_t>(src) * static_cast<std::size_t>(nodes_) +
           static_cast<std::size_t>(dst);
  }

  std::int32_t nodes_ = 0;
  std::vector<std::uint8_t> reachable_;
};

class DeliveryMatrix {
 public:
  explicit DeliveryMatrix(std::int32_t nodes)
      : nodes_(nodes),
        bytes_(static_cast<std::size_t>(nodes) * static_cast<std::size_t>(nodes), 0) {}

  void record(topo::Rank src, topo::Rank dst, std::uint64_t payload_bytes) {
    bytes_[static_cast<std::size_t>(src) * static_cast<std::size_t>(nodes_) +
           static_cast<std::size_t>(dst)] += payload_bytes;
  }

  std::uint64_t bytes(topo::Rank src, topo::Rank dst) const {
    return bytes_[static_cast<std::size_t>(src) * static_cast<std::size_t>(nodes_) +
                  static_cast<std::size_t>(dst)];
  }

  /// Epoch-transition bookkeeping: a survivor discards the partial flow of a
  /// pair it can never complete (source or destination fail-stopped mid-
  /// message), returning the bytes dropped. Keeps the matrix exactly-once
  /// accountable across repair epochs — see src/coll/recovery.hpp.
  std::uint64_t discard(topo::Rank src, topo::Rank dst) {
    std::uint64_t& cell =
        bytes_[static_cast<std::size_t>(src) * static_cast<std::size_t>(nodes_) +
               static_cast<std::size_t>(dst)];
    const std::uint64_t dropped = cell;
    cell = 0;
    return dropped;
  }

  /// True when every ordered pair (src != dst) received exactly
  /// `expected_per_pair` bytes and every diagonal cell is zero.
  bool complete(std::uint64_t expected_per_pair) const {
    for (topo::Rank s = 0; s < nodes_; ++s) {
      for (topo::Rank d = 0; d < nodes_; ++d) {
        const std::uint64_t want = (s == d) ? 0 : expected_per_pair;
        if (bytes(s, d) != want) return false;
      }
    }
    return true;
  }

  /// Human-readable description of the first mismatching pair, or "".
  std::string first_error(std::uint64_t expected_per_pair) const {
    for (topo::Rank s = 0; s < nodes_; ++s) {
      for (topo::Rank d = 0; d < nodes_; ++d) {
        const std::uint64_t want = (s == d) ? 0 : expected_per_pair;
        if (bytes(s, d) != want) {
          return "pair (" + std::to_string(s) + " -> " + std::to_string(d) + "): got " +
                 std::to_string(bytes(s, d)) + " bytes, want " + std::to_string(want);
        }
      }
    }
    return "";
  }

  /// Fault-tolerant variant of complete(): every *reachable* off-diagonal
  /// pair must have received exactly `expected_per_pair` bytes; unreachable
  /// pairs (and the diagonal) must have received nothing — the strategies
  /// skip them at the source, so any bytes there mean misrouted data.
  bool complete_reachable(std::uint64_t expected_per_pair, const PairMask& mask) const {
    return first_error_reachable(expected_per_pair, mask).empty();
  }

  /// Human-readable description of the first pair violating the reachable
  /// delivery contract, or "".
  std::string first_error_reachable(std::uint64_t expected_per_pair,
                                    const PairMask& mask) const {
    for (topo::Rank s = 0; s < nodes_; ++s) {
      for (topo::Rank d = 0; d < nodes_; ++d) {
        const bool want_data = s != d && mask.reachable(s, d);
        const std::uint64_t want = want_data ? expected_per_pair : 0;
        if (bytes(s, d) != want) {
          return "pair (" + std::to_string(s) + " -> " + std::to_string(d) + ", " +
                 (want_data ? "reachable" : "unreachable") + "): got " +
                 std::to_string(bytes(s, d)) + " bytes, want " + std::to_string(want);
        }
      }
    }
    return "";
  }

  /// Ordered off-diagonal pairs that received exactly `expected_per_pair`
  /// bytes (the degradation sweeps' "delivered pairs" numerator).
  std::uint64_t complete_pairs(std::uint64_t expected_per_pair) const {
    std::uint64_t count = 0;
    for (topo::Rank s = 0; s < nodes_; ++s) {
      for (topo::Rank d = 0; d < nodes_; ++d) {
        if (s != d && bytes(s, d) == expected_per_pair) ++count;
      }
    }
    return count;
  }

  /// Total bytes recorded across all pairs — for conservation checks
  /// against the injected volume (nodes * (nodes-1) * m for an all-to-all).
  std::uint64_t total_bytes() const {
    return std::accumulate(bytes_.begin(), bytes_.end(), std::uint64_t{0});
  }

  std::int32_t nodes() const { return nodes_; }

 private:
  std::int32_t nodes_;
  std::vector<std::uint64_t> bytes_;
};

}  // namespace bgl::coll
