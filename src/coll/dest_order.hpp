// Per-node randomized destination orderings (or, for many-to-many patterns,
// an explicit per-node list).
//
// The production MPI all-to-all and the paper's AR scheme inject packets in a
// random permutation of destinations to smooth out link contention. For
// partitions up to kShuffleLimit nodes we materialize a true Fisher-Yates
// permutation per node; above that (e.g. the 20,480-node partition) we use an
// O(1)-memory random affine bijection, which decorrelates nodes equally well
// for this purpose without the O(P^2) memory.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/topology/torus.hpp"
#include "src/util/rng.hpp"

namespace bgl::coll {

inline constexpr std::int32_t kShuffleLimit = 4096;

/// How a node orders its P-1 destinations.
enum class OrderPolicy {
  kRandom,    // per-node random permutation (the paper's randomized schemes)
  kRotation,  // self+1, self+2, ... — the classic non-random baseline
  kIdentity,  // 0, 1, 2, ... identical on every node — pathological convoys
};

class DestOrder {
 public:
  DestOrder() = default;

  /// An explicit destination list, walked as given (many-to-many patterns;
  /// the caller shuffles and strips self).
  explicit DestOrder(std::vector<topo::Rank> list) : list_(std::move(list)) {}

  DestOrder(topo::Rank self, std::int32_t nodes, util::Xoshiro256StarStar& rng,
            OrderPolicy policy = OrderPolicy::kRandom)
      : self_(self), nodes_(nodes) {
    if (policy != OrderPolicy::kRandom || nodes_ <= kShuffleLimit) {
      list_.reserve(static_cast<std::size_t>(nodes_) - 1);
      if (policy == OrderPolicy::kRotation) {
        for (topo::Rank offset = 1; offset < nodes_; ++offset) {
          list_.push_back(static_cast<topo::Rank>((self_ + offset) % nodes_));
        }
      } else {
        for (topo::Rank r = 0; r < nodes_; ++r) {
          if (r != self_) list_.push_back(r);
        }
      }
      if (policy == OrderPolicy::kRandom) rng.shuffle(list_);
    } else {
      affine_ = util::AffinePermutation(static_cast<std::uint64_t>(nodes_), rng);
      use_affine_ = true;
    }
  }

  /// Number of order positions; positions may yield -1 (self) in affine mode.
  std::uint32_t positions() const {
    return use_affine_ ? static_cast<std::uint32_t>(nodes_)
                       : static_cast<std::uint32_t>(list_.size());
  }

  /// Destination at position i, or -1 when the position maps to self
  /// (affine mode only; callers skip it).
  topo::Rank at(std::uint32_t i) const {
    if (!use_affine_) return list_[i];
    const auto r = static_cast<topo::Rank>(affine_(i));
    return r == self_ ? -1 : r;
  }

  /// Swap two positions (used by credit flow control to defer a blocked
  /// destination). Only supported in materialized mode.
  bool swappable() const { return !use_affine_; }
  void swap(std::uint32_t i, std::uint32_t j) { std::swap(list_[i], list_[j]); }

 private:
  topo::Rank self_ = 0;
  std::int32_t nodes_ = 0;
  std::vector<topo::Rank> list_;
  util::AffinePermutation affine_;
  bool use_affine_ = false;
};

}  // namespace bgl::coll
