// Exact k-nearest-neighbor index over a fixed set of geographic points.
//
// The Internet generator attaches every tier-3/stub AS (and every Vultr
// site and cloud POP) to its nearest tier-2 transit providers. Sorting the
// whole tier-2 vector per attachment is O(n * T2 log T2), which dominates
// topology generation at 50k+ ASes; this index answers the same queries
// from a k-d tree in roughly O(log T2 + answer) per query.
//
// Distances are compared as squared 3D chord lengths between unit vectors,
// which order identically to great-circle distance (the chord is a strictly
// monotone function of the central angle) without any per-pair
// trigonometry. The tree splits each node at the median of its widest axis
// and descends into the query's side first. The other side is skipped only
// when the squared gap along the split axis is strictly greater than the
// kth-best squared chord: floating-point rounding is monotone, so that gap
// never exceeds the computed distance of a point on the far side, and a
// point whose distance ties the kth-best is still visited.
//
// Queries return exactly the points a full sort would select, in the same
// order: ascending distance with ties broken by insertion index (the order
// std::stable_sort preserved).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "netsim/geo.hpp"

namespace marcopolo::topo {

class SpatialIndex {
 public:
  /// Build over `points`; result indices refer to positions in this vector.
  explicit SpatialIndex(const std::vector<netsim::GeoPoint>& points);

  /// Indices of the `count` nearest points to `where` (fewer if the index
  /// holds fewer), ascending by distance, ties by index.
  [[nodiscard]] std::vector<std::uint32_t> nearest(netsim::GeoPoint where,
                                                   std::size_t count) const;

  [[nodiscard]] std::size_t size() const { return points_.size(); }

 private:
  struct Point {
    std::array<double, 3> unit;  ///< Unit vector (x, y, z).
    std::uint32_t index;         ///< Position in the constructor's vector.
  };

  /// Nodes are stored in preorder, so an inner node's left child is the
  /// next node. Each node covers points_[begin, end); a leaf has right == 0
  /// (the root is never anyone's child).
  struct Node {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    std::uint32_t right = 0;
    std::uint8_t axis = 0;
    double split = 0.0;  ///< Left child <= split <= right child on `axis`.
  };

  struct Search;

  std::uint32_t build(std::uint32_t begin, std::uint32_t end);
  void search(std::uint32_t node, Search& s) const;

  std::vector<Point> points_;  ///< Permuted so every node's points are contiguous.
  std::vector<Node> nodes_;
};

}  // namespace marcopolo::topo
