#include "topo/spatial_index.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

namespace marcopolo::topo {

namespace {

// Points per leaf: small enough that a query scans a few dozen points,
// large enough that the tree stays shallow.
constexpr std::uint32_t kLeafSize = 8;

std::array<double, 3> unit_of(netsim::GeoPoint p) {
  const double lat = p.lat * std::numbers::pi / 180.0;
  const double lon = p.lon * std::numbers::pi / 180.0;
  const double c = std::cos(lat);
  return {c * std::cos(lon), c * std::sin(lon), std::sin(lat)};
}

/// Ranked query hit; orders ascending by distance, ties by insertion index
/// (the order a stable sort over the original vector preserves).
struct Hit {
  double dist2;
  std::uint32_t index;

  [[nodiscard]] bool better_than(const Hit& o) const {
    return dist2 < o.dist2 || (dist2 == o.dist2 && index < o.index);
  }
};

}  // namespace

struct SpatialIndex::Search {
  std::array<double, 3> q;
  std::size_t count;
  /// Kept sorted ascending (distance, index); the back is the current
  /// kth-best, the pruning bound once full.
  std::vector<Hit> best;

  void offer(const Point& p) {
    const double dx = p.unit[0] - q[0];
    const double dy = p.unit[1] - q[1];
    const double dz = p.unit[2] - q[2];
    const Hit hit{dx * dx + dy * dy + dz * dz, p.index};
    if (best.size() == count && !hit.better_than(best.back())) return;
    auto pos = std::upper_bound(
        best.begin(), best.end(), hit,
        [](const Hit& a, const Hit& b) { return a.better_than(b); });
    best.insert(pos, hit);
    if (best.size() > count) best.pop_back();
  }
};

SpatialIndex::SpatialIndex(const std::vector<netsim::GeoPoint>& points) {
  points_.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    points_.push_back(Point{unit_of(points[i]), static_cast<std::uint32_t>(i)});
  }
  if (!points_.empty()) {
    (void)build(0, static_cast<std::uint32_t>(points_.size()));
  }
}

std::uint32_t SpatialIndex::build(std::uint32_t begin, std::uint32_t end) {
  const auto id = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(Node{begin, end});
  if (end - begin <= kLeafSize) return id;

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::array<double, 3> lo = {kInf, kInf, kInf};
  std::array<double, 3> hi = {-kInf, -kInf, -kInf};
  for (std::uint32_t i = begin; i < end; ++i) {
    for (std::size_t a = 0; a < 3; ++a) {
      lo[a] = std::min(lo[a], points_[i].unit[a]);
      hi[a] = std::max(hi[a], points_[i].unit[a]);
    }
  }
  std::uint8_t axis = 0;
  for (std::uint8_t a = 1; a < 3; ++a) {
    if (hi[a] - lo[a] > hi[axis] - lo[axis]) axis = a;
  }

  // Median split; the index tie-break makes the two halves a function of
  // the point set alone.
  const std::uint32_t mid = begin + (end - begin) / 2;
  std::nth_element(points_.begin() + begin, points_.begin() + mid,
                   points_.begin() + end,
                   [axis](const Point& a, const Point& b) {
                     return a.unit[axis] < b.unit[axis] ||
                            (a.unit[axis] == b.unit[axis] && a.index < b.index);
                   });
  const double split = points_[mid].unit[axis];
  (void)build(begin, mid);  // the left child is node id + 1
  const std::uint32_t right = build(mid, end);
  nodes_[id].right = right;
  nodes_[id].axis = axis;
  nodes_[id].split = split;
  return id;
}

void SpatialIndex::search(std::uint32_t node, Search& s) const {
  const Node& n = nodes_[node];
  if (n.right == 0) {
    for (std::uint32_t i = n.begin; i < n.end; ++i) s.offer(points_[i]);
    return;
  }
  const double gap = s.q[n.axis] - n.split;
  const std::uint32_t near = gap < 0.0 ? node + 1 : n.right;
  const std::uint32_t far = gap < 0.0 ? n.right : node + 1;
  search(near, s);
  if (s.best.size() < s.count || !(gap * gap > s.best.back().dist2)) {
    search(far, s);
  }
}

std::vector<std::uint32_t> SpatialIndex::nearest(netsim::GeoPoint where,
                                                 std::size_t count) const {
  std::vector<std::uint32_t> out;
  if (count == 0 || points_.empty()) return out;

  Search s{unit_of(where), std::min(count, points_.size()), {}};
  s.best.reserve(s.count);
  search(0, s);

  out.reserve(s.best.size());
  for (const Hit& hit : s.best) out.push_back(hit.index);
  return out;
}

}  // namespace marcopolo::topo
