// SpatialIndex against its oracle: a brute-force stable sort of every
// point by the same squared chord distance, from unit vectors computed the
// way the index computes them. The index must return exactly that prefix:
// ascending distance, ties by insertion index.
#include "topo/spatial_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numbers>
#include <numeric>
#include <vector>

#include "netsim/random.hpp"
#include "topo/internet.hpp"

namespace marcopolo::topo {
namespace {

std::array<double, 3> unit_of(netsim::GeoPoint p) {
  const double lat = p.lat * std::numbers::pi / 180.0;
  const double lon = p.lon * std::numbers::pi / 180.0;
  const double c = std::cos(lat);
  return {c * std::cos(lon), c * std::sin(lon), std::sin(lat)};
}

std::vector<std::uint32_t> brute_force(
    const std::vector<netsim::GeoPoint>& points, netsim::GeoPoint where,
    std::size_t count) {
  const std::array<double, 3> q = unit_of(where);
  std::vector<double> dist2(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::array<double, 3> p = unit_of(points[i]);
    const double dx = p[0] - q[0];
    const double dy = p[1] - q[1];
    const double dz = p[2] - q[2];
    dist2[i] = dx * dx + dy * dy + dz * dz;
  }
  std::vector<std::uint32_t> order(points.size());
  std::iota(order.begin(), order.end(), 0U);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return dist2[a] < dist2[b];
                   });
  order.resize(std::min(count, order.size()));
  return order;
}

/// Uniform over the sphere's lat/lon box, poles and the antimeridian
/// included.
std::vector<netsim::GeoPoint> scattered(std::size_t n, std::uint64_t seed) {
  netsim::Rng rng(seed);
  std::vector<netsim::GeoPoint> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back({rng.real() * 180.0 - 90.0, rng.real() * 360.0 - 180.0});
  }
  return points;
}

TEST(SpatialIndex, MatchesBruteForceOnEveryAttachmentOfA5kBuild) {
  // Every tier-3 and stub location of a 5k-AS build, at the pool sizes
  // the generator draws from (8 for tier-3, 6 for stubs).
  const Internet net(scaled_internet_config(5000));
  std::vector<netsim::GeoPoint> tier2;
  for (const bgp::NodeId n : net.tier2()) tier2.push_back(net.location(n));

  std::size_t queries = 0;
  std::size_t mismatches = 0;
  const auto check = [&](bgp::NodeId n, std::size_t k) {
    const auto got = net.nearest_tier2(net.location(n), k);
    const auto want = brute_force(tier2, net.location(n), k);
    ++queries;
    bool same = got.size() == want.size();
    for (std::size_t i = 0; same && i < got.size(); ++i) {
      same = got[i] == net.tier2()[want[i]];
    }
    if (!same) ++mismatches;
  };
  for (const bgp::NodeId n : net.tier3()) check(n, 8);
  for (const bgp::NodeId n : net.stubs()) check(n, 6);
  EXPECT_EQ(queries, net.tier3().size() + net.stubs().size());
  EXPECT_EQ(mismatches, 0U) << "of " << queries << " queries";
}

TEST(SpatialIndex, EveryPointAsAQuery) {
  const auto points = scattered(1500, 12345);
  const SpatialIndex index(points);
  ASSERT_EQ(index.size(), points.size());
  std::size_t mismatches = 0;
  for (const netsim::GeoPoint& q : points) {
    const auto order = brute_force(points, q, points.size());
    for (const std::ptrdiff_t k : {1, 8, 40}) {
      const std::vector<std::uint32_t> want(order.begin(), order.begin() + k);
      if (index.nearest(q, static_cast<std::size_t>(k)) != want) ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0U) << "of " << 3 * points.size() << " queries";
}

TEST(SpatialIndex, DuplicatePointsRankByIndex) {
  // More copies of one point than a leaf holds, interleaved with other
  // points, so equal coordinates straddle splits.
  std::vector<netsim::GeoPoint> points = scattered(60, 7);
  const netsim::GeoPoint dup{35.0, 139.0};
  std::vector<std::uint32_t> dup_indices;
  for (std::size_t i = 0; i < 30; ++i) {
    dup_indices.push_back(static_cast<std::uint32_t>(points.size()));
    points.push_back(dup);
    const netsim::GeoPoint copy = points[i];  // a scattered point, again
    points.push_back(copy);
  }
  const SpatialIndex index(points);

  const auto at_dup = index.nearest(dup, 12);
  EXPECT_EQ(at_dup, std::vector<std::uint32_t>(dup_indices.begin(),
                                               dup_indices.begin() + 12));
  for (const std::size_t k : {std::size_t{1}, std::size_t{31}, points.size()}) {
    EXPECT_EQ(index.nearest(dup, k), brute_force(points, dup, k)) << k;
    EXPECT_EQ(index.nearest(points[3], k), brute_force(points, points[3], k))
        << k;
  }
  // The scattered point and its copy: the lower index comes first.
  const auto pair = index.nearest(points[3], 2);
  ASSERT_EQ(pair.size(), 2U);
  EXPECT_EQ(pair[0], 3U);
  EXPECT_EQ(points[pair[1]], points[3]);
  EXPECT_GT(pair[1], 3U);
}

TEST(SpatialIndex, CountZeroAndCountPastSize) {
  const auto points = scattered(100, 99);
  const SpatialIndex index(points);
  const netsim::GeoPoint q{10.0, 20.0};
  EXPECT_TRUE(index.nearest(q, 0).empty());
  const auto all = index.nearest(q, points.size());
  EXPECT_EQ(all, brute_force(points, q, points.size()));
  EXPECT_EQ(index.nearest(q, points.size() + 7), all);
}

TEST(SpatialIndex, EmptyIndex) {
  const SpatialIndex index({});
  EXPECT_EQ(index.size(), 0U);
  EXPECT_TRUE(index.nearest({0.0, 0.0}, 5).empty());
  EXPECT_TRUE(index.nearest({0.0, 0.0}, 0).empty());
}

TEST(SpatialIndex, PolesAndAntimeridian) {
  std::vector<netsim::GeoPoint> points = scattered(400, 31);
  for (const netsim::GeoPoint p :
       {netsim::GeoPoint{90.0, 0.0}, netsim::GeoPoint{-90.0, 0.0},
        netsim::GeoPoint{0.0, 180.0}, netsim::GeoPoint{0.0, -180.0},
        netsim::GeoPoint{60.0, 180.0}, netsim::GeoPoint{-60.0, -180.0}}) {
    points.push_back(p);
  }
  const SpatialIndex index(points);
  for (const netsim::GeoPoint q :
       {netsim::GeoPoint{90.0, 0.0}, netsim::GeoPoint{90.0, 123.0},
        netsim::GeoPoint{-90.0, -45.0}, netsim::GeoPoint{0.0, 180.0},
        netsim::GeoPoint{0.0, -180.0}, netsim::GeoPoint{45.0, 180.0},
        netsim::GeoPoint{-45.0, -180.0}, netsim::GeoPoint{89.99, 179.99}}) {
    for (const std::size_t k : {std::size_t{1}, std::size_t{8},
                                std::size_t{40}, points.size()}) {
      EXPECT_EQ(index.nearest(q, k), brute_force(points, q, k))
          << "(" << q.lat << ", " << q.lon << ") k=" << k;
    }
  }
}

}  // namespace
}  // namespace marcopolo::topo
