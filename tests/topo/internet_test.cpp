#include "topo/internet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

namespace marcopolo::topo {
namespace {

InternetConfig small_config(std::uint64_t seed = 42) {
  InternetConfig cfg;
  cfg.seed = seed;
  cfg.num_tier1 = 8;
  cfg.num_tier2 = 30;
  cfg.num_tier3 = 40;
  cfg.num_stub = 50;
  return cfg;
}

TEST(Internet, GeneratesRequestedPopulation) {
  Internet net(small_config());
  EXPECT_EQ(net.tier1().size(), 8u);
  EXPECT_EQ(net.tier2().size(), 30u);
  EXPECT_EQ(net.tier3().size(), 40u);
  EXPECT_EQ(net.stubs().size(), 50u);
  EXPECT_EQ(net.graph().size(), 128u);
}

TEST(Internet, GraphValidates) {
  Internet net(small_config());
  EXPECT_NO_THROW(net.graph().validate());
}

TEST(Internet, Tier1FormsFullPeeringClique) {
  Internet net(small_config());
  for (const auto a : net.tier1()) {
    EXPECT_EQ(net.graph().peers_of(a).size() +
                  net.graph().providers_of(a).size(),
              net.graph().peers_of(a).size())
        << "tier-1 must have no providers";
    std::size_t tier1_peers = 0;
    for (const auto& nb : net.graph().peers_of(a)) {
      if (net.tier(nb.id) == AsTier::Tier1) ++tier1_peers;
    }
    EXPECT_EQ(tier1_peers, net.tier1().size() - 1);
  }
}

TEST(Internet, EveryTransitAsHasUplinkOrIsTier1) {
  Internet net(small_config());
  for (const auto n : net.tier2()) {
    EXPECT_FALSE(net.graph().providers_of(n).empty())
        << "tier-2 AS" << net.graph().asn_of(n).value << " has no transit";
  }
  for (const auto n : net.tier3()) {
    EXPECT_FALSE(net.graph().providers_of(n).empty());
  }
  for (const auto n : net.stubs()) {
    EXPECT_FALSE(net.graph().providers_of(n).empty());
    EXPECT_TRUE(net.graph().customers_of(n).empty());
  }
}

TEST(Internet, DeterministicForSameSeed) {
  Internet a(small_config(7));
  Internet b(small_config(7));
  ASSERT_EQ(a.graph().size(), b.graph().size());
  ASSERT_EQ(a.graph().edge_count(), b.graph().edge_count());
  for (std::uint32_t i = 0; i < a.graph().size(); ++i) {
    const bgp::NodeId n{i};
    EXPECT_EQ(a.graph().asn_of(n), b.graph().asn_of(n));
    EXPECT_EQ(a.location(n), b.location(n));
    EXPECT_EQ(a.continent(n), b.continent(n));
    ASSERT_EQ(a.graph().neighbors(n).size(), b.graph().neighbors(n).size());
  }
}

TEST(Internet, DifferentSeedsProduceDifferentWiring) {
  Internet a(small_config(1));
  Internet b(small_config(2));
  // Same sizes, different edges (overwhelmingly likely).
  EXPECT_EQ(a.graph().size(), b.graph().size());
  bool differs = a.graph().edge_count() != b.graph().edge_count();
  for (std::uint32_t i = 0; !differs && i < a.graph().size(); ++i) {
    const bgp::NodeId n{i};
    if (a.graph().neighbors(n).size() != b.graph().neighbors(n).size()) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(Internet, NearestTier2SortedByDistance) {
  Internet net(small_config());
  const netsim::GeoPoint here{48.86, 2.35};  // Paris
  const auto nearest = net.nearest_tier2(here, 10);
  ASSERT_EQ(nearest.size(), 10u);
  for (std::size_t i = 1; i < nearest.size(); ++i) {
    EXPECT_LE(netsim::great_circle_km(here, net.location(nearest[i - 1])),
              netsim::great_circle_km(here, net.location(nearest[i])) + 1e-9);
  }
}

TEST(Internet, AddLeafAsExtendsGraph) {
  Internet net(small_config());
  const auto before = net.graph().size();
  const auto leaf = net.add_leaf_as(bgp::Asn{64512}, {1.35, 103.82},
                                    Continent::Asia);
  EXPECT_EQ(net.graph().size(), before + 1);
  EXPECT_EQ(net.tier(leaf), AsTier::Stub);
  EXPECT_EQ(net.rir(leaf), Rir::Apnic);
}

TEST(Internet, Tier1ForSpreadsAcrossClique) {
  Internet net(small_config());
  std::set<std::uint32_t> chosen;
  for (std::uint64_t salt = 0; salt < 64; ++salt) {
    chosen.insert(net.tier1_for(salt).value);
  }
  // 64 salts over 8 tier-1s: expect near-full coverage.
  EXPECT_GE(chosen.size(), 6u);
}

TEST(Internet, DeployRovMarksRequestedFraction) {
  Internet net(small_config());
  net.deploy_rov(0.5, 99);
  std::size_t enforcing = 0;
  std::size_t transit = 0;
  for (std::uint32_t i = 0; i < net.graph().size(); ++i) {
    const bgp::NodeId n{i};
    if (net.tier(n) != AsTier::Stub) {
      ++transit;
      if (net.graph().rov_enforcing(n)) ++enforcing;
    } else {
      EXPECT_FALSE(net.graph().rov_enforcing(n));
    }
  }
  EXPECT_NEAR(static_cast<double>(enforcing) / static_cast<double>(transit),
              0.5, 0.15);
}

TEST(Internet, NearestTier2MatchesBruteForce) {
  // The spatial index must select exactly what a full sort does: the k
  // closest tier-2s, ties broken by insertion order.
  Internet net(small_config());
  const std::vector<netsim::GeoPoint> queries = {
      {48.86, 2.35},    // Paris
      {1.35, 103.82},   // Singapore
      {-23.55, -46.63}, // São Paulo
      {40.71, -74.0},   // New York
      {-36.85, 174.76}, // Auckland (sparse bucket neighborhood)
      {78.22, 15.64},   // Svalbard (far from every tier-2)
  };
  for (const auto& q : queries) {
    for (const std::size_t k :
         {std::size_t{1}, std::size_t{4}, std::size_t{10},
          net.tier2().size(), net.tier2().size() + 5}) {
      const auto got = net.nearest_tier2(q, k);
      auto expected = net.tier2();
      std::stable_sort(expected.begin(), expected.end(),
                       [&](bgp::NodeId a, bgp::NodeId b) {
                         return netsim::great_circle_km(q, net.location(a)) <
                                netsim::great_circle_km(q, net.location(b));
                       });
      expected.resize(std::min(k, expected.size()));
      ASSERT_EQ(got.size(), expected.size()) << "k=" << k;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].value, expected[i].value)
            << "rank " << i << " for k=" << k;
      }
    }
  }
}

TEST(Internet, RedrawPreservesConfiguredMultihoming) {
  // Small provider pools maximize draw collisions; the generator must
  // redraw on a duplicate, not silently drop the uplink (which left
  // ~1/pool of the layer single-homed).
  InternetConfig cfg;
  cfg.seed = 7;
  cfg.num_tier1 = 5;
  cfg.num_tier2 = 8;
  cfg.num_tier3 = 2;
  cfg.num_stub = 400;
  Internet net(cfg);

  // Every tier-3 is configured for 2 tier-2 uplinks and has 8 candidates.
  for (const auto n : net.tier3()) {
    std::size_t tier2_providers = 0;
    for (const auto& nb : net.graph().providers_of(n)) {
      if (net.tier(nb.id) == AsTier::Tier2) ++tier2_providers;
    }
    EXPECT_GE(tier2_providers, 2u)
        << "tier-3 AS" << net.graph().asn_of(n).value << " lost an uplink";
  }

  // Stubs draw 1 or 2 uplinks (mean 1.5). Dropped collisions drag the
  // mean toward ~1.4 with pools this small.
  std::size_t links = 0;
  for (const auto n : net.stubs()) {
    links += net.graph().providers_of(n).size();
  }
  const double mean =
      static_cast<double>(links) / static_cast<double>(net.stubs().size());
  EXPECT_GE(mean, 1.45);
  EXPECT_LE(mean, 1.58);
}

TEST(Internet, ScaledConfigKeepsTierProportions) {
  for (const int total : {600, 5000, 50000}) {
    const InternetConfig cfg = scaled_internet_config(total);
    const int sum =
        cfg.num_tier1 + cfg.num_tier2 + cfg.num_tier3 + cfg.num_stub;
    EXPECT_EQ(sum, total);
    EXPECT_GE(cfg.num_tier1, 12);
    EXPECT_LE(cfg.num_tier1, 16);
    EXPECT_GE(cfg.num_stub, total * 3 / 5) << "stubs must dominate";
  }
  EXPECT_THROW((void)scaled_internet_config(32), std::invalid_argument);
}

TEST(Internet, RejectsDegenerateConfig) {
  InternetConfig cfg;
  cfg.num_tier1 = 1;
  EXPECT_THROW(Internet net(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace marcopolo::topo
