#include "bgp/propagation.hpp"

#include <gtest/gtest.h>

#include <set>

#include "topo/internet.hpp"

namespace marcopolo::bgp {
namespace {

const netsim::Ipv4Prefix kPrefix = *netsim::Ipv4Prefix::parse("203.0.113.0/24");

SeededRoute origin_at(NodeId n, OriginRole role = OriginRole::Victim) {
  return SeededRoute{n, Announcement{kPrefix, {}, role}};
}

TEST(Propagation, LinearChainReachesEveryone) {
  // t1 <- t2 <- stub(origin): route climbs and descends.
  AsGraph g;
  const NodeId t1 = g.add_as(Asn{1});
  const NodeId t2 = g.add_as(Asn{2});
  const NodeId stub = g.add_as(Asn{3});
  g.add_provider_customer(t1, t2);
  g.add_provider_customer(t2, stub);

  const auto result = propagate(g, {origin_at(stub)}, PropagationConfig{});
  ASSERT_TRUE(result.reachable(t1));
  ASSERT_TRUE(result.reachable(t2));
  EXPECT_EQ(result.best[t1.value]->ann.path_string(), "2 3");
  EXPECT_EQ(result.best[t2.value]->ann.path_string(), "3");
  EXPECT_EQ(result.best[t2.value]->source, RouteSource::Customer);
}

TEST(Propagation, ValleyFreeBlocksPeerToPeerTransit) {
  //   p1 -- p2 -- p3  (peerings); origin under p1.
  // p3 must NOT learn the route: p2 may not re-export a peer route.
  AsGraph g;
  const NodeId p1 = g.add_as(Asn{1});
  const NodeId p2 = g.add_as(Asn{2});
  const NodeId p3 = g.add_as(Asn{3});
  const NodeId stub = g.add_as(Asn{4});
  g.add_peering(p1, p2);
  g.add_peering(p2, p3);
  g.add_provider_customer(p1, stub);

  const auto result = propagate(g, {origin_at(stub)}, PropagationConfig{});
  EXPECT_TRUE(result.reachable(p1));
  EXPECT_TRUE(result.reachable(p2));
  EXPECT_FALSE(result.reachable(p3));
}

TEST(Propagation, ProviderRouteNotExportedToOtherProvider) {
  // stub has two providers; a route learned FROM provider A must not be
  // re-announced TO provider B.
  AsGraph g;
  const NodeId pa = g.add_as(Asn{1});
  const NodeId pb = g.add_as(Asn{2});
  const NodeId mid = g.add_as(Asn{3});
  const NodeId src = g.add_as(Asn{4});
  g.add_provider_customer(pa, mid);
  g.add_provider_customer(pb, mid);
  g.add_provider_customer(pa, src);

  const auto result = propagate(g, {origin_at(src)}, PropagationConfig{});
  ASSERT_TRUE(result.reachable(mid));
  EXPECT_EQ(result.best[mid.value]->source, RouteSource::Provider);
  // pb heard nothing: its only path would be a valley through mid.
  EXPECT_FALSE(result.reachable(pb));
}

TEST(Propagation, CustomerRoutePreferredOverPeerAndProvider) {
  // x has the origin as customer AND hears it via a peer: customer wins.
  AsGraph g;
  const NodeId top = g.add_as(Asn{1});
  const NodeId x = g.add_as(Asn{2});
  const NodeId y = g.add_as(Asn{3});
  const NodeId src = g.add_as(Asn{4});
  g.add_provider_customer(top, x);
  g.add_provider_customer(top, y);
  g.add_peering(x, y);
  g.add_provider_customer(x, src);
  g.add_provider_customer(y, src);

  const auto result = propagate(g, {origin_at(src)}, PropagationConfig{});
  ASSERT_TRUE(result.reachable(x));
  EXPECT_EQ(result.best[x.value]->source, RouteSource::Customer);
  EXPECT_EQ(result.best[x.value]->ann.path_string(), "4");
}

TEST(Propagation, ShorterPathWinsWithinSameClass) {
  // One origin, two provider paths of different length up to top:
  //   top - a - src        (top hears "2 5")
  //   top - b - c - src    (top hears "3 4 5")
  AsGraph g;
  const NodeId top = g.add_as(Asn{1});
  const NodeId a = g.add_as(Asn{2});
  const NodeId b = g.add_as(Asn{3});
  const NodeId c = g.add_as(Asn{4});
  const NodeId src = g.add_as(Asn{5});
  g.add_provider_customer(top, a);
  g.add_provider_customer(top, b);
  g.add_provider_customer(b, c);
  g.add_provider_customer(a, src);
  g.add_provider_customer(c, src);

  const auto result = propagate(g, {origin_at(src)}, PropagationConfig{});
  ASSERT_TRUE(result.reachable(top));
  // top hears "2 5" (len 2) from a and "3 4 5" (len 3) from b.
  EXPECT_EQ(result.best[top.value]->ann.path_string(), "2 5");
}

TEST(Propagation, TwoOriginsSplitTheTopology) {
  // Two tier-1 peers, each with its own origin below: each side keeps its
  // customer route (customer > peer).
  AsGraph g;
  const NodeId t1a = g.add_as(Asn{1});
  const NodeId t1b = g.add_as(Asn{2});
  const NodeId va = g.add_as(Asn{10});
  const NodeId vb = g.add_as(Asn{20});
  g.add_peering(t1a, t1b);
  g.add_provider_customer(t1a, va);
  g.add_provider_customer(t1b, vb);

  const auto result = propagate(
      g,
      {origin_at(va, OriginRole::Victim), origin_at(vb, OriginRole::Adversary)},
      PropagationConfig{});
  EXPECT_EQ(result.role_reached(t1a), OriginRole::Victim);
  EXPECT_EQ(result.role_reached(t1b), OriginRole::Adversary);
}

TEST(Propagation, TieBreakModesPickTheConfiguredOrigin) {
  // An observer equidistant from both origins through the same relationship
  // class: the route-age mode decides.
  AsGraph g;
  const NodeId obs = g.add_as(Asn{1});
  const NodeId va = g.add_as(Asn{10});
  const NodeId vb = g.add_as(Asn{20});
  g.add_provider_customer(obs, va);
  g.add_provider_customer(obs, vb);

  PropagationConfig victim_first;
  victim_first.tie_break = TieBreakMode::VictimFirst;
  auto r1 = propagate(g,
                      {origin_at(va, OriginRole::Victim),
                       origin_at(vb, OriginRole::Adversary)},
                      victim_first);
  EXPECT_EQ(r1.role_reached(obs), OriginRole::Victim);

  PropagationConfig adversary_first;
  adversary_first.tie_break = TieBreakMode::AdversaryFirst;
  auto r2 = propagate(g,
                      {origin_at(va, OriginRole::Victim),
                       origin_at(vb, OriginRole::Adversary)},
                      adversary_first);
  EXPECT_EQ(r2.role_reached(obs), OriginRole::Adversary);
}

TEST(Propagation, RovDropsInvalidAnnouncements) {
  RoaRegistry roas;
  roas.add(Roa{kPrefix, Asn{10}, std::nullopt});

  AsGraph g;
  const NodeId enforcing = g.add_as(Asn{1});
  const NodeId hijacker = g.add_as(Asn{666});
  g.add_provider_customer(enforcing, hijacker);
  g.set_rov_enforcing(enforcing, true);

  PropagationConfig cfg;
  cfg.roas = &roas;
  const auto result =
      propagate(g, {origin_at(hijacker, OriginRole::Adversary)}, cfg);
  EXPECT_FALSE(result.reachable(enforcing));

  // Same topology, non-enforcing: the invalid route is accepted.
  AsGraph g2;
  const NodeId lax = g2.add_as(Asn{1});
  const NodeId hijacker2 = g2.add_as(Asn{666});
  g2.add_provider_customer(lax, hijacker2);
  const auto result2 =
      propagate(g2, {origin_at(hijacker2, OriginRole::Adversary)}, cfg);
  EXPECT_TRUE(result2.reachable(lax));
}

TEST(Propagation, ForgedOriginBypassesRovAtPathCost) {
  RoaRegistry roas;
  roas.add(Roa{kPrefix, Asn{10}, std::nullopt});

  AsGraph g;
  const NodeId enforcing = g.add_as(Asn{1});
  const NodeId hijacker = g.add_as(Asn{666});
  g.add_provider_customer(enforcing, hijacker);
  g.set_rov_enforcing(enforcing, true);

  PropagationConfig cfg;
  cfg.roas = &roas;
  // Forged-origin seed: path already ends in the authorized origin.
  const SeededRoute forged{
      hijacker, Announcement{kPrefix, {Asn{10}}, OriginRole::Adversary}};
  const auto result = propagate(g, {forged}, cfg);
  ASSERT_TRUE(result.reachable(enforcing));
  EXPECT_EQ(result.best[enforcing.value]->ann.path_string(), "666 10");
  EXPECT_EQ(result.best[enforcing.value]->ann.path_length(), 2u);
}

TEST(Propagation, LoopPreventionDropsOwnAsn) {
  // The victim never accepts the forged-origin announcement carrying its
  // own ASN.
  AsGraph g;
  const NodeId top = g.add_as(Asn{1});
  const NodeId victim = g.add_as(Asn{10});
  const NodeId hijacker = g.add_as(Asn{666});
  g.add_provider_customer(top, victim);
  g.add_provider_customer(top, hijacker);

  const SeededRoute forged{
      hijacker, Announcement{kPrefix, {Asn{10}}, OriginRole::Adversary}};
  const auto result = propagate(g, {forged}, PropagationConfig{});
  EXPECT_TRUE(result.reachable(top));
  EXPECT_FALSE(result.reachable(victim));
}

TEST(Propagation, RejectsMismatchedSeeds) {
  AsGraph g;
  const NodeId a = g.add_as(Asn{1});
  const NodeId b = g.add_as(Asn{2});
  g.add_peering(a, b);
  const SeededRoute s1{a, Announcement{kPrefix, {}, OriginRole::Victim}};
  const SeededRoute s2{
      b, Announcement{*netsim::Ipv4Prefix::parse("198.51.100.0/24"),
                      {},
                      OriginRole::Adversary}};
  EXPECT_THROW((void)propagate(g, {s1, s2}, PropagationConfig{}),
               std::invalid_argument);
  EXPECT_THROW((void)propagate(g, {}, PropagationConfig{}),
               std::invalid_argument);
}

// Structural properties over the full synthetic Internet, for several
// origin placements: every best path is loop-free and valley-free.
class PropagationProperties : public ::testing::TestWithParam<int> {};

TEST_P(PropagationProperties, PathsAreLoopFreeAndValleyFree) {
  topo::InternetConfig cfg;
  cfg.num_tier2 = 40;
  cfg.num_tier3 = 60;
  cfg.num_stub = 80;
  cfg.seed = 77;
  topo::Internet internet(cfg);
  const auto& g = internet.graph();

  const auto origin =
      internet.stubs()[static_cast<std::size_t>(GetParam()) %
                       internet.stubs().size()];
  const auto result = propagate(g, {origin_at(origin)}, PropagationConfig{});

  std::size_t reached = 0;
  for (std::uint32_t i = 0; i < g.size(); ++i) {
    const auto& best = result.best[i];
    if (!best) continue;
    ++reached;
    // Loop-free: no repeated ASN, and the local ASN is absent.
    std::set<std::uint32_t> seen;
    for (const Asn asn : best->ann.as_path) {
      EXPECT_TRUE(seen.insert(asn.value).second)
          << "repeated ASN in path " << best->ann.path_string();
    }
    EXPECT_FALSE(best->ann.path_contains(g.asn_of(NodeId{i})));
    // Every received route must terminate in the true origin (the origin
    // itself holds a Self route with an empty path).
    if (best->source != RouteSource::Self) {
      EXPECT_EQ(best->ann.origin(), g.asn_of(origin));
    } else {
      EXPECT_EQ(NodeId{i}, origin);
    }
  }
  // The origin's route reaches the overwhelming majority of a connected
  // hierarchy.
  EXPECT_GT(reached, g.size() * 9 / 10);
}

INSTANTIATE_TEST_SUITE_P(Origins, PropagationProperties,
                         ::testing::Range(0, 8));

TEST(Propagation, ParallelLinksDeliverDistinctIngressPops) {
  // Cloud backbones attach the same neighbor at several POPs. Each link's
  // candidate must carry the receiver-side POP of ITS OWN link — a scan of
  // the receiver's neighbor list for the sender finds only the first link
  // and mislabels the rest.
  AsGraph g;
  const NodeId cloud = g.add_as(Asn{1});
  const NodeId edge = g.add_as(Asn{2});
  const PopId fra{10};
  const PopId sin{11};
  g.add_provider_customer(cloud, edge, /*provider_pop=*/fra,
                          /*customer_pop=*/PopId{20});
  g.add_provider_customer(cloud, edge, /*provider_pop=*/sin,
                          /*customer_pop=*/PopId{21});

  const auto result = propagate(g, {origin_at(edge)}, PropagationConfig{});
  ASSERT_TRUE(result.reachable(cloud));
  const auto& rib = result.rib_in[cloud.value];
  ASSERT_EQ(rib.size(), 2u);
  std::set<std::uint16_t> pops;
  for (const auto& cand : rib) pops.insert(cand.ingress_pop.value);
  EXPECT_EQ(pops, (std::set<std::uint16_t>{fra.value, sin.value}))
      << "both cloud-side POPs must appear, not the first one twice";

  // Down direction too: the edge hears the cloud's (non-)routes at its own
  // side of each link. Seed at the cloud instead.
  const auto down = propagate(g, {origin_at(cloud)}, PropagationConfig{});
  ASSERT_TRUE(down.reachable(edge));
  std::set<std::uint16_t> edge_pops;
  for (const auto& cand : down.rib_in[edge.value]) {
    edge_pops.insert(cand.ingress_pop.value);
  }
  EXPECT_EQ(edge_pops, (std::set<std::uint16_t>{20, 21}));
}

}  // namespace
}  // namespace marcopolo::bgp
