#include "cloud/model.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

namespace marcopolo::cloud {
namespace {

topo::InternetConfig small_config() {
  topo::InternetConfig cfg;
  cfg.num_tier2 = 40;
  cfg.num_tier3 = 40;
  cfg.num_stub = 40;
  return cfg;
}

TEST(CloudDefaults, MatchPaperPolicies) {
  const auto aws = default_config(topo::CloudProvider::Aws);
  EXPECT_EQ(aws.policy, EgressPolicy::HotPotato);
  EXPECT_EQ(aws.asn, bgp::Asn{16509});

  const auto gcp = default_config(topo::CloudProvider::Gcp);
  EXPECT_EQ(gcp.policy, EgressPolicy::ColdPotato);  // Premium Tier
  EXPECT_EQ(gcp.asn, bgp::Asn{15169});

  const auto azure = default_config(topo::CloudProvider::Azure);
  EXPECT_EQ(azure.policy, EgressPolicy::HotPotato);
  EXPECT_GT(azure.peers_per_pop, aws.peers_per_pop);  // densest peering

  // The node pools host no perspectives.
  EXPECT_THROW((void)default_config(topo::CloudProvider::Vultr),
               std::invalid_argument);
  EXPECT_THROW((void)default_config(topo::CloudProvider::Peering),
               std::invalid_argument);
}

TEST(ZoneGranularity, SuperRegionFoldsContinents) {
  using topo::Continent;
  EXPECT_EQ(zone_of(Continent::NorthAmerica, ZoneGranularity::SuperRegion),
            zone_of(Continent::SouthAmerica, ZoneGranularity::SuperRegion));
  EXPECT_EQ(zone_of(Continent::Europe, ZoneGranularity::SuperRegion),
            zone_of(Continent::Africa, ZoneGranularity::SuperRegion));
  EXPECT_EQ(zone_of(Continent::Asia, ZoneGranularity::SuperRegion),
            zone_of(Continent::Oceania, ZoneGranularity::SuperRegion));
  EXPECT_NE(zone_of(Continent::NorthAmerica, ZoneGranularity::SuperRegion),
            zone_of(Continent::Europe, ZoneGranularity::SuperRegion));
  // Continent granularity keeps them apart.
  EXPECT_NE(zone_of(Continent::NorthAmerica, ZoneGranularity::Continent),
            zone_of(Continent::SouthAmerica, ZoneGranularity::Continent));
}

class CloudModelTest : public ::testing::Test {
 protected:
  CloudModelTest() : internet_(small_config()) {
    victim_ = internet_.add_leaf_as(bgp::Asn{64512}, {35.68, 139.69},
                                    topo::Continent::Asia);
    adversary_ = internet_.add_leaf_as(bgp::Asn{64513}, {40.71, -74.01},
                                       topo::Continent::NorthAmerica);
    internet_.graph().add_provider_customer(internet_.tier1_for(3), victim_);
    internet_.graph().add_provider_customer(internet_.tier1_for(4),
                                            adversary_);
    for (const auto t2 : internet_.nearest_tier2({35.68, 139.69}, 2)) {
      internet_.graph().add_provider_customer(t2, victim_);
    }
    for (const auto t2 : internet_.nearest_tier2({40.71, -74.01}, 2)) {
      internet_.graph().add_provider_customer(t2, adversary_);
    }
  }

  bgp::HijackScenario make_scenario(bgp::AttackType type =
                                        bgp::AttackType::EquallySpecific) {
    bgp::ScenarioConfig cfg;
    cfg.type = type;
    cfg.tie_break = bgp::TieBreakMode::Hashed;
    return bgp::HijackScenario(internet_.graph(), victim_, adversary_,
                               *netsim::Ipv4Prefix::parse("203.0.113.0/24"),
                               cfg);
  }

  topo::Internet internet_;
  bgp::NodeId victim_;
  bgp::NodeId adversary_;
};

TEST_F(CloudModelTest, WiresOnePopPerRegion) {
  const CloudProviderModel model(internet_,
                                 default_config(topo::CloudProvider::Aws));
  EXPECT_EQ(model.perspective_count(), topo::aws_regions().size());
  // Every neighbor entry on the backbone names a valid POP or transit.
  std::set<std::uint16_t> pops;
  for (const auto& nb : internet_.graph().neighbors(model.backbone())) {
    if (nb.local_pop.valid()) {
      EXPECT_LT(nb.local_pop.value, model.perspective_count());
      pops.insert(nb.local_pop.value);
    }
  }
  // Peering exists at many POPs (27 regions x 2 peers, some dedup).
  EXPECT_GT(pops.size(), model.perspective_count() / 2);
}

TEST_F(CloudModelTest, BackboneIsStub) {
  const CloudProviderModel model(internet_,
                                 default_config(topo::CloudProvider::Gcp));
  EXPECT_TRUE(internet_.graph().customers_of(model.backbone()).empty());
  EXPECT_FALSE(internet_.graph().providers_of(model.backbone()).empty());
}

TEST_F(CloudModelTest, EveryPerspectiveResolvesUnderAttack) {
  const CloudProviderModel model(internet_,
                                 default_config(topo::CloudProvider::Aws));
  const auto scenario = make_scenario();
  std::size_t victims = 0;
  std::size_t adversaries = 0;
  for (std::size_t p = 0; p < model.perspective_count(); ++p) {
    switch (model.resolve(p, scenario)) {
      case bgp::OriginReached::Victim: ++victims; break;
      case bgp::OriginReached::Adversary: ++adversaries; break;
      case bgp::OriginReached::None: break;
    }
  }
  EXPECT_EQ(victims + adversaries, model.perspective_count())
      << "backbone must have a route for every perspective";
}

TEST_F(CloudModelTest, ColdPotatoPerspectivesMoveByZone) {
  auto cfg = default_config(topo::CloudProvider::Gcp);
  const CloudProviderModel model(internet_, cfg);
  const auto scenario = make_scenario();
  // Within one zone every perspective must agree.
  std::map<std::uint8_t, bgp::OriginReached> zone_outcome;
  for (std::size_t p = 0; p < model.perspective_count(); ++p) {
    const auto zone = zone_of(model.regions()[p].continent, cfg.zones);
    const auto outcome = model.resolve(p, scenario);
    const auto [it, fresh] = zone_outcome.emplace(zone, outcome);
    if (!fresh) {
      EXPECT_EQ(it->second, outcome)
          << "cold-potato zone " << int(zone) << " split at perspective "
          << model.regions()[p].name;
    }
  }
}

TEST_F(CloudModelTest, HotPotatoCanSplitWithinContinent) {
  // Not guaranteed per-scenario, but across many pairs hot potato must
  // produce at least one intra-continent split — otherwise it would be
  // indistinguishable from cold potato.
  const CloudProviderModel model(internet_,
                                 default_config(topo::CloudProvider::Aws));
  bool split_seen = false;
  for (std::uint64_t salt = 0; salt < 20 && !split_seen; ++salt) {
    bgp::ScenarioConfig cfg;
    cfg.tie_break = bgp::TieBreakMode::Hashed;
    cfg.tie_break_seed = salt;
    const bgp::HijackScenario scenario(
        internet_.graph(), victim_, adversary_,
        *netsim::Ipv4Prefix::parse("203.0.113.0/24"), cfg);
    std::map<topo::Continent, std::set<bgp::OriginReached>> per_continent;
    for (std::size_t p = 0; p < model.perspective_count(); ++p) {
      per_continent[model.regions()[p].continent].insert(
          model.resolve(p, scenario));
    }
    for (const auto& [cont, outcomes] : per_continent) {
      if (outcomes.size() > 1) split_seen = true;
    }
  }
  EXPECT_TRUE(split_seen);
}

TEST_F(CloudModelTest, GeoMarginControlsColdPotatoDeterminism) {
  // geo_margin ~1 lets geography decide almost every zone (origins are
  // rarely equidistant); geo_margin 0 makes every zone a coin. The two
  // extremes must disagree somewhere across attack pairs.
  auto decisive_cfg = default_config(topo::CloudProvider::Gcp);
  decisive_cfg.geo_margin = 0.999;
  decisive_cfg.asn = bgp::Asn{65101};
  const CloudProviderModel decisive(internet_, decisive_cfg);

  auto coin_cfg = default_config(topo::CloudProvider::Gcp);
  coin_cfg.geo_margin = 0.0;
  coin_cfg.asn = bgp::Asn{65102};
  const CloudProviderModel coin(internet_, coin_cfg);

  bool differs = false;
  for (std::uint64_t seed = 0; seed < 6 && !differs; ++seed) {
    bgp::ScenarioConfig cfg;
    cfg.tie_break = bgp::TieBreakMode::Hashed;
    cfg.tie_break_seed = seed;
    const bgp::HijackScenario scenario(
        internet_.graph(), victim_, adversary_,
        *netsim::Ipv4Prefix::parse("203.0.113.0/24"), cfg);
    for (std::size_t p = 0; p < decisive.perspective_count(); ++p) {
      if (decisive.resolve(p, scenario) != coin.resolve(p, scenario)) {
        differs = true;
        break;
      }
    }
  }
  EXPECT_TRUE(differs);
}

TEST_F(CloudModelTest, SubPrefixCapturesAllPerspectives) {
  const CloudProviderModel model(internet_,
                                 default_config(topo::CloudProvider::Aws));
  const auto scenario = make_scenario(bgp::AttackType::SubPrefix);
  for (std::size_t p = 0; p < model.perspective_count(); ++p) {
    EXPECT_EQ(model.resolve(p, scenario), bgp::OriginReached::Adversary);
  }
}

TEST_F(CloudModelTest, RovAtCloudEdgeDropsInvalidCandidates) {
  const CloudProviderModel model(internet_,
                                 default_config(topo::CloudProvider::Aws));
  bgp::RoaRegistry roas;
  roas.add(bgp::Roa{*netsim::Ipv4Prefix::parse("203.0.113.0/24"),
                    bgp::Asn{64512}, std::nullopt});
  const auto scenario = make_scenario();  // plain hijack: adversary invalid
  for (std::size_t p = 0; p < model.perspective_count(); ++p) {
    EXPECT_EQ(model.resolve(p, scenario, &roas), bgp::OriginReached::Victim);
  }
}

TEST_F(CloudModelTest, SelectEgressEmptyRibReturnsNull) {
  const CloudProviderModel model(internet_,
                                 default_config(topo::CloudProvider::Aws));
  const bgp::RouteComparator cmp(bgp::TieBreakMode::Hashed, 1);
  EXPECT_EQ(model.select_egress(0, {}, cmp), nullptr);
  EXPECT_THROW((void)model.select_egress(10000, {}, cmp), std::out_of_range);
}

TEST_F(CloudModelTest, SelectEgressRejectsOutOfRangeIngressPop) {
  // A caller's RIB may name a POP the backbone does not have; selection
  // must refuse it rather than index past the distance table.
  const CloudProviderModel model(internet_,
                                 default_config(topo::CloudProvider::Aws));
  const bgp::RouteComparator cmp(bgp::TieBreakMode::Hashed, 1);
  const auto prefix = *netsim::Ipv4Prefix::parse("203.0.113.0/24");
  for (const std::uint16_t pop :
       {static_cast<std::uint16_t>(model.perspective_count()),
        std::uint16_t{5000}}) {
    const std::vector<bgp::RouteCandidate> rib = {bgp::RouteCandidate{
        bgp::Announcement{prefix, {bgp::Asn{1}, bgp::Asn{9}},
                          bgp::OriginRole::Adversary},
        bgp::RouteSource::Peer, bgp::NodeId{0}, bgp::Asn{1}, bgp::PopId{pop}}};
    EXPECT_THROW((void)model.select_egress(0, rib, cmp), std::out_of_range)
        << "POP " << pop;
    EgressScratch scratch;
    std::vector<ResolveExplanation> out(model.perspective_count());
    EXPECT_THROW(model.select_all(rib, cmp, nullptr, scratch, out),
                 std::out_of_range)
        << "POP " << pop;
  }
}

TEST_F(CloudModelTest, SelectEgressPrefersPeerOverProvider) {
  const CloudProviderModel model(internet_,
                                 default_config(topo::CloudProvider::Aws));
  const bgp::RouteComparator cmp(bgp::TieBreakMode::VictimFirst, 1);
  const auto prefix = *netsim::Ipv4Prefix::parse("203.0.113.0/24");
  std::vector<bgp::RouteCandidate> rib;
  rib.push_back(bgp::RouteCandidate{
      bgp::Announcement{prefix, {bgp::Asn{1}, bgp::Asn{9}},
                        bgp::OriginRole::Adversary},
      bgp::RouteSource::Peer, bgp::NodeId{0}, bgp::Asn{1}, bgp::PopId{0}});
  rib.push_back(bgp::RouteCandidate{
      bgp::Announcement{prefix, {bgp::Asn{2}, bgp::Asn{8}},
                        bgp::OriginRole::Victim},
      bgp::RouteSource::Provider, bgp::NodeId{1}, bgp::Asn{2}, bgp::PopId{1}});
  const auto* chosen = model.select_egress(0, rib, cmp);
  ASSERT_NE(chosen, nullptr);
  EXPECT_EQ(chosen->source, bgp::RouteSource::Peer)
      << "local preference must dominate even against the victim role";
}

TEST_F(CloudModelTest, SelectEgressShorterPathWinsWithinClass) {
  const CloudProviderModel model(internet_,
                                 default_config(topo::CloudProvider::Aws));
  const bgp::RouteComparator cmp(bgp::TieBreakMode::AdversaryFirst, 1);
  const auto prefix = *netsim::Ipv4Prefix::parse("203.0.113.0/24");
  std::vector<bgp::RouteCandidate> rib;
  rib.push_back(bgp::RouteCandidate{
      bgp::Announcement{prefix, {bgp::Asn{1}, bgp::Asn{7}, bgp::Asn{9}},
                        bgp::OriginRole::Adversary},
      bgp::RouteSource::Peer, bgp::NodeId{0}, bgp::Asn{1}, bgp::PopId{0}});
  rib.push_back(bgp::RouteCandidate{
      bgp::Announcement{prefix, {bgp::Asn{2}, bgp::Asn{8}},
                        bgp::OriginRole::Victim},
      bgp::RouteSource::Peer, bgp::NodeId{1}, bgp::Asn{2}, bgp::PopId{1}});
  const auto* chosen = model.select_egress(0, rib, cmp);
  ASSERT_NE(chosen, nullptr);
  EXPECT_EQ(chosen->ann.role, bgp::OriginRole::Victim)
      << "path length must beat the route-age preference";
}

}  // namespace
}  // namespace marcopolo::cloud
