#include "bgp/scenario.hpp"

#include <gtest/gtest.h>

#include "bgp/attack_model.hpp"
#include "topo/internet.hpp"
#include "topo/vultr.hpp"

namespace marcopolo::bgp {
namespace {

const netsim::Ipv4Prefix kPrefix = *netsim::Ipv4Prefix::parse("203.0.113.0/24");

/// Shared small Internet with two leaf sites for victim/adversary.
class ScenarioTest : public ::testing::Test {
 protected:
  ScenarioTest() : internet_(make_config()) {
    victim_ = internet_.add_leaf_as(Asn{64512}, {35.68, 139.69},
                                    topo::Continent::Asia);
    adversary_ = internet_.add_leaf_as(Asn{64513}, {50.11, 8.68},
                                       topo::Continent::Europe);
    internet_.graph().add_provider_customer(internet_.tier1_for(1), victim_);
    internet_.graph().add_provider_customer(internet_.tier1_for(2),
                                            adversary_);
    for (const auto t2 : internet_.nearest_tier2({35.68, 139.69}, 2)) {
      internet_.graph().add_provider_customer(t2, victim_);
    }
    for (const auto t2 : internet_.nearest_tier2({50.11, 8.68}, 2)) {
      internet_.graph().add_provider_customer(t2, adversary_);
    }
  }

  static topo::InternetConfig make_config() {
    topo::InternetConfig cfg;
    cfg.num_tier2 = 40;
    cfg.num_tier3 = 50;
    cfg.num_stub = 60;
    cfg.seed = 9;
    return cfg;
  }

  topo::Internet internet_;
  NodeId victim_;
  NodeId adversary_;
};

TEST_F(ScenarioTest, RejectsSelfAttack) {
  EXPECT_THROW(HijackScenario(internet_.graph(), victim_, victim_, kPrefix,
                              ScenarioConfig{}),
               std::invalid_argument);
}

TEST_F(ScenarioTest, EquallySpecificSplitsTheInternet) {
  const HijackScenario s(internet_.graph(), victim_, adversary_, kPrefix,
                         ScenarioConfig{});
  EXPECT_EQ(s.reached(victim_), OriginReached::Victim);
  EXPECT_EQ(s.reached(adversary_), OriginReached::Adversary);
  const double captured = s.adversary_capture_fraction();
  EXPECT_GT(captured, 0.05);
  EXPECT_LT(captured, 0.95);
  EXPECT_TRUE(kPrefix.contains(s.target_address()));
}

TEST_F(ScenarioTest, ForgedOriginPropagatesLessThanPlain) {
  ScenarioConfig plain_cfg;
  plain_cfg.tie_break = TieBreakMode::Hashed;
  const HijackScenario plain(internet_.graph(), victim_, adversary_, kPrefix,
                             plain_cfg);
  ScenarioConfig forged_cfg = plain_cfg;
  forged_cfg.type = AttackType::ForgedOriginPrepend;
  const HijackScenario forged(internet_.graph(), victim_, adversary_, kPrefix,
                              forged_cfg);
  EXPECT_LT(forged.adversary_capture_fraction(),
            plain.adversary_capture_fraction());
  // The forged path carries the victim's ASN as origin.
  const auto& rib = forged.primary().rib_in[victim_.value];
  (void)rib;
  for (std::uint32_t i = 0; i < internet_.graph().size(); ++i) {
    const auto& best = forged.primary().best[i];
    if (best && best->ann.role == OriginRole::Adversary &&
        !best->ann.as_path.empty()) {
      EXPECT_EQ(best->ann.origin(), Asn{64512});
    }
  }
}

TEST_F(ScenarioTest, SubPrefixHijackIsGlobal) {
  ScenarioConfig cfg;
  cfg.type = AttackType::SubPrefix;
  const HijackScenario s(internet_.graph(), victim_, adversary_, kPrefix,
                         cfg);
  ASSERT_TRUE(s.holds_more_specific(adversary_));
  // The target sits inside the adversary's more-specific half.
  const auto [lower, upper] = kPrefix.split();
  (void)lower;
  EXPECT_TRUE(upper.contains(s.target_address()));
  // Nearly every AS (everything the sub-prefix reaches) goes to the
  // adversary — MPIC cannot defend this (paper §2).
  EXPECT_GT(s.adversary_capture_fraction(), 0.9);
  EXPECT_EQ(s.reached(victim_), OriginReached::Victim);  // loop prevention
}

TEST_F(ScenarioTest, VictimFirstModeWeaklyDominatesAdversaryFirst) {
  ScenarioConfig vf;
  vf.tie_break = TieBreakMode::VictimFirst;
  ScenarioConfig af;
  af.tie_break = TieBreakMode::AdversaryFirst;
  const HijackScenario sv(internet_.graph(), victim_, adversary_, kPrefix, vf);
  const HijackScenario sa(internet_.graph(), victim_, adversary_, kPrefix, af);
  EXPECT_LE(sv.adversary_capture_fraction(),
            sa.adversary_capture_fraction());
}

TEST_F(ScenarioTest, HashedCoinVariesAcrossPairs) {
  // The per-pair salt must differ between (v, a) orderings.
  ScenarioConfig cfg;
  cfg.tie_break = TieBreakMode::Hashed;
  const HijackScenario s1(internet_.graph(), victim_, adversary_, kPrefix,
                          cfg);
  const HijackScenario s2(internet_.graph(), adversary_, victim_, kPrefix,
                          cfg);
  // Same node: the two scenarios may roll different coins. We can't assert
  // inequality for one node (50% chance), but across many nodes the coin
  // streams must differ somewhere.
  bool any_difference = false;
  for (std::uint32_t i = 0; i < internet_.graph().size(); ++i) {
    if (s1.comparator().preferred_role(NodeId{i}) !=
        s2.comparator().preferred_role(NodeId{i})) {
      any_difference = true;
      break;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST_F(ScenarioTest, DeterministicAcrossRuns) {
  ScenarioConfig cfg;
  cfg.tie_break = TieBreakMode::Hashed;
  const HijackScenario s1(internet_.graph(), victim_, adversary_, kPrefix,
                          cfg);
  const HijackScenario s2(internet_.graph(), victim_, adversary_, kPrefix,
                          cfg);
  for (std::uint32_t i = 0; i < internet_.graph().size(); ++i) {
    EXPECT_EQ(s1.reached(NodeId{i}), s2.reached(NodeId{i}));
  }
}

// Sweep all attack types: basic invariants hold for each.
class AttackTypeSweep : public ::testing::TestWithParam<AttackType> {};

TEST_P(AttackTypeSweep, VictimAlwaysReachesItself) {
  topo::InternetConfig icfg;
  icfg.num_tier2 = 30;
  icfg.num_tier3 = 30;
  icfg.num_stub = 30;
  topo::Internet internet(icfg);
  const auto victim = internet.add_leaf_as(Asn{64512}, {0, 0},
                                           topo::Continent::Europe);
  const auto adversary = internet.add_leaf_as(Asn{64513}, {10, 10},
                                              topo::Continent::Europe);
  internet.graph().add_provider_customer(internet.tier1_for(5), victim);
  internet.graph().add_provider_customer(internet.tier1_for(6), adversary);

  ScenarioConfig cfg;
  cfg.type = GetParam();
  const HijackScenario s(internet.graph(), victim, adversary, kPrefix, cfg);
  EXPECT_EQ(s.reached(victim), OriginReached::Victim);
  EXPECT_EQ(s.reached(adversary), OriginReached::Adversary);
  EXPECT_EQ(s.type(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllTypes, AttackTypeSweep,
                         ::testing::ValuesIn(all_attack_types()));

}  // namespace
}  // namespace marcopolo::bgp
