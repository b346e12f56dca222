// The attack-model registry and the RouteLeak scenario it introduced.
//
// Registry: every enumerator has a model, a unique name, and a string
// round-trip; parse_attack_list is the one CLI entry point. Semantics: a
// route leak captures traffic without OTC, shrinks monotonically as OTC
// deploys, and is invisible to ROV (the real origin stays in the path).
// Equivalence: the incremental (delta-replay) evaluation of a route leak
// answers every query exactly like the full engine, across ROV and OTC
// deployments — the property the multi-attack campaign's byte-identity
// rests on.
#include "bgp/attack_model.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "bgp/delta.hpp"
#include "bgp/propagation.hpp"
#include "netsim/random.hpp"
#include "topo/internet.hpp"

namespace marcopolo::bgp {
namespace {

const netsim::Ipv4Prefix kPrefix = *netsim::Ipv4Prefix::parse("203.0.113.0/24");

// ---------------------------------------------------------------- registry

TEST(AttackRegistry, EveryTypeHasAModelWithItsOwnTag) {
  const auto all = all_attack_types();
  ASSERT_EQ(all.size(), kAttackTypeCount);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(all[i]), i)
        << "registry order must match enumerator order";
    EXPECT_EQ(attack_model(all[i]).type(), all[i]);
  }
}

TEST(AttackRegistry, NamesAreUniqueAndRoundTrip) {
  std::set<std::string> seen;
  for (const AttackType t : all_attack_types()) {
    const char* name = attack_model(t).name();
    ASSERT_NE(name, nullptr);
    EXPECT_STREQ(name, to_cstring(t));
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name " << name;
    const auto back = attack_type_from_string(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, t);
  }
  EXPECT_FALSE(attack_type_from_string("no-such-attack").has_value());
  EXPECT_FALSE(attack_type_from_string("").has_value());
}

TEST(AttackRegistry, OnlyRouteLeakNeedsTheBaseline) {
  EXPECT_TRUE(attack_model(AttackType::RouteLeak).needs_baseline());
  EXPECT_FALSE(attack_model(AttackType::EquallySpecific).needs_baseline());
  EXPECT_FALSE(
      attack_model(AttackType::ForgedOriginPrepend).needs_baseline());
  EXPECT_FALSE(attack_model(AttackType::SubPrefix).needs_baseline());
}

TEST(AttackRegistry, ParseAttackListExpandsAndValidates) {
  const auto all = parse_attack_list("all");
  ASSERT_EQ(all.size(), kAttackTypeCount);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i], all_attack_types()[i]);
  }

  const auto two = parse_attack_list("route-leak,equally-specific");
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0], AttackType::RouteLeak);
  EXPECT_EQ(two[1], AttackType::EquallySpecific);

  EXPECT_THROW((void)parse_attack_list(""), std::invalid_argument);
  try {
    (void)parse_attack_list("equally-specific,bogus");
    FAIL() << "unknown token must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos)
        << "message must name the offending token: " << e.what();
  }
}

// ------------------------------------------------------ leak semantics

/// Victim and adversary as multi-homed leaf customers of the transit core,
/// the configuration where a leak is textbook: the adversary learns the
/// victim's route from one provider and (mis)advertises it to the others,
/// which prefer the customer route.
class RouteLeakTest : public ::testing::Test {
 protected:
  static topo::InternetConfig make_config() {
    topo::InternetConfig cfg;
    cfg.num_tier2 = 40;
    cfg.num_tier3 = 50;
    cfg.num_stub = 60;
    cfg.seed = 9;
    return cfg;
  }

  static void attach(topo::Internet& net, NodeId leaf, netsim::GeoPoint at,
                     std::uint64_t salt) {
    net.graph().add_provider_customer(net.tier1_for(salt), leaf);
    for (const auto t2 : net.nearest_tier2(at, 2)) {
      net.graph().add_provider_customer(t2, leaf);
    }
  }

  /// Attach the two leafs and deploy defenses into a fresh topology
  /// (Internet is not movable, so callers construct it in place).
  void build(topo::Internet& net, double otc_fraction, double rov_fraction) {
    victim_ = net.add_leaf_as(Asn{64512}, {35.68, 139.69},
                              topo::Continent::Asia);
    adversary_ = net.add_leaf_as(Asn{64513}, {50.11, 8.68},
                                 topo::Continent::Europe);
    attach(net, victim_, {35.68, 139.69}, 1);
    attach(net, adversary_, {50.11, 8.68}, 2);
    if (otc_fraction > 0.0) net.deploy_otc(otc_fraction, 0x07C);
    if (rov_fraction > 0.0) net.deploy_rov(rov_fraction, 0xA2);
  }

  double leak_capture(const topo::Internet& net,
                      const RoaRegistry* roas = nullptr) {
    ScenarioConfig cfg;
    cfg.type = AttackType::RouteLeak;
    cfg.tie_break = TieBreakMode::Hashed;
    cfg.tie_break_seed = 0xCAFE;
    cfg.roas = roas;
    const HijackScenario s(net.graph(), victim_, adversary_, kPrefix, cfg);
    return s.adversary_capture_fraction();
  }

  NodeId victim_;
  NodeId adversary_;
};

TEST_F(RouteLeakTest, LeakCapturesTrafficWithoutOtc) {
  topo::Internet net(make_config());
  build(net, 0.0, 0.0);
  ScenarioConfig cfg;
  cfg.type = AttackType::RouteLeak;
  const HijackScenario s(net.graph(), victim_, adversary_, kPrefix, cfg);
  EXPECT_EQ(s.reached(victim_), OriginReached::Victim);
  EXPECT_EQ(s.reached(adversary_), OriginReached::Adversary);
  EXPECT_FALSE(s.holds_more_specific(adversary_))
      << "a leak contests only the /24";
  // The adversary's providers prefer the leaked customer route, so the
  // capture is material — but the victim's own cone holds.
  EXPECT_GT(s.adversary_capture_fraction(), 0.05);
  EXPECT_LT(s.adversary_capture_fraction(), 0.95);
}

TEST_F(RouteLeakTest, OtcDeploymentShrinksTheLeakMonotonically) {
  topo::Internet net_none(make_config());
  build(net_none, 0.0, 0.0);
  topo::Internet net_half(make_config());
  build(net_half, 0.5, 0.0);
  topo::Internet net_full(make_config());
  build(net_full, 1.0, 0.0);
  const double none = leak_capture(net_none);
  const double half = leak_capture(net_half);
  const double full = leak_capture(net_full);
  // Same RNG stream: the half deployment's enforcing set is a subset of
  // the full one, so capture is monotone along the axis.
  EXPECT_LE(full, half);
  EXPECT_LE(half, none);
  EXPECT_LT(full, none) << "full OTC must visibly reduce the leak";
  // With every transit AS enforcing, the leak dies at the adversary's own
  // providers; only the adversary itself still routes to itself.
  EXPECT_LT(full, 0.05);
}

TEST_F(RouteLeakTest, RovIsBlindToLeaksButNotToOriginHijacks) {
  topo::Internet net(make_config());
  build(net, 0.0, 1.0);
  RoaRegistry roas;
  roas.add(Roa{kPrefix, Asn{64512}, std::nullopt});

  // The leaked route carries the victim's genuine origination, so every
  // enforcing AS sees a Valid route: outcomes are identical with the
  // registry consulted or absent.
  ScenarioConfig leak;
  leak.type = AttackType::RouteLeak;
  leak.tie_break = TieBreakMode::Hashed;
  leak.tie_break_seed = 0xCAFE;
  const HijackScenario without(net.graph(), victim_, adversary_, kPrefix,
                               leak);
  leak.roas = &roas;
  const HijackScenario with(net.graph(), victim_, adversary_, kPrefix, leak);
  for (std::uint32_t i = 0; i < net.graph().size(); ++i) {
    ASSERT_EQ(with.reached(NodeId{i}), without.reached(NodeId{i}))
        << "node " << i;
  }

  // Control: the same deployment does bite an equally-specific forgery,
  // so the invariance above is a property of the leak, not a broken ROV.
  ScenarioConfig forge;
  forge.tie_break = TieBreakMode::Hashed;
  forge.tie_break_seed = 0xCAFE;
  const HijackScenario forged_plain(net.graph(), victim_, adversary_,
                                    kPrefix, forge);
  forge.roas = &roas;
  const HijackScenario forged_rov(net.graph(), victim_, adversary_, kPrefix,
                                  forge);
  EXPECT_LT(forged_rov.adversary_capture_fraction(),
            forged_plain.adversary_capture_fraction());
}

TEST_F(RouteLeakTest, AdversaryWithNoLearnedRouteCannotLeak) {
  topo::Internet net(make_config());
  victim_ = net.add_leaf_as(Asn{64512}, {35.68, 139.69},
                            topo::Continent::Asia);
  // The adversary stays unattached: nothing reaches it, so there is no
  // route to re-export and the plan degenerates to "victim unopposed".
  adversary_ = net.add_leaf_as(Asn{64513}, {50.11, 8.68},
                               topo::Continent::Europe);
  attach(net, victim_, {35.68, 139.69}, 1);

  ScenarioConfig cfg;
  cfg.type = AttackType::RouteLeak;
  const HijackScenario s(net.graph(), victim_, adversary_, kPrefix, cfg);
  EXPECT_EQ(s.adversary_capture_fraction(), 0.0);
  for (std::uint32_t i = 0; i < net.graph().size(); ++i) {
    EXPECT_NE(s.reached(NodeId{i}), OriginReached::Adversary) << "node " << i;
  }
}

// --------------------------------------------- sub-prefix x ROA MAX_LEN

TEST(SubPrefixMaxLen, RoaMaxLenDecidesWhetherTheSubPrefixSurvivesRov) {
  topo::InternetConfig icfg;
  icfg.num_tier2 = 40;
  icfg.num_tier3 = 50;
  icfg.num_stub = 60;
  icfg.seed = 9;
  topo::Internet net(icfg);
  const NodeId victim = net.add_leaf_as(Asn{64512}, {35.68, 139.69},
                                        topo::Continent::Asia);
  const NodeId adversary = net.add_leaf_as(Asn{64513}, {50.11, 8.68},
                                           topo::Continent::Europe);
  net.graph().add_provider_customer(net.tier1_for(1), victim);
  net.graph().add_provider_customer(net.tier1_for(2), adversary);
  for (const auto t2 : net.nearest_tier2({35.68, 139.69}, 2)) {
    net.graph().add_provider_customer(t2, victim);
  }
  for (const auto t2 : net.nearest_tier2({50.11, 8.68}, 2)) {
    net.graph().add_provider_customer(t2, adversary);
  }
  net.deploy_rov(1.0, 0xA2);

  const auto capture = [&](const RoaRegistry& roas) {
    ScenarioConfig cfg;
    cfg.type = AttackType::SubPrefix;
    cfg.tie_break = TieBreakMode::Hashed;
    cfg.tie_break_seed = 0xCAFE;
    cfg.roas = &roas;
    const HijackScenario s(net.graph(), victim, adversary, kPrefix, cfg);
    return s.adversary_capture_fraction();
  };

  // Minimal-length ROA (RFC 9319's recommendation): the adversary's /25 is
  // longer than the authorized /24, Invalid at every enforcing AS — the
  // forged victim origin does not help.
  RoaRegistry tight;
  tight.add(Roa{kPrefix, Asn{64512}, std::nullopt});
  const double tight_capture = capture(tight);
  EXPECT_LT(tight_capture, 0.1)
      << "an Invalid sub-prefix must die in the enforcing transit core";

  // A MAX_LEN 25 ROA authorizes the victim to announce /25s — and because
  // the sub-prefix hijack forges the victim's origin, it rides the same
  // authorization straight through ROV and wins by longest-prefix match.
  RoaRegistry loose;
  loose.add(Roa{kPrefix, Asn{64512}, 25});
  const double loose_capture = capture(loose);
  EXPECT_GT(loose_capture, 0.8)
      << "the MAX_LEN footgun (RFC 9319) must re-enable the hijack";
  EXPECT_GT(loose_capture, tight_capture);
}

// ------------------------------------- full vs incremental equivalence

/// Small-but-real topology, as the delta-engine differential tests use.
topo::Internet small_internet(std::uint64_t seed) {
  topo::InternetConfig cfg;
  cfg.seed = seed;
  cfg.num_tier1 = 6;
  cfg.num_tier2 = 24;
  cfg.num_tier3 = 60;
  cfg.num_stub = 110;
  return topo::Internet(cfg);
}

bool candidate_eq(const RouteCandidate& a, const RouteCandidate& b) {
  return a.ann.prefix == b.ann.prefix && a.ann.as_path == b.ann.as_path &&
         a.ann.role == b.ann.role && a.source == b.source && a.from == b.from &&
         a.from_asn == b.from_asn && a.ingress_pop == b.ingress_pop;
}

/// Evaluates one route-leak pair through both paths — a full reset() and a
/// reset_incremental() over a freshly-baselined delta engine — and checks
/// they answer every query identically.
void expect_incremental_matches_full(const AsGraph& g, NodeId victim,
                                     NodeId adversary,
                                     const RoaRegistry* roas,
                                     std::uint64_t seed) {
  ScenarioConfig sc;
  sc.type = AttackType::RouteLeak;
  sc.tie_break = TieBreakMode::Hashed;
  sc.tie_break_seed = seed;
  sc.roas = roas;

  PropagationWorkspace ws;
  HijackScenario full;
  full.reset(g, victim, adversary, kPrefix, sc, ws);

  PropagationConfig pc;
  pc.tie_break = sc.tie_break;
  pc.tie_break_seed = sc.tie_break_seed;
  pc.roas = roas;
  DeltaPropagation delta;
  delta.set_victim_baseline(g, victim, kPrefix, pc);
  HijackScenario incremental;
  incremental.reset_incremental(delta, adversary, sc, ws);

  EXPECT_EQ(incremental.target_address(), full.target_address());
  EXPECT_DOUBLE_EQ(incremental.adversary_capture_fraction(),
                   full.adversary_capture_fraction());
  for (std::uint32_t i = 0; i < g.size(); ++i) {
    const NodeId n{i};
    ASSERT_EQ(incremental.reached(n), full.reached(n)) << "node " << i;
    const auto& ibest = incremental.primary_best(n);
    const auto& fbest = full.primary_best(n);
    ASSERT_EQ(ibest.has_value(), fbest.has_value()) << "node " << i;
    if (ibest.has_value()) {
      ASSERT_TRUE(candidate_eq(*ibest, *fbest))
          << "best route diverges at node " << i << ": incremental path ["
          << ibest->ann.path_string() << "] vs full ["
          << fbest->ann.path_string() << "]";
    }
  }
}

TEST(RouteLeakDelta, IncrementalReplayMatchesFullEngine) {
  const topo::Internet net = small_internet(7);
  const AsGraph& g = net.graph();
  netsim::Rng rng(0x1EAC);
  for (int trial = 0; trial < 6; ++trial) {
    const NodeId victim{static_cast<std::uint32_t>(rng.index(g.size()))};
    NodeId adversary{static_cast<std::uint32_t>(rng.index(g.size()))};
    while (adversary == victim) {
      adversary = NodeId{static_cast<std::uint32_t>(rng.index(g.size()))};
    }
    expect_incremental_matches_full(
        g, victim, adversary, nullptr,
        netsim::hash_combine(0xCAFE, static_cast<std::uint64_t>(trial)));
  }
}

TEST(RouteLeakDelta, IncrementalMatchesFullUnderRovAndOtc) {
  // The deployment matrix the attack x defense sweep exercises: the two
  // engines must agree under every combination, not just the bare graph.
  for (const bool with_rov : {false, true}) {
    for (const bool with_otc : {false, true}) {
      topo::Internet net = small_internet(11);
      if (with_rov) net.deploy_rov(0.5, 0xA2);
      if (with_otc) net.deploy_otc(0.5, 0x07C);
      const AsGraph& g = net.graph();
      RoaRegistry roas;
      netsim::Rng rng(0x5EED);
      for (int trial = 0; trial < 4; ++trial) {
        const NodeId victim{static_cast<std::uint32_t>(rng.index(g.size()))};
        NodeId adversary{static_cast<std::uint32_t>(rng.index(g.size()))};
        while (adversary == victim) {
          adversary = NodeId{static_cast<std::uint32_t>(rng.index(g.size()))};
        }
        roas.add(Roa{kPrefix, g.asn_of(victim), std::nullopt});
        expect_incremental_matches_full(
            g, victim, adversary, with_rov ? &roas : nullptr,
            netsim::hash_combine(0xBEEF, static_cast<std::uint64_t>(trial)));
        roas.remove(kPrefix, g.asn_of(victim));
      }
    }
  }
}

}  // namespace
}  // namespace marcopolo::bgp
