// Differential tests for per-backbone egress classification. The batched
// calls (Testbed/CloudProviderModel::resolve_all, select_all), the
// per-perspective calls (perspective_outcome, resolve, select_egress) and
// the per-perspective reference (egress_reference.hpp) must agree on the
// outcome, `contested` and `decided_by` of every perspective.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "bgp/attack_model.hpp"
#include "bgp/delta.hpp"
#include "cloud/egress_reference.hpp"
#include "marcopolo/testbed.hpp"
#include "netsim/random.hpp"

namespace marcopolo::cloud {
namespace {

using reference::EgressReference;

const netsim::Ipv4Prefix kPrefix =
    *netsim::Ipv4Prefix::parse("203.0.113.0/24");

std::vector<CloudConfig> default_clouds() {
  return {default_config(topo::CloudProvider::Aws),
          default_config(topo::CloudProvider::Azure),
          default_config(topo::CloudProvider::Gcp)};
}

core::TestbedConfig testbed_config(std::vector<CloudConfig> clouds) {
  core::TestbedConfig cfg;
  cfg.clouds = std::move(clouds);
  return cfg;
}

/// Holds batched == per-perspective == reference on each checked scenario
/// of one testbed (one backbone per provider, in `clouds` order).
class Checker {
 public:
  Checker(const core::Testbed& testbed, const std::vector<CloudConfig>& clouds)
      : testbed_(testbed), batched_(testbed.perspectives().size()) {
    std::size_t first = 0;
    for (const CloudConfig& cfg : clouds) {
      const CloudProviderModel& model = testbed.cloud_of(cfg.provider);
      models_.push_back(&model);
      refs_.emplace_back(model, cfg);
      first_.push_back(first);
      first += model.perspective_count();
    }
    EXPECT_EQ(first, testbed.perspectives().size());
  }

  void check(const bgp::HijackScenario& scenario, const bgp::RoaRegistry* roas,
             const std::string& label) {
    testbed_.resolve_all(scenario, roas, scratch_, batched_);
    for (std::size_t m = 0; m < models_.size(); ++m) {
      for (std::size_t local = 0; local < models_[m]->perspective_count();
           ++local) {
        const std::size_t p = first_[m] + local;
        const ResolveExplanation want = refs_[m].resolve(local, scenario, roas);
        const ResolveExplanation& got = batched_[p];
        ASSERT_EQ(got.outcome, want.outcome) << label << ", perspective " << p;
        ASSERT_EQ(got.contested, want.contested)
            << label << ", perspective " << p;
        ASSERT_EQ(got.decided_by, want.decided_by)
            << label << ", perspective " << p;
        ASSERT_EQ(testbed_.perspective_outcome(static_cast<std::uint16_t>(p),
                                               scenario, roas),
                  want.outcome)
            << label << ", perspective " << p;
        ASSERT_EQ(models_[m]->resolve(local, scenario, roas), want.outcome)
            << label << ", perspective " << p;
        ++steps_seen_[static_cast<std::size_t>(got.decided_by)];
      }
    }
  }

  /// Verdicts checked so far that `step` decided.
  [[nodiscard]] std::size_t seen(obs::VerdictStep step) const {
    return steps_seen_[static_cast<std::size_t>(step)];
  }

 private:
  const core::Testbed& testbed_;
  std::vector<const CloudProviderModel*> models_;
  std::vector<EgressReference> refs_;
  std::vector<std::size_t> first_;
  EgressScratch scratch_;
  std::vector<ResolveExplanation> batched_;
  std::array<std::size_t, 8> steps_seen_{};
};

const core::Testbed& default_testbed() {
  static const core::Testbed testbed;
  return testbed;
}

/// A strict ROA for the victim's prefix: plain and forged-origin hijacks
/// validate Invalid at a cloud edge that enforces ROV.
bgp::RoaRegistry strict_roas(const core::Testbed& testbed, std::size_t victim) {
  bgp::RoaRegistry roas;
  roas.add(bgp::Roa{
      kPrefix, testbed.internet().graph().asn_of(testbed.sites()[victim].node),
      std::nullopt});
  return roas;
}

/// Seeded off-diagonal (victim, adversary) pairs.
std::vector<std::pair<std::size_t, std::size_t>> random_pairs(
    std::size_t sites, std::size_t count, std::uint64_t seed) {
  netsim::Rng rng(seed);
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t v = rng.index(sites);
    std::size_t a = rng.index(sites - 1);
    if (a >= v) ++a;
    out.emplace_back(v, a);
  }
  return out;
}

std::string label_of(std::size_t v, std::size_t a, bgp::AttackType type) {
  return "pair " + std::to_string(v) + "->" + std::to_string(a) + " " +
         bgp::to_cstring(type);
}

TEST(EgressClassify, GreatCircleIsSymmetricToTheBitOverEveryCatalog) {
  // A hot-potato model computes each POP pair's distance once and uses it
  // in both directions; the reference calls great_circle_km(VM, POP).
  for (const topo::CloudProvider provider : topo::kPerspectiveProviders) {
    const auto regions = topo::regions_of(provider);
    for (const topo::RegionInfo& a : regions) {
      for (const topo::RegionInfo& b : regions) {
        ASSERT_EQ(netsim::great_circle_km(a.location, b.location),
                  netsim::great_circle_km(b.location, a.location))
            << a.name << " / " << b.name;
      }
    }
  }
}

TEST(EgressClassify, RandomizedPairsOnDefaultTestbed) {
  const core::Testbed& testbed = default_testbed();
  Checker checker(testbed, default_clouds());
  const auto& graph = testbed.internet().graph();
  const auto& sites = testbed.sites();
  bgp::DeltaPropagation delta;
  bgp::PropagationWorkspace ws;
  bgp::HijackScenario incremental;
  for (const auto& [v, a] : random_pairs(sites.size(), 24, 0xE6)) {
    const std::uint64_t seed = v * 31 + a;
    delta.set_victim_baseline(graph, sites[v].node, kPrefix,
                              bgp::PropagationConfig{
                                  bgp::TieBreakMode::Hashed, seed});
    for (const bgp::AttackType type : bgp::all_attack_types()) {
      const bgp::ScenarioConfig sc{type, bgp::TieBreakMode::Hashed, seed};
      // The full engine, and the delta replay campaigns run on.
      const bgp::HijackScenario full(graph, sites[v].node, sites[a].node,
                                     kPrefix, sc);
      checker.check(full, nullptr, label_of(v, a, type) + " full");
      incremental.reset_incremental(delta, sites[a].node, sc, ws);
      checker.check(incremental, nullptr,
                    label_of(v, a, type) + " incremental");
    }
  }
  // The sweep reaches the provenance only the per-perspective pick
  // reports, and the sub-prefix short cut.
  EXPECT_GT(checker.seen(obs::VerdictStep::RouteAge), 0u);
  EXPECT_GT(checker.seen(obs::VerdictStep::IngressPop), 0u);
  EXPECT_GT(checker.seen(obs::VerdictStep::MoreSpecific), 0u);
}

TEST(EgressClassify, EveryTieBreakModeWithAndWithoutStrictEdgeRoas) {
  const core::Testbed& testbed = default_testbed();
  Checker checker(testbed, default_clouds());
  const auto& graph = testbed.internet().graph();
  const auto& sites = testbed.sites();
  for (const bgp::TieBreakMode mode :
       {bgp::TieBreakMode::VictimFirst, bgp::TieBreakMode::AdversaryFirst,
        bgp::TieBreakMode::Hashed}) {
    for (const auto& [v, a] : random_pairs(sites.size(), 6, 0x7B)) {
      const bgp::RoaRegistry roas = strict_roas(testbed, v);
      for (const bgp::AttackType type : bgp::all_attack_types()) {
        const bgp::ScenarioConfig sc{type, mode, v * 17 + a};
        const bgp::HijackScenario scenario(graph, sites[v].node,
                                           sites[a].node, kPrefix, sc);
        const std::string label = "mode " +
                                  std::to_string(static_cast<int>(mode)) +
                                  " " + label_of(v, a, type);
        checker.check(scenario, nullptr, label + " without ROAs");
        checker.check(scenario, &roas, label + " with strict ROAs");
      }
    }
  }
  // Edge ROV leaves some backbones with only the victim's routes.
  EXPECT_GT(checker.seen(obs::VerdictStep::Unopposed), 0u);
}

TEST(EgressClassify, ZoneGranularityAndGeoMarginOnEveryAttack) {
  for (const ZoneGranularity zones :
       {ZoneGranularity::Continent, ZoneGranularity::SuperRegion}) {
    for (const double margin : {0.0, 0.55, 0.999}) {
      std::vector<CloudConfig> clouds = default_clouds();
      clouds.back().zones = zones;
      clouds.back().geo_margin = margin;
      const core::Testbed testbed(testbed_config(clouds));
      Checker checker(testbed, clouds);
      const auto& graph = testbed.internet().graph();
      const auto& sites = testbed.sites();
      for (const auto& [v, a] : random_pairs(sites.size(), 8, 0x20E)) {
        for (const bgp::AttackType type : bgp::all_attack_types()) {
          const bgp::ScenarioConfig sc{type, bgp::TieBreakMode::Hashed,
                                       v * 7 + a};
          const bgp::HijackScenario scenario(graph, sites[v].node,
                                             sites[a].node, kPrefix, sc);
          checker.check(scenario, nullptr,
                        "zones " + std::to_string(static_cast<int>(zones)) +
                            " geo_margin " + std::to_string(margin) + " " +
                            label_of(v, a, type));
        }
      }
    }
  }
}

// Hand-built RIBs: each is selected per perspective (select_egress), in
// one batch (select_all) and by the reference, on the default hot-potato
// (AWS) and cold-potato (GCP) backbones.
class EgressClassifyRib : public ::testing::Test {
 protected:
  static bgp::RouteCandidate candidate(bgp::OriginRole role, std::uint32_t asn,
                                       bgp::PopId pop) {
    const bgp::Asn origin{role == bgp::OriginRole::Victim ? 64500u : 64666u};
    return bgp::RouteCandidate{
        bgp::Announcement{kPrefix, {bgp::Asn{asn}, origin}, role},
        bgp::RouteSource::Peer, bgp::NodeId{asn}, bgp::Asn{asn}, pop};
  }

  /// Selects `rib` all three ways and returns the batched verdicts.
  static std::vector<ResolveExplanation> select_every_way(
      topo::CloudProvider provider, const std::vector<bgp::RouteCandidate>& rib,
      const bgp::RouteComparator& cmp, const bgp::RoaRegistry* roas) {
    const CloudProviderModel& model = default_testbed().cloud_of(provider);
    const EgressReference ref(model, default_config(provider));
    EgressScratch scratch;
    std::vector<ResolveExplanation> batched(model.perspective_count());
    model.select_all(rib, cmp, roas, scratch, batched);
    for (std::size_t p = 0; p < model.perspective_count(); ++p) {
      ResolveExplanation want;
      const bgp::RouteCandidate* chosen = ref.select(p, rib, cmp, roas, want);
      want.outcome = EgressReference::outcome_of(chosen);
      EXPECT_EQ(model.select_egress(p, rib, cmp, roas), chosen)
          << "perspective " << p;
      EXPECT_EQ(batched[p].outcome, want.outcome) << "perspective " << p;
      EXPECT_EQ(batched[p].contested, want.contested) << "perspective " << p;
      EXPECT_EQ(batched[p].decided_by, want.decided_by)
          << "perspective " << p;
    }
    return batched;
  }

  static constexpr std::array<topo::CloudProvider, 2> kPolicies = {
      topo::CloudProvider::Aws, topo::CloudProvider::Gcp};
};

TEST_F(EgressClassifyRib, ExactEquidistantPopTieFallsToRouteAge) {
  // Both origins reach the backbone at the same POP: every distance ties
  // exactly, so the 1e-9 comparison hands the choice to the route-age
  // preference, wherever the VM is.
  const std::vector<bgp::RouteCandidate> rib = {
      candidate(bgp::OriginRole::Victim, 100, bgp::PopId{3}),
      candidate(bgp::OriginRole::Adversary, 200, bgp::PopId{3})};
  for (const topo::CloudProvider provider : kPolicies) {
    for (const auto& [mode, winner] :
         {std::pair{bgp::TieBreakMode::VictimFirst, bgp::OriginReached::Victim},
          std::pair{bgp::TieBreakMode::AdversaryFirst,
                    bgp::OriginReached::Adversary}}) {
      const bgp::RouteComparator cmp(mode, 0);
      for (const ResolveExplanation& why :
           select_every_way(provider, rib, cmp, nullptr)) {
        EXPECT_EQ(why.outcome, winner);
        EXPECT_TRUE(why.contested);
        EXPECT_EQ(why.decided_by, obs::VerdictStep::RouteAge);
      }
    }
  }
}

TEST_F(EgressClassifyRib, UnknownIngressPopIsAntipodal) {
  // A route with no ingress POP counts as 20037 km away: against a known
  // POP it loses on geography; two of them tie again.
  const bgp::RouteComparator cmp(bgp::TieBreakMode::VictimFirst, 0);
  const std::vector<bgp::RouteCandidate> one_unknown = {
      candidate(bgp::OriginRole::Victim, 100, bgp::PopId{}),
      candidate(bgp::OriginRole::Adversary, 200, bgp::PopId{0})};
  for (const ResolveExplanation& why : select_every_way(
           topo::CloudProvider::Aws, one_unknown, cmp, nullptr)) {
    EXPECT_EQ(why.outcome, bgp::OriginReached::Adversary);
    EXPECT_EQ(why.decided_by, obs::VerdictStep::IngressPop);
  }
  (void)select_every_way(topo::CloudProvider::Gcp, one_unknown, cmp, nullptr);

  const std::vector<bgp::RouteCandidate> both_unknown = {
      candidate(bgp::OriginRole::Victim, 100, bgp::PopId{}),
      candidate(bgp::OriginRole::Adversary, 200, bgp::PopId{})};
  for (const topo::CloudProvider provider : kPolicies) {
    for (const ResolveExplanation& why :
         select_every_way(provider, both_unknown, cmp, nullptr)) {
      EXPECT_EQ(why.outcome, bgp::OriginReached::Victim);
      EXPECT_EQ(why.decided_by, obs::VerdictStep::RouteAge);
    }
  }
}

TEST_F(EgressClassifyRib, AllRovInvalidRibIsUnopposedNone) {
  bgp::RoaRegistry roas;
  roas.add(bgp::Roa{kPrefix, bgp::Asn{64500}, std::nullopt});
  const bgp::RouteComparator cmp(bgp::TieBreakMode::Hashed, 9);
  const std::vector<bgp::RouteCandidate> rib = {
      candidate(bgp::OriginRole::Adversary, 100, bgp::PopId{0}),
      candidate(bgp::OriginRole::Adversary, 200, bgp::PopId{5}),
      candidate(bgp::OriginRole::Adversary, 300, bgp::PopId{})};
  for (const topo::CloudProvider provider : kPolicies) {
    for (const ResolveExplanation& why :
         select_every_way(provider, rib, cmp, &roas)) {
      EXPECT_EQ(why.outcome, bgp::OriginReached::None);
      EXPECT_FALSE(why.contested);
      EXPECT_EQ(why.decided_by, obs::VerdictStep::Unopposed);
    }
  }
}

TEST_F(EgressClassifyRib, BatchedCallsCheckTheirOutputSize) {
  const core::Testbed& testbed = default_testbed();
  const CloudProviderModel& model = testbed.cloud_of(topo::CloudProvider::Aws);
  const bgp::RouteComparator cmp(bgp::TieBreakMode::Hashed, 1);
  EgressScratch scratch;
  std::vector<ResolveExplanation> short_out(model.perspective_count() - 1);
  EXPECT_THROW(model.select_all({}, cmp, nullptr, scratch, short_out),
               std::invalid_argument);
  const bgp::HijackScenario scenario(
      testbed.internet().graph(), testbed.sites()[0].node,
      testbed.sites()[1].node, kPrefix, bgp::ScenarioConfig{});
  EXPECT_THROW(testbed.resolve_all(scenario, nullptr, scratch, short_out),
               std::invalid_argument);
}

}  // namespace
}  // namespace marcopolo::cloud
