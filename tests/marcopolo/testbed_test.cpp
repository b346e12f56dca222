#include "marcopolo/testbed.hpp"

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "bgp/attack_model.hpp"
#include "store_bytes.hpp"
#include "testbed_fixture.hpp"

namespace marcopolo::core {
namespace {

using testing_support::mprs_bytes;
using testing_support::same_bytes;
using testing_support::shared_testbed;

TEST(Testbed, PaperPopulation) {
  const Testbed& tb = shared_testbed();
  EXPECT_EQ(tb.sites().size(), 32u);
  EXPECT_EQ(tb.perspectives().size(), 106u);
  EXPECT_EQ(tb.perspectives_of(topo::CloudProvider::Aws).size(), 27u);
  EXPECT_EQ(tb.perspectives_of(topo::CloudProvider::Gcp).size(), 40u);
  EXPECT_EQ(tb.perspectives_of(topo::CloudProvider::Azure).size(), 39u);
}

TEST(Testbed, PerspectiveIndicesAreDenseAndOrdered) {
  const Testbed& tb = shared_testbed();
  for (std::size_t i = 0; i < tb.perspectives().size(); ++i) {
    EXPECT_EQ(tb.perspectives()[i].index, i);
  }
}

TEST(Testbed, FindPerspectiveByName) {
  const Testbed& tb = shared_testbed();
  const auto idx = tb.find_perspective(topo::CloudProvider::Aws, "us-east-1");
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(tb.perspectives()[*idx].region_name, "us-east-1");
  EXPECT_EQ(tb.perspectives()[*idx].provider, topo::CloudProvider::Aws);
  EXPECT_FALSE(
      tb.find_perspective(topo::CloudProvider::Gcp, "us-east-1").has_value());
}

TEST(Testbed, CloudModelsAccessible) {
  const Testbed& tb = shared_testbed();
  EXPECT_EQ(tb.cloud_of(topo::CloudProvider::Gcp).policy(),
            cloud::EgressPolicy::ColdPotato);
  EXPECT_EQ(tb.cloud_of(topo::CloudProvider::Aws).policy(),
            cloud::EgressPolicy::HotPotato);
}

TEST(Testbed, BackbonesAreDistinctAses) {
  const Testbed& tb = shared_testbed();
  std::set<std::uint32_t> backbones;
  for (const auto provider : topo::kPerspectiveProviders) {
    backbones.insert(tb.cloud_of(provider).backbone().value);
  }
  EXPECT_EQ(backbones.size(), 3u);
}

TEST(Testbed, BuiltGraphValidates) {
  // The graph is validated once, inside Internet's constructor; the sites
  // and cloud backbones wired after it must leave it valid.
  const Testbed& tb = shared_testbed();
  EXPECT_NO_THROW(tb.internet().graph().validate());
}

TEST(Testbed, PerspectiveOutcomeMatchesCloudModel) {
  const Testbed& tb = shared_testbed();
  const bgp::ScenarioConfig cfg;
  const bgp::HijackScenario scenario(
      tb.internet().graph(), tb.sites()[0].node, tb.sites()[5].node,
      *netsim::Ipv4Prefix::parse("203.0.113.0/24"), cfg);
  for (const auto& rec : tb.perspectives()) {
    const auto& model = tb.cloud_of(rec.provider);
    EXPECT_EQ(tb.perspective_outcome(rec.index, scenario),
              model.resolve(rec.local_index, scenario));
  }
  EXPECT_THROW((void)tb.perspective_outcome(9999, scenario),
               std::out_of_range);
}

TEST(Testbed, RovDeploymentFlag) {
  Testbed tb(testing_support::small_testbed_config());
  tb.internet().deploy_rov(0.8, topo::kDefaultRovSeed);
  std::size_t enforcing = 0;
  for (std::uint32_t i = 0; i < tb.internet().graph().size(); ++i) {
    if (tb.internet().graph().rov_enforcing(bgp::NodeId{i})) ++enforcing;
  }
  EXPECT_GT(enforcing, 0u);
}

TEST(Testbed, RedeployingMatchesAFreshBuild) {
  // One testbed walked through deployments that go up and back down must
  // match a testbed built fresh at each point: the same ROV and OTC flag
  // on every AS, and the same store bytes from an all-attacks campaign.
  // Per-victim ROAs with the cloud edge filter off let transit ROV decide
  // outcomes.
  Testbed redeployed(testing_support::small_testbed_config());
  FastCampaignConfig cfg;
  const auto all = bgp::all_attack_types();
  cfg.attacks.assign(all.begin(), all.end());
  cfg.per_victim_prefix = true;
  cfg.cloud_edge_rov = false;
  bgp::RoaRegistry roas;
  for (std::size_t v = 0; v < redeployed.sites().size(); ++v) {
    roas.add(bgp::Roa{
        cfg.victim_prefix(v),
        redeployed.internet().graph().asn_of(redeployed.sites()[v].node),
        std::nullopt});
  }
  cfg.roas = &roas;

  const std::pair<double, double> sequence[] = {
      {1.0, 1.0}, {0.5, 0.0}, {0.0, 0.5}, {0.5, 1.0}, {0.0, 0.0}};
  for (const auto& [rov, otc] : sequence) {
    SCOPED_TRACE(::testing::Message() << "rov " << rov << ", otc " << otc);
    redeployed.internet().deploy_rov(rov, topo::kDefaultRovSeed);
    redeployed.internet().deploy_otc(otc, topo::kDefaultOtcSeed);
    Testbed fresh(testing_support::small_testbed_config());
    fresh.internet().deploy_rov(rov, topo::kDefaultRovSeed);
    fresh.internet().deploy_otc(otc, topo::kDefaultOtcSeed);

    const bgp::AsGraph& a = redeployed.internet().graph();
    const bgp::AsGraph& b = fresh.internet().graph();
    ASSERT_EQ(a.size(), b.size());
    std::size_t flag_mismatches = 0;
    for (std::uint32_t i = 0; i < a.size(); ++i) {
      const bgp::NodeId n{i};
      if (a.rov_enforcing(n) != b.rov_enforcing(n) ||
          a.otc_enforcing(n) != b.otc_enforcing(n)) {
        ++flag_mismatches;
      }
    }
    EXPECT_EQ(flag_mismatches, 0U);
    EXPECT_TRUE(same_bytes(mprs_bytes(run_fast_campaign(redeployed, cfg)),
                           mprs_bytes(run_fast_campaign(fresh, cfg))));
  }
}

TEST(Testbed, SitesCarryCatalogMetadata) {
  const Testbed& tb = shared_testbed();
  std::set<std::string_view> names;
  for (const auto& site : tb.sites()) {
    EXPECT_TRUE(names.insert(site.name).second);
    EXPECT_FALSE(
        tb.internet().graph().providers_of(site.node).empty());
  }
  EXPECT_TRUE(names.contains("Tokyo"));
  EXPECT_TRUE(names.contains("Frankfurt"));
}

}  // namespace
}  // namespace marcopolo::core
