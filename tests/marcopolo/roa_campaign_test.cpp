// Tests for the §4.4.1 extension: campaigns with real per-victim ROAs and
// the two independent ROV knobs (transit fraction, cloud edge).
#include <gtest/gtest.h>

#include "testbed_fixture.hpp"

namespace marcopolo::core {
namespace {

TEST(VictimPrefix, DistinctPerVictimAndCanonical) {
  FastCampaignConfig cfg;
  cfg.per_victim_prefix = true;
  std::set<netsim::Ipv4Prefix> seen;
  for (std::size_t v = 0; v < 32; ++v) {
    const auto p = cfg.victim_prefix(v);
    EXPECT_EQ(p.length(), 24);
    EXPECT_TRUE(seen.insert(p).second) << p.to_string();
  }
  // Disabled: everyone shares the base prefix.
  cfg.per_victim_prefix = false;
  EXPECT_EQ(cfg.victim_prefix(0), cfg.victim_prefix(31));
}

class RoaCampaign : public ::testing::Test {
 protected:
  RoaCampaign() {
    testbed_ =
        std::make_unique<Testbed>(testing_support::small_testbed_config());
    // Every transit AS enforces.
    testbed_->internet().deploy_rov(1.0, topo::kDefaultRovSeed);

    FastCampaignConfig proto;
    proto.per_victim_prefix = true;
    for (std::size_t v = 0; v < testbed_->sites().size(); ++v) {
      const auto asn =
          testbed_->internet().graph().asn_of(testbed_->sites()[v].node);
      roas_.add(bgp::Roa{proto.victim_prefix(v), asn, std::nullopt});
    }
  }

  double capture(const ResultStore& store) const {
    std::size_t hijacked = 0;
    std::size_t total = 0;
    const auto n = static_cast<SiteIndex>(store.num_sites());
    for (SiteIndex v = 0; v < n; ++v) {
      for (SiteIndex a = 0; a < n; ++a) {
        if (v == a) continue;
        for (PerspectiveIndex p = 0; p < store.num_perspectives(); ++p) {
          ++total;
          if (store.hijacked(v, a, p)) ++hijacked;
        }
      }
    }
    return static_cast<double>(hijacked) / static_cast<double>(total);
  }

  std::unique_ptr<Testbed> testbed_;
  bgp::RoaRegistry roas_;
};

TEST_F(RoaCampaign, FullRovEliminatesPlainHijacks) {
  FastCampaignConfig cfg;
  cfg.per_victim_prefix = true;
  cfg.roas = &roas_;
  cfg.cloud_edge_rov = false;  // transit filtering alone
  const auto store = run_fast_campaign(*testbed_, cfg);
  EXPECT_LT(capture(store), 0.01)
      << "with every transit AS enforcing ROV, the origin-invalid plain "
         "hijack must not reach perspectives";
}

TEST_F(RoaCampaign, CloudEdgeRovAloneProtectsPerspectives) {
  // No transit filtering at all.
  const Testbed lax_testbed(testing_support::small_testbed_config());

  FastCampaignConfig cfg;
  cfg.per_victim_prefix = true;
  cfg.roas = &roas_;
  cfg.cloud_edge_rov = true;
  const auto store = run_fast_campaign(lax_testbed, cfg);
  EXPECT_DOUBLE_EQ(capture(store), 0.0)
      << "cloud edges filtering invalid routes protect every perspective";

  cfg.cloud_edge_rov = false;
  const auto unprotected = run_fast_campaign(lax_testbed, cfg);
  EXPECT_GT(capture(unprotected), 0.3)
      << "without any ROV the plain hijack must capture broadly";
}

TEST_F(RoaCampaign, ForgedOriginIsRovImmune) {
  FastCampaignConfig forged;
  forged.type = bgp::AttackType::ForgedOriginPrepend;
  forged.per_victim_prefix = true;
  forged.roas = &roas_;
  forged.cloud_edge_rov = true;
  const auto with_roas = run_fast_campaign(*testbed_, forged);

  FastCampaignConfig no_roas = forged;
  no_roas.roas = nullptr;
  const auto without = run_fast_campaign(*testbed_, no_roas);
  EXPECT_DOUBLE_EQ(capture(with_roas), capture(without))
      << "a forged-origin announcement is RPKI-Valid, so neither transit "
         "nor cloud-edge ROV may change any outcome";
}

TEST_F(RoaCampaign, MaxLenReenablesSubPrefixGlobally) {
  FastCampaignConfig proto;
  proto.per_victim_prefix = true;
  bgp::RoaRegistry maxlen;
  for (std::size_t v = 0; v < testbed_->sites().size(); ++v) {
    const auto asn =
        testbed_->internet().graph().asn_of(testbed_->sites()[v].node);
    maxlen.add(bgp::Roa{proto.victim_prefix(v), asn, std::uint8_t{25}});
  }

  FastCampaignConfig strict_cfg = proto;
  strict_cfg.type = bgp::AttackType::SubPrefix;
  strict_cfg.roas = &roas_;
  const auto strict_store = run_fast_campaign(*testbed_, strict_cfg);

  FastCampaignConfig maxlen_cfg = strict_cfg;
  maxlen_cfg.roas = &maxlen;
  const auto maxlen_store = run_fast_campaign(*testbed_, maxlen_cfg);

  // RFC 9319: strict ROAs make the /25 Invalid (blocked under full ROV);
  // MAX_LEN /25 makes it Valid (globally effective again).
  EXPECT_LT(capture(strict_store), 0.01);
  EXPECT_GT(capture(maxlen_store), 0.95);
}

}  // namespace
}  // namespace marcopolo::core
