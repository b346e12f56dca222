// Multi-attack campaign equivalences: the saved store must be
// byte-identical across thread counts and across the incremental/full
// engines, and every plane must match the single-attack campaign of its
// type byte for byte — the properties that make one multi-attack sweep a
// drop-in replacement for K separate campaigns.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bgp/attack_model.hpp"
#include "marcopolo/fast_campaign.hpp"
#include "store_bytes.hpp"
#include "testbed_fixture.hpp"

namespace marcopolo::core {
namespace {

using testing_support::csv_bytes;
using testing_support::same_bytes;
using testing_support::shared_testbed;
using testing_support::small_testbed_config;

FastCampaignConfig all_attacks_config() {
  FastCampaignConfig cfg;
  const auto all = bgp::all_attack_types();
  cfg.attacks.assign(all.begin(), all.end());
  return cfg;
}

TEST(MultiAttackCampaign, StoreHasOnePlanePerRequestedAttackInOrder) {
  const auto store = run_fast_campaign(shared_testbed(), all_attacks_config());
  ASSERT_EQ(store.num_attacks(), bgp::kAttackTypeCount);
  for (std::size_t i = 0; i < store.num_attacks(); ++i) {
    EXPECT_EQ(store.attack_types()[i], bgp::all_attack_types()[i]);
    EXPECT_EQ(store.attack_index(store.attack_types()[i]), i);
  }
}

TEST(MultiAttackCampaign, CoversEveryPairInEveryPlane) {
  const auto store = run_fast_campaign(shared_testbed(), all_attacks_config());
  const auto n = static_cast<SiteIndex>(store.num_sites());
  for (std::size_t ai = 0; ai < store.num_attacks(); ++ai) {
    for (SiteIndex v = 0; v < n; ++v) {
      for (SiteIndex a = 0; a < n; ++a) {
        if (v == a) continue;
        ASSERT_TRUE(store.pair_complete(ai, v, a))
            << bgp::to_cstring(store.attack_types()[ai]) << " pair " << v
            << "," << a;
      }
    }
  }
}

TEST(MultiAttackCampaign, EveryPlaneMatchesItsSingleAttackCampaign) {
  const auto multi = run_fast_campaign(shared_testbed(), all_attacks_config());
  for (std::size_t ai = 0; ai < multi.num_attacks(); ++ai) {
    FastCampaignConfig single;
    single.type = multi.attack_types()[ai];
    const auto alone = run_fast_campaign(shared_testbed(), single);
    EXPECT_TRUE(
        same_bytes(csv_bytes(multi.extract_attack(ai)), csv_bytes(alone)))
        << "plane " << bgp::to_cstring(multi.attack_types()[ai]);
  }
}

TEST(MultiAttackCampaign, StoreIsByteIdenticalAcrossThreadCounts) {
  FastCampaignConfig cfg = all_attacks_config();
  cfg.threads = 1;
  const std::string one = csv_bytes(run_fast_campaign(shared_testbed(), cfg));
  for (const std::size_t threads : {std::size_t{4}, std::size_t{64}}) {
    cfg.threads = threads;
    EXPECT_TRUE(
        same_bytes(csv_bytes(run_fast_campaign(shared_testbed(), cfg)), one))
        << threads << " threads";
  }
}

TEST(MultiAttackCampaign, StoreIsByteIdenticalIncrementalVsFull) {
  // The acceptance gate for the route-leak delta replay: with the leak in
  // the attack list, the incremental engine (victim baseline + replay,
  // including the baseline-consulting RouteLeak plan) must reproduce the
  // full engine's store exactly.
  FastCampaignConfig cfg = all_attacks_config();
  cfg.incremental = true;
  const std::string fast = csv_bytes(run_fast_campaign(shared_testbed(), cfg));
  cfg.incremental = false;
  EXPECT_TRUE(
      same_bytes(csv_bytes(run_fast_campaign(shared_testbed(), cfg)), fast));
}

TEST(MultiAttackCampaign, LegacySingleTypeConfigTagsItsPlane) {
  FastCampaignConfig cfg;
  cfg.type = bgp::AttackType::RouteLeak;  // attacks list left empty
  const auto store = run_fast_campaign(shared_testbed(), cfg);
  ASSERT_EQ(store.num_attacks(), 1u);
  EXPECT_EQ(store.attack_types()[0], bgp::AttackType::RouteLeak);
}

TEST(MultiAttackCampaign, OtcDeploymentBitesLeaksButNotOriginHijacks) {
  // Two testbeds differing only in OTC deployment: the equally-specific
  // plane must not change at all (valley-free routes never trip RFC 9234),
  // while the route-leak plane must lose hijacks.
  TestbedConfig plain_cfg = small_testbed_config();
  const Testbed plain(plain_cfg);
  TestbedConfig otc_cfg = small_testbed_config();
  otc_cfg.otc_fraction = 1.0;
  const Testbed otc(otc_cfg);

  FastCampaignConfig run;
  run.attacks = {bgp::AttackType::EquallySpecific, bgp::AttackType::RouteLeak};
  const auto store_plain = run_fast_campaign(plain, run);
  const auto store_otc = run_fast_campaign(otc, run);

  EXPECT_TRUE(same_bytes(csv_bytes(store_plain.extract_attack(0)),
                         csv_bytes(store_otc.extract_attack(0))))
      << "equally-specific outcomes must be OTC-invariant";

  const auto hijacks = [](const ResultStore& s, std::size_t ai) {
    std::size_t count = 0;
    const auto n = static_cast<SiteIndex>(s.num_sites());
    for (SiteIndex v = 0; v < n; ++v) {
      for (SiteIndex a = 0; a < n; ++a) {
        if (v == a) continue;
        for (PerspectiveIndex p = 0; p < s.num_perspectives(); ++p) {
          if (s.hijacked(ai, v, a, p)) ++count;
        }
      }
    }
    return count;
  };
  const std::size_t leak_plain = hijacks(store_plain, 1);
  const std::size_t leak_otc = hijacks(store_otc, 1);
  EXPECT_GT(leak_plain, 0u) << "leaks must capture something without OTC";
  EXPECT_LT(leak_otc, leak_plain);
}

}  // namespace
}  // namespace marcopolo::core
