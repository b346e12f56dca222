#include "marcopolo/fast_campaign.hpp"

#include <gtest/gtest.h>

#include "testbed_fixture.hpp"

namespace marcopolo::core {
namespace {

using testing_support::shared_dataset;
using testing_support::shared_testbed;

TEST(FastCampaign, CoversEveryOrderedPair) {
  const auto& store = shared_dataset().no_rpki;
  const auto n = static_cast<SiteIndex>(store.num_sites());
  for (SiteIndex v = 0; v < n; ++v) {
    for (SiteIndex a = 0; a < n; ++a) {
      if (v == a) continue;
      EXPECT_TRUE(store.pair_complete(v, a)) << "pair " << v << "," << a;
    }
  }
}

TEST(FastCampaign, DimensionsMatchTestbed) {
  const auto& store = shared_dataset().no_rpki;
  EXPECT_EQ(store.num_sites(), shared_testbed().sites().size());
  EXPECT_EQ(store.num_perspectives(),
            shared_testbed().perspectives().size());
}

TEST(FastCampaign, DeterministicAcrossRuns) {
  const auto again = run_fast_campaign(shared_testbed(), FastCampaignConfig{});
  const auto& first = shared_dataset().no_rpki;
  const auto n = static_cast<SiteIndex>(first.num_sites());
  for (SiteIndex v = 0; v < n; ++v) {
    for (SiteIndex a = 0; a < n; ++a) {
      if (v == a) continue;
      for (PerspectiveIndex p = 0; p < first.num_perspectives(); ++p) {
        ASSERT_EQ(first.outcome(v, a, p), again.outcome(v, a, p));
      }
    }
  }
}

TEST(FastCampaign, ForgedOriginHijacksNoMorePerspectivesOverall) {
  // Per-pair the coin can flip either way, but in aggregate the +1 AS hop
  // must strictly reduce the adversary's capture.
  const auto& plain = shared_dataset().no_rpki;
  const auto& forged = shared_dataset().rpki;
  std::size_t plain_hijacks = 0;
  std::size_t forged_hijacks = 0;
  const auto n = static_cast<SiteIndex>(plain.num_sites());
  for (SiteIndex v = 0; v < n; ++v) {
    for (SiteIndex a = 0; a < n; ++a) {
      if (v == a) continue;
      for (PerspectiveIndex p = 0; p < plain.num_perspectives(); ++p) {
        if (plain.hijacked(v, a, p)) ++plain_hijacks;
        if (forged.hijacked(v, a, p)) ++forged_hijacks;
      }
    }
  }
  EXPECT_LT(forged_hijacks, plain_hijacks);
  EXPECT_GT(plain_hijacks, 0u);
}

TEST(FastCampaign, SubPrefixCapturesEverything) {
  FastCampaignConfig cfg;
  cfg.type = bgp::AttackType::SubPrefix;
  const auto store = run_fast_campaign(shared_testbed(), cfg);
  const auto n = static_cast<SiteIndex>(store.num_sites());
  std::size_t hijacked = 0;
  std::size_t total = 0;
  for (SiteIndex v = 0; v < n; ++v) {
    for (SiteIndex a = 0; a < n; ++a) {
      if (v == a) continue;
      for (PerspectiveIndex p = 0; p < store.num_perspectives(); ++p) {
        ++total;
        if (store.hijacked(v, a, p)) ++hijacked;
      }
    }
  }
  // MPIC's documented blind spot: sub-prefix hijacks are global.
  EXPECT_GT(static_cast<double>(hijacked) / static_cast<double>(total), 0.95);
}

TEST(FastCampaign, TieBreakSeedChangesHashedOutcomes) {
  FastCampaignConfig a;
  a.tie_break_seed = 1;
  FastCampaignConfig b;
  b.tie_break_seed = 2;
  const auto sa = run_fast_campaign(shared_testbed(), a);
  const auto sb = run_fast_campaign(shared_testbed(), b);
  std::size_t differences = 0;
  const auto n = static_cast<SiteIndex>(sa.num_sites());
  for (SiteIndex v = 0; v < n; ++v) {
    for (SiteIndex adv = 0; adv < n; ++adv) {
      if (v == adv) continue;
      for (PerspectiveIndex p = 0; p < sa.num_perspectives(); ++p) {
        if (sa.outcome(v, adv, p) != sb.outcome(v, adv, p)) ++differences;
      }
    }
  }
  EXPECT_GT(differences, 0u);
}

}  // namespace
}  // namespace marcopolo::core
