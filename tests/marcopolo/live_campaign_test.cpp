// Tests for the live (event-driven) campaign runner.
#include <gtest/gtest.h>

#include <stdexcept>

#include "marcopolo/live_campaign.hpp"
#include "testbed_fixture.hpp"

namespace marcopolo::core {
namespace {

using testing_support::shared_testbed;

std::vector<std::pair<SiteIndex, SiteIndex>> few_pairs() {
  return {{0, 1}, {5, 20}, {13, 30}, {28, 2}};
}

TEST(LiveCampaign, RecordsEveryPerspectiveForEveryPair) {
  LiveCampaignConfig cfg;
  cfg.pairs = few_pairs();
  const auto out = run_live_campaign(shared_testbed(), cfg);
  EXPECT_EQ(out.stats.attacks, cfg.pairs.size());
  EXPECT_GT(out.stats.updates_sent, 0u);
  for (const auto& [v, a] : cfg.pairs) {
    EXPECT_TRUE(out.results.pair_complete(v, a));
  }
  // Announce + wait + withdraw + settle per attack.
  EXPECT_GE(out.stats.duration, netsim::minutes(10 * 4));
}

TEST(LiveCampaign, DeterministicAcrossRuns) {
  LiveCampaignConfig cfg;
  cfg.pairs = few_pairs();
  const auto a = run_live_campaign(shared_testbed(), cfg);
  const auto b = run_live_campaign(shared_testbed(), cfg);
  for (const auto& [v, adv] : cfg.pairs) {
    for (PerspectiveIndex p = 0; p < a.results.num_perspectives(); ++p) {
      ASSERT_EQ(a.results.outcome(v, adv, p), b.results.outcome(v, adv, p));
    }
  }
}

TEST(LiveCampaign, AgreesWithAnalyticOnTieFreeOutcomes) {
  // Cells where the analytic VictimFirst and AdversaryFirst extremes agree
  // are tie-free: no route-age coin can flip them, so the live measurement
  // must match every one. Both paths offer a route once per parallel link,
  // each at its own ingress POP.
  const auto& tb = shared_testbed();
  LiveCampaignConfig live_cfg;
  live_cfg.pairs = few_pairs();
  const auto live = run_live_campaign(tb, live_cfg);

  FastCampaignConfig vf;
  vf.tie_break = bgp::TieBreakMode::VictimFirst;
  const auto store_vf = run_fast_campaign(tb, vf);
  FastCampaignConfig af;
  af.tie_break = bgp::TieBreakMode::AdversaryFirst;
  const auto store_af = run_fast_campaign(tb, af);

  std::size_t tie_free = 0;
  std::size_t agree = 0;
  for (const auto& [v, a] : live_cfg.pairs) {
    for (PerspectiveIndex p = 0; p < live.results.num_perspectives(); ++p) {
      if (store_vf.outcome(v, a, p) != store_af.outcome(v, a, p)) continue;
      ++tie_free;
      if (live.results.outcome(v, a, p) == store_vf.outcome(v, a, p)) {
        ++agree;
      }
    }
  }
  ASSERT_GT(tie_free, 0u);
  EXPECT_EQ(agree, tie_free);
}

TEST(LiveCampaign, SequentialAnnouncementsFavorTheVictim) {
  const auto& tb = shared_testbed();
  LiveCampaignConfig simultaneous;
  simultaneous.pairs = few_pairs();
  const auto sim_out = run_live_campaign(tb, simultaneous);

  LiveCampaignConfig sequential = simultaneous;
  sequential.sequential_announcements = true;
  const auto seq_out = run_live_campaign(tb, sequential);

  std::size_t sim_hijacks = 0;
  std::size_t seq_hijacks = 0;
  for (const auto& [v, a] : simultaneous.pairs) {
    for (PerspectiveIndex p = 0; p < sim_out.results.num_perspectives();
         ++p) {
      if (sim_out.results.hijacked(v, a, p)) ++sim_hijacks;
      if (seq_out.results.hijacked(v, a, p)) ++seq_hijacks;
    }
  }
  EXPECT_LE(seq_hijacks, sim_hijacks)
      << "letting the victim settle first can only help it win age ties";
  EXPECT_GT(seq_out.stats.duration, sim_out.stats.duration);
}

TEST(LiveCampaign, PrematureDcvMisattributesWithSlowRouters) {
  const auto& tb = shared_testbed();
  LiveCampaignConfig slow;
  slow.pairs = few_pairs();
  slow.bgp.speaker.mrai = netsim::seconds(45);
  // DCV fires while the announcements are still crossing the first few
  // sessions (one inter-continental hop alone is ~50-80 ms).
  slow.propagation_wait = netsim::milliseconds(100);
  const auto early = run_live_campaign(tb, slow);

  LiveCampaignConfig patient = slow;
  patient.propagation_wait = netsim::minutes(5);
  const auto converged = run_live_campaign(tb, patient);

  std::size_t differences = 0;
  for (const auto& [v, a] : slow.pairs) {
    for (PerspectiveIndex p = 0; p < early.results.num_perspectives(); ++p) {
      if (early.results.outcome(v, a, p) !=
          converged.results.outcome(v, a, p)) {
        ++differences;
      }
    }
  }
  EXPECT_GT(differences, 0u)
      << "a 100 ms DCV snapshot must disagree with the converged state "
         "somewhere — this is exactly why the paper waits 5 minutes";
}

TEST(LiveCampaign, SubPrefixCapturesPerspectives) {
  LiveCampaignConfig cfg;
  cfg.pairs = {{3, 22}};
  cfg.type = bgp::AttackType::SubPrefix;
  const auto out = run_live_campaign(shared_testbed(), cfg);
  ASSERT_EQ(out.results.num_attacks(), 1u);
  EXPECT_STREQ(bgp::to_cstring(out.results.attack_types()[0]), "sub-prefix");
  std::size_t captured = 0;
  for (PerspectiveIndex p = 0; p < out.results.num_perspectives(); ++p) {
    if (out.results.hijacked(3, 22, p)) ++captured;
  }
  EXPECT_GT(static_cast<double>(captured) /
                static_cast<double>(out.results.num_perspectives()),
            0.9);
}

TEST(LiveCampaign, RouteLeakIsRefused) {
  // The live engine has no leak model; recording no-attack verdicts as
  // route-leak outcomes would pass for a measurement.
  LiveCampaignConfig cfg;
  cfg.pairs = {{0, 1}};
  cfg.type = bgp::AttackType::RouteLeak;
  EXPECT_THROW((void)run_live_campaign(shared_testbed(), cfg),
               std::invalid_argument);
}

TEST(LiveCampaign, ForgedOriginWeakerThanPlain) {
  const auto& tb = shared_testbed();
  LiveCampaignConfig plain;
  plain.pairs = few_pairs();
  const auto plain_out = run_live_campaign(tb, plain);
  LiveCampaignConfig forged = plain;
  forged.type = bgp::AttackType::ForgedOriginPrepend;
  const auto forged_out = run_live_campaign(tb, forged);

  std::size_t plain_hits = 0;
  std::size_t forged_hits = 0;
  for (const auto& [v, a] : plain.pairs) {
    for (PerspectiveIndex p = 0; p < plain_out.results.num_perspectives();
         ++p) {
      if (plain_out.results.hijacked(v, a, p)) ++plain_hits;
      if (forged_out.results.hijacked(v, a, p)) ++forged_hits;
    }
  }
  EXPECT_LT(forged_hits, plain_hits);
}

}  // namespace
}  // namespace marcopolo::core
