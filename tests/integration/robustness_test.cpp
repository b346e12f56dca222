// Robustness: the qualitative findings must not be artifacts of one
// particular synthetic Internet. Re-derive the headline invariants on
// testbeds generated from different topology seeds.
#include <gtest/gtest.h>

#include "analysis/optimizer.hpp"
#include "marcopolo/fast_campaign.hpp"
#include "marcopolo/production_systems.hpp"

namespace marcopolo {
namespace {

class TopologySeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TopologySeedSweep, HeadlineInvariantsHold) {
  core::TestbedConfig cfg;
  cfg.internet.seed = GetParam();
  const core::Testbed testbed(cfg);
  const auto store =
      core::run_fast_campaign(testbed, core::FastCampaignConfig{});
  const analysis::ResilienceAnalyzer analyzer(store);
  analysis::DeploymentOptimizer optimizer(analyzer);

  // 1. Single-perspective resilience is near a coin flip on every seed.
  for (const auto provider : topo::kPerspectiveProviders) {
    analysis::OptimizerConfig single;
    single.set_size = 1;
    single.max_failures = 0;
    single.candidates = testbed.perspectives_of(provider);
    const auto best = optimizer.best(single);
    EXPECT_GE(best.score.median, 0.35)
        << topo::to_string_view(provider) << " seed " << GetParam();
    EXPECT_LE(best.score.median, 0.70)
        << topo::to_string_view(provider) << " seed " << GetParam();
  }

  // 2. A compliant multi-perspective deployment beats any single
  //    perspective by a wide margin (beam lower bound).
  analysis::OptimizerConfig six;
  six.set_size = 6;
  six.max_failures = 2;
  six.candidates = testbed.perspectives_of(topo::CloudProvider::Azure);
  six.strategy = analysis::SearchStrategy::Beam;
  six.beam_width = 48;
  const auto best6 = optimizer.best(six);
  EXPECT_GE(best6.score.median, 0.72) << "seed " << GetParam();

  // 3. The production-style systems stay in a sane band.
  const auto cf = analyzer.evaluate(core::cloudflare_spec(testbed));
  EXPECT_GE(cf.median, 0.85) << "seed " << GetParam();
  const auto le = analyzer.evaluate(core::lets_encrypt_spec(testbed));
  EXPECT_GE(le.median, 0.60) << "seed " << GetParam();

  // 4. Forged-origin attacks capture strictly less in aggregate.
  core::FastCampaignConfig forged;
  forged.type = bgp::AttackType::ForgedOriginPrepend;
  const auto forged_store = core::run_fast_campaign(testbed, forged);
  std::size_t plain_hits = 0;
  std::size_t forged_hits = 0;
  for (core::SiteIndex v = 0; v < store.num_sites(); ++v) {
    for (core::SiteIndex a = 0; a < store.num_sites(); ++a) {
      if (v == a) continue;
      for (core::PerspectiveIndex p = 0; p < store.num_perspectives(); ++p) {
        if (store.hijacked(v, a, p)) ++plain_hits;
        if (forged_store.hijacked(v, a, p)) ++forged_hits;
      }
    }
  }
  EXPECT_LT(forged_hits, plain_hits) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopologySeedSweep,
                         ::testing::Values(42u, 1337u, 20260704u));

}  // namespace
}  // namespace marcopolo
