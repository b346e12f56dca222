#include "analysis/resilience.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "analysis/scalar_reference.hpp"
#include "netsim/random.hpp"
#include "testbed_fixture.hpp"

namespace marcopolo::analysis {
namespace {

TEST(MedianOf, PaperEquationFive) {
  EXPECT_DOUBLE_EQ(median_of({0.5}), 0.5);
  EXPECT_DOUBLE_EQ(median_of({0.2, 0.8}), 0.5);  // even: mean of middles
  EXPECT_DOUBLE_EQ(median_of({0.9, 0.1, 0.5}), 0.5);
  EXPECT_DOUBLE_EQ(median_of({0.4, 0.1, 0.3, 0.2}), 0.25);
  EXPECT_THROW((void)median_of({}), std::invalid_argument);
}

TEST(PercentileOf, NearestRank) {
  const std::vector<double> v{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9,
                              1.0};
  EXPECT_DOUBLE_EQ(percentile_of(v, 25.0), 0.3);
  EXPECT_DOUBLE_EQ(percentile_of(v, 50.0), 0.5);
  EXPECT_DOUBLE_EQ(percentile_of(v, 100.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile_of(v, 0.0), 0.1);
  EXPECT_THROW((void)percentile_of(v, 101.0), std::invalid_argument);
}

TEST(Summarize, ComputesAllStatistics) {
  const auto s = summarize({1.0, 0.0, 0.5, 0.5});
  EXPECT_DOUBLE_EQ(s.median, 0.5);
  EXPECT_DOUBLE_EQ(s.average, 0.5);
  EXPECT_DOUBLE_EQ(s.p25, 0.0);
  EXPECT_EQ(s.per_victim.size(), 4u);
}

/// Hand-built 3-site, 3-perspective store with known outcomes.
class HandComputedResilience : public ::testing::Test {
 protected:
  HandComputedResilience() : store(3, 3) {
    using bgp::OriginReached;
    // Pair (0,1): perspectives 0,1 hijacked; 2 safe.
    set(0, 1, {true, true, false});
    // Pair (0,2): nothing hijacked.
    set(0, 2, {false, false, false});
    // Pair (1,0): all hijacked.
    set(1, 0, {true, true, true});
    // Pair (1,2): only perspective 2.
    set(1, 2, {false, false, true});
    // Pair (2,0): perspectives 0.
    set(2, 0, {true, false, false});
    // Pair (2,1): perspectives 1,2.
    set(2, 1, {false, true, true});
  }

  void set(core::SiteIndex v, core::SiteIndex a,
           std::array<bool, 3> hijacked) {
    for (core::PerspectiveIndex p = 0; p < 3; ++p) {
      store.record(v, a, p,
                   hijacked[p] ? bgp::OriginReached::Adversary
                               : bgp::OriginReached::Victim);
    }
  }

  mpic::DeploymentSpec deployment(std::vector<core::PerspectiveIndex> remotes,
                                  std::size_t failures,
                                  std::optional<core::PerspectiveIndex>
                                      primary = std::nullopt) {
    mpic::DeploymentSpec spec;
    spec.name = "test";
    spec.remotes = std::move(remotes);
    spec.primary = primary;
    spec.policy = mpic::QuorumPolicy(spec.remotes.size(), failures,
                                     primary.has_value());
    return spec;
  }

  core::ResultStore store;
};

TEST_F(HandComputedResilience, AllThreePerspectivesFullQuorum) {
  // (3, N): attack needs all three perspectives.
  const ResilienceAnalyzer analyzer(store);
  const auto per_victim =
      analyzer.per_victim_resilience(deployment({0, 1, 2}, 0));
  // Victim 0: adversary 1 captures 2<3 -> defended; adversary 2 captures 0
  // -> defended. R=1.
  EXPECT_DOUBLE_EQ(per_victim[0], 1.0);
  // Victim 1: adversary 0 captures 3 -> success; adversary 2 captures 1 ->
  // defended. R=0.5.
  EXPECT_DOUBLE_EQ(per_victim[1], 0.5);
  // Victim 2: adversaries capture 1 and 2 perspectives -> defended. R=1.
  EXPECT_DOUBLE_EQ(per_victim[2], 1.0);

  const auto s = analyzer.evaluate(deployment({0, 1, 2}, 0));
  EXPECT_DOUBLE_EQ(s.median, 1.0);
  EXPECT_NEAR(s.average, (1.0 + 0.5 + 1.0) / 3.0, 1e-12);
}

TEST_F(HandComputedResilience, QuorumWithFailureBudgetIsWeaker) {
  // (3, N-1): attack needs only 2 perspectives.
  const ResilienceAnalyzer analyzer(store);
  const auto per_victim =
      analyzer.per_victim_resilience(deployment({0, 1, 2}, 1));
  // Victim 0: adversary 1 captures 2 >= 2 -> success. R=0.5.
  EXPECT_DOUBLE_EQ(per_victim[0], 0.5);
  // Victim 2: adversary 1 captures {1,2} -> success; adversary 0 captures 1
  // -> defended. R=0.5.
  EXPECT_DOUBLE_EQ(per_victim[2], 0.5);
}

TEST_F(HandComputedResilience, PrimaryMustAlsoBeHijacked) {
  // Remotes {0,1} quorum (2,N), primary 2.
  const ResilienceAnalyzer analyzer(store);
  const auto no_primary =
      analyzer.per_victim_resilience(deployment({0, 1}, 0));
  // Victim 0, adversary 1 captures both remotes -> success without primary.
  EXPECT_DOUBLE_EQ(no_primary[0], 0.5);
  const auto with_primary =
      analyzer.per_victim_resilience(deployment({0, 1}, 0, 2));
  // Primary (perspective 2) is NOT hijacked for pair (0,1) -> defended.
  EXPECT_DOUBLE_EQ(with_primary[0], 1.0);
  // Victim 1, adversary 0 captures everything incl. primary -> success.
  EXPECT_DOUBLE_EQ(with_primary[1], 0.5);
}

TEST_F(HandComputedResilience, SinglePerspectiveDeployment) {
  const ResilienceAnalyzer analyzer(store);
  const auto per_victim = analyzer.per_victim_resilience(deployment({2}, 0));
  // Perspective 2 hijacked for pairs (1,0), (1,2), (2,1).
  EXPECT_DOUBLE_EQ(per_victim[0], 1.0);
  EXPECT_DOUBLE_EQ(per_victim[1], 0.0);
  EXPECT_DOUBLE_EQ(per_victim[2], 0.5);
}

TEST_F(HandComputedResilience, ScoreMatchesEvaluate) {
  const ResilienceAnalyzer analyzer(store);
  auto scratch = analyzer.make_scratch();
  const std::vector<core::PerspectiveIndex> set = {0, 1, 2};
  const auto score = analyzer.score_set(set, 3, std::nullopt, scratch);
  const auto full = analyzer.evaluate(deployment({0, 1, 2}, 0));
  EXPECT_DOUBLE_EQ(score.median, full.median);
  EXPECT_DOUBLE_EQ(score.average, full.average);
}

TEST(ResilienceAnalyzer, CountsSurvivePastTwoHundredFiftyFivePerspectives) {
  // Regression: per-pair hijack counters were once uint8_t and wrapped
  // past 255 perspectives, silently turning a hijack count of 260 into 4
  // and inflating resilience for mega-deployments. The scorer must count
  // that high, against the scalar reference's 16-bit counters.
  core::ResultStore store(2, 300);
  for (core::PerspectiveIndex p = 0; p < 300; ++p) {
    store.record(0, 1, p,
                 p < 260 ? bgp::OriginReached::Adversary
                         : bgp::OriginReached::Victim);
    store.record(1, 0, p, bgp::OriginReached::Victim);
  }
  const ResilienceAnalyzer analyzer(store);
  const ScalarReference scalar(store);

  std::vector<core::PerspectiveIndex> set(260);
  std::iota(set.begin(), set.end(), core::PerspectiveIndex{0});
  auto counts = scalar.make_counts();
  for (const auto p : set) scalar.add(counts, p);
  ASSERT_EQ(counts[store.pair_index(0, 1)], 260u);

  // Quorum (260, 258): adversary 1 captures 260 >= 258 perspectives, so
  // victim 0 is undefended (R=0); victim 1 is fully defended (R=1).
  const auto expected = scalar.score(counts, 258, std::nullopt);
  EXPECT_DOUBLE_EQ(expected.median, 0.5);
  EXPECT_DOUBLE_EQ(expected.average, 0.5);

  auto scratch = analyzer.make_scratch();
  const auto kernel = analyzer.score_set(set, 258, std::nullopt, scratch);
  EXPECT_EQ(kernel.median, expected.median);
  EXPECT_EQ(kernel.average, expected.average);

  mpic::DeploymentSpec spec;
  spec.name = "mega";
  spec.remotes = set;
  spec.policy = mpic::QuorumPolicy(260, 2, false);
  const auto direct = analyzer.evaluate(spec);
  EXPECT_EQ(direct.median, expected.median);
  EXPECT_EQ(direct.average, expected.average);
}

TEST(ResilienceAnalyzer, ScoreOrderingMedianThenAverage) {
  using Score = ResilienceAnalyzer::Score;
  EXPECT_LT((Score{0.5, 0.9}), (Score{0.6, 0.1}));
  EXPECT_LT((Score{0.5, 0.1}), (Score{0.5, 0.2}));
  EXPECT_FALSE((Score{0.5, 0.2}) < (Score{0.5, 0.2}));
}

// Property: the optimizer's scoring kernel (score_set: histogram median,
// cached per-victim values) agrees with the full evaluation the tables
// print (evaluate: sorted median) for random deployments on the real
// campaign dataset.
class KernelVsDirect : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KernelVsDirect, RandomDeploymentsAgree) {
  const auto& store = testing_support::shared_dataset().no_rpki;
  const ResilienceAnalyzer analyzer(store);
  netsim::Rng rng(GetParam());

  auto scratch = analyzer.make_scratch();
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t size = 1 + rng.index(8);
    std::set<core::PerspectiveIndex> chosen;
    while (chosen.size() < size) {
      chosen.insert(static_cast<core::PerspectiveIndex>(
          rng.index(store.num_perspectives())));
    }
    const std::size_t failures = rng.index(size);

    mpic::DeploymentSpec spec;
    spec.name = "random";
    spec.remotes.assign(chosen.begin(), chosen.end());
    spec.policy = mpic::QuorumPolicy(size, failures, false);

    const auto kernel = analyzer.score_set(
        spec.remotes, spec.policy.required(), std::nullopt, scratch);
    const auto direct = analyzer.evaluate(spec);
    EXPECT_DOUBLE_EQ(kernel.median, direct.median);
    EXPECT_DOUBLE_EQ(kernel.average, direct.average);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelVsDirect,
                         ::testing::Values(1u, 7u, 99u));

}  // namespace
}  // namespace marcopolo::analysis
