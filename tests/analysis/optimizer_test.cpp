#include "analysis/optimizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "testbed_fixture.hpp"

namespace marcopolo::analysis {
namespace {

using testing_support::shared_dataset;
using testing_support::shared_testbed;

const ResilienceAnalyzer& analyzer() {
  static ResilienceAnalyzer instance(shared_dataset().no_rpki);
  return instance;
}

std::vector<PerspectiveIndex> first_n_aws(std::size_t n) {
  auto all = shared_testbed().perspectives_of(topo::CloudProvider::Aws);
  all.resize(n);
  return all;
}

/// Brute-force reference: enumerate all C(n, k) sets via evaluate().
RankedDeployment brute_force_best(std::vector<PerspectiveIndex> candidates,
                                  std::size_t k, std::size_t failures) {
  std::vector<PerspectiveIndex> best_set;
  ResilienceAnalyzer::Score best_score{-1.0, -1.0};
  std::vector<PerspectiveIndex> current;
  auto recurse = [&](auto&& self, std::size_t next) -> void {
    if (current.size() == k) {
      mpic::DeploymentSpec spec;
      spec.name = "bf";
      spec.remotes = current;
      spec.policy = mpic::QuorumPolicy(k, failures, false);
      const auto s = analyzer().evaluate(spec);
      const ResilienceAnalyzer::Score score{s.median, s.average};
      if (best_score < score) {
        best_score = score;
        best_set = current;
      }
      return;
    }
    for (std::size_t i = next; i < candidates.size(); ++i) {
      current.push_back(candidates[i]);
      self(self, i + 1);
      current.pop_back();
    }
  };
  recurse(recurse, 0);
  mpic::DeploymentSpec spec;
  spec.name = "bf";
  spec.remotes = std::move(best_set);
  spec.policy = mpic::QuorumPolicy(k, failures, false);
  return RankedDeployment{std::move(spec), best_score};
}

TEST(Optimizer, ExhaustiveMatchesBruteForce) {
  const auto candidates = first_n_aws(10);
  DeploymentOptimizer optimizer(analyzer());
  OptimizerConfig cfg;
  cfg.set_size = 4;
  cfg.max_failures = 1;
  cfg.candidates = candidates;
  const auto best = optimizer.best(cfg);
  const auto reference = brute_force_best(candidates, 4, 1);
  EXPECT_DOUBLE_EQ(best.score.median, reference.score.median);
  EXPECT_DOUBLE_EQ(best.score.average, reference.score.average);
}

TEST(Optimizer, RankedOutputIsSortedAndDeduplicated) {
  DeploymentOptimizer optimizer(analyzer());
  OptimizerConfig cfg;
  cfg.set_size = 3;
  cfg.max_failures = 1;
  cfg.candidates = first_n_aws(12);
  cfg.top_k = 40;
  const auto ranked = optimizer.optimize(cfg);
  ASSERT_FALSE(ranked.empty());
  EXPECT_LE(ranked.size(), 40u);
  std::set<std::vector<PerspectiveIndex>> seen;
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    EXPECT_TRUE(seen.insert(ranked[i].spec.remotes).second);
    if (i > 0) {
      EXPECT_FALSE(ranked[i - 1].score < ranked[i].score)
          << "ranking must be non-increasing";
    }
    EXPECT_EQ(ranked[i].spec.remotes.size(), 3u);
  }
}

TEST(Optimizer, ScoresAreConsistentWithAnalyzer) {
  DeploymentOptimizer optimizer(analyzer());
  OptimizerConfig cfg;
  cfg.set_size = 4;
  cfg.max_failures = 1;
  cfg.candidates = first_n_aws(12);
  for (const auto& rd : optimizer.optimize(cfg)) {
    const auto s = analyzer().evaluate(rd.spec);
    EXPECT_DOUBLE_EQ(rd.score.median, s.median);
    EXPECT_DOUBLE_EQ(rd.score.average, s.average);
  }
}

TEST(Optimizer, PrimaryNeverHurts) {
  DeploymentOptimizer optimizer(analyzer());
  OptimizerConfig cfg;
  cfg.set_size = 4;
  cfg.max_failures = 1;
  cfg.candidates = shared_testbed().perspectives_of(topo::CloudProvider::Aws);
  const auto without = optimizer.best(cfg);
  cfg.with_primary = true;
  const auto with = optimizer.best(cfg);
  EXPECT_FALSE(with.score < without.score)
      << "an optimal primary can only add a failure condition for the "
         "attacker";
  EXPECT_TRUE(with.spec.primary.has_value());
  // Primary never duplicates a remote.
  for (const auto r : with.spec.remotes) {
    EXPECT_NE(r, *with.spec.primary);
  }
}

TEST(Optimizer, BeamFindsReasonableSolutions) {
  DeploymentOptimizer optimizer(analyzer());
  OptimizerConfig exhaustive;
  exhaustive.set_size = 4;
  exhaustive.max_failures = 1;
  exhaustive.candidates =
      shared_testbed().perspectives_of(topo::CloudProvider::Aws);
  const auto exact = optimizer.best(exhaustive);

  OptimizerConfig beam = exhaustive;
  beam.strategy = SearchStrategy::Beam;
  beam.beam_width = 64;
  const auto approx = optimizer.best(beam);
  // Beam is a heuristic: demand it lands within 10 points of optimum.
  EXPECT_GE(approx.score.median, exact.score.median - 0.10);
}

TEST(Optimizer, MaxPerRirCapIsRespected) {
  DeploymentOptimizer optimizer(analyzer());
  std::vector<topo::Rir> rirs;
  for (const auto& rec : shared_testbed().perspectives()) {
    rirs.push_back(rec.rir);
  }
  OptimizerConfig cfg;
  cfg.set_size = 5;
  cfg.max_failures = 1;
  cfg.candidates = shared_testbed().perspectives_of(topo::CloudProvider::Aws);
  cfg.max_per_rir = 2;
  cfg.rir_of = rirs;
  cfg.top_k = 20;
  for (const auto& rd : optimizer.optimize(cfg)) {
    std::map<topo::Rir, int> counts;
    for (const auto p : rd.spec.remotes) ++counts[rirs[p]];
    for (const auto& [rir, count] : counts) {
      EXPECT_LE(count, 2) << "RIR cap violated";
    }
  }
}

TEST(Optimizer, LargerSetsNeverReduceOptimalResilience) {
  // Paper §5.1: "increasing this count always improves resilience" — at
  // equal failure budget, adding a perspective cannot hurt the optimum.
  DeploymentOptimizer optimizer(analyzer());
  OptimizerConfig small;
  small.set_size = 4;
  small.max_failures = 1;
  small.candidates =
      shared_testbed().perspectives_of(topo::CloudProvider::Azure);
  OptimizerConfig large = small;
  large.set_size = 5;
  const auto s4 = optimizer.best(small);
  const auto s5 = optimizer.best(large);
  EXPECT_GE(s5.score.median, s4.score.median - 1e-12);
}

TEST(Optimizer, HillClimbNeverWorsensSeed) {
  DeploymentOptimizer optimizer(analyzer());
  OptimizerConfig cfg;
  cfg.set_size = 5;
  cfg.max_failures = 1;
  cfg.candidates = shared_testbed().perspectives_of(topo::CloudProvider::Gcp);
  const auto seed = std::vector<PerspectiveIndex>(
      cfg.candidates.begin(), cfg.candidates.begin() + 5);
  // Seed score.
  mpic::DeploymentSpec seed_spec;
  seed_spec.name = "seed";
  seed_spec.remotes = seed;
  seed_spec.policy = mpic::QuorumPolicy(5, 1, false);
  const auto seed_summary = analyzer().evaluate(seed_spec);

  const auto climbed = optimizer.hill_climb(seed, cfg);
  EXPECT_GE(climbed.score.median, seed_summary.median - 1e-12);
  EXPECT_EQ(climbed.spec.remotes.size(), 5u);
  // Result is scored consistently.
  const auto check = analyzer().evaluate(climbed.spec);
  EXPECT_DOUBLE_EQ(check.median, climbed.score.median);
}

TEST(Optimizer, HillClimbFromOptimumIsFixedPoint) {
  DeploymentOptimizer optimizer(analyzer());
  OptimizerConfig cfg;
  cfg.set_size = 4;
  cfg.max_failures = 1;
  cfg.candidates = first_n_aws(12);
  const auto exact = optimizer.best(cfg);
  const auto climbed = optimizer.hill_climb(exact.spec.remotes, cfg);
  EXPECT_DOUBLE_EQ(climbed.score.median, exact.score.median);
  EXPECT_DOUBLE_EQ(climbed.score.average, exact.score.average);
}

TEST(Optimizer, HillClimbValidatesSeedSize) {
  DeploymentOptimizer optimizer(analyzer());
  OptimizerConfig cfg;
  cfg.set_size = 4;
  cfg.max_failures = 1;
  cfg.candidates = first_n_aws(10);
  EXPECT_THROW((void)optimizer.hill_climb({0, 1}, cfg),
               std::invalid_argument);
}

TEST(Optimizer, ThreadCountDoesNotChangeResults) {
  DeploymentOptimizer optimizer(analyzer());
  OptimizerConfig cfg;
  cfg.set_size = 4;
  cfg.max_failures = 1;
  cfg.candidates = first_n_aws(14);
  cfg.top_k = 30;

  cfg.threads = 1;
  const auto single = optimizer.optimize(cfg);
  for (const std::size_t threads : {4u, 64u}) {
    cfg.threads = threads;
    const auto parallel = optimizer.optimize(cfg);
    ASSERT_EQ(single.size(), parallel.size()) << threads << " threads";
    for (std::size_t i = 0; i < single.size(); ++i) {
      EXPECT_EQ(single[i].spec.remotes, parallel[i].spec.remotes)
          << threads << " threads, rank " << i;
      EXPECT_DOUBLE_EQ(single[i].score.median, parallel[i].score.median);
      EXPECT_DOUBLE_EQ(single[i].score.average, parallel[i].score.average);
    }
  }
}

TEST(Optimizer, UpperBoundPruningSkipsDominatedSubtrees) {
  // Three clean perspectives {0,1,2} are never hijacked; {3,4,5} are
  // hijacked on every pair. With required=1, any partial set touching a
  // bad perspective already scores 0, so its whole subtree is prunable.
  // Regression: the seed computed TopK::admits() but never called it, so
  // the exhaustive search visited all C(6,3)=20 leaves.
  core::ResultStore store(4, 6);
  for (core::SiteIndex v = 0; v < 4; ++v) {
    for (core::SiteIndex a = 0; a < 4; ++a) {
      if (v == a) continue;
      for (core::PerspectiveIndex p = 0; p < 6; ++p) {
        store.record(v, a, p,
                     p >= 3 ? bgp::OriginReached::Adversary
                            : bgp::OriginReached::Victim);
      }
    }
  }
  const ResilienceAnalyzer local(store);
  DeploymentOptimizer optimizer(local);
  OptimizerConfig cfg;
  cfg.set_size = 3;
  cfg.max_failures = 2;  // required = 1
  cfg.candidates = {0, 1, 2, 3, 4, 5};
  cfg.top_k = 1;
  cfg.threads = 1;
  SearchStats stats;
  cfg.stats = &stats;

  const auto ranked = optimizer.optimize(cfg);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked[0].spec.remotes,
            (std::vector<PerspectiveIndex>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(ranked[0].score.median, 1.0);
  EXPECT_GT(stats.subtrees_pruned, 0u) << "prune must actually fire";
  EXPECT_LT(stats.complete_sets_scored, 20u)
      << "pruning must skip dominated leaves (seed scored all 20)";
}

TEST(Optimizer, PruningLeavesExhaustiveRankingUnchanged) {
  // The upper-bound prune is only sound if it never drops a set that
  // belongs in the top-k: compare the pruned search's score ranking
  // against a full brute-force enumeration on real campaign data.
  const auto candidates = first_n_aws(10);
  DeploymentOptimizer optimizer(analyzer());
  OptimizerConfig cfg;
  cfg.set_size = 4;
  cfg.max_failures = 1;
  cfg.candidates = candidates;
  cfg.top_k = 5;
  SearchStats stats;
  cfg.stats = &stats;
  const auto ranked = optimizer.optimize(cfg);
  ASSERT_EQ(ranked.size(), 5u);

  std::vector<ResilienceAnalyzer::Score> all_scores;
  std::vector<PerspectiveIndex> current;
  auto recurse = [&](auto&& self, std::size_t next) -> void {
    if (current.size() == 4) {
      mpic::DeploymentSpec spec;
      spec.name = "bf";
      spec.remotes = current;
      spec.policy = mpic::QuorumPolicy(4, 1, false);
      const auto s = analyzer().evaluate(spec);
      all_scores.push_back({s.median, s.average});
      return;
    }
    for (std::size_t i = next; i < candidates.size(); ++i) {
      current.push_back(candidates[i]);
      self(self, i + 1);
      current.pop_back();
    }
  };
  recurse(recurse, 0);
  std::sort(all_scores.begin(), all_scores.end(),
            [](const auto& a, const auto& b) { return b < a; });

  EXPECT_LE(stats.complete_sets_scored, all_scores.size());
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    EXPECT_DOUBLE_EQ(ranked[i].score.median, all_scores[i].median) << i;
    EXPECT_DOUBLE_EQ(ranked[i].score.average, all_scores[i].average) << i;
  }
}

TEST(Optimizer, RejectsInvalidConfigs) {
  DeploymentOptimizer optimizer(analyzer());
  OptimizerConfig cfg;
  cfg.set_size = 0;
  cfg.candidates = first_n_aws(5);
  EXPECT_THROW((void)optimizer.optimize(cfg), std::invalid_argument);
  cfg.set_size = 6;  // > candidates
  EXPECT_THROW((void)optimizer.optimize(cfg), std::invalid_argument);
  cfg.set_size = 3;
  cfg.max_failures = 3;
  EXPECT_THROW((void)optimizer.optimize(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace marcopolo::analysis
