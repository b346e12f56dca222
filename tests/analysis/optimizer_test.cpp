#include "analysis/optimizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "netsim/random.hpp"
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

using Ranked =
    std::vector<std::pair<std::vector<PerspectiveIndex>,
                          ResilienceAnalyzer::Score>>;

struct ReferenceSearch {
  Ranked top;  ///< best first
  SearchStats stats;
};

/// Leaf-by-leaf reference for the exhaustive search: the same candidate
/// order, RIR cap, top-k rule and upper-bound prune, but every node and
/// every leaf scored whole with score_set, and the top-k kept as a sorted
/// vector rather than a heap.
ReferenceSearch reference_search(const ResilienceAnalyzer& an,
                                 const OptimizerConfig& cfg) {
  const std::size_t k = cfg.set_size;
  const std::size_t required = k - cfg.max_failures;
  const auto better = [](const Ranked::value_type& a,
                         const Ranked::value_type& b) {
    if (b.second < a.second) return true;
    if (a.second < b.second) return false;
    return a.first < b.first;
  };
  auto scratch = an.make_scratch();
  ReferenceSearch out;
  std::vector<PerspectiveIndex> current;
  std::array<std::size_t, 5> per_rir{};
  auto recurse = [&](auto&& self, std::size_t next) -> void {
    if (current.size() == k) {
      ++out.stats.complete_sets_scored;
      Ranked::value_type entry{
          current, an.score_set(current, required, std::nullopt, scratch)};
      out.top.insert(
          std::upper_bound(out.top.begin(), out.top.end(), entry, better),
          entry);
      if (out.top.size() > cfg.top_k) out.top.pop_back();
      return;
    }
    if (!current.empty() && out.top.size() == cfg.top_k &&
        an.score_set(current, required, std::nullopt, scratch) <
            out.top.back().second) {
      ++out.stats.subtrees_pruned;
      return;
    }
    for (std::size_t i = next;
         i + (k - current.size()) <= cfg.candidates.size(); ++i) {
      const auto rir =
          cfg.max_per_rir > 0
              ? static_cast<std::size_t>(cfg.rir_of.at(cfg.candidates[i]))
              : 0;
      if (cfg.max_per_rir > 0 && per_rir[rir] >= cfg.max_per_rir) continue;
      ++per_rir[rir];
      current.push_back(cfg.candidates[i]);
      self(self, i + 1);
      current.pop_back();
      --per_rir[rir];
    }
  };
  recurse(recurse, 0);
  return out;
}

/// Runs the exhaustive search on 1, 4 and 64 threads for every X in
/// {1, 2, 3, 5, 6}, every quorum 1..X, top_k in {1, 7, more than C(n, X)}
/// and the RIR cap off and on, and requires the reference's sets,
/// bit-identical scores and, wherever they are deterministic, the same
/// SearchStats. Counts into `ties` the adjacent reference entries that tie
/// exactly on score, so a caller can check that ties reached the set
/// tie-break.
void expect_exhaustive_matches_reference(
    const ResilienceAnalyzer& an, std::vector<PerspectiveIndex> candidates,
    std::vector<topo::Rir> rir_of, std::size_t& ties) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  DeploymentOptimizer optimizer(an);
  for (const std::size_t x : {1u, 2u, 3u, 5u, 6u}) {
    std::size_t combinations = 1;  // C(n, x)
    for (std::size_t i = 0; i < x; ++i) {
      combinations = combinations * (candidates.size() - i) / (i + 1);
    }
    for (std::size_t required = 1; required <= x; ++required) {
      for (const std::size_t top_k : {std::size_t{1}, std::size_t{7},
                                      combinations + 1}) {
        for (const std::size_t cap : {0u, 2u}) {
          OptimizerConfig cfg;
          cfg.set_size = x;
          cfg.max_failures = x - required;
          cfg.candidates = candidates;
          cfg.top_k = top_k;
          cfg.max_per_rir = cap;
          cfg.rir_of = rir_of;
          const ReferenceSearch ref = reference_search(an, cfg);
          for (std::size_t i = 1; i < ref.top.size(); ++i) {
            if (ref.top[i - 1].second == ref.top[i].second) ++ties;
          }
          // Pruning depends on how the first elements were shared out
          // between threads, unless the top-k never fills.
          const bool stats_deterministic = ref.top.size() < top_k;
          for (const std::size_t threads : {1u, 4u, 64u}) {
            SCOPED_TRACE("X=" + std::to_string(x) + " required=" +
                         std::to_string(required) + " top_k=" +
                         std::to_string(top_k) + " max_per_rir=" +
                         std::to_string(cap) + " threads=" +
                         std::to_string(threads));
            SearchStats stats;
            cfg.stats = &stats;
            cfg.threads = threads;
            const auto ranked = optimizer.optimize(cfg);
            ASSERT_EQ(ranked.size(), ref.top.size());
            for (std::size_t i = 0; i < ranked.size(); ++i) {
              EXPECT_EQ(ranked[i].spec.remotes, ref.top[i].first) << i;
              EXPECT_EQ(bits(ranked[i].score.median),
                        bits(ref.top[i].second.median))
                  << i;
              EXPECT_EQ(bits(ranked[i].score.average),
                        bits(ref.top[i].second.average))
                  << i;
            }
            if (threads == 1 || stats_deterministic) {
              EXPECT_EQ(stats.complete_sets_scored,
                        ref.stats.complete_sets_scored);
              EXPECT_EQ(stats.subtrees_pruned, ref.stats.subtrees_pruned);
            }
          }
        }
      }
    }
  }
}

TEST(Optimizer, ExhaustiveLeavesMatchScoreSetOnCampaignData) {
  std::vector<topo::Rir> rirs;
  for (const auto& rec : shared_testbed().perspectives()) {
    rirs.push_back(rec.rir);
  }
  std::size_t ties = 0;
  expect_exhaustive_matches_reference(analyzer(), first_n_aws(10), rirs,
                                      ties);
}

TEST(Optimizer, ExhaustiveLeavesMatchScoreSetThroughExactTies) {
  // Perspectives 6..11 repeat the rows of 0..5, so swapping a member for
  // its twin leaves the score unchanged and the lexicographic tie-break
  // decides the ranking. 9 sites put the 81 pairs across a word boundary.
  constexpr std::size_t kSites = 9;
  constexpr std::size_t kDistinct = 6;
  core::ResultStore store(kSites, 2 * kDistinct);
  netsim::Rng rng(23);
  for (core::SiteIndex v = 0; v < kSites; ++v) {
    for (core::SiteIndex a = 0; a < kSites; ++a) {
      if (v == a) continue;
      for (core::PerspectiveIndex p = 0; p < kDistinct; ++p) {
        const auto outcome = rng.chance(0.35) ? bgp::OriginReached::Adversary
                                              : bgp::OriginReached::Victim;
        store.record(v, a, p, outcome);
        store.record(v, a, static_cast<core::PerspectiveIndex>(p + kDistinct),
                     outcome);
      }
    }
  }
  const ResilienceAnalyzer local(store);
  std::vector<PerspectiveIndex> candidates;
  std::vector<topo::Rir> rirs;
  for (std::size_t p = 0; p < 2 * kDistinct; ++p) {
    candidates.push_back(static_cast<PerspectiveIndex>(p));
    rirs.push_back(topo::kAllRirs[p % topo::kAllRirs.size()]);
  }
  std::size_t ties = 0;
  expect_exhaustive_matches_reference(local, candidates, rirs, ties);
  EXPECT_GT(ties, 0u) << "duplicated rows must produce exact score ties";
}

}  // namespace
}  // namespace marcopolo::analysis
