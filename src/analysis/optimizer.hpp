// Deployment optimization — the paper's eqs. (6)-(7).
//
// Finds the perspective sets of size X (optionally plus a primary) with the
// highest median resilience under an N-Y quorum, breaking median ties by
// average resilience. Two strategies:
//
//   Exhaustive: depth-first walk of all C(n, X) candidate combinations.
//   Small sets (<= OptimizerConfig::direct_kernel_max_set) are scored with
//   the direct packed-word kernel (AND/OR/bit-sliced reductions over the
//   OutcomeMatrix, no per-pair counters); deeper walks fall back to
//   incremental per-pair count updates unpacked from the same matrix. This
//   is what produces the paper's optimal deployments and top-150 lists.
//
//   Beam: greedy beam search for large candidate pools; approximate but
//   orders of magnitude cheaper. Used for cross-provider sweeps.
//
// With a primary perspective, the optimizer ranks the top `primary_pool`
// remote sets from the no-primary search and then tries every allowed
// primary on each — the primary only adds a conjunct, so high-resilience
// remote sets remain the right starting pool (and the paper observes the
// optimal primary lives in its own RIR, i.e. outside the remote set).
#pragma once

#include <string>
#include <vector>

#include "analysis/resilience.hpp"
#include "obs/observers.hpp"
#include "topo/rir.hpp"

namespace marcopolo::analysis {

struct RankedDeployment {
  mpic::DeploymentSpec spec;
  ResilienceAnalyzer::Score score;
};

enum class SearchStrategy : std::uint8_t { Exhaustive, Beam };

/// Instrumentation filled by the exhaustive search (optional). The
/// upper-bound prune is observable here: without it every C(n, X)
/// complete set is scored; with it `complete_sets_scored` drops whenever
/// a partial set already scores below the worst retained deployment.
///
/// This struct is a thin per-call view kept for API compatibility; the
/// same totals accumulate on the registry in OptimizerConfig::observers
/// (when attached) as "optimizer.complete_sets_scored" /
/// "optimizer.subtrees_pruned".
struct SearchStats {
  std::size_t complete_sets_scored = 0;
  std::size_t subtrees_pruned = 0;
};

struct OptimizerConfig {
  std::size_t set_size = 6;      ///< X remote perspectives.
  std::size_t max_failures = 2;  ///< Y in the N-Y quorum.
  bool with_primary = false;
  std::vector<PerspectiveIndex> candidates;
  /// Allowed primaries; empty = same as candidates.
  std::vector<PerspectiveIndex> primary_candidates;
  std::size_t top_k = 150;  ///< Deployments to retain (Appendix B uses 150).
  SearchStrategy strategy = SearchStrategy::Exhaustive;
  std::size_t beam_width = 64;
  /// Beam only: hill-climbing swap refinement applied to the best beam
  /// survivors (0 disables). Each pass tries every (member, non-member)
  /// swap and keeps strict improvements until a local optimum.
  std::size_t refine_top = 8;
  /// Remote sets carried into the primary-selection stage.
  std::size_t primary_pool = 150;
  /// Constrained search: cap on remote perspectives per RIR (0 = no cap).
  /// Requires `rir_of` indexed by global perspective id.
  std::size_t max_per_rir = 0;
  /// Worker threads for the exhaustive search (0 = hardware concurrency,
  /// 1 = single-threaded). The result is identical regardless of thread
  /// count: the search space is partitioned by first element and the
  /// per-thread top-k sets are merged deterministically.
  std::size_t threads = 0;
  /// Kernel selection for the exhaustive DFS: sets of at most this many
  /// perspectives are scored with the direct word-reduction kernel
  /// (OutcomeMatrix::success_mask — no per-pair counters); larger sets go
  /// through the incremental count workspace. Both kernels produce
  /// bit-identical scores, so this knob only moves work around; 0 forces
  /// the incremental path everywhere (useful for differential tests).
  std::size_t direct_kernel_max_set = 16;
  std::vector<topo::Rir> rir_of;
  std::string name_prefix = "opt";
  /// If non-null, the exhaustive search accumulates instrumentation here
  /// (summed across worker threads after the join).
  SearchStats* stats = nullptr;
  /// Optional observers (obs/observers.hpp). Search totals go under
  /// "optimizer.*"; exhaustive-search workers attach the profiler for
  /// their DFS loop.
  obs::Observers observers;
};

/// Not thread-safe: the optimizer owns reusable scoring scratch (a count
/// workspace and a success-mask buffer, hoisted so beam restarts,
/// hill-climb seeds, and primary attachment never reallocate them), so
/// concurrent optimize()/hill_climb() calls need one DeploymentOptimizer
/// each. The exhaustive search's worker threads carry their own
/// per-thread state and are unaffected.
class DeploymentOptimizer {
 public:
  explicit DeploymentOptimizer(const ResilienceAnalyzer& analyzer)
      : analyzer_(analyzer) {}

  /// Ranked best-first (median, then average). Size <= top_k.
  [[nodiscard]] std::vector<RankedDeployment> optimize(
      const OptimizerConfig& config) const;

  /// Convenience: just the best deployment.
  [[nodiscard]] RankedDeployment best(const OptimizerConfig& config) const;

  /// Hill-climb from a seed set: repeatedly apply the best single
  /// (member, non-member) swap until a local optimum. The seed's size must
  /// equal config.set_size; candidates/quorum/RIR caps come from config.
  [[nodiscard]] RankedDeployment hill_climb(
      std::vector<PerspectiveIndex> seed, const OptimizerConfig& config)
      const;

 private:
  [[nodiscard]] std::vector<RankedDeployment> search_remotes(
      const OptimizerConfig& config) const;
  [[nodiscard]] std::vector<RankedDeployment> search_exhaustive(
      const OptimizerConfig& config) const;
  [[nodiscard]] std::vector<RankedDeployment> search_beam(
      const OptimizerConfig& config) const;
  [[nodiscard]] std::vector<RankedDeployment> attach_primaries(
      const OptimizerConfig& config,
      std::vector<RankedDeployment> remote_sets) const;
  /// Swap hill-climbing on (set, score) with ws holding the set's counts.
  void climb(std::vector<PerspectiveIndex>& set,
             ResilienceAnalyzer::Score& score,
             ResilienceAnalyzer::Workspace& ws, const OptimizerConfig& config,
             std::size_t required) const;
  /// Hoisted per-optimizer scratch, lazily sized on first use and never
  /// reallocated afterwards.
  [[nodiscard]] ResilienceAnalyzer::Workspace& workspace() const;
  [[nodiscard]] ResilienceAnalyzer::ScoreScratch& scratch() const;

  const ResilienceAnalyzer& analyzer_;
  mutable ResilienceAnalyzer::Workspace ws_;
  mutable ResilienceAnalyzer::ScoreScratch scratch_;
};

}  // namespace marcopolo::analysis
