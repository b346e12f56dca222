// Resilience metrics — the paper's Appendix A, verbatim.
//
//   sigma(P, q, v, a) = 1 iff hijacked(P, v, a) < q                    (1)
//   R_victim(P, q, v) = sum_a sigma / (|N| - 1)                        (2)
//   R_avg(P, q)       = mean over victims                              (3)
//   R_med(P, q)       = median over victims (eq. 5's even/odd rule)    (5)
//
// Primary perspectives (§5.1) are an additional conjunct: an attack only
// succeeds if the primary is also hijacked.
//
// Every score runs one kernel on the packed OutcomeMatrix (see
// outcome_matrix.hpp), packed from the store at construction:
// build_success_mask reduces a whole set's rows to the attack-success
// mask with word-level AND/OR/bit-sliced operations (no per-pair
// counters), and score_from_mask takes per-victim popcounts of it.
// Beam search, swap hill climbing and primary attachment score this way.
// The exhaustive search builds each leaf's mask from its parent's quorum
// planes instead (optimizer.cpp) and scores it with the same
// score_from_mask; DESIGN.md §10 has the layout.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "analysis/outcome_matrix.hpp"
#include "marcopolo/result_store.hpp"
#include "mpic/deployment.hpp"

namespace marcopolo::analysis {

using core::PerspectiveIndex;
using core::ResultStore;

struct ResilienceSummary {
  double median = 0.0;
  double average = 0.0;
  double p25 = 0.0;  ///< 25th percentile (Fig. 2's blue line).
  double p5 = 0.0;   ///< §4.1's example custom metric.
  std::vector<double> per_victim;
};

/// Median per the paper's eq. (5): middle element, or mean of the two
/// middles for even counts. Values need not be sorted.
[[nodiscard]] double median_of(std::vector<double> values);

/// Nearest-rank percentile (p in [0,100]).
[[nodiscard]] double percentile_of(std::vector<double> values, double p);

/// Summary statistics from a per-victim resilience vector.
[[nodiscard]] ResilienceSummary summarize(std::vector<double> per_victim);

class ResilienceAnalyzer {
 public:
  explicit ResilienceAnalyzer(const ResultStore& store);

  [[nodiscard]] const ResultStore& store() const { return store_; }
  [[nodiscard]] const OutcomeMatrix& matrix() const { return matrix_; }
  [[nodiscard]] std::size_t num_sites() const { return store_.num_sites(); }
  [[nodiscard]] std::size_t num_perspectives() const {
    return store_.num_perspectives();
  }

  /// R_victim for every victim under the deployment.
  [[nodiscard]] std::vector<double> per_victim_resilience(
      const mpic::DeploymentSpec& spec) const;

  /// R_victim from the raw pieces of a deployment (no spec allocation).
  [[nodiscard]] std::vector<double> per_victim_resilience(
      std::span<const PerspectiveIndex> remotes, std::size_t required,
      std::optional<PerspectiveIndex> primary) const;

  /// Full Appendix A evaluation.
  [[nodiscard]] ResilienceSummary evaluate(
      const mpic::DeploymentSpec& spec) const;

  /// What a deployment search ranks: R_med and R_avg of one set.
  struct Score {
    double median = 0.0;
    double average = 0.0;
    /// Ordering per eqs. (6)-(7): median first, average as tie break.
    [[nodiscard]] friend bool operator<(const Score& a, const Score& b) {
      if (a.median != b.median) return a.median < b.median;
      return a.average < b.average;
    }
    [[nodiscard]] friend bool operator==(const Score& a,
                                         const Score& b) = default;
  };

  /// Reusable scoring scratch. Allocate once (make_scratch), reuse across
  /// any number of build/score calls — nothing in it persists between
  /// calls except capacity.
  struct ScoreScratch {
    std::vector<std::uint64_t> mask;    ///< success mask, words_per_row
    std::vector<std::uint64_t> masked;  ///< mask ∧ primary row
    /// Histogram of integer defended-counts, num_sites bins (a victim can
    /// defend against at most num_sites - 1 adversaries). Every
    /// per-victim value is defended / (n - 1) with integer defended, so
    /// the median comes from a counting scan instead of a sort — division
    /// by a positive constant is monotone, making the result bit-identical
    /// to sorting the doubles.
    std::vector<std::uint32_t> defended_hist;
  };

  [[nodiscard]] ScoreScratch make_scratch() const;

  /// Build the attack-success mask for `set` under `required` into
  /// scratch.mask. Splitting this from scoring lets one mask serve many
  /// primaries (attach_primaries walks exactly that pattern).
  void build_success_mask(std::span<const PerspectiveIndex> set,
                          std::size_t required, ScoreScratch& scratch) const;

  /// Score scratch.mask, optionally ANDing in a primary row first.
  [[nodiscard]] Score score_from_mask(
      ScoreScratch& scratch, std::optional<PerspectiveIndex> primary) const;

  /// build_success_mask + score_from_mask in one call: the score of `set`
  /// under quorum `required` (= X - Y), optionally conditioning on a
  /// primary perspective.
  [[nodiscard]] Score score_set(std::span<const PerspectiveIndex> set,
                                std::size_t required,
                                std::optional<PerspectiveIndex> primary,
                                ScoreScratch& scratch) const;

 private:
  const ResultStore& store_;
  OutcomeMatrix matrix_;
  /// resilience_of_[d] = d / (n - 1) for every possible integer
  /// defended-count, computed once with the exact expression the scoring
  /// loops used to evaluate per victim. Indexing the cached result of the
  /// identical IEEE division is bit-identical to redoing it — and removes
  /// n divides from every score in the optimizer's hot loop.
  std::vector<double> resilience_of_;
};

}  // namespace marcopolo::analysis
