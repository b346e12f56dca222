#include "analysis/resilience.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace marcopolo::analysis {

double median_of(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of empty set");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n % 2 == 1) return values[n / 2];
  return (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double percentile_of(std::vector<double> values, double p) {
  if (values.empty()) throw std::invalid_argument("percentile of empty set");
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile range");
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  return values[rank == 0 ? 0 : rank - 1];
}

ResilienceSummary summarize(std::vector<double> per_victim) {
  ResilienceSummary s;
  s.median = median_of(per_victim);
  s.average = std::accumulate(per_victim.begin(), per_victim.end(), 0.0) /
              static_cast<double>(per_victim.size());
  s.p25 = percentile_of(per_victim, 25.0);
  s.p5 = percentile_of(per_victim, 5.0);
  s.per_victim = std::move(per_victim);
  return s;
}

ResilienceAnalyzer::ResilienceAnalyzer(const ResultStore& store)
    : store_(store), matrix_(store) {
  if (store_.num_sites() < 2) {
    throw std::invalid_argument("need at least two BGP nodes");
  }
  const std::size_t n = store_.num_sites();
  resilience_of_.resize(n);
  for (std::size_t d = 0; d < n; ++d) {
    resilience_of_[d] = static_cast<double>(d) / static_cast<double>(n - 1);
  }
}

std::vector<double> ResilienceAnalyzer::per_victim_resilience(
    const mpic::DeploymentSpec& spec) const {
  spec.check();
  return per_victim_resilience(spec.remotes, spec.policy.required(),
                               spec.primary);
}

std::vector<double> ResilienceAnalyzer::per_victim_resilience(
    std::span<const PerspectiveIndex> remotes, std::size_t required,
    std::optional<PerspectiveIndex> primary) const {
  ScoreScratch scratch = make_scratch();
  build_success_mask(remotes, required, scratch);
  std::span<const std::uint64_t> mask = scratch.mask;
  if (primary) {
    const auto row = matrix_.row(*primary);
    for (std::size_t w = 0; w < row.size(); ++w) {
      scratch.masked[w] = scratch.mask[w] & row[w];
    }
    mask = scratch.masked;
  }
  const std::size_t n = store_.num_sites();
  std::vector<double> out(n, 0.0);
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t defended =
        (n - 1) - matrix_.successes_for_victim(mask, v);
    out[v] = resilience_of_[defended];
  }
  return out;
}

ResilienceSummary ResilienceAnalyzer::evaluate(
    const mpic::DeploymentSpec& spec) const {
  return summarize(per_victim_resilience(spec));
}

ResilienceAnalyzer::ScoreScratch ResilienceAnalyzer::make_scratch() const {
  ScoreScratch scratch;
  scratch.mask.resize(matrix_.words_per_row());
  scratch.masked.resize(matrix_.words_per_row());
  scratch.defended_hist.resize(store_.num_sites());
  return scratch;
}

void ResilienceAnalyzer::build_success_mask(
    std::span<const PerspectiveIndex> set, std::size_t required,
    ScoreScratch& scratch) const {
  matrix_.success_mask(set, required, scratch.mask);
}

ResilienceAnalyzer::Score ResilienceAnalyzer::score_from_mask(
    ScoreScratch& scratch, std::optional<PerspectiveIndex> primary) const {
  std::span<const std::uint64_t> mask = scratch.mask;
  if (primary) {
    const auto row = matrix_.row(*primary);
    for (std::size_t w = 0; w < row.size(); ++w) {
      scratch.masked[w] = scratch.mask[w] & row[w];
    }
    mask = scratch.masked;
  }
  const std::size_t n = store_.num_sites();
  std::uint32_t* hist = scratch.defended_hist.data();
  std::fill_n(hist, n, 0);
  const double* values = resilience_of_.data();
  const std::uint64_t* words = mask.data();
  // Victim rows are n consecutive bits in pair order; walk them with a
  // running (word, bit-offset) cursor so each row costs one or two
  // popcounts and no per-victim index arithmetic.
  const std::uint64_t row_mask =
      n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
  double sum = 0.0;
  std::size_t w = 0;
  std::size_t off = 0;
  for (std::size_t v = 0; v < n; ++v) {
    std::size_t successes;
    if (off + n <= 64) {
      successes = static_cast<std::size_t>(
          std::popcount((words[w] >> off) & row_mask));
      off += n;
      if (off == 64) {
        off = 0;
        ++w;
      }
    } else {
      const std::size_t hi = off + n - 64;
      successes = static_cast<std::size_t>(std::popcount(words[w] >> off)) +
                  static_cast<std::size_t>(std::popcount(
                      words[w + 1] & ((std::uint64_t{1} << hi) - 1)));
      ++w;
      off = hi;
    }
    const std::size_t defended = (n - 1) - successes;
    ++hist[defended];
    // Same value and accumulation order as the scalar loop — the double
    // sum must stay bit-identical.
    sum += values[defended];
  }
  // Median via a counting scan over the integer defended values instead
  // of sorting doubles: every per-victim value is d / (n-1), and division
  // by a positive constant is monotone, so rank order over the doubles
  // equals rank order over the integers. The element(s) std::sort would
  // put at ranks n/2 - 1 and n/2 are found by cumulative count and
  // converted through the same resilience_of_ table — a bit-identical
  // median under eq. (5)'s even/odd rule, at O(n) instead of O(n log n)
  // per score.
  const auto value_at_rank = [&](std::size_t rank) {
    std::size_t seen = 0;
    for (std::size_t d = 0; d < n; ++d) {
      seen += hist[d];
      if (seen > rank) return values[d];
    }
    return 1.0;  // unreachable: every rank < n is covered above
  };
  Score s;
  s.average = sum / static_cast<double>(n);
  s.median = n % 2 == 1
                 ? value_at_rank(n / 2)
                 : (value_at_rank(n / 2 - 1) + value_at_rank(n / 2)) / 2.0;
  return s;
}

ResilienceAnalyzer::Score ResilienceAnalyzer::score_set(
    std::span<const PerspectiveIndex> set, std::size_t required,
    std::optional<PerspectiveIndex> primary, ScoreScratch& scratch) const {
  if (required > set.size()) {
    // No quorum can form, so every pair is defended regardless of primary:
    // each per-victim value is (n-1)/(n-1), exactly 1.0, and the integer
    // sum n * 1.0 divides back to exactly 1.0 — the kernels can be skipped
    // without changing a bit.
    return Score{1.0, 1.0};
  }
  build_success_mask(set, required, scratch);
  return score_from_mask(scratch, primary);
}

}  // namespace marcopolo::analysis
