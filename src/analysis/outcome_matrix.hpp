// The columnar hijack matrix every analysis kernel runs on.
//
// One bit per ordered (victim, adversary) pair, perspective-major: row p,
// bit pair_index(v, a) = v * num_sites + a is 1 iff perspective p was
// hijacked for that pair. Rows are packed 64 pairs to a std::uint64_t,
// words_per_row() = ceil(num_pairs / 64) words each; bits at positions
// >= num_pairs() in a row's tail word are always zero (the tail-mask
// invariant), so whole-word reductions never see garbage.
//
// Built once from a completed ResultStore: the constructor packs the
// store's outcome bytes into these rows (a snapshot — later record() calls
// on the store are not reflected). The matrix serves two kernels:
//
//   * success_mask(): for a perspective set S and quorum threshold
//     `required`, compute the bit mask of pairs where the attack succeeds
//     (hijacked count within S >= required). required == 1 is an OR
//     reduction over rows, required == |S| an AND reduction; anything in
//     between runs a bit-sliced vertical counter (carry-save adders per
//     word, borrow-propagating >= compare), so cost is
//     O(words * |S| * bit_width(|S|)) with no per-pair counters.
//   * per-victim popcounts over the resulting mask, which is all eq. (2)
//     of Appendix A needs.
//
// The mask is pre-ANDed with attackable() — the off-diagonal, tail-masked
// pair set — so diagonal (v == v) bits can never leak into scores.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "marcopolo/result_store.hpp"

namespace marcopolo::analysis {

class OutcomeMatrix {
 public:
  /// Snapshot of the store's first attack plane (the whole store for a
  /// single-attack campaign; analyze another plane through
  /// ResultStore::extract_attack).
  explicit OutcomeMatrix(const core::ResultStore& store);

  [[nodiscard]] std::size_t num_sites() const { return num_sites_; }
  [[nodiscard]] std::size_t num_perspectives() const {
    return num_perspectives_;
  }
  [[nodiscard]] std::size_t num_pairs() const {
    return num_sites_ * num_sites_;
  }
  [[nodiscard]] std::size_t words_per_row() const { return words_per_row_; }

  /// One perspective's packed hijack row (tail bits zero).
  [[nodiscard]] std::span<const std::uint64_t> row(
      core::PerspectiveIndex p) const {
    return {words_.data() + static_cast<std::size_t>(p) * words_per_row_,
            words_per_row_};
  }

  /// Pairs that exist as attacks: off-diagonal (a != v) and < num_pairs().
  [[nodiscard]] std::span<const std::uint64_t> attackable() const {
    return attackable_;
  }

  [[nodiscard]] bool bit(core::PerspectiveIndex p, std::size_t pair) const {
    return (row(p)[pair / 64] >> (pair % 64)) & 1;
  }

  /// Fill `out` (words_per_row() words) with the attack-success mask for
  /// quorum threshold `required` over perspective set `set`: bit pair is 1
  /// iff at least `required` perspectives of `set` are hijacked for the
  /// pair AND the pair is attackable. required == 0 means every attackable
  /// pair succeeds; required > |set| means none can.
  void success_mask(std::span<const core::PerspectiveIndex> set,
                    std::size_t required, std::span<std::uint64_t> out) const;

  /// Popcount of mask bits in victim v's pair range [v*n, v*n + n) — the
  /// number of adversaries whose attack succeeds against v.
  [[nodiscard]] std::size_t successes_for_victim(
      std::span<const std::uint64_t> mask, std::size_t victim) const;

 private:
  std::size_t num_sites_ = 0;
  std::size_t num_perspectives_ = 0;
  std::size_t words_per_row_ = 0;
  std::vector<std::uint64_t> words_;       // perspective-major packed rows
  std::vector<std::uint64_t> attackable_;  // off-diagonal ∧ tail mask
};

}  // namespace marcopolo::analysis
