#include "analysis/outcome_matrix.hpp"

#include <algorithm>
#include <array>
#include <bit>

namespace marcopolo::analysis {

OutcomeMatrix::OutcomeMatrix(const core::ResultStore& store)
    : num_sites_(store.num_sites()),
      num_perspectives_(store.num_perspectives()),
      words_per_row_(store.words_per_row()),
      words_(words_per_row_ * num_perspectives_),
      attackable_(words_per_row_, 0) {
  for (std::size_t p = 0; p < num_perspectives_; ++p) {
    store.pack_hijacked_row(
        static_cast<core::PerspectiveIndex>(p),
        {words_.data() + p * words_per_row_, words_per_row_});
  }
  for (std::size_t pair = 0; pair < num_pairs(); ++pair) {
    if (pair / num_sites_ == pair % num_sites_) continue;  // diagonal
    attackable_[pair / 64] |= std::uint64_t{1} << (pair % 64);
  }
}

void OutcomeMatrix::success_mask(std::span<const core::PerspectiveIndex> set,
                                 std::size_t required,
                                 std::span<std::uint64_t> out) const {
  const std::size_t words = words_per_row_;
  if (required == 0) {
    std::copy(attackable_.begin(), attackable_.end(), out.begin());
    return;
  }
  if (required > set.size()) {
    std::fill(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(words), 0);
    return;
  }
  const std::uint64_t* rows = words_.data();
  if (required == 1) {
    // (1, N): any hijacked perspective suffices — OR reduction.
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t acc = 0;
      for (const core::PerspectiveIndex p : set) {
        acc |= rows[static_cast<std::size_t>(p) * words + w];
      }
      out[w] = acc & attackable_[w];
    }
    return;
  }
  if (required == set.size()) {
    // (N, N): every perspective must be hijacked — AND reduction.
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t acc = ~std::uint64_t{0};
      for (const core::PerspectiveIndex p : set) {
        acc &= rows[static_cast<std::size_t>(p) * words + w];
      }
      out[w] = acc & attackable_[w];
    }
    return;
  }
  // Small-slack (X, N-Y) quorums — Y in {1, 2} covers every cab_minimum
  // policy that is not already the OR/AND path above. count >= |S| - Y is
  // "at most Y perspectives NOT hijacked", tracked by a branch-free
  // saturating unary counter over the row complements: ge_j = "more than
  // j-1 zeros seen so far", updated highest-first so each row costs a
  // handful of word ops instead of a carry-propagation loop.
  const std::size_t slack = set.size() - required;
  if (slack == 1) {
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t ge1 = 0;
      std::uint64_t ge2 = 0;
      for (const core::PerspectiveIndex p : set) {
        const std::uint64_t z = ~rows[static_cast<std::size_t>(p) * words + w];
        ge2 |= ge1 & z;
        ge1 |= z;
      }
      out[w] = ~ge2 & attackable_[w];
    }
    return;
  }
  if (slack == 2) {
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t ge1 = 0;
      std::uint64_t ge2 = 0;
      std::uint64_t ge3 = 0;
      for (const core::PerspectiveIndex p : set) {
        const std::uint64_t z = ~rows[static_cast<std::size_t>(p) * words + w];
        ge3 |= ge2 & z;
        ge2 |= ge1 & z;
        ge1 |= z;
      }
      out[w] = ~ge3 & attackable_[w];
    }
    return;
  }
  // General (X, N-Y): bit-sliced vertical counters. For each word, add
  // every row's bits into planes[] with a carry-save adder (plane j holds
  // bit j of the 64 per-pair counts), then compute count >= required as
  // the complement of the borrow out of count - required.
  const unsigned planes_n = static_cast<unsigned>(std::bit_width(set.size()));
  for (std::size_t w = 0; w < words; ++w) {
    std::array<std::uint64_t, 17> planes = {};  // bit_width(max set size)
    for (const core::PerspectiveIndex p : set) {
      std::uint64_t carry = rows[static_cast<std::size_t>(p) * words + w];
      for (unsigned j = 0; carry != 0 && j < planes_n; ++j) {
        const std::uint64_t t = planes[j];
        planes[j] = t ^ carry;
        carry = t & carry;
      }
    }
    std::uint64_t borrow = 0;
    for (unsigned j = 0; j < planes_n; ++j) {
      const std::uint64_t r =
          (required >> j) & 1 ? ~std::uint64_t{0} : std::uint64_t{0};
      borrow = (~planes[j] & (r | borrow)) | (r & borrow);
    }
    out[w] = ~borrow & attackable_[w];
  }
}

std::size_t OutcomeMatrix::successes_for_victim(
    std::span<const std::uint64_t> mask, std::size_t victim) const {
  const std::size_t begin = victim * num_sites_;
  const std::size_t end = begin + num_sites_;
  const std::size_t first_word = begin / 64;
  const std::size_t last_word = (end - 1) / 64;
  const std::uint64_t head = ~std::uint64_t{0} << (begin % 64);
  // end % 64 == 0 means the range ends on a word boundary: full tail word.
  const std::uint64_t tail =
      end % 64 == 0 ? ~std::uint64_t{0} : ~(~std::uint64_t{0} << (end % 64));
  if (first_word == last_word) {
    return static_cast<std::size_t>(
        std::popcount(mask[first_word] & head & tail));
  }
  std::size_t count =
      static_cast<std::size_t>(std::popcount(mask[first_word] & head));
  for (std::size_t w = first_word + 1; w < last_word; ++w) {
    count += static_cast<std::size_t>(std::popcount(mask[w]));
  }
  count += static_cast<std::size_t>(std::popcount(mask[last_word] & tail));
  return count;
}

}  // namespace marcopolo::analysis
