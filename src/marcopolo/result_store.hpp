// Raw campaign results: the hijacked(attack, P, v, a) relation.
//
// For every attack type the campaign swept, every ordered (victim,
// adversary) pair of BGP nodes and every perspective, the store records
// which origin the perspective's DCV request reached. All post-hoc
// analysis (Appendix A) is computed from this store; it can be saved/
// loaded as CSV (the interchange format mirroring the paper's published
// raw logs) or as a compact versioned binary.
//
// The attack dimension is a bundle of per-attack planes sharing one
// (sites, perspectives) shape and one attackable pair set: plane i holds
// the outcomes of attack_types()[i]. A single-attack store is the
// degenerate bundle, and the attack-less accessors read plane 0, so
// pre-multi-attack call sites keep working unchanged.
//
// Alongside each byte-per-cell outcome plane the store maintains the
// packed hijack plane: one bit per ordered (victim, adversary) pair,
// perspective-major, 64 pairs per word, tail bits of the last word always
// zero. The analysis layer's OutcomeMatrix is built from these rows;
// nothing outside the store consumes a byte-per-pair hijack vector
// anymore.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bgp/scenario.hpp"

namespace marcopolo::core {

using SiteIndex = std::uint16_t;
using PerspectiveIndex = std::uint16_t;

class ResultStore {
 public:
  /// The most sites and perspectives SiteIndex and PerspectiveIndex can
  /// address.
  static constexpr std::size_t kMaxSites =
      std::size_t{std::numeric_limits<SiteIndex>::max()} + 1;
  static constexpr std::size_t kMaxPerspectives =
      std::size_t{std::numeric_limits<PerspectiveIndex>::max()} + 1;

  ResultStore() = default;
  /// Single-attack store; the one plane is tagged EquallySpecific (the
  /// pre-multi-attack default; use the vector constructor to tag it).
  ResultStore(std::size_t num_sites, std::size_t num_perspectives);
  /// One outcome plane per entry of `attacks`, in that order. Throws
  /// std::invalid_argument on more than kMaxSites sites or
  /// kMaxPerspectives perspectives, or on an empty or duplicate-carrying
  /// list (planes are keyed by type; a repeated type would alias).
  ResultStore(std::size_t num_sites, std::size_t num_perspectives,
              std::vector<bgp::AttackType> attacks);

  [[nodiscard]] std::size_t num_sites() const { return num_sites_; }
  [[nodiscard]] std::size_t num_perspectives() const {
    return num_perspectives_;
  }
  /// Number of attack planes (0 only for a default-constructed store).
  [[nodiscard]] std::size_t num_attacks() const { return attacks_.size(); }
  /// The attack type of each plane, in plane order.
  [[nodiscard]] std::span<const bgp::AttackType> attack_types() const {
    return attacks_;
  }
  /// Plane index of `type`, nullopt if this store never swept it.
  [[nodiscard]] std::optional<std::size_t> attack_index(
      bgp::AttackType type) const {
    for (std::size_t i = 0; i < attacks_.size(); ++i) {
      if (attacks_[i] == type) return i;
    }
    return std::nullopt;
  }

  /// Ordered pairs including the unused diagonal (kept for O(1) indexing).
  [[nodiscard]] std::size_t num_pairs() const {
    return num_sites_ * num_sites_;
  }
  [[nodiscard]] std::size_t pair_index(SiteIndex victim,
                                       SiteIndex adversary) const {
    return static_cast<std::size_t>(victim) * num_sites_ + adversary;
  }
  /// 64-bit words per packed hijack row, ceil(num_pairs / 64).
  [[nodiscard]] std::size_t words_per_row() const { return words_per_row_; }

  void record(SiteIndex victim, SiteIndex adversary, PerspectiveIndex p,
              bgp::OriginReached outcome) {
    record(0, victim, adversary, p, outcome);
  }
  void record(std::size_t attack, SiteIndex victim, SiteIndex adversary,
              PerspectiveIndex p, bgp::OriginReached outcome);

  /// Lock-free variant for parallel campaign writers: no bounds check
  /// beyond an assert, no ordering. Safe if and only if concurrent callers
  /// write disjoint (victim, adversary) cells — the campaign engine
  /// partitions work by (announcer, adversary) task, and every
  /// (victim, adversary) pair belongs to exactly one task (each worker
  /// sweeps all attack planes of its own pairs). Disjoint cells may still
  /// share a packed hijack word, so the bit update is a relaxed atomic
  /// RMW; per-bit last-write-wins holds regardless of interleaving.
  void record_unsynchronized(SiteIndex victim, SiteIndex adversary,
                             PerspectiveIndex p, bgp::OriginReached outcome) {
    record_unsynchronized(0, victim, adversary, p, outcome);
  }
  void record_unsynchronized(std::size_t attack, SiteIndex victim,
                             SiteIndex adversary, PerspectiveIndex p,
                             bgp::OriginReached outcome) {
    const std::size_t pair = pair_index(victim, adversary);
    outcomes_[(attack * num_perspectives_ + p) * num_pairs() + pair] =
        static_cast<std::uint8_t>(outcome);
    std::atomic_ref<std::uint64_t> word(
        hijack_words_[(attack * num_perspectives_ + p) * words_per_row_ +
                      pair / 64]);
    const std::uint64_t mask = std::uint64_t{1} << (pair % 64);
    if (outcome == bgp::OriginReached::Adversary) {
      word.fetch_or(mask, std::memory_order_relaxed);
    } else {
      word.fetch_and(~mask, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] bgp::OriginReached outcome(SiteIndex victim,
                                           SiteIndex adversary,
                                           PerspectiveIndex p) const {
    return outcome(0, victim, adversary, p);
  }
  [[nodiscard]] bgp::OriginReached outcome(std::size_t attack,
                                           SiteIndex victim,
                                           SiteIndex adversary,
                                           PerspectiveIndex p) const;

  /// True if the perspective was recorded as reaching the adversary.
  [[nodiscard]] bool hijacked(SiteIndex victim, SiteIndex adversary,
                              PerspectiveIndex p) const {
    return hijacked(0, victim, adversary, p);
  }
  [[nodiscard]] bool hijacked(std::size_t attack, SiteIndex victim,
                              SiteIndex adversary, PerspectiveIndex p) const {
    return outcome(attack, victim, adversary, p) ==
           bgp::OriginReached::Adversary;
  }

  /// Number of hijacked perspectives among `set` for one pair — the
  /// paper's hijacked(P, v, a).
  [[nodiscard]] std::size_t hijacked_count(
      SiteIndex victim, SiteIndex adversary,
      std::span<const PerspectiveIndex> set) const {
    return hijacked_count(0, victim, adversary, set);
  }
  [[nodiscard]] std::size_t hijacked_count(
      std::size_t attack, SiteIndex victim, SiteIndex adversary,
      std::span<const PerspectiveIndex> set) const;

  /// Whether every perspective has an outcome for the pair (step 5's
  /// completeness check; Unrecorded != None — None means "no route").
  [[nodiscard]] bool pair_complete(SiteIndex victim,
                                   SiteIndex adversary) const {
    return pair_complete(0, victim, adversary);
  }
  [[nodiscard]] bool pair_complete(std::size_t attack, SiteIndex victim,
                                   SiteIndex adversary) const;

  /// One perspective's packed hijack row within one attack plane: bit
  /// pair_index(v, a) is 1 iff the perspective was hijacked for that pair.
  /// words_per_row() words; bits >= num_pairs() in the tail word are
  /// always zero.
  [[nodiscard]] std::span<const std::uint64_t> hijack_words(
      PerspectiveIndex p) const {
    return hijack_words(0, p);
  }
  [[nodiscard]] std::span<const std::uint64_t> hijack_words(
      std::size_t attack, PerspectiveIndex p) const;

  /// Copy one attack plane out as a standalone single-attack store (its
  /// plane keeps the attack-type tag), so plane-at-a-time consumers — the
  /// resilience analyzer, plane-equality tests — run unchanged on
  /// multi-attack campaigns. Throws std::out_of_range on a bad index.
  [[nodiscard]] ResultStore extract_attack(std::size_t attack) const;

  /// Bytes held by the packed hijack planes (the size-assertion hook: the
  /// former byte-per-pair plane was num_perspectives * num_pairs bytes per
  /// attack).
  [[nodiscard]] std::size_t hijack_plane_bytes() const {
    return hijack_words_.size() * sizeof(std::uint64_t);
  }

  /// CSV export, write-only (the binary format below is the one this
  /// code reads back): a `# schema=2` comment, a `# attack_types=<csv>`
  /// comment naming each plane, a `sites,<n>,perspectives,<m>,attacks,<k>`
  /// header, a column-name row, then one
  /// `victim,adversary,perspective,attack,outcome` row per recorded cell
  /// (attack = plane index).
  void save_csv(std::ostream& out) const;

  /// Versioned binary format: "MPRS" magic, a schema byte (2), little-
  /// endian u32 dims (sites, perspectives, attacks), one attack-type byte
  /// per plane, then the outcome planes packed two cells per byte in plane
  /// order (low nibble first; 0xF = unrecorded). ~8x smaller than the CSV
  /// and exact: every cell (including explicit None and unrecorded holes)
  /// survives.
  void save_binary(std::ostream& out) const;
  /// Parses save_binary() output. Throws std::runtime_error on a bad
  /// magic, a schema byte other than 2, dims beyond kMaxSites /
  /// kMaxPerspectives, zero planes, an unknown or repeated attack-type
  /// byte, a truncated plane, or a nibble that is not a valid outcome.
  [[nodiscard]] static ResultStore load_binary(std::istream& in);

 private:
  // Plane-major, then row-major [attack][perspective][pair]; kUnrecorded
  // marks missing entries.
  static constexpr std::uint8_t kUnrecorded = 0xff;
  std::size_t num_sites_ = 0;
  std::size_t num_perspectives_ = 0;
  std::size_t words_per_row_ = 0;
  std::vector<bgp::AttackType> attacks_;
  std::vector<std::uint8_t> outcomes_;  // OriginReached or kUnrecorded
  // Packed 0/1 hijack planes kept in sync with outcomes_ by record().
  std::vector<std::uint64_t> hijack_words_;
};

}  // namespace marcopolo::core
