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
// Each outcome is held once, as one byte per cell. The analysis layer's
// OutcomeMatrix packs its one-bit-per-pair hijack rows from these bytes
// when it is built (pack_hijacked_row); the store itself keeps no packed
// copy.
#pragma once

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
  [[nodiscard]] std::size_t words_per_row() const {
    return (num_pairs() + 63) / 64;
  }

  void record(SiteIndex victim, SiteIndex adversary, PerspectiveIndex p,
              bgp::OriginReached outcome) {
    record(0, victim, adversary, p, outcome);
  }
  void record(std::size_t attack, SiteIndex victim, SiteIndex adversary,
              PerspectiveIndex p, bgp::OriginReached outcome);

  /// Unchecked variant for parallel campaign writers: no bounds check, no
  /// lock, no ordering. Safe if and only if concurrent callers write
  /// disjoint (victim, adversary) cells — the campaign engine partitions
  /// work by (announcer, adversary) task, and every (victim, adversary)
  /// pair belongs to exactly one task (each worker sweeps all attack
  /// planes of its own pairs). Every cell is its own byte, so disjoint
  /// cells are distinct memory locations and never race.
  void record_unsynchronized(SiteIndex victim, SiteIndex adversary,
                             PerspectiveIndex p, bgp::OriginReached outcome) {
    record_unsynchronized(0, victim, adversary, p, outcome);
  }
  void record_unsynchronized(std::size_t attack, SiteIndex victim,
                             SiteIndex adversary, PerspectiveIndex p,
                             bgp::OriginReached outcome) {
    outcomes_[(attack * num_perspectives_ + p) * num_pairs() +
              pair_index(victim, adversary)] =
        static_cast<std::uint8_t>(outcome);
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

  /// Packs perspective p's row of plane 0 into `words` (words_per_row()
  /// of them): bit pair_index(v, a) is 1 iff the cell records Adversary.
  /// None and unrecorded cells pack to 0, and so do the tail bits at
  /// positions >= num_pairs(). Throws std::out_of_range on a bad
  /// perspective index.
  void pack_hijacked_row(PerspectiveIndex p,
                         std::span<std::uint64_t> words) const;

  /// Copy one attack plane out as a standalone single-attack store (its
  /// plane keeps the attack-type tag), so plane-at-a-time consumers — the
  /// resilience analyzer, plane-equality tests — run unchanged on
  /// multi-attack campaigns. Throws std::out_of_range on a bad index.
  [[nodiscard]] ResultStore extract_attack(std::size_t attack) const;

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
  std::vector<bgp::AttackType> attacks_;
  std::vector<std::uint8_t> outcomes_;  // OriginReached or kUnrecorded
};

}  // namespace marcopolo::core
