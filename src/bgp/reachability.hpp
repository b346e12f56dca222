// Lazy reachability of a single-origin announcement.
//
// A more-specific (sub-prefix) hijack is announced by one origin alone, so
// its flood never needs a decision process: every candidate at every node
// carries the same prefix, role and origin ASN, and the only thing a
// campaign asks of it is whether a node holds the route at all. Under the
// engine's three ranked phases (bgp/propagation.hpp) a single-origin flood
// reaches exactly the valley-free closure of its origin:
//
//   U          = the origin, plus every unblocked AS reachable from it over
//                customer->provider edges through unblocked ASes (phase up);
//   reaches(n) = n is in U, or n is unblocked and has a peer in U (phase
//                peer) or a provider p with reaches(p) (phase down).
//
// "Blocked" means the announcement can never enter n: n's ASN is already in
// the seeded path (the forged victim origin, dropped as an AS-path loop), or
// n enforces ROV and the announcement validates Invalid.
//
// The closure is exact — value-identical to the full engine's "non-empty
// Adj-RIB-In", which a differential test enforces — because:
//   - a single origin never reaches the route-age tie-break, so which
//     candidate wins is irrelevant to whether one exists;
//   - a loop drop at n on any other ASN means n is already on the path and
//     therefore already holds the route;
//   - ASNs are unique (AsGraph::add_as throws on duplicates), so a loop
//     check on n's ASN is a check on n itself;
//   - customer->provider edges are acyclic (AsGraph::rank_order throws on
//     a cycle), so an export never loops back down into its own cone;
//   - valley-free routes never trip RFC 9234 OTC provided the seed carries
//     no OTC mark, which reset() requires.
//
// U is the origin's provider ancestry — tens of nodes even at 50k ASes — and
// is walked eagerly. reaches() is evaluated lazily on first query and
// memoized per epoch; its recursion runs only through provider edges, which
// strictly raise customer rank, so it is well-founded and bounded by the
// provider-chain length (the same shape as DeltaPropagation's lazy D').
// Every per-node slot is epoch-stamped, so rebinding costs O(|U|) and, once
// the tables are sized for the graph, allocates nothing.
#pragma once

#include <cstdint>
#include <vector>

#include "bgp/announcement.hpp"
#include "bgp/as_graph.hpp"
#include "bgp/rpki.hpp"

namespace marcopolo::bgp {

class SingleOriginReach {
 public:
  /// Bind to `ann` originated (as a Self seed) at `origin` over `graph`,
  /// with ROV-enforcing ASes filtering against `roas` (null = no RPKI
  /// filtering anywhere). Walks U eagerly; everything else is lazy. The
  /// graph must outlive every query until the next reset. Throws
  /// std::invalid_argument if `origin` is not in the graph or the seed
  /// carries an OTC mark (an OTC-marked seed can be refused on a
  /// valley-free edge; only the full engine models that).
  void reset(const AsGraph& graph, NodeId origin, const Announcement& ann,
             const RoaRegistry* roas);

  /// True iff the full engine would leave `n` holding the announcement
  /// (a non-empty Adj-RIB-In).
  [[nodiscard]] bool reaches(NodeId n) const {
    if (mark_[n.value] == epoch_) return state_[n.value] != kUnreached;
    return evaluate(n);
  }

  /// reaches(n), restricted to routes that pass the cloud edge's filter
  /// against `roas` (passes_rov; null = no filter). Every delivered copy
  /// carries the origin's export's (prefix, origin), so one check answers
  /// for all of them; the origin itself holds only its seed.
  [[nodiscard]] bool holds_valid(NodeId n, const RoaRegistry* roas) const {
    return reaches(n) && passes_rov(n == origin_ ? seed_ : export_, roas);
  }

 private:
  enum : std::uint8_t { kUnreached, kReached, kUp };

  [[nodiscard]] bool blocked(NodeId n) const;
  bool evaluate(NodeId n) const;
  void settle(NodeId n, std::uint8_t state) const {
    mark_[n.value] = epoch_;
    state_[n.value] = state;
  }

  const AsGraph* graph_ = nullptr;
  NodeId origin_;
  /// The seed as the origin holds it. Any AS whose ASN is on its path
  /// drops every copy as a loop.
  Announcement seed_;
  /// The seed as the origin exports it (its ASN prepended). Every copy
  /// delivered anywhere shares this prefix and origin ASN.
  Announcement export_;
  /// The export validates Invalid against the transit ROAs.
  bool rov_invalid_ = false;

  // A slot is settled for the current binding iff mark_ == epoch_; state_
  // then says whether n is in U, reached outside U, or unreached. The memo
  // is written from const queries (single-owner state, never shared across
  // threads).
  std::uint32_t epoch_ = 0;
  mutable std::vector<std::uint32_t> mark_;
  mutable std::vector<std::uint8_t> state_;
  std::vector<std::uint32_t> stack_;  ///< Up-walk scratch.
};

}  // namespace marcopolo::bgp
