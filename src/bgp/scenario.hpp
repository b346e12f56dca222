// Hijack scenarios: one victim-adversary attack, fully propagated.
//
// MarcoPolo's unit of measurement (paper §4.1) is a pairwise attack: victim
// and adversary announce the same prefix simultaneously and every AS's
// routing decision is observed. This module builds the seeded announcements
// for each attack type, runs propagation, and answers "which origin does AS
// X route toward for the validation target address?".
#pragma once

#include <array>
#include <optional>

#include "bgp/delta.hpp"
#include "bgp/propagation.hpp"
#include "bgp/reachability.hpp"

namespace marcopolo::bgp {

enum class AttackType : std::uint8_t {
  /// Plain equally-specific prefix origination by the adversary.
  EquallySpecific,
  /// Forged-origin prepend (paper §2): the adversary prepends the victim's
  /// ASN, staying ROV-valid at the cost of one extra hop. Used for the
  /// paper's "RPKI" attack runs.
  ForgedOriginPrepend,
  /// More-specific (sub-prefix) hijack: globally effective; MPIC does not
  /// defend against it (paper §2). Included to demonstrate the limitation.
  SubPrefix,
  /// Route leak (RFC 9234): the adversary re-exports the victim route it
  /// legitimately learned — provider- and peer-ward, valley-violating.
  /// ROV-valid by construction (the real origin is in the path); countered
  /// by OTC-enforcing ASes, not by RPKI. New values append here so stored
  /// artifacts (CSV/MPRS attack tags) keep their meaning.
  RouteLeak,
};

/// Number of AttackType enumerators. The registry tables below are sized by
/// this constant, so a new enumerator fails to compile until every table —
/// names here, models in bgp/attack_model.cpp — has an entry for it.
inline constexpr std::size_t kAttackTypeCount = 4;
static_assert(static_cast<std::size_t>(AttackType::RouteLeak) + 1 ==
                  kAttackTypeCount,
              "kAttackTypeCount must cover the last AttackType enumerator");

namespace detail {
inline constexpr std::array<const char*, kAttackTypeCount> kAttackTypeNames = {
    "equally-specific",
    "forged-origin-prepend",
    "sub-prefix",
    "route-leak",
};
static_assert(
    [] {
      for (const char* name : kAttackTypeNames) {
        if (name == nullptr) return false;
      }
      return true;
    }(),
    "every AttackType needs a name");
}  // namespace detail

[[nodiscard]] constexpr const char* to_cstring(AttackType t) {
  return detail::kAttackTypeNames[static_cast<std::size_t>(t)];
}

enum class OriginReached : std::uint8_t { None, Victim, Adversary };

struct ScenarioConfig {
  AttackType type = AttackType::EquallySpecific;
  TieBreakMode tie_break = TieBreakMode::VictimFirst;
  std::uint64_t tie_break_seed = 0;
  const RoaRegistry* roas = nullptr;
  /// Optional pre-interned metrics handles forwarded to the propagation
  /// engine (null = uninstrumented; see PropagationMetrics::create).
  const PropagationMetrics* metrics = nullptr;
  /// Optional flight-recorder lane of the calling worker, forwarded to the
  /// propagation engine (one PropagationRunRecord per engine run).
  obs::FlightBuffer* flight = nullptr;
};

class HijackScenario {
 public:
  /// Build and propagate an attack of `victim_prefix` originated by
  /// `victim`, hijacked by `adversary`. The validation target address is
  /// inside the prefix (and, for SubPrefix, inside the adversary's
  /// more-specific announcement).
  HijackScenario(const AsGraph& graph, NodeId victim, NodeId adversary,
                 netsim::Ipv4Prefix victim_prefix,
                 const ScenarioConfig& config);

  /// Empty scenario: reset() must be called before any query. Campaign
  /// workers default-construct one scenario and reset() it per pair so
  /// propagation storage is recycled instead of reallocated.
  HijackScenario() = default;

  /// Re-evaluate this scenario object for a new attack, reusing both the
  /// workspace's scratch and this object's propagation storage. A scenario
  /// is a pure function of (graph, victim, adversary, prefix, config):
  /// reset() yields a state byte-identical to a freshly constructed one.
  void reset(const AsGraph& graph, NodeId victim, NodeId adversary,
             netsim::Ipv4Prefix victim_prefix, const ScenarioConfig& config,
             PropagationWorkspace& ws);

  /// Incremental variant: re-evaluate this scenario against `delta`'s
  /// cached victim baseline (delta carries the graph, victim, and prefix)
  /// by replaying only the adversary's announcement. A more-specific
  /// announcement is not flooded at all: it is answered by a lazy
  /// valley-free reachability query (bgp/reachability.hpp). Equivalent to
  /// reset() with the same parameters — every query answers identically —
  /// except that primary() is unavailable; use primary_rib()/primary_best(),
  /// which materialize on demand. `delta` must outlive the scenario's next
  /// reset and must not be replayed by anyone else in between. `ws` is
  /// unused: no incremental plan needs the full engine's scratch.
  void reset_incremental(DeltaPropagation& delta, NodeId adversary,
                         const ScenarioConfig& config,
                         PropagationWorkspace& ws);

  /// Which origin traffic from `from` reaches when addressed to the
  /// validation target (longest-prefix match across announcements).
  [[nodiscard]] OriginReached reached(NodeId from) const;

  /// Whether node n holds a more-specific (sub-prefix) route that survives
  /// ROV against `roas` (null = no filter; a cloud edge passes its own
  /// ROAs). Such a route wins longest-prefix match for the target, so this
  /// is the whole of what the sub-prefix plane contributes to reached()
  /// and to a backbone's egress decision. Full mode answers from the
  /// flood's Adj-RIB-In; incremental mode from the reachability closure.
  [[nodiscard]] bool holds_more_specific(
      NodeId n, const RoaRegistry* roas = nullptr) const {
    return has_sub_ && sub_holds(n, roas);
  }

  /// Target address the CA perspectives will validate against.
  [[nodiscard]] netsim::Ipv4Addr target_address() const { return target_; }

  [[nodiscard]] NodeId victim() const { return victim_; }
  [[nodiscard]] NodeId adversary() const { return adversary_; }
  [[nodiscard]] AttackType type() const { return type_; }
  [[nodiscard]] netsim::Ipv4Prefix prefix() const { return prefix_; }

  /// Propagation state for the victim's (equally-specific) prefix. Only
  /// available after a full reset(); throws std::logic_error in
  /// incremental mode, where per-node state is materialized on demand
  /// through primary_rib()/primary_best() instead.
  [[nodiscard]] const PropagationResult& primary() const {
    if (delta_ != nullptr) {
      throw std::logic_error(
          "HijackScenario::primary() unavailable after reset_incremental(); "
          "use primary_rib()/primary_best()");
    }
    return primary_;
  }

  /// Node n's Adj-RIB-In for the primary prefix. In full mode a direct
  /// view into primary(); in incremental mode materialized from the delta
  /// state and cached until the next reset (the campaign queries only a
  /// handful of backbone nodes per attack). The reference is invalidated
  /// by the next reset_* or primary_rib() call.
  [[nodiscard]] const std::vector<RouteCandidate>& primary_rib(NodeId n) const;

  /// Node n's best route for the primary prefix (see primary_rib()).
  [[nodiscard]] const std::optional<RouteCandidate>& primary_best(
      NodeId n) const;

  /// Fraction of ASes routing to the adversary (diagnostic).
  [[nodiscard]] double adversary_capture_fraction() const;

  /// The comparator used for this attack's decision process. Its route-age
  /// coin is salted per (victim, adversary) pair: each attack is a fresh
  /// pair of announcements, so which one a router "heard first" is
  /// independent across attacks (§4.4.4).
  [[nodiscard]] const RouteComparator& comparator() const { return cmp_; }

 private:
  RouteComparator cmp_{TieBreakMode::VictimFirst, 0};
  NodeId victim_;
  NodeId adversary_;
  AttackType type_ = AttackType::EquallySpecific;
  netsim::Ipv4Prefix prefix_;
  netsim::Ipv4Addr target_;
  PropagationResult primary_;
  // More-specific state: the full flood (full mode) or the reachability
  // closure (incremental mode). Both are kept alive across resets
  // (capacity reuse); has_sub_ says whether the current attack has one.
  PropagationResult sub_;
  SingleOriginReach sub_reach_;
  bool has_sub_ = false;
  std::size_t node_count_ = 0;
  // Victim-only baseline, populated in full mode only for attack models
  // that consult it (AttackModel::needs_baseline, e.g. RouteLeak re-exports
  // the route the adversary learned). Incremental mode reads the delta
  // engine's baseline instead. Storage recycled across resets.
  PropagationResult baseline_;

  // Incremental mode: the delta engine holding this attack's primary-prefix
  // state (null after a full reset). Materialized per-node views are cached
  // by generation so repeated backbone queries within one attack hit the
  // cache while a reset invalidates it in O(1).
  const DeltaPropagation* delta_ = nullptr;
  std::uint64_t generation_ = 0;
  struct NodeView {
    NodeId node;
    std::uint64_t generation = 0;
    std::vector<RouteCandidate> rib;
    bool best_valid = false;
    std::optional<RouteCandidate> best;
  };
  mutable std::vector<NodeView> views_;
  [[nodiscard]] NodeView& view_of(NodeId n) const;
  [[nodiscard]] bool sub_holds(NodeId n, const RoaRegistry* roas) const;
};

}  // namespace marcopolo::bgp
