// Incremental (baseline + delta) route propagation.
//
// A hijack campaign evaluates one victim against many adversaries. The full
// engine re-propagates both announcements from scratch per pair, but the
// victim-only part of that work is identical across every adversary: the
// victim's announcement carries a single origin role, so no comparison ever
// reaches the route-age coin and the baseline is independent of the
// per-pair tie-break salt. This engine binds the victim's baseline once,
// then replays each adversary announcement as a delta — an event-driven
// UPDATE walk that re-runs the decision process only on the affected
// frontier of the AS graph and stops wherever the incumbent best route
// survives.
//
// The key identity making a per-node delta sufficient (DESIGN.md §11): under
// the engine's three ranked phases, the entire converged state of a node n
// is captured by two exports,
//   C(n) = best candidate among {self seeds, customer-learned routes},
//   D(n) = best candidate overall (the final best route),
// because n's contribution to any neighbor is a pure function of these:
// providers and peers of n receive C(n), customers receive D(n), each
// prepended with n's ASN and filtered by the receiver's loop/ROV checks.
//
// Both the baseline and every replay compute C eagerly and D lazily. C is
// swept ascending by customer rank from the origin (the victim for the
// baseline, the adversary for a replay), enqueueing providers only when a
// route exists (baseline) or an export value changed (replay); that
// frontier is the origin's provider ancestry, tens of nodes even at 50k
// ASes. D is NOT swept: an equally-specific hijack flips the best route of
// roughly half the Internet, and the baseline's D covers all of it, but a
// campaign pair only ever queries a few hundred nodes (the cloud backbones
// and their resolution cones). So D(n) is evaluated on first query and
// memoized — D(n) = C(n) when C(n) exists, else a recompute whose provider
// inputs recurse through D. Provider edges strictly increase customer
// rank, so the recursion is well-founded. Baseline D is memoized until the
// next set_victim_baseline, a replay's D' until the next replay.
//
// Routes are held in a compact arena form — parent-linked paths, one node
// per prepend — so the replay hot path performs no heap allocation; real
// RouteCandidate vectors are materialized only at queried nodes (the cloud
// backbones). There are two arenas: baseline paths live until the next
// set_victim_baseline, replay paths until the next replay. A replay path
// may end in baseline nodes, never the reverse. Materialized results are
// value-identical to the full engine's (same best route at every node,
// same Adj-RIB-In as a multiset), which a differential test enforces.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bgp/propagation.hpp"

namespace marcopolo::bgp {

class DeltaPropagation {
 public:
  /// Replay statistics for the last replay() call. The up numbers are
  /// final when replay() returns; down_recomputed grows as queries lazily
  /// evaluate nodes. Lazy baseline evaluation is not replay work and is
  /// not counted.
  struct ReplayStats {
    std::uint64_t up_recomputed = 0;    ///< Nodes re-decided in the up phase.
    std::uint64_t down_recomputed = 0;  ///< Nodes lazily evaluated so far.
    std::uint64_t up_changed = 0;       ///< Up exports that actually changed.
  };

  /// Bind the victim-only baseline: `victim` originates `prefix` with an
  /// empty path and OriginRole::Victim. Only the victim's up-closure (the
  /// nodes holding a customer-learned route) is decided here; every other
  /// baseline route is decided on first query. The result is independent
  /// of the config's tie-break fields (a single-role propagation never
  /// reaches the route-age step); roas/metrics/flight are honored.
  /// Reusable: rebinding to a new victim costs O(previous closure), and
  /// the per-node tables are resized only when the graph size changes.
  void set_victim_baseline(const AsGraph& graph, NodeId victim,
                           netsim::Ipv4Prefix prefix,
                           const PropagationConfig& config);

  /// Replay `ann` originated at `adversary` as a delta over the baseline.
  /// `cmp` must be the per-pair comparator (route-age salt included). The
  /// announcement must share the baseline prefix. Invalidates the previous
  /// replay's state.
  void replay(NodeId adversary, const Announcement& ann,
              const RouteComparator& cmp);

  /// Drop any replay: queries afterwards see the pure baseline (used for
  /// sub-prefix attacks, whose primary-prefix state IS the baseline).
  void replay_none();

  [[nodiscard]] bool has_baseline() const { return graph_ != nullptr; }
  [[nodiscard]] NodeId victim() const { return victim_; }
  [[nodiscard]] netsim::Ipv4Prefix prefix() const { return prefix_; }
  [[nodiscard]] const AsGraph& graph() const { return *graph_; }
  [[nodiscard]] const ReplayStats& stats() const { return stats_; }

  /// Queries over the current state (baseline + last replay), all
  /// value-identical to a full two-origin propagation.
  [[nodiscard]] bool reachable(NodeId n) const;
  [[nodiscard]] std::optional<OriginRole> role_reached(NodeId n) const;

  /// Materialize node n's best route / full Adj-RIB-In as engine-style
  /// candidates (heap paths). `out` is recycled. The rib is the engine's up
  /// to delivery order (equal as a multiset).
  void materialize_best(NodeId n, std::optional<RouteCandidate>& out) const;
  void materialize_rib(NodeId n, std::vector<RouteCandidate>& out) const;

  /// Node n's best route in the victim-only baseline, regardless of any
  /// active replay (reads and fills the baseline memo only, never replay
  /// state). This is what a route-leak adversary re-exports: the route it
  /// learned before its own announcement existed.
  void materialize_baseline_best(NodeId n,
                                 std::optional<RouteCandidate>& out) const;

 private:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  /// Arena index space: baseline-arena indices lie below kReplayBase,
  /// replay-arena index i is kReplayBase + i, and kNone ends a path.
  static constexpr std::uint32_t kReplayBase = 0x80000000u;

  /// One AS-path element; paths share tails structurally (each export adds
  /// exactly one node for its prepended ASN).
  struct PathNode {
    Asn asn;
    std::uint32_t parent = kNone;
  };

  /// A route in compact form: everything the decision process compares,
  /// plus the arena path for loop checks and materialization.
  struct Compact {
    bool exists = false;
    RouteSource source = RouteSource::Self;
    OriginRole role = OriginRole::Victim;
    std::uint32_t len = 0;       ///< Path length as stored in the rib.
    NodeId from;                 ///< Advertising neighbor (invalid = self).
    Asn from_asn;                ///< 0 for self.
    PopId pop;                   ///< Ingress POP on the receiver's side.
    std::uint32_t head = kNone;  ///< Arena index of path front (kNone = empty).
    Asn origin;                  ///< path.back(); 0 for an empty path.
    Asn otc;                     ///< RFC 9234 OTC as stored (post-ingress).

    [[nodiscard]] RouteKey key() const {
      return RouteKey{source, len, role, from_asn, pop};
    }
  };

  /// Which state a recompute reads and which arena it interns into: the
  /// victim-only baseline, or the current state (baseline + last replay).
  /// A compile-time parameter, so the replay hot path carries no branch.
  enum class World : bool { Baseline, Current };

  [[nodiscard]] static bool in_replay_arena(std::uint32_t i) {
    return i - kReplayBase < kNone - kReplayBase;  // [kReplayBase, kNone)
  }
  template <World W>
  [[nodiscard]] std::uint32_t intern(Asn asn, std::uint32_t parent) const {
    if constexpr (W == World::Baseline) {
      base_arena_.push_back(PathNode{asn, parent});
      return static_cast<std::uint32_t>(base_arena_.size() - 1);
    } else {
      replay_arena_.push_back(PathNode{asn, parent});
      return kReplayBase + static_cast<std::uint32_t>(replay_arena_.size() - 1);
    }
  }
  [[nodiscard]] const PathNode& hop(std::uint32_t i) const {
    return in_replay_arena(i) ? replay_arena_[i - kReplayBase] : base_arena_[i];
  }
  /// Calls `f(asn)` for each hop of the path at `head`, front to back,
  /// stopping at the first true. A path is a replay-arena prefix followed
  /// by a baseline-arena tail, so it is walked as two plain loops.
  template <typename F>
  bool any_hop(std::uint32_t head, F&& f) const {
    std::uint32_t i = head;
    for (; in_replay_arena(i); i = replay_arena_[i - kReplayBase].parent) {
      if (f(replay_arena_[i - kReplayBase].asn)) return true;
    }
    for (; i != kNone; i = base_arena_[i].parent) {
      if (f(base_arena_[i].asn)) return true;
    }
    return false;
  }
  [[nodiscard]] bool chain_contains(std::uint32_t head, Asn asn) const {
    return any_hop(head, [asn](Asn a) { return a == asn; });
  }
  [[nodiscard]] bool export_equal(const Compact& a, const Compact& b) const;
  [[nodiscard]] Compact make_seed(const Announcement& ann);
  void materialize_compact(const Compact& d,
                           std::optional<RouteCandidate>& out) const;

  /// Current (post-replay) up state, falling back to the baseline for
  /// nodes the replay never touched. Final once replay() returns.
  [[nodiscard]] const Compact& up_state(NodeId n) const {
    return up_mark_[n.value] == epoch_ ? up_delta_[n.value]
                                       : up_base_[n.value];
  }
  /// Current down state. With no active adversary this is the baseline;
  /// during a replay epoch it is evaluated lazily on first query (memoized
  /// recursion through provider edges, which strictly increase rank).
  [[nodiscard]] const Compact& down_state(NodeId n) const {
    if (down_mark_[n.value] == epoch_) return down_delta_[n.value];
    if (delta_seed_epoch_ != epoch_) return base_down(n);
    return down_eval(n);
  }
  const Compact& down_eval(NodeId n) const;
  /// Baseline down state, evaluated on first query and memoized until the
  /// next set_victim_baseline (the same recursion as down_eval).
  [[nodiscard]] const Compact& base_down(NodeId n) const {
    return base_mark_[n.value] == base_epoch_ ? down_base_[n.value]
                                              : base_eval(n);
  }
  const Compact& base_eval(NodeId n) const;

  /// Re-run the decision process at n over the given candidate class of
  /// world W. `customer_class` selects {seeds + customer contributions}
  /// (the up recurrence); otherwise {peer + provider contributions} (the
  /// down recurrence for nodes with no customer-class route).
  template <World W>
  [[nodiscard]] Compact recompute(NodeId n, bool customer_class,
                                  const RouteComparator& cmp) const;

  /// Visit nodes ascending by customer rank, starting from `from`. A
  /// node's up export depends only on strictly lower-ranked nodes (its
  /// customers) and its own seeds, so bucket order makes every dependency
  /// final before use. `visit(n)` re-decides n and returns whether n's
  /// providers must be visited too.
  template <typename Visit>
  void sweep_up(NodeId from, Visit&& visit);
  void advance_epoch();
  void flush_replay_metrics() const;

  const AsGraph* graph_ = nullptr;
  NodeId victim_;
  netsim::Ipv4Prefix prefix_;
  const RoaRegistry* roas_ = nullptr;
  const PropagationMetrics* metrics_ = nullptr;
  obs::FlightBuffer* flight_ = nullptr;
  std::shared_ptr<const AsGraph::RankOrder> ranks_;

  // The arenas and down-side tables are mutated from const queries (lazy
  // down evaluation); a DeltaPropagation is single-owner state, not shared
  // across threads. Lazily interned baseline paths must outlive every
  // replay (a route leak reads the baseline mid-epoch), hence two arenas.
  mutable std::vector<PathNode> base_arena_;    ///< Cleared per victim.
  mutable std::vector<PathNode> replay_arena_;  ///< Cleared per replay.

  // up_base_ is dense: C(n) of the current victim at every node, empty
  // outside the up-closure. closure_ lists the nodes holding a route, so
  // rebinding resets only those.
  std::vector<Compact> up_base_;
  std::vector<std::uint32_t> closure_;
  mutable std::vector<Compact> down_base_;
  mutable std::vector<std::uint32_t> base_mark_;
  std::uint32_t base_epoch_ = 0;

  std::vector<Compact> up_delta_;
  mutable std::vector<Compact> down_delta_;
  // Epoch stamps: a slot is valid for the current replay iff its mark
  // equals epoch_, so replays and rebinds reset in O(touched) instead of
  // O(n). epoch_ grows monotonically across victims; 0 is never current.
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> up_mark_;
  mutable std::vector<std::uint32_t> down_mark_;
  std::vector<std::uint32_t> up_queued_;

  // Up-sweep scratch: one bucket per customer rank, sized once per
  // RankOrder and left empty between sweeps.
  std::vector<std::vector<std::uint32_t>> up_buckets_;

  // The victim's origination (baseline) and the adversary seed of the
  // current replay (epoch-gated).
  Compact victim_seed_;
  NodeId delta_seed_at_;
  Compact delta_seed_;
  std::uint32_t delta_seed_epoch_ = 0;
  /// Comparator built from the baseline's config; lazy baseline evaluation
  /// uses it (any comparator yields the same single-role baseline).
  RouteComparator base_cmp_{TieBreakMode::VictimFirst, 0};
  /// Per-pair comparator of the active replay, used by lazy evaluation.
  RouteComparator replay_cmp_{TieBreakMode::VictimFirst, 0};

  mutable ReplayStats stats_;
  // Engine-equivalent instrumentation, accumulated continuously (the up
  // sweeps plus lazy query-time evaluation) and drained into the metrics
  // sink at the next flush.
  struct Counts {
    std::uint64_t delivered = 0;
    std::uint64_t loop_dropped = 0;
    std::uint64_t rov_dropped = 0;
    std::uint64_t otc_dropped = 0;
    std::array<std::uint64_t, kDecisionStepCount> decided{};
  };
  mutable Counts counts_;
};

}  // namespace marcopolo::bgp
