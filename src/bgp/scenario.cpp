#include "bgp/scenario.hpp"

#include <algorithm>

#include "bgp/attack_model.hpp"

namespace marcopolo::bgp {

HijackScenario::HijackScenario(const AsGraph& graph, NodeId victim,
                               NodeId adversary,
                               netsim::Ipv4Prefix victim_prefix,
                               const ScenarioConfig& config) {
  PropagationWorkspace ws;
  reset(graph, victim, adversary, victim_prefix, config, ws);
}

void HijackScenario::reset(const AsGraph& graph, NodeId victim,
                           NodeId adversary,
                           netsim::Ipv4Prefix victim_prefix,
                           const ScenarioConfig& config,
                           PropagationWorkspace& ws) {
  if (victim == adversary) {
    throw std::invalid_argument("victim and adversary must differ");
  }
  victim_ = victim;
  adversary_ = adversary;
  type_ = config.type;
  prefix_ = victim_prefix;
  node_count_ = graph.size();
  has_sub_ = false;
  delta_ = nullptr;
  ++generation_;

  // Per-attack tie-break salt: a fresh pair of simultaneous announcements
  // re-rolls every router's "heard first" coin.
  const std::uint64_t salt = netsim::hash_combine(
      config.tie_break_seed,
      (std::uint64_t{victim.value} << 32) | adversary.value);
  cmp_ = RouteComparator(config.tie_break, salt);

  PropagationConfig pc{config.tie_break, salt, config.roas, config.metrics,
                       config.flight};

  // The attack model turns (graph, victim, adversary, prefix, baseline)
  // into the adversary's announcements; this function only executes the
  // plan. Models that consult the victim-only baseline (route leaks) get
  // one extra propagation here; the incremental path reads the delta
  // engine's cached baseline instead and skips that cost.
  const AttackModel& model = attack_model(type_);
  AttackContext ctx;
  ctx.graph = &graph;
  ctx.victim = victim;
  ctx.adversary = adversary;
  ctx.prefix = victim_prefix;

  // Victim originates its own prefix normally: the Self candidate's path is
  // empty and the victim's ASN is prepended on export. Seeds are staged in
  // the workspace so the list isn't reallocated per scenario.
  auto& seeds = ws.seeds;
  seeds.clear();
  seeds.push_back(SeededRoute{
      victim, Announcement{victim_prefix, {}, OriginRole::Victim}});

  if (model.needs_baseline()) {
    propagate_into(graph, seeds, pc, ws, baseline_);
    ctx.baseline_best = [this](NodeId n) { return baseline_.best[n.value]; };
  }
  const AttackPlan plan = model.plan(ctx);
  target_ = plan.target;

  if (plan.primary.has_value()) {
    seeds.push_back(SeededRoute{adversary, *plan.primary});
  }
  propagate_into(graph, seeds, pc, ws, primary_);
  if (plan.sub_prefix.has_value()) {
    seeds.clear();
    seeds.push_back(SeededRoute{adversary, *plan.sub_prefix});
    propagate_into(graph, seeds, pc, ws, sub_);
    has_sub_ = true;
  }
}

void HijackScenario::reset_incremental(DeltaPropagation& delta,
                                       NodeId adversary,
                                       const ScenarioConfig& config,
                                       PropagationWorkspace& /*ws*/) {
  const AsGraph& graph = delta.graph();
  const NodeId victim = delta.victim();
  if (victim == adversary) {
    throw std::invalid_argument("victim and adversary must differ");
  }
  victim_ = victim;
  adversary_ = adversary;
  type_ = config.type;
  prefix_ = delta.prefix();
  node_count_ = graph.size();
  has_sub_ = false;
  delta_ = &delta;
  ++generation_;

  const std::uint64_t salt = netsim::hash_combine(
      config.tie_break_seed,
      (std::uint64_t{victim.value} << 32) | adversary.value);
  cmp_ = RouteComparator(config.tie_break, salt);

  const AttackModel& model = attack_model(type_);
  AttackContext ctx;
  ctx.graph = &graph;
  ctx.victim = victim;
  ctx.adversary = adversary;
  ctx.prefix = prefix_;
  if (model.needs_baseline()) {
    // The delta engine already holds the victim-only world: what the
    // adversary learned is its baseline best route, no extra propagation.
    ctx.baseline_best = [&delta](NodeId n) {
      std::optional<RouteCandidate> best;
      delta.materialize_baseline_best(n, best);
      return best;
    };
  }
  const AttackPlan plan = model.plan(ctx);
  target_ = plan.target;

  if (plan.primary.has_value()) {
    delta.replay(adversary, *plan.primary, cmp_);
  } else {
    // No contesting announcement: the primary prefix propagates unopposed,
    // which IS the baseline.
    delta.replay_none();
  }
  if (plan.sub_prefix.has_value()) {
    // A distinct prefix cannot ride the baseline, but it needs no flood
    // either: its only origin is the adversary, so all a query can ask is
    // whether a node holds it — the valley-free closure from the adversary,
    // evaluated lazily per queried node (bgp/reachability.hpp).
    sub_reach_.reset(graph, adversary, *plan.sub_prefix, config.roas);
    has_sub_ = true;
  }
}

HijackScenario::NodeView& HijackScenario::view_of(NodeId n) const {
  for (NodeView& v : views_) {
    if (v.node == n) {
      if (v.generation != generation_) {
        delta_->materialize_rib(n, v.rib);
        v.best_valid = false;
        v.generation = generation_;
      }
      return v;
    }
  }
  views_.emplace_back();
  NodeView& v = views_.back();
  v.node = n;
  v.generation = generation_;
  delta_->materialize_rib(n, v.rib);
  return v;
}

const std::vector<RouteCandidate>& HijackScenario::primary_rib(
    NodeId n) const {
  if (delta_ == nullptr) return primary_.rib_in[n.value];
  return view_of(n).rib;
}

const std::optional<RouteCandidate>& HijackScenario::primary_best(
    NodeId n) const {
  if (delta_ == nullptr) return primary_.best[n.value];
  NodeView& v = view_of(n);
  if (!v.best_valid) {
    delta_->materialize_best(n, v.best);
    v.best_valid = true;
  }
  return v.best;
}

bool HijackScenario::sub_holds(NodeId n, const RoaRegistry* roas) const {
  if (delta_ != nullptr) return sub_reach_.holds_valid(n, roas);
  // Full mode: the flood's own Adj-RIB-In, filtered exactly as a cloud
  // edge's egress selection filters its candidates.
  return std::ranges::any_of(sub_.rib_in[n.value], [roas](const auto& c) {
    return passes_rov(c.ann, roas);
  });
}

OriginReached HijackScenario::reached(NodeId from) const {
  // Longest-prefix match: the sub-prefix route (if any) wins over the
  // covering prefix.
  if (holds_more_specific(from)) return OriginReached::Adversary;
  const auto role = delta_ != nullptr ? delta_->role_reached(from)
                                      : primary_.role_reached(from);
  if (!role) return OriginReached::None;
  return *role == OriginRole::Victim ? OriginReached::Victim
                                     : OriginReached::Adversary;
}

double HijackScenario::adversary_capture_fraction() const {
  std::size_t captured = 0;
  for (std::uint32_t i = 0; i < node_count_; ++i) {
    if (reached(NodeId{i}) == OriginReached::Adversary) ++captured;
  }
  return node_count_ == 0
             ? 0.0
             : static_cast<double>(captured) / static_cast<double>(node_count_);
}

}  // namespace marcopolo::bgp
