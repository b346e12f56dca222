#include "bgp/delta.hpp"

#include <algorithm>
#include <stdexcept>

#include "bgp/rfc9234.hpp"

namespace marcopolo::bgp {

bool DeltaPropagation::export_equal(const Compact& a, const Compact& b) const {
  // An export's downstream effect is a pure function of (exists, role,
  // otc, path): the receiver derives source from the edge and pop from its
  // own side of the link, and from_asn is the path front.
  if (a.exists != b.exists) return false;
  if (!a.exists) return true;
  if (a.role != b.role || a.len != b.len || a.otc != b.otc) return false;
  std::uint32_t x = a.head;
  std::uint32_t y = b.head;
  while (x != y) {  // same arena index = structurally shared tail: equal
    if (x == kNone || y == kNone) return false;
    const PathNode& px = hop(x);
    const PathNode& py = hop(y);
    if (px.asn != py.asn) return false;
    x = px.parent;
    y = py.parent;
  }
  return true;
}

DeltaPropagation::Compact DeltaPropagation::make_seed(const Announcement& ann) {
  Compact c;
  c.exists = true;
  c.source = RouteSource::Self;
  c.role = ann.role;
  c.len = static_cast<std::uint32_t>(ann.as_path.size());
  c.from = NodeId{};
  c.from_asn = Asn{0};
  c.pop = PopId{};
  std::uint32_t head = kNone;
  for (auto it = ann.as_path.rbegin(); it != ann.as_path.rend(); ++it) {
    head = intern<World::Current>(*it, head);
  }
  c.head = head;
  c.origin = ann.as_path.empty() ? Asn{0} : ann.as_path.back();
  c.otc = ann.otc;
  return c;
}

template <DeltaPropagation::World W>
DeltaPropagation::Compact DeltaPropagation::recompute(
    NodeId n, bool customer_class, const RouteComparator& cmp) const {
  // The winner is tracked as (key, producer) and its path is interned only
  // once at the end, so a recompute allocates at most one arena node.
  struct Producer {
    const Compact* exported = nullptr;  ///< Seed compact, or exporter state.
    NodeId exporter;                    ///< Invalid for a seed.
    RouteSource source = RouteSource::Self;
    PopId pop;
    Asn otc;  ///< Delivered OTC (post-egress/ingress); seeds keep their own.
  };
  bool have = false;
  RouteKey best_key;
  Producer best;

  const auto offer = [&](const RouteKey& key, const Producer& p) {
    if (!have) {
      have = true;
      best_key = key;
      best = p;
      return;
    }
    DecisionStep step = DecisionStep::IngressPop;
    const bool preferred = cmp.prefer_key(key, best_key, n, step);
    ++counts_.decided[static_cast<std::size_t>(step)];
    if (preferred) {
      best_key = key;
      best = p;
    }
  };

  const Asn local = graph_->asn_of(n);
  const bool rov = roas_ != nullptr && graph_->rov_enforcing(n);
  const bool otc_rx = graph_->otc_enforcing(n);

  if (customer_class) {
    // Self seeds bypass the loop/ROV/OTC filters, exactly as the engine's
    // seed() pushes them into the rib unfiltered.
    if (n == victim_) {
      offer(victim_seed_.key(), Producer{&victim_seed_, NodeId{},
                                         RouteSource::Self, PopId{},
                                         victim_seed_.otc});
    }
    if (W == World::Current && delta_seed_epoch_ == epoch_ &&
        n == delta_seed_at_) {
      offer(delta_seed_.key(), Producer{&delta_seed_, NodeId{},
                                        RouteSource::Self, PopId{},
                                        delta_seed_.otc});
    }
  }
  // The baseline world reads only baseline state, so its paths never
  // reach into the replay arena.
  const auto up = [this](NodeId m) -> const Compact& {
    if constexpr (W == World::Baseline) {
      return up_base_[m.value];
    } else {
      return up_state(m);
    }
  };
  const auto down = [this](NodeId m) -> const Compact& {
    if constexpr (W == World::Baseline) {
      return base_down(m);
    } else {
      return down_state(m);
    }
  };
  for (const Neighbor& nb : graph_->neighbors(n)) {
    RouteSource source;
    const Compact* e;
    if (customer_class) {
      if (nb.rel != Relationship::Customer) continue;
      source = RouteSource::Customer;
      e = &up(nb.id);
    } else if (nb.rel == Relationship::Peer) {
      source = RouteSource::Peer;
      e = &up(nb.id);
    } else if (nb.rel == Relationship::Provider) {
      source = RouteSource::Provider;
      e = &down(nb.id);
    } else {
      continue;
    }
    if (!e->exists) continue;
    const Asn sender = graph_->asn_of(nb.id);
    // The same edge transit the engine runs, in the same order: the
    // sender's egress refusal (advertise), then the receiver-side loop,
    // ROV, and OTC-ingress filters (deliver). The advertised path is
    // asn_of(nb.id) :: e->path, so the loop check also covers the
    // prepended hop (never == local: no self links).
    const std::optional<Asn> sent = otc_egress(
        e->otc, sender, graph_->otc_enforcing(nb.id), source);
    if (!sent.has_value()) {
      ++counts_.otc_dropped;
      continue;
    }
    if (chain_contains(e->head, local)) {
      ++counts_.loop_dropped;
      continue;
    }
    if (rov) {
      const Asn origin = e->head == kNone ? sender : e->origin;
      if (roas_->validate(prefix_, origin) == RpkiValidity::Invalid) {
        ++counts_.rov_dropped;
        continue;
      }
    }
    const std::optional<Asn> stored = otc_ingress(*sent, sender, otc_rx,
                                                  source);
    if (!stored.has_value()) {
      ++counts_.otc_dropped;
      continue;
    }
    ++counts_.delivered;
    offer(RouteKey{source, e->len + 1u, e->role, sender, nb.local_pop},
          Producer{e, nb.id, source, nb.local_pop, *stored});
  }

  Compact out;
  if (!have) return out;
  if (!best.exporter.valid()) {
    return *best.exported;  // a seed, stored fully formed
  }
  const Compact& e = *best.exported;
  out.exists = true;
  out.source = best.source;
  out.role = e.role;
  out.len = e.len + 1;
  out.from = best.exporter;
  out.from_asn = graph_->asn_of(best.exporter);
  out.pop = best.pop;
  out.head = intern<W>(out.from_asn, e.head);
  out.origin = e.head == kNone ? out.from_asn : e.origin;
  out.otc = best.otc;
  return out;
}

template <typename Visit>
void DeltaPropagation::sweep_up(NodeId from, Visit&& visit) {
  const std::vector<std::uint32_t>& rank = ranks_->rank;
  const auto enqueue = [&](NodeId n) {
    if (up_queued_[n.value] == epoch_) return;
    up_queued_[n.value] = epoch_;
    up_buckets_[rank[n.value]].push_back(n.value);
  };
  enqueue(from);
  // Providers rank strictly above their customers, so no bucket below
  // `from`'s is ever filled; each bucket is drained and cleared in turn.
  for (std::size_t r = rank[from.value]; r < up_buckets_.size(); ++r) {
    std::vector<std::uint32_t>& bucket = up_buckets_[r];
    for (std::size_t bi = 0; bi < bucket.size(); ++bi) {
      const NodeId n{bucket[bi]};
      if (!visit(n)) continue;
      for (const Neighbor& nb : graph_->neighbors(n)) {
        if (nb.rel == Relationship::Provider) enqueue(nb.id);
      }
    }
    bucket.clear();
  }
}

void DeltaPropagation::advance_epoch() {
  if (++epoch_ == 0) {  // wrapped: no stale stamp may alias the new epoch
    std::fill(up_mark_.begin(), up_mark_.end(), 0);
    std::fill(down_mark_.begin(), down_mark_.end(), 0);
    std::fill(up_queued_.begin(), up_queued_.end(), 0);
    epoch_ = 1;
  }
}

void DeltaPropagation::set_victim_baseline(const AsGraph& graph, NodeId victim,
                                           netsim::Ipv4Prefix prefix,
                                           const PropagationConfig& config) {
  if (victim.value >= graph.size()) {
    throw std::invalid_argument("baseline victim is not in the graph");
  }
  graph_ = &graph;
  victim_ = victim;
  prefix_ = prefix;
  roas_ = config.roas;
  metrics_ = config.metrics;
  flight_ = config.flight;
  std::shared_ptr<const AsGraph::RankOrder> ranks = graph.rank_order();
  if (ranks != ranks_) {
    ranks_ = std::move(ranks);
    std::uint32_t max_rank = 0;
    for (const std::uint32_t r : ranks_->rank) max_rank = std::max(max_rank, r);
    up_buckets_.resize(max_rank + 1);
  }

  // Rebinding costs O(previous closure): the per-node tables are sized
  // only when the graph size changes, up_base_ is reset from the previous
  // victim's closure, and every other slot is invalidated by a stamp.
  const std::size_t n = graph.size();
  if (up_base_.size() != n) {
    up_base_.assign(n, Compact{});
    down_base_.assign(n, Compact{});
    base_mark_.assign(n, 0);
    up_delta_.assign(n, Compact{});
    down_delta_.assign(n, Compact{});
    up_mark_.assign(n, 0);
    down_mark_.assign(n, 0);
    up_queued_.assign(n, 0);
  } else {
    for (const std::uint32_t idx : closure_) up_base_[idx] = Compact{};
  }
  closure_.clear();
  if (++base_epoch_ == 0) {  // wrapped, as in advance_epoch()
    std::fill(base_mark_.begin(), base_mark_.end(), 0);
    base_epoch_ = 1;
  }
  advance_epoch();
  base_arena_.clear();
  replay_arena_.clear();
  delta_seed_epoch_ = 0;
  stats_ = ReplayStats{};
  counts_ = Counts{};

  const std::uint64_t start_ns = flight_ != nullptr ? obs::flight_now_ns() : 0;
  // An empty path: the victim's seed interns nothing in either arena.
  victim_seed_ = make_seed(Announcement{prefix, {}, OriginRole::Victim});
  // The baseline carries a single origin role, so no comparison ever
  // reaches the route-age step and any comparator built from the config
  // yields the identical result (salt-independence; DESIGN.md §11).
  base_cmp_ = RouteComparator(config.tie_break, config.tie_break_seed);
  // The up-closure: the victim's provider ancestry, through every node
  // that holds a customer-learned route. Down states stay lazy (base_eval).
  sweep_up(victim, [&](NodeId v) {
    const Compact c = recompute<World::Baseline>(v, true, base_cmp_);
    if (!c.exists) return false;
    up_base_[v.value] = c;
    closure_.push_back(v.value);
    return true;
  });
  if (flight_ != nullptr) {
    obs::PropagationRunRecord rec;
    rec.start_ns = start_ns;
    rec.duration_ns = obs::flight_now_ns() - start_ns;
    rec.delivered = counts_.delivered;
    rec.loop_dropped = counts_.loop_dropped;
    rec.rov_dropped = counts_.rov_dropped;
    rec.decided = counts_.decided;
    flight_->record_propagation(rec);
  }
  flush_replay_metrics();
}

void DeltaPropagation::replay(NodeId adversary, const Announcement& ann,
                              const RouteComparator& cmp) {
  if (!has_baseline()) {
    throw std::logic_error("replay() without a victim baseline");
  }
  if (ann.prefix != prefix_) {
    throw std::invalid_argument("replay announcement must share the baseline prefix");
  }
  if (adversary.value >= graph_->size() || adversary == victim_) {
    throw std::invalid_argument("replay adversary invalid");
  }

  advance_epoch();
  replay_arena_.clear();
  stats_ = ReplayStats{};
  const std::uint64_t start_ns = flight_ != nullptr ? obs::flight_now_ns() : 0;

  delta_seed_at_ = adversary;
  delta_seed_ = make_seed(ann);
  delta_seed_epoch_ = epoch_;
  replay_cmp_ = cmp;

  // Up sweep from the adversary. This is the only eager phase; down state
  // is evaluated lazily per query (down_eval), so replay cost scales with
  // the adversary's provider ancestry, not with how much of the Internet
  // the hijack captures.
  sweep_up(adversary, [&](NodeId n) {
    ++stats_.up_recomputed;
    up_delta_[n.value] = recompute<World::Current>(n, true, cmp);
    up_mark_[n.value] = epoch_;
    if (export_equal(up_delta_[n.value], up_base_[n.value])) return false;
    ++stats_.up_changed;
    return true;
  });

  // The flight record and metrics flush drain whatever accumulated since
  // the last flush: this replay's up sweep plus the lazy evaluations the
  // previous replay's queries triggered (totals stay exact; per-run
  // attribution shifts by one query's worth of work).
  if (flight_ != nullptr) {
    obs::PropagationRunRecord rec;
    rec.start_ns = start_ns;
    rec.duration_ns = obs::flight_now_ns() - start_ns;
    rec.delivered = counts_.delivered;
    rec.loop_dropped = counts_.loop_dropped;
    rec.rov_dropped = counts_.rov_dropped;
    rec.decided = counts_.decided;
    flight_->record_propagation(rec);
  }
  flush_replay_metrics();
}

const DeltaPropagation::Compact& DeltaPropagation::down_eval(NodeId n) const {
  // D'(n) = C'(n) when a customer-class route exists (LocalPref dominance);
  // otherwise a peer/provider recompute whose provider inputs recurse
  // through down_state. Provider edges strictly increase customer rank, so
  // the recursion is well-founded, its depth bounded by the provider-chain
  // length, and memoization caps total work at the queried cone.
  const Compact& cprime = up_state(n);
  const Compact d = cprime.exists
                        ? cprime
                        : recompute<World::Current>(n, false, replay_cmp_);
  down_delta_[n.value] = d;
  down_mark_[n.value] = epoch_;
  ++stats_.down_recomputed;
  return down_delta_[n.value];
}

const DeltaPropagation::Compact& DeltaPropagation::base_eval(NodeId n) const {
  // down_eval's recursion over the victim-only world.
  const Compact& c = up_base_[n.value];
  const Compact d =
      c.exists ? c : recompute<World::Baseline>(n, false, base_cmp_);
  down_base_[n.value] = d;
  base_mark_[n.value] = base_epoch_;
  return down_base_[n.value];
}

void DeltaPropagation::replay_none() {
  if (!has_baseline()) {
    throw std::logic_error("replay_none() without a victim baseline");
  }
  advance_epoch();
  replay_arena_.clear();
  delta_seed_epoch_ = 0;
  stats_ = ReplayStats{};
}

bool DeltaPropagation::reachable(NodeId n) const {
  return down_state(n).exists;
}

std::optional<OriginRole> DeltaPropagation::role_reached(NodeId n) const {
  const Compact& d = down_state(n);
  if (!d.exists) return std::nullopt;
  return d.role;
}

void DeltaPropagation::materialize_best(
    NodeId n, std::optional<RouteCandidate>& out) const {
  materialize_compact(down_state(n), out);
}

void DeltaPropagation::materialize_baseline_best(
    NodeId n, std::optional<RouteCandidate>& out) const {
  if (!has_baseline()) {
    throw std::logic_error(
        "materialize_baseline_best() without a victim baseline");
  }
  materialize_compact(base_down(n), out);
}

void DeltaPropagation::materialize_compact(
    const Compact& d, std::optional<RouteCandidate>& out) const {
  if (!d.exists) {
    out.reset();
    return;
  }
  RouteCandidate c;
  c.ann.prefix = prefix_;
  c.ann.role = d.role;
  c.ann.otc = d.otc;
  any_hop(d.head, [&c](Asn a) {
    c.ann.as_path.push_back(a);
    return false;
  });
  c.source = d.source;
  c.from = d.from;
  c.from_asn = d.from_asn;
  c.ingress_pop = d.pop;
  out = std::move(c);
}

void DeltaPropagation::materialize_rib(NodeId n,
                                       std::vector<RouteCandidate>& out) const {
  out.clear();
  const Asn local = graph_->asn_of(n);
  const bool rov = roas_ != nullptr && graph_->rov_enforcing(n);

  const auto push_seed = [&](const Compact& s) {
    RouteCandidate c;
    c.ann.prefix = prefix_;
    c.ann.role = s.role;
    c.ann.otc = s.otc;
    any_hop(s.head, [&c](Asn a) {
      c.ann.as_path.push_back(a);
      return false;
    });
    c.source = RouteSource::Self;
    c.from = NodeId{};
    c.from_asn = Asn{0};
    c.ingress_pop = PopId{};
    out.push_back(std::move(c));
  };
  if (n == victim_) push_seed(victim_seed_);
  if (delta_seed_epoch_ == epoch_ && n == delta_seed_at_) push_seed(delta_seed_);

  for (const Neighbor& nb : graph_->neighbors(n)) {
    RouteSource source;
    const Compact* e;
    switch (nb.rel) {
      case Relationship::Customer:
        source = RouteSource::Customer;
        e = &up_state(nb.id);
        break;
      case Relationship::Peer:
        source = RouteSource::Peer;
        e = &up_state(nb.id);
        break;
      case Relationship::Provider:
        source = RouteSource::Provider;
        e = &down_state(nb.id);
        break;
      default:
        continue;
    }
    if (!e->exists) continue;
    const Asn sender = graph_->asn_of(nb.id);
    // Same edge-transit filters (and order) as recompute()/the engine.
    const std::optional<Asn> sent = otc_egress(
        e->otc, sender, graph_->otc_enforcing(nb.id), source);
    if (!sent.has_value()) continue;
    if (chain_contains(e->head, local)) continue;
    if (rov) {
      const Asn origin = e->head == kNone ? sender : e->origin;
      if (roas_->validate(prefix_, origin) == RpkiValidity::Invalid) continue;
    }
    const std::optional<Asn> stored =
        otc_ingress(*sent, sender, graph_->otc_enforcing(n), source);
    if (!stored.has_value()) continue;
    RouteCandidate c;
    c.ann.prefix = prefix_;
    c.ann.role = e->role;
    c.ann.otc = *stored;
    c.ann.as_path.push_back(sender);
    any_hop(e->head, [&c](Asn a) {
      c.ann.as_path.push_back(a);
      return false;
    });
    c.source = source;
    c.from = nb.id;
    c.from_asn = sender;
    c.ingress_pop = nb.local_pop;
    out.push_back(std::move(c));
  }
}

void DeltaPropagation::flush_replay_metrics() const {
  const PropagationMetrics* m = metrics_;
  if (m != nullptr) {
    m->runs.add(1);
    m->delivered.add(counts_.delivered);
    m->loop_dropped.add(counts_.loop_dropped);
    m->rov_dropped.add(counts_.rov_dropped);
    m->otc_dropped.add(counts_.otc_dropped);
    for (std::size_t s = 0; s < kDecisionStepCount; ++s) {
      if (counts_.decided[s] != 0) m->decided[s].add(counts_.decided[s]);
    }
  }
  counts_ = Counts{};
}

}  // namespace marcopolo::bgp
