// Differential oracle for the incremental (baseline + delta) engine: for
// randomized victim/adversary pairs — with and without ROV, OTC and
// MAX_LEN ROAs, on Internets of 200, 5k and 50k ASes — DeltaPropagation
// must answer every query exactly as the full engine does: the same
// reachability and role at every node, the same best route (full value
// equality) and the same Adj-RIB-In as a multiset as a two-origin
// propagation, and the same victim-only best route as a propagation of the
// victim alone. The victim baseline is decided lazily, so the tests also
// query it sparsely between replays and check that what it memoized
// survives them, and that binding a baseline decides only the up-closure.
#include "bgp/delta.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "bgp/propagation.hpp"
#include "netsim/random.hpp"
#include "obs/metrics.hpp"
#include "topo/internet.hpp"

namespace marcopolo::bgp {
namespace {

const netsim::Ipv4Prefix kPrefix = *netsim::Ipv4Prefix::parse("203.0.113.0/24");

bool candidate_eq(const RouteCandidate& a, const RouteCandidate& b) {
  return a.ann.prefix == b.ann.prefix && a.ann.as_path == b.ann.as_path &&
         a.ann.role == b.ann.role && a.ann.otc == b.ann.otc &&
         a.source == b.source && a.from == b.from &&
         a.from_asn == b.from_asn && a.ingress_pop == b.ingress_pop;
}

NodeId random_node(const AsGraph& g, netsim::Rng& rng) {
  return NodeId{static_cast<std::uint32_t>(rng.index(g.size()))};
}

PropagationResult victim_only(const AsGraph& g, NodeId victim,
                              const PropagationConfig& pc) {
  return propagate(
      g, {SeededRoute{victim, Announcement{kPrefix, {}, OriginRole::Victim}}},
      pc);
}

/// `got` must be the full engine's best route `want`, value for value.
void expect_same_best(const std::optional<RouteCandidate>& got,
                      const std::optional<RouteCandidate>& want,
                      std::uint32_t node, const char* what) {
  ASSERT_EQ(got.has_value(), want.has_value()) << what << " at node " << node;
  if (got.has_value()) {
    ASSERT_TRUE(candidate_eq(*got, *want))
        << what << " diverges at node " << node << ": delta path ["
        << got->ann.path_string() << "] vs full ["
        << want->ann.path_string() << "]";
  }
}

/// Sorts a rib into a canonical order so two deliveries of the same
/// multiset compare equal element-wise regardless of delivery order.
void canonicalize(std::vector<RouteCandidate>& rib) {
  std::sort(rib.begin(), rib.end(),
            [](const RouteCandidate& a, const RouteCandidate& b) {
              return std::tie(a.source, a.ann.role, a.ann.as_path, a.from_asn,
                              a.ingress_pop, a.from) <
                     std::tie(b.source, b.ann.role, b.ann.as_path, b.from_asn,
                              b.ingress_pop, b.from);
            });
}

/// Checks every node of `delta`'s current state against `full`, and every
/// node's victim-only best route against `solo`.
void expect_state_matches(const AsGraph& g, const DeltaPropagation& delta,
                          const PropagationResult& full,
                          const PropagationResult& solo) {
  std::optional<RouteCandidate> best;
  std::vector<RouteCandidate> rib;
  for (std::uint32_t i = 0; i < g.size(); ++i) {
    const NodeId n{i};
    ASSERT_EQ(delta.reachable(n), full.reachable(n)) << "node " << i;
    ASSERT_EQ(delta.role_reached(n), full.role_reached(n)) << "node " << i;

    delta.materialize_best(n, best);
    expect_same_best(best, full.best[i], i, "best route");
    delta.materialize_baseline_best(n, best);
    expect_same_best(best, solo.best[i], i, "baseline best route");
    if (::testing::Test::HasFatalFailure()) return;  // one node's report

    delta.materialize_rib(n, rib);
    std::vector<RouteCandidate> expected = full.rib_in[i];
    canonicalize(rib);
    canonicalize(expected);
    ASSERT_EQ(rib.size(), expected.size()) << "rib size at node " << i;
    for (std::size_t k = 0; k < rib.size(); ++k) {
      ASSERT_TRUE(candidate_eq(rib[k], expected[k]))
          << "rib entry " << k << " diverges at node " << i;
    }
  }
}

/// Replays `adv_ann` over `delta`'s baseline and checks every node's state
/// against a from-scratch two-origin propagation under the same config,
/// and every node's baseline against a victim-only propagation.
void expect_matches_full(const AsGraph& g, DeltaPropagation& delta,
                         NodeId victim, NodeId adversary,
                         const Announcement& adv_ann,
                         const PropagationConfig& pc) {
  const auto full = propagate(
      g,
      {SeededRoute{victim, Announcement{kPrefix, {}, OriginRole::Victim}},
       SeededRoute{adversary, adv_ann}},
      pc);
  const RouteComparator cmp(pc.tie_break, pc.tie_break_seed);
  delta.replay(adversary, adv_ann, cmp);
  expect_state_matches(g, delta, full, victim_only(g, victim, pc));
}

/// Small-but-real topology: every tier, peering mesh, geographic bias.
topo::Internet small_internet(std::uint64_t seed) {
  topo::InternetConfig cfg;
  cfg.seed = seed;
  cfg.num_tier1 = 6;
  cfg.num_tier2 = 24;
  cfg.num_tier3 = 60;
  cfg.num_stub = 110;
  return topo::Internet(cfg);
}

TEST(DeltaPropagation, RandomPairsMatchFullPropagation) {
  const topo::Internet net = small_internet(7);
  const AsGraph& g = net.graph();
  netsim::Rng rng(0xD1FF);

  for (int trial = 0; trial < 8; ++trial) {
    const NodeId victim{static_cast<std::uint32_t>(rng.index(g.size()))};
    NodeId adversary{static_cast<std::uint32_t>(rng.index(g.size()))};
    while (adversary == victim) {
      adversary = NodeId{static_cast<std::uint32_t>(rng.index(g.size()))};
    }
    // Per-pair salted comparator, as a campaign would use.
    PropagationConfig pc;
    pc.tie_break = TieBreakMode::Hashed;
    pc.tie_break_seed =
        netsim::hash_combine(0xCAFE, static_cast<std::uint64_t>(trial));

    DeltaPropagation delta;
    delta.set_victim_baseline(g, victim, kPrefix, pc);
    // Equally-specific origination, then a forged-origin prepend replayed
    // over the same baseline.
    expect_matches_full(g, delta, victim, adversary,
                        Announcement{kPrefix, {}, OriginRole::Adversary}, pc);
    expect_matches_full(
        g, delta, victim, adversary,
        Announcement{kPrefix, {g.asn_of(victim)}, OriginRole::Adversary}, pc);
  }
}

/// Randomized pairs over a topology with ROV and OTC deployed, the victim
/// holding a strict ROA on even trials and a MAX_LEN-25 one on odd trials.
/// Each pair replays a plain origination (Invalid at every enforcing AS)
/// and a forged-origin prepend (Valid).
void expect_defended_pairs_match_full(topo::Internet& net, int trials,
                                      std::uint64_t seed) {
  net.deploy_rov(0.5, 0xA2);
  net.deploy_otc(0.5, 0x07C);
  const AsGraph& g = net.graph();
  netsim::Rng rng(seed);
  DeltaPropagation delta;  // rebound per victim, as a campaign worker does

  for (int trial = 0; trial < trials; ++trial) {
    const NodeId victim = random_node(g, rng);
    NodeId adversary = random_node(g, rng);
    while (adversary == victim) adversary = random_node(g, rng);
    RoaRegistry roas;
    roas.add(Roa{kPrefix, g.asn_of(victim),
                 trial % 2 == 0 ? std::nullopt
                                : std::optional<std::uint8_t>{25}});

    PropagationConfig pc;
    pc.tie_break = TieBreakMode::Hashed;
    pc.tie_break_seed =
        netsim::hash_combine(seed, static_cast<std::uint64_t>(trial));
    pc.roas = &roas;

    delta.set_victim_baseline(g, victim, kPrefix, pc);
    expect_matches_full(g, delta, victim, adversary,
                        Announcement{kPrefix, {}, OriginRole::Adversary}, pc);
    expect_matches_full(
        g, delta, victim, adversary,
        Announcement{kPrefix, {g.asn_of(victim)}, OriginRole::Adversary}, pc);
  }
}

TEST(DeltaPropagation, RovTopologyMatchesFullPropagation) {
  topo::Internet net = small_internet(11);
  expect_defended_pairs_match_full(net, 6, 0xBEEF);
}

TEST(DeltaPropagation, ScaledInternetsMatchFullPropagation) {
  topo::Internet net5k(topo::scaled_internet_config(5000, 29));
  expect_defended_pairs_match_full(net5k, 3, 0x5000);
  topo::Internet net50k(topo::scaled_internet_config(50000, 31));
  expect_defended_pairs_match_full(net50k, 2, 0x50000);
}

TEST(DeltaPropagation, LazyBaselineSurvivesReplays) {
  // Baseline routes are decided on first query and memoized per victim,
  // but replay paths are discarded at every replay. Query a sparse handful
  // of baseline routes, replay an origin hijack, read the leaker's
  // baseline route mid-epoch (as a route leak's plan does), replay the
  // leak, drop it, and then check every node: a memoized baseline route
  // whose path lived with the replay paths would now read differently.
  topo::Internet net = small_internet(13);
  net.deploy_otc(0.5, 0x07C);
  const AsGraph& g = net.graph();
  netsim::Rng rng(0x1A2B);
  DeltaPropagation delta;
  std::optional<RouteCandidate> best;

  for (int trial = 0; trial < 8; ++trial) {
    const NodeId victim = random_node(g, rng);
    NodeId adversary = random_node(g, rng);
    while (adversary == victim) adversary = random_node(g, rng);
    PropagationConfig pc;
    pc.tie_break = TieBreakMode::Hashed;
    pc.tie_break_seed =
        netsim::hash_combine(0x1EAC, static_cast<std::uint64_t>(trial));
    const PropagationResult solo = victim_only(g, victim, pc);
    const RouteComparator cmp(pc.tie_break, pc.tie_break_seed);

    delta.set_victim_baseline(g, victim, kPrefix, pc);
    for (int q = 0; q < 4; ++q) {
      const NodeId n = random_node(g, rng);
      delta.materialize_best(n, best);
      expect_same_best(best, solo.best[n.value], n.value, "sparse query");
    }
    delta.replay(adversary, Announcement{kPrefix, {}, OriginRole::Adversary},
                 cmp);
    for (int q = 0; q < 4; ++q) {
      delta.materialize_best(random_node(g, rng), best);
    }

    std::optional<RouteCandidate> learned;
    delta.materialize_baseline_best(adversary, learned);
    expect_same_best(learned, solo.best[adversary.value], adversary.value,
                     "leaker's baseline route");
    if (learned.has_value()) {
      Announcement leak{kPrefix, learned->ann.as_path, OriginRole::Adversary};
      leak.otc = learned->ann.otc;
      delta.replay(adversary, leak, cmp);
      for (int q = 0; q < 4; ++q) {
        delta.materialize_best(random_node(g, rng), best);
      }
    }
    delta.replay_none();
    // Decide every node once before comparing, so every later interned
    // path has been written by the time a memoized one is read back.
    for (std::uint32_t i = 0; i < g.size(); ++i) {
      delta.materialize_best(NodeId{i}, best);
    }
    expect_state_matches(g, delta, solo, solo);
  }
}

TEST(DeltaPropagation, BaselineBindDecidesOnlyTheUpClosure) {
  // Binding a victim decides its up-closure (the nodes holding a
  // customer-learned route: its provider ancestry) and nothing else. An
  // eager baseline delivers about 1.6 announcements per AS.
  for (const int ases : {5000, 50000}) {
    const topo::Internet net(topo::scaled_internet_config(ases, 41));
    const AsGraph& g = net.graph();
    obs::MetricsRegistry registry;
    const PropagationMetrics metrics = PropagationMetrics::create(&registry);
    PropagationConfig pc;
    pc.metrics = &metrics;
    netsim::Rng rng(static_cast<std::uint64_t>(ases));
    DeltaPropagation delta;
    std::uint64_t flushed = 0;
    for (int trial = 0; trial < 4; ++trial) {
      const NodeId victim = random_node(g, rng);
      delta.set_victim_baseline(g, victim, kPrefix, pc);
      const std::uint64_t total =
          registry.snapshot().counter("propagation.announcements_delivered");
      EXPECT_LT((total - flushed) * 100, g.size())
          << ases << " ASes, victim " << victim.value << ": "
          << (total - flushed) << " announcements delivered";
      flushed = total;
    }
  }
}

TEST(DeltaPropagation, ManyReplaysOverOneBaseline) {
  // The campaign pattern: one victim baseline, every adversary replayed
  // over it in sequence (with a replay_none interleaved, as SubPrefix
  // attacks do). Each replay must be independent of its predecessors.
  const topo::Internet net = small_internet(23);
  const AsGraph& g = net.graph();

  const NodeId victim = net.stubs().front();
  PropagationConfig pc;
  pc.tie_break = TieBreakMode::Hashed;
  pc.tie_break_seed = 0xABCD;

  DeltaPropagation delta;
  delta.set_victim_baseline(g, victim, kPrefix, pc);

  netsim::Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    NodeId adversary{static_cast<std::uint32_t>(rng.index(g.size()))};
    while (adversary == victim) {
      adversary = NodeId{static_cast<std::uint32_t>(rng.index(g.size()))};
    }
    if (trial == 5) delta.replay_none();
    expect_matches_full(g, delta, victim, adversary,
                        Announcement{kPrefix, {}, OriginRole::Adversary}, pc);
    EXPECT_GT(delta.stats().up_recomputed, 0u);
  }
}

TEST(DeltaPropagation, ReplayNoneRestoresVictimOnlyBaseline) {
  const topo::Internet net = small_internet(31);
  const AsGraph& g = net.graph();
  const NodeId victim = net.tier3().front();
  const NodeId adversary = net.stubs().back();

  PropagationConfig pc;
  const auto victim_only = propagate(
      g, {SeededRoute{victim, Announcement{kPrefix, {}, OriginRole::Victim}}},
      pc);

  DeltaPropagation delta;
  delta.set_victim_baseline(g, victim, kPrefix, pc);
  const RouteComparator cmp(pc.tie_break, pc.tie_break_seed);
  delta.replay(adversary, Announcement{kPrefix, {}, OriginRole::Adversary},
               cmp);
  delta.replay_none();

  std::optional<RouteCandidate> best;
  for (std::uint32_t i = 0; i < g.size(); ++i) {
    const NodeId n{i};
    ASSERT_EQ(delta.reachable(n), victim_only.reachable(n)) << "node " << i;
    ASSERT_EQ(delta.role_reached(n), victim_only.role_reached(n))
        << "node " << i;
    delta.materialize_best(n, best);
    ASSERT_EQ(best.has_value(), victim_only.best[i].has_value());
    if (best.has_value()) {
      ASSERT_TRUE(candidate_eq(*best, *victim_only.best[i])) << "node " << i;
    }
  }
  EXPECT_EQ(delta.stats().up_recomputed, 0u)
      << "replay_none re-runs no decision process";
}

TEST(DeltaPropagation, RebindingRecyclesStorage) {
  // One engine object across victims, as a campaign worker uses it.
  const topo::Internet net = small_internet(47);
  const AsGraph& g = net.graph();
  PropagationConfig pc;
  pc.tie_break = TieBreakMode::Hashed;
  pc.tie_break_seed = 7;

  DeltaPropagation delta;
  for (const NodeId victim : {net.stubs()[0], net.stubs()[5], net.tier2()[1]}) {
    delta.set_victim_baseline(g, victim, kPrefix, pc);
    const NodeId adversary =
        victim == net.stubs()[0] ? net.stubs()[5] : net.stubs()[0];
    expect_matches_full(g, delta, victim, adversary,
                        Announcement{kPrefix, {}, OriginRole::Adversary}, pc);
  }
}

TEST(DeltaPropagation, GuardsAgainstMisuse) {
  const topo::Internet net = small_internet(3);
  const AsGraph& g = net.graph();
  const RouteComparator cmp(TieBreakMode::VictimFirst, 0);

  DeltaPropagation delta;
  EXPECT_THROW(delta.replay(net.stubs()[0],
                            Announcement{kPrefix, {}, OriginRole::Adversary},
                            cmp),
               std::logic_error);
  EXPECT_THROW(delta.replay_none(), std::logic_error);

  delta.set_victim_baseline(g, net.stubs()[0], kPrefix, PropagationConfig{});
  EXPECT_THROW(
      delta.replay(net.stubs()[0],
                   Announcement{kPrefix, {}, OriginRole::Adversary}, cmp),
      std::invalid_argument)
      << "adversary == victim";
  const netsim::Ipv4Prefix other = *netsim::Ipv4Prefix::parse("198.51.100.0/24");
  EXPECT_THROW(
      delta.replay(net.stubs()[1], Announcement{other, {}, OriginRole::Adversary},
                   cmp),
      std::invalid_argument)
      << "prefix mismatch";
}

}  // namespace
}  // namespace marcopolo::bgp
