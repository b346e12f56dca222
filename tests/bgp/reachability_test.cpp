// Differential oracle for the sub-prefix plane's lazy reachability query:
// a HijackScenario re-evaluated incrementally (victim baseline + the
// single-origin closure of bgp/reachability.hpp) must answer every
// more-specific query exactly as a full reset() — which floods the /25
// through the three-phase engine — does. Randomized pairs on 600- and
// 5k-AS Internets, across transit ROV deployment {0, 0.5, 1}, per-victim
// ROAs {strict, MAX_LEN 25} and OTC deployment {0, 0.5}: reached() at
// every node, and holds_more_specific() at every node with no edge ROAs
// and with either ROA flavour at the edge.
#include "bgp/reachability.hpp"

#include <gtest/gtest.h>

#include <array>
#include <optional>

#include "bgp/delta.hpp"
#include "bgp/scenario.hpp"
#include "netsim/random.hpp"
#include "topo/internet.hpp"

namespace marcopolo::bgp {
namespace {

const netsim::Ipv4Prefix kPrefix = *netsim::Ipv4Prefix::parse("203.0.113.0/24");

NodeId random_node(const AsGraph& g, netsim::Rng& rng) {
  return NodeId{static_cast<std::uint32_t>(rng.index(g.size()))};
}

/// Redeploy ROV and OTC from scratch on an existing Internet.
void redeploy(topo::Internet& net, double rov, double otc) {
  AsGraph& g = net.graph();
  for (std::uint32_t i = 0; i < g.size(); ++i) {
    g.set_rov_enforcing(NodeId{i}, false);
    g.set_otc_enforcing(NodeId{i}, false);
  }
  net.deploy_rov(rov, 0xA2);
  net.deploy_otc(otc, 0x07C);
}

/// Evaluates SubPrefix pairs through both engines over every deployment
/// of the grid and compares every node's more-specific answers.
void expect_grid_matches_full(topo::Internet& net, int pairs,
                              std::uint64_t seed) {
  const AsGraph& g = net.graph();
  netsim::Rng rng(seed);
  PropagationWorkspace ws;
  HijackScenario full;
  HijackScenario incremental;  // recycled across pairs, as a worker does
  DeltaPropagation delta;
  std::size_t held_anywhere = 0;
  std::size_t filtered_anywhere = 0;

  for (const double rov : {0.0, 0.5, 1.0}) {
    for (const double otc : {0.0, 0.5}) {
      redeploy(net, rov, otc);
      for (int trial = 0; trial < pairs; ++trial) {
        const NodeId victim = random_node(g, rng);
        NodeId adversary = random_node(g, rng);
        while (adversary == victim) adversary = random_node(g, rng);
        const Asn victim_asn = g.asn_of(victim);
        // Both ROA flavours exist at once so either can serve as the
        // transit registry and as the edge registry.
        RoaRegistry strict;
        strict.add(Roa{kPrefix, victim_asn, std::nullopt});
        RoaRegistry loose;
        loose.add(Roa{kPrefix, victim_asn, std::uint8_t{25}});
        const std::array<const RoaRegistry*, 3> edges = {nullptr, &strict,
                                                         &loose};

        for (const RoaRegistry* transit : {&strict, &loose}) {
          ScenarioConfig sc;
          sc.type = AttackType::SubPrefix;
          sc.tie_break = TieBreakMode::Hashed;
          sc.tie_break_seed =
              netsim::hash_combine(seed, static_cast<std::uint64_t>(trial));
          sc.roas = transit;
          full.reset(g, victim, adversary, kPrefix, sc, ws);

          PropagationConfig pc;
          pc.tie_break = sc.tie_break;
          pc.tie_break_seed = sc.tie_break_seed;
          pc.roas = transit;
          delta.set_victim_baseline(g, victim, kPrefix, pc);
          incremental.reset_incremental(delta, adversary, sc, ws);

          const auto where = [&](std::uint32_t i) {
            return ::testing::Message()
                   << "node " << i << ", victim " << victim.value
                   << ", adversary " << adversary.value << ", rov " << rov
                   << ", otc " << otc << ", "
                   << (transit == &strict ? "strict" : "MAX_LEN 25")
                   << " ROA";
          };
          // Cold memo first: a few scattered backbone-style queries before
          // the exhaustive sweep warms every slot.
          for (int q = 0; q < 4; ++q) {
            const NodeId n = random_node(g, rng);
            ASSERT_EQ(incremental.holds_more_specific(n, &strict),
                      full.holds_more_specific(n, &strict))
                << where(n.value);
          }
          for (std::uint32_t i = 0; i < g.size(); ++i) {
            const NodeId n{i};
            ASSERT_EQ(incremental.reached(n), full.reached(n)) << where(i);
            for (const RoaRegistry* edge : edges) {
              const bool held = full.holds_more_specific(n, edge);
              ASSERT_EQ(incremental.holds_more_specific(n, edge), held)
                  << where(i) << ", edge registry " << edge;
              if (edge == nullptr && held) ++held_anywhere;
              if (edge != nullptr && !held &&
                  full.holds_more_specific(n, nullptr)) {
                ++filtered_anywhere;
              }
            }
          }
          ASSERT_EQ(incremental.reached(victim), OriginReached::Victim)
              << "the victim drops the forged /25 as an AS-path loop";
        }
      }
    }
  }
  // The grid must exercise both answers, including edge-ROA filtering.
  EXPECT_GT(held_anywhere, 0u);
  EXPECT_GT(filtered_anywhere, 0u);
}

TEST(SubPrefixReach, IncrementalMatchesFullAt600Ases) {
  topo::Internet net(topo::scaled_internet_config(600, 17));
  expect_grid_matches_full(net, 8, 0x600);
}

TEST(SubPrefixReach, IncrementalMatchesFullAt5kAses) {
  topo::Internet net(topo::scaled_internet_config(5000, 29));
  expect_grid_matches_full(net, 4, 0x5000);
}

TEST(SubPrefixReach, PlainOriginationMatchesFlood) {
  // An empty seeded path: every copy's origin is the seeding AS itself,
  // and its own Self seed must survive any edge ROA (a ROV filter never
  // inspects an empty path).
  topo::Internet net(topo::scaled_internet_config(600, 5));
  net.deploy_rov(0.5, 0x31);
  const AsGraph& g = net.graph();
  netsim::Rng rng(0x0121);
  SingleOriginReach reach;
  for (int trial = 0; trial < 6; ++trial) {
    const NodeId origin = random_node(g, rng);
    const NodeId owner = random_node(g, rng);
    RoaRegistry roas;  // the prefix belongs to `owner`
    roas.add(Roa{kPrefix, g.asn_of(owner), std::nullopt});
    const Announcement ann{kPrefix, {}, OriginRole::Adversary};
    PropagationConfig pc;
    pc.roas = &roas;
    const PropagationResult flood =
        propagate(g, {SeededRoute{origin, ann}}, pc);
    reach.reset(g, origin, ann, &roas);
    for (std::uint32_t i = 0; i < g.size(); ++i) {
      const NodeId n{i};
      ASSERT_EQ(reach.reaches(n), flood.reachable(n))
          << "node " << i << ", origin " << origin.value;
      const bool valid_edge = reach.holds_valid(n, &roas);
      if (n == origin) {
        ASSERT_TRUE(valid_edge) << "the origin's own seed is never filtered";
      } else if (origin != owner) {
        ASSERT_FALSE(valid_edge) << "node " << i << ": wrong origin, Invalid";
      } else {
        ASSERT_EQ(valid_edge, flood.reachable(n)) << "node " << i;
      }
    }
  }
}

TEST(SubPrefixReach, GuardsAgainstMisuse) {
  topo::Internet net(topo::scaled_internet_config(600, 3));
  const AsGraph& g = net.graph();
  SingleOriginReach reach;
  Announcement marked{kPrefix, {}, OriginRole::Adversary};
  marked.otc = Asn{64500};
  EXPECT_THROW(reach.reset(g, NodeId{0}, marked, nullptr),
               std::invalid_argument)
      << "an OTC-marked seed can be refused on a valley-free edge";
  EXPECT_THROW(reach.reset(g, NodeId{static_cast<std::uint32_t>(g.size())},
                           Announcement{kPrefix, {}, OriginRole::Adversary},
                           nullptr),
               std::invalid_argument);

  // Incremental scenarios expose no primary flood state; the more-specific
  // is answered by the closure.
  DeltaPropagation delta;
  delta.set_victim_baseline(g, net.stubs()[0], kPrefix, PropagationConfig{});
  PropagationWorkspace ws;
  HijackScenario s;
  ScenarioConfig sc;
  sc.type = AttackType::SubPrefix;
  s.reset_incremental(delta, net.stubs()[1], sc, ws);
  EXPECT_THROW((void)s.primary(), std::logic_error);
  EXPECT_TRUE(s.holds_more_specific(net.stubs()[1]));
}

}  // namespace
}  // namespace marcopolo::bgp
