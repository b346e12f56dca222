// Seeded synthetic Internet generator.
//
// The paper measures hijack outcomes on the real Internet; we substitute a
// synthetic AS topology with the structural properties that matter for
// equally-specific hijacks (DESIGN.md §2): a tier-1 clique, a continental
// transit hierarchy, dense regional peering, and geographic embedding.
// Everything is driven by a single seed, so the same config regenerates the
// identical Internet.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bgp/as_graph.hpp"
#include "netsim/geo.hpp"
#include "netsim/random.hpp"
#include "topo/rir.hpp"
#include "topo/spatial_index.hpp"

namespace marcopolo::topo {

struct InternetConfig {
  std::uint64_t seed = 42;
  /// Global backbone ASes, fully meshed by peering ("tier-1 clique").
  int num_tier1 = 12;
  /// Regional transit providers (customers of 2-3 tier-1s, peer regionally).
  int num_tier2 = 96;
  /// Access networks (customers of tier-2s).
  int num_tier3 = 280;
  /// Stub / edge ASes. They originate nothing in our experiments but make
  /// the topology realistic.
  int num_stub = 520;
  /// Probability that a tier-2's provider is chosen from its own continent.
  double tier2_regional_bias = 0.6;
  /// Peering links per tier-2 (drawn mostly within the continent).
  int tier2_peers = 4;
  /// Probability that a tier-3 additionally buys transit from a tier-1.
  double tier3_tier1_uplink = 0.15;
};

/// Config preset for an Internet-scale topology of roughly `total_ases`
/// ASes, keeping the default config's tier proportions near the real
/// Internet's (~3% regional transit, ~12% access, ~85% stubs) so the
/// single-perspective resilience calibration (~50%) carries over.
/// Requires total_ases >= 64.
[[nodiscard]] InternetConfig scaled_internet_config(int total_ases,
                                                    std::uint64_t seed = 42);

/// The seeds every ROV / OTC deployment sweep uses unless it names its own.
inline constexpr std::uint64_t kDefaultRovSeed = 0x50A;
inline constexpr std::uint64_t kDefaultOtcSeed = 0x07C;

/// One AS tier, stored as metadata for attachment helpers.
enum class AsTier : std::uint8_t { Tier1 = 1, Tier2 = 2, Tier3 = 3, Stub = 4 };

/// A generated Internet: the graph plus per-AS metadata and index lists.
class Internet {
 public:
  explicit Internet(const InternetConfig& config);

  [[nodiscard]] bgp::AsGraph& graph() { return graph_; }
  [[nodiscard]] const bgp::AsGraph& graph() const { return graph_; }

  [[nodiscard]] netsim::GeoPoint location(bgp::NodeId n) const {
    return location_.at(n.value);
  }
  [[nodiscard]] Continent continent(bgp::NodeId n) const {
    return continent_.at(n.value);
  }
  [[nodiscard]] Rir rir(bgp::NodeId n) const {
    return rir_of(continent_.at(n.value));
  }
  [[nodiscard]] AsTier tier(bgp::NodeId n) const { return tier_.at(n.value); }

  [[nodiscard]] const std::vector<bgp::NodeId>& tier1() const { return tier1_; }
  [[nodiscard]] const std::vector<bgp::NodeId>& tier2() const { return tier2_; }
  [[nodiscard]] const std::vector<bgp::NodeId>& tier3() const { return tier3_; }
  [[nodiscard]] const std::vector<bgp::NodeId>& stubs() const { return stubs_; }

  /// Add a new leaf AS at `where` (used for Vultr sites and cloud
  /// backbones, which are wired by their own builders).
  bgp::NodeId add_leaf_as(bgp::Asn asn, netsim::GeoPoint where, Continent c);

  /// The `count` nearest tier-2 transit providers to a point.
  [[nodiscard]] std::vector<bgp::NodeId> nearest_tier2(netsim::GeoPoint where,
                                                       std::size_t count) const;

  /// Deterministically pick a tier-1 for an attachment, spreading choices
  /// across the clique ("different tier-1 cones", paper §4.4.2).
  [[nodiscard]] bgp::NodeId tier1_for(std::uint64_t salt) const;

  /// Mark a fraction of transit ASes (tier-1/2/3) as ROV-enforcing, chosen
  /// deterministically from `seed` and the node order. Replaces any
  /// previous ROV deployment, so one built topology serves a whole sweep
  /// of deployments.
  void deploy_rov(double fraction, std::uint64_t seed);

  /// Mark a fraction of transit ASes as enforcing RFC 9234 OTC (route-leak
  /// marking and rejection), chosen and replaced like deploy_rov.
  /// Independent of deploy_rov: distinct seeds give partially overlapping
  /// ROV/OTC deployments, as in the real Internet.
  void deploy_otc(double fraction, std::uint64_t seed);

 private:
  bgp::NodeId add_node(bgp::Asn asn, netsim::GeoPoint where, Continent c,
                       AsTier tier);

  bgp::AsGraph graph_;
  std::vector<netsim::GeoPoint> location_;
  std::vector<Continent> continent_;
  std::vector<AsTier> tier_;
  std::vector<bgp::NodeId> tier1_, tier2_, tier3_, stubs_;
  /// k-NN index over tier-2 locations, built once after the tier-2 layer is
  /// placed (the tier-2 set never changes afterwards) and used for every
  /// nearest_tier2 query, including the tier-3/stub attachment loops of the
  /// constructor itself.
  std::optional<SpatialIndex> tier2_index_;
};

}  // namespace marcopolo::topo
