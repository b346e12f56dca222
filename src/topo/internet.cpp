#include "topo/internet.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

namespace marcopolo::topo {

namespace {

struct ContinentSpec {
  Continent continent;
  netsim::GeoPoint centroid;
  double spread_deg;  ///< Jitter radius for AS placement.
  double weight;      ///< Share of ASes placed here.
};

constexpr std::array<ContinentSpec, 6> kContinents = {{
    {Continent::NorthAmerica, {40.0, -98.0}, 14.0, 0.26},
    {Continent::Europe, {50.0, 12.0}, 10.0, 0.27},
    {Continent::Asia, {26.0, 105.0}, 18.0, 0.25},
    {Continent::SouthAmerica, {-16.0, -60.0}, 10.0, 0.08},
    {Continent::Africa, {2.0, 24.0}, 14.0, 0.06},
    {Continent::Oceania, {-30.0, 146.0}, 9.0, 0.08},
}};

const ContinentSpec& spec_of(Continent c) {
  for (const ContinentSpec& s : kContinents) {
    if (s.continent == c) return s;
  }
  throw std::logic_error("unknown continent");
}

ContinentSpec pick_continent(netsim::Rng& rng) {
  double x = rng.real();
  for (const ContinentSpec& s : kContinents) {
    if (x < s.weight) return s;
    x -= s.weight;
  }
  return kContinents.front();
}

netsim::GeoPoint jitter(netsim::Rng& rng, const ContinentSpec& spec) {
  const double lat =
      spec.centroid.lat + (rng.real() * 2.0 - 1.0) * spec.spread_deg;
  const double lon =
      spec.centroid.lon + (rng.real() * 2.0 - 1.0) * spec.spread_deg * 1.6;
  return {std::clamp(lat, -85.0, 85.0),
          lon < -180.0 ? lon + 360.0 : (lon > 180.0 ? lon - 360.0 : lon)};
}

// ASN blocks per tier keep generated numbers readable in debug output, and
// stay ordered tier-1 < tier-2 < tier-3 < stub so the NeighborAsn
// tie-break's cross-tier behavior is size-independent. The tier-3 and stub
// blocks sit above every externally assigned ASN (cloud backbones 8075 /
// 15169 / 16509, Vultr sites 64512+) so a 50k+ AS topology cannot collide
// with them.
constexpr std::uint32_t kTier1Base = 100;
constexpr std::uint32_t kTier2Base = 1000;
constexpr std::uint32_t kTier3Base = 100000;
constexpr std::uint32_t kStubBase = 1000000;

}  // namespace

Internet::Internet(const InternetConfig& config) {
  if (config.num_tier1 < 2) {
    throw std::invalid_argument("need at least 2 tier-1 ASes");
  }
  netsim::Rng rng(config.seed);

  // --- Tier 1: global backbone clique. Spread across the three big
  // continents so every region has nearby backbone presence.
  netsim::Rng t1_rng = rng.fork(1);
  constexpr std::array<Continent, 3> kBackboneHomes = {
      Continent::NorthAmerica, Continent::Europe, Continent::Asia};
  for (int i = 0; i < config.num_tier1; ++i) {
    const ContinentSpec& spec =
        spec_of(kBackboneHomes[static_cast<std::size_t>(i) %
                               kBackboneHomes.size()]);
    const auto id = add_node(bgp::Asn{kTier1Base + static_cast<std::uint32_t>(i)},
                             jitter(t1_rng, spec), spec.continent,
                             AsTier::Tier1);
    tier1_.push_back(id);
  }
  for (std::size_t i = 0; i < tier1_.size(); ++i) {
    for (std::size_t j = i + 1; j < tier1_.size(); ++j) {
      graph_.add_peering(tier1_[i], tier1_[j]);
    }
  }

  // --- Tier 2: regional transit. Customers of 2-3 tier-1s (biased to the
  // home continent) and peers of a handful of other tier-2s.
  netsim::Rng t2_rng = rng.fork(2);
  for (int i = 0; i < config.num_tier2; ++i) {
    const ContinentSpec spec = pick_continent(t2_rng);
    const auto id = add_node(bgp::Asn{kTier2Base + static_cast<std::uint32_t>(i)},
                             jitter(t2_rng, spec), spec.continent,
                             AsTier::Tier2);
    tier2_.push_back(id);
    const int uplinks = 2 + static_cast<int>(t2_rng.uniform(0, 1));
    std::set<std::uint32_t> used;
    for (int u = 0; u < uplinks; ++u) {
      // Prefer a same-continent tier-1 with the configured bias.
      bgp::NodeId provider{};
      for (int attempt = 0; attempt < 16; ++attempt) {
        const bgp::NodeId cand = tier1_[t2_rng.index(tier1_.size())];
        const bool same = continent(cand) == spec.continent;
        if ((same || t2_rng.real() > config.tier2_regional_bias) &&
            !used.contains(cand.value)) {
          provider = cand;
          break;
        }
      }
      if (!provider.valid()) {
        // Fall back to any unused tier-1 so every tier-2 has transit.
        for (const bgp::NodeId cand : tier1_) {
          if (!used.contains(cand.value)) {
            provider = cand;
            break;
          }
        }
      }
      if (!provider.valid()) continue;
      used.insert(provider.value);
      graph_.add_provider_customer(provider, id);
    }
  }
  // Tier-2 peering mesh, continent-biased.
  netsim::Rng peer_rng = rng.fork(3);
  std::set<std::pair<std::uint32_t, std::uint32_t>> peered;
  for (const bgp::NodeId a : tier2_) {
    for (int p = 0; p < config.tier2_peers; ++p) {
      for (int attempt = 0; attempt < 24; ++attempt) {
        const bgp::NodeId b = tier2_[peer_rng.index(tier2_.size())];
        if (b == a) continue;
        const bool same = continent(a) == continent(b);
        if (!same && peer_rng.real() < 0.7) continue;
        const auto key = std::minmax(a.value, b.value);
        if (peered.contains({key.first, key.second})) continue;
        peered.insert({key.first, key.second});
        graph_.add_peering(a, b);
        break;
      }
    }
  }

  // The tier-2 layer is complete; build the k-NN index every nearest_tier2
  // query below (and after construction) runs against.
  {
    std::vector<netsim::GeoPoint> tier2_points;
    tier2_points.reserve(tier2_.size());
    for (const bgp::NodeId n : tier2_) tier2_points.push_back(location(n));
    tier2_index_.emplace(tier2_points);
  }

  // --- Tier 3: access networks buying transit from nearby tier-2s.
  netsim::Rng t3_rng = rng.fork(4);
  for (int i = 0; i < config.num_tier3; ++i) {
    const ContinentSpec spec = pick_continent(t3_rng);
    const netsim::GeoPoint where = jitter(t3_rng, spec);
    const auto id = add_node(bgp::Asn{kTier3Base + static_cast<std::uint32_t>(i)},
                             where, spec.continent, AsTier::Tier3);
    tier3_.push_back(id);
    const auto candidates = nearest_tier2(where, 8);
    const int uplinks =
        std::min<int>(2, static_cast<int>(candidates.size()));
    std::set<std::uint32_t> used;
    for (int u = 0; u < uplinks; ++u) {
      // Redraw on a duplicate: giving up on a collision silently left an
      // AS configured for 2 uplinks single-homed.
      bgp::NodeId provider{};
      for (int attempt = 0; attempt < 16 && !provider.valid(); ++attempt) {
        const bgp::NodeId cand = candidates[t3_rng.index(candidates.size())];
        if (!used.contains(cand.value)) provider = cand;
      }
      if (!provider.valid()) continue;
      used.insert(provider.value);
      graph_.add_provider_customer(provider, id);
    }
    if (t3_rng.chance(config.tier3_tier1_uplink)) {
      graph_.add_provider_customer(tier1_[t3_rng.index(tier1_.size())], id);
    }
  }

  // --- Stubs: leaf ASes on tier-2/tier-3 providers.
  netsim::Rng stub_rng = rng.fork(5);
  for (int i = 0; i < config.num_stub; ++i) {
    const ContinentSpec spec = pick_continent(stub_rng);
    const netsim::GeoPoint where = jitter(stub_rng, spec);
    const auto id = add_node(bgp::Asn{kStubBase + static_cast<std::uint32_t>(i)},
                             where, spec.continent, AsTier::Stub);
    stubs_.push_back(id);
    // The draws read only the tier-2 pool's size, so the nearest-tier-2
    // query waits until a draw first picks that pool; over a third of
    // stubs never do.
    const std::size_t pool2 = std::min<std::size_t>(6, tier2_.size());
    std::vector<bgp::NodeId> near2;
    const int uplinks = 1 + static_cast<int>(stub_rng.uniform(0, 1));
    std::set<std::uint32_t> used;
    for (int u = 0; u < uplinks; ++u) {
      // Redraw the whole provider choice (pool coin included) on a
      // duplicate instead of dropping the uplink.
      bgp::NodeId provider{};
      for (int attempt = 0; attempt < 16 && !provider.valid(); ++attempt) {
        bgp::NodeId cand{};
        if (!tier3_.empty() && stub_rng.chance(0.5)) {
          cand = tier3_[stub_rng.index(tier3_.size())];
        } else if (pool2 > 0) {
          if (near2.empty()) near2 = nearest_tier2(where, pool2);
          cand = near2[stub_rng.index(pool2)];
        }
        if (cand.valid() && !used.contains(cand.value)) provider = cand;
      }
      if (!provider.valid()) continue;
      used.insert(provider.value);
      graph_.add_provider_customer(provider, id);
    }
  }

  graph_.validate();
}

bgp::NodeId Internet::add_node(bgp::Asn asn, netsim::GeoPoint where,
                               Continent c, AsTier t) {
  const bgp::NodeId id = graph_.add_as(asn);
  location_.push_back(where);
  continent_.push_back(c);
  tier_.push_back(t);
  return id;
}

bgp::NodeId Internet::add_leaf_as(bgp::Asn asn, netsim::GeoPoint where,
                                  Continent c) {
  return add_node(asn, where, c, AsTier::Stub);
}

std::vector<bgp::NodeId> Internet::nearest_tier2(netsim::GeoPoint where,
                                                 std::size_t count) const {
  // The index returns positions into tier2_ ascending by distance with
  // ties broken by position — the same set and order the old full
  // stable_sort selected, without the O(T2 log T2) per query.
  const auto picked = tier2_index_->nearest(where, count);
  std::vector<bgp::NodeId> out;
  out.reserve(picked.size());
  for (const std::uint32_t i : picked) out.push_back(tier2_[i]);
  return out;
}

InternetConfig scaled_internet_config(int total_ases, std::uint64_t seed) {
  if (total_ases < 64) {
    throw std::invalid_argument("scaled_internet_config needs >= 64 ASes");
  }
  InternetConfig cfg;
  cfg.seed = seed;
  // 12-16 backbone networks regardless of size; the transit and access
  // layers grow with the population.
  cfg.num_tier1 = std::clamp(12 + total_ases / 16000, 12, 16);
  cfg.num_tier2 = std::max(8, total_ases * 3 / 100);
  cfg.num_tier3 = std::max(8, total_ases * 12 / 100);
  cfg.num_stub =
      std::max(8, total_ases - cfg.num_tier1 - cfg.num_tier2 - cfg.num_tier3);
  return cfg;
}

bgp::NodeId Internet::tier1_for(std::uint64_t salt) const {
  return tier1_[netsim::splitmix64(salt) % tier1_.size()];
}

namespace {

/// Set one defense flag on every AS: each transit AS draws it with
/// probability `fraction`, in node order; every other AS is cleared.
void deploy_flag(bgp::AsGraph& graph, const std::vector<AsTier>& tiers,
                 double fraction, std::uint64_t seed,
                 void (bgp::AsGraph::*set)(bgp::NodeId, bool)) {
  netsim::Rng rng(seed);
  for (std::uint32_t i = 0; i < graph.size(); ++i) {
    (graph.*set)(bgp::NodeId{i}, i < tiers.size() &&
                                     tiers[i] != AsTier::Stub &&
                                     rng.chance(fraction));
  }
}

}  // namespace

void Internet::deploy_rov(double fraction, std::uint64_t seed) {
  deploy_flag(graph_, tier_, fraction, seed, &bgp::AsGraph::set_rov_enforcing);
}

void Internet::deploy_otc(double fraction, std::uint64_t seed) {
  deploy_flag(graph_, tier_, fraction, seed, &bgp::AsGraph::set_otc_enforcing);
}

}  // namespace marcopolo::topo
