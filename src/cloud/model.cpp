#include "cloud/model.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>
#include <set>

namespace marcopolo::cloud {

namespace {

/// Distance charged to a route whose ingress POP is unknown: antipodal.
constexpr double kUnknownPopKm = 20037.0;

bgp::OriginReached outcome_of(const bgp::RouteCandidate* chosen) {
  if (chosen == nullptr) return bgp::OriginReached::None;
  return chosen->ann.role == bgp::OriginRole::Victim
             ? bgp::OriginReached::Victim
             : bgp::OriginReached::Adversary;
}

}  // namespace

std::uint8_t zone_of(topo::Continent c, ZoneGranularity g) {
  if (g == ZoneGranularity::Continent) return static_cast<std::uint8_t>(c);
  switch (c) {
    case topo::Continent::NorthAmerica:
    case topo::Continent::SouthAmerica:
      return 0;  // Americas
    case topo::Continent::Europe:
    case topo::Continent::Africa:
      return 1;  // EMEA
    case topo::Continent::Asia:
    case topo::Continent::Oceania:
      return 2;  // APAC
  }
  return 0;
}

CloudConfig default_config(topo::CloudProvider provider) {
  CloudConfig cfg;
  cfg.provider = provider;
  switch (provider) {
    case topo::CloudProvider::Aws:
      cfg.asn = bgp::Asn{16509};
      cfg.policy = EgressPolicy::HotPotato;
      cfg.peers_per_pop = 2;
      cfg.wiring_seed = 0xA05;
      break;
    case topo::CloudProvider::Gcp:
      cfg.asn = bgp::Asn{15169};
      cfg.policy = EgressPolicy::ColdPotato;  // Premium Tier (paper §5.2)
      cfg.peers_per_pop = 2;
      cfg.wiring_seed = 0x6C9;
      break;
    case topo::CloudProvider::Azure:
      cfg.asn = bgp::Asn{8075};
      cfg.policy = EgressPolicy::HotPotato;
      cfg.peers_per_pop = 3;  // densest peering fabric of the three
      cfg.wiring_seed = 0xA72;
      break;
    case topo::CloudProvider::Vultr:
      throw std::invalid_argument("Vultr is the node pool, not a perspective host");
    case topo::CloudProvider::Peering:
      throw std::invalid_argument(
          "PEERING is a node pool, not a perspective host");
  }
  return cfg;
}

CloudProviderModel::CloudProviderModel(topo::Internet& internet,
                                       const CloudConfig& config)
    : config_(config), regions_(topo::regions_of(config.provider)) {
  if (regions_.empty()) {
    throw std::invalid_argument("provider has no catalog regions");
  }
  netsim::Rng rng(config.wiring_seed);

  // The backbone AS "lives" at its first region for metadata purposes.
  graph_ = &internet.graph();
  backbone_ = internet.add_leaf_as(config.asn, regions_.front().location,
                                   regions_.front().continent);

  std::vector<netsim::GeoPoint> pop_location;  // by PopId
  pop_location.reserve(regions_.size());
  pop_zone_.reserve(regions_.size());
  for (const topo::RegionInfo& r : regions_) {
    pop_location.push_back(r.location);
    pop_zone_.push_back(zone_of(r.continent, config.zones));
  }

  // Egress distance table: great_circle_km from each decision point this
  // policy reads (each region's VM under hot potato, each backbone-zone
  // centroid under cold potato) to each POP, plus a last column for an
  // unknown POP. It is the same function of the same points a
  // per-perspective selection would evaluate, so the 1e-9 tie
  // comparisons see the same doubles.
  const std::size_t columns = regions_.size() + 1;
  if (config.policy == EgressPolicy::HotPotato) {
    // Rows are the POPs themselves. great_circle_km is symmetric to the
    // bit (sin is odd and products commute; EgressClassify checks every
    // catalog), so each pair is computed once.
    egress_km_.assign(regions_.size() * columns, kUnknownPopKm);
    for (std::size_t row = 0; row < regions_.size(); ++row) {
      for (std::size_t pop = row; pop < regions_.size(); ++pop) {
        const double km =
            netsim::great_circle_km(pop_location[row], pop_location[pop]);
        egress_km_[row * columns + pop] = km;
        egress_km_[pop * columns + row] = km;
      }
    }
  } else {
    std::vector<netsim::GeoPoint> centroid(topo::kAllContinents.size());
    std::vector<std::size_t> zone_pop_count(centroid.size(), 0);
    for (std::size_t pop = 0; pop < regions_.size(); ++pop) {
      const auto z = static_cast<std::size_t>(pop_zone_[pop]);
      centroid[z].lat += pop_location[pop].lat;
      centroid[z].lon += pop_location[pop].lon;
      ++zone_pop_count[z];
    }
    egress_km_.reserve(centroid.size() * columns);
    for (std::size_t z = 0; z < centroid.size(); ++z) {
      if (zone_pop_count[z] > 0) {
        centroid[z].lat /= static_cast<double>(zone_pop_count[z]);
        centroid[z].lon /= static_cast<double>(zone_pop_count[z]);
      }
      for (const netsim::GeoPoint& pop : pop_location) {
        egress_km_.push_back(netsim::great_circle_km(centroid[z], pop));
      }
      egress_km_.push_back(kUnknownPopKm);
    }
  }

  auto& graph = internet.graph();

  // Peering: at every POP, sessions with the nearest regional tier-2s.
  for (std::size_t pop = 0; pop < regions_.size(); ++pop) {
    const auto near2 = internet.nearest_tier2(pop_location[pop], 6);
    std::set<std::uint32_t> used;
    int added = 0;
    for (int attempt = 0;
         attempt < 18 && added < config.peers_per_pop && !near2.empty();
         ++attempt) {
      const bgp::NodeId peer = near2[rng.index(near2.size())];
      if (used.contains(peer.value)) continue;
      used.insert(peer.value);
      graph.add_peering(backbone_, peer,
                        bgp::PopId{static_cast<std::uint16_t>(pop)},
                        bgp::PopId{});
      ++added;
    }
  }

  // Transit: contracts with distinct tier-1s, attached at the POP nearest
  // each tier-1's home.
  std::set<std::uint32_t> transit_used;
  for (int t = 0; t < config.transit_tier1_count; ++t) {
    bgp::NodeId tier1{};
    for (int attempt = 0; attempt < 16; ++attempt) {
      const bgp::NodeId cand = internet.tier1_for(
          netsim::hash_combine(config.wiring_seed, static_cast<std::uint64_t>(
                                                       t * 16 + attempt)));
      if (!transit_used.contains(cand.value)) {
        tier1 = cand;
        break;
      }
    }
    if (!tier1.valid()) break;
    transit_used.insert(tier1.value);

    std::size_t best_pop = 0;
    double best_km = std::numeric_limits<double>::max();
    for (std::size_t pop = 0; pop < pop_location.size(); ++pop) {
      const double km = netsim::great_circle_km(internet.location(tier1),
                                                pop_location[pop]);
      if (km < best_km) {
        best_km = km;
        best_pop = pop;
      }
    }
    graph.add_provider_customer(tier1, backbone_, bgp::PopId{},
                                bgp::PopId{static_cast<std::uint16_t>(best_pop)});
  }
}

// The journal-facing VerdictStep mirrors bgp::DecisionStep value-for-value
// (obs sits below bgp in the library stack, so it keeps its own copy).
static_assert(static_cast<int>(obs::VerdictStep::LocalPref) ==
              static_cast<int>(bgp::DecisionStep::LocalPref));
static_assert(static_cast<int>(obs::VerdictStep::PathLength) ==
              static_cast<int>(bgp::DecisionStep::PathLength));
static_assert(static_cast<int>(obs::VerdictStep::RouteAge) ==
              static_cast<int>(bgp::DecisionStep::RouteAge));
static_assert(static_cast<int>(obs::VerdictStep::NeighborAsn) ==
              static_cast<int>(bgp::DecisionStep::NeighborAsn));
static_assert(static_cast<int>(obs::VerdictStep::IngressPop) ==
              static_cast<int>(bgp::DecisionStep::IngressPop));

CloudProviderModel::EgressClass CloudProviderModel::prepare(
    std::span<const bgp::RouteCandidate> rib, const bgp::RouteComparator& cmp,
    const bgp::RoaRegistry* roas, EgressScratch& scratch) const {
  // Drop RPKI-invalid candidates if the backbone enforces ROV. Each kept
  // candidate's ingress POP becomes its distance-table column.
  auto& members = scratch.members_;
  members.clear();
  members.reserve(rib.size());
  const std::size_t unknown_column = regions_.size();
  for (const bgp::RouteCandidate& c : rib) {
    if (c.ingress_pop.valid() && c.ingress_pop.value >= regions_.size()) {
      throw std::out_of_range("ingress POP index");
    }
    if (!bgp::passes_rov(c.ann, roas)) continue;
    members.push_back(EgressScratch::Member{
        &c, c.ingress_pop.valid() ? c.ingress_pop.value : unknown_column});
  }

  EgressClass cls;
  cls.age_preferred = cmp.preferred_role(backbone_);
  if (members.empty()) return cls;

  // Global BGP attribute comparison: best (local preference, path length)
  // class. Everything in this class is "equally good" to BGP; the egress
  // policy breaks the remaining tie.
  bgp::RouteSource best_src = bgp::RouteSource::Provider;
  for (const auto& m : members) best_src = std::min(best_src, m.route->source);
  std::size_t best_len = std::numeric_limits<std::size_t>::max();
  for (const auto& m : members) {
    if (m.route->source == best_src) {
      best_len = std::min(best_len, m.route->ann.path_length());
    }
  }

  // Provenance: contested means both origins survived ROV; the deciding
  // step is the first attribute whose per-role bests differ, falling
  // through to the egress-policy stage when both roles make the class.
  bool has_role[2] = {false, false};
  bgp::RouteSource role_src[2] = {bgp::RouteSource::Provider,
                                  bgp::RouteSource::Provider};
  std::size_t role_len[2] = {std::numeric_limits<std::size_t>::max(),
                             std::numeric_limits<std::size_t>::max()};
  for (const auto& m : members) {
    const auto r = static_cast<std::size_t>(m.route->ann.role);
    has_role[r] = true;
    role_src[r] = std::min(role_src[r], m.route->source);
    if (m.route->source == best_src) {
      role_len[r] = std::min(role_len[r], m.route->ann.path_length());
    }
  }
  cls.why.contested = has_role[0] && has_role[1];
  if (cls.why.contested) {
    if (role_src[0] != role_src[1]) {
      cls.why.decided_by = obs::VerdictStep::LocalPref;
    } else if (role_len[0] != role_len[1]) {
      cls.why.decided_by = obs::VerdictStep::PathLength;
    } else {
      cls.policy_decides = true;
    }
  }

  std::erase_if(members, [&](const EgressScratch::Member& m) {
    return m.route->source != best_src ||
           m.route->ann.path_length() != best_len;
  });
  cls.members = members;
  return cls;
}

const bgp::RouteCandidate* CloudProviderModel::pick(
    std::size_t row, const EgressClass& cls, const bgp::RouteComparator& cmp,
    ResolveExplanation& why) const {
  if (cls.members.empty()) return nullptr;
  const double* km_from = egress_km_.data() + row * (regions_.size() + 1);

  if (config_.policy == EgressPolicy::HotPotato) {
    // Prefer the candidate whose ingress POP is nearest this region's VM;
    // equal distances fall through to the route-age preference, then
    // deterministic identifiers.
    const auto attribute_tiebreak = [&](const bgp::RouteCandidate& a,
                                        const bgp::RouteCandidate& b) {
      if (a.ann.role != b.ann.role) return a.ann.role == cls.age_preferred;
      if (a.from_asn != b.from_asn) return a.from_asn < b.from_asn;
      return a.ingress_pop < b.ingress_pop;
    };
    const bgp::RouteCandidate* best = nullptr;
    double best_km = std::numeric_limits<double>::max();
    double role_km[2] = {std::numeric_limits<double>::max(),
                         std::numeric_limits<double>::max()};
    for (const auto& m : cls.members) {
      const bgp::RouteCandidate& c = *m.route;
      const double km = km_from[m.column];
      auto& slot = role_km[static_cast<std::size_t>(c.ann.role)];
      slot = std::min(slot, km);
      if (best == nullptr || km < best_km - 1e-9 ||
          (std::abs(km - best_km) <= 1e-9 && attribute_tiebreak(c, *best))) {
        best = &c;
        best_km = km;
      }
    }
    if (cls.policy_decides) {
      // Geography decided iff one role's nearest ingress is strictly
      // closer; an exact distance tie falls to the route-age preference.
      why.decided_by = std::abs(role_km[0] - role_km[1]) > 1e-9
                           ? obs::VerdictStep::IngressPop
                           : obs::VerdictStep::RouteAge;
    }
    return best;
  }

  // Cold potato: `row` is a backbone zone, and its winner is shared by
  // every VM in the zone — this is what erases intra-zone perspective
  // diversity (§5.2). Among the equal-attribute class, the zone's border
  // routers prefer the origin whose ingress is decisively closer to the
  // zone (the backbone carries traffic to the egress nearest the
  // destination); when both origins' ingresses are comparably close the
  // zone is contested and the per-attack, per-zone route-age coin decides
  // arrival order.
  double best_km[2] = {std::numeric_limits<double>::max(),
                       std::numeric_limits<double>::max()};
  for (const auto& m : cls.members) {
    auto& slot = best_km[static_cast<std::size_t>(m.route->ann.role)];
    slot = std::min(slot, km_from[m.column]);
  }
  const double victim_km = best_km[static_cast<std::size_t>(
      bgp::OriginRole::Victim)];
  const double adversary_km = best_km[static_cast<std::size_t>(
      bgp::OriginRole::Adversary)];

  bgp::OriginRole preferred;
  bool geo_decided = true;
  if (adversary_km < config_.geo_margin * victim_km) {
    preferred = bgp::OriginRole::Adversary;
  } else if (victim_km < config_.geo_margin * adversary_km) {
    preferred = bgp::OriginRole::Victim;
  } else {
    preferred = cmp.preferred_role(backbone_, row);
    geo_decided = false;
  }
  if (cls.policy_decides) {
    why.decided_by = geo_decided ? obs::VerdictStep::IngressPop
                                 : obs::VerdictStep::RouteAge;
  }

  const auto zone_tiebreak = [&](const bgp::RouteCandidate& a,
                                 const bgp::RouteCandidate& b) {
    if (a.ann.role != b.ann.role) return a.ann.role == preferred;
    if (a.from_asn != b.from_asn) return a.from_asn < b.from_asn;
    return a.ingress_pop < b.ingress_pop;
  };
  const bgp::RouteCandidate* best = nullptr;
  for (const auto& m : cls.members) {
    if (best == nullptr || zone_tiebreak(*m.route, *best)) best = m.route;
  }
  return best;
}

const bgp::RouteCandidate* CloudProviderModel::select_egress(
    std::size_t perspective, std::span<const bgp::RouteCandidate> rib,
    const bgp::RouteComparator& cmp, const bgp::RoaRegistry* roas) const {
  check_perspective(perspective);
  EgressScratch scratch;
  const EgressClass cls = prepare(rib, cmp, roas, scratch);
  ResolveExplanation why = cls.why;
  const std::size_t row = config_.policy == EgressPolicy::HotPotato
                              ? perspective
                              : pop_zone_[perspective];
  return pick(row, cls, cmp, why);
}

void CloudProviderModel::select_all(std::span<const bgp::RouteCandidate> rib,
                                    const bgp::RouteComparator& cmp,
                                    const bgp::RoaRegistry* roas,
                                    EgressScratch& scratch,
                                    std::span<ResolveExplanation> out) const {
  check_verdicts(out);
  const EgressClass cls = prepare(rib, cmp, roas, scratch);
  const auto decide = [&](std::size_t row) {
    ResolveExplanation why = cls.why;
    why.outcome = outcome_of(pick(row, cls, cmp, why));
    return why;
  };
  if (config_.policy == EgressPolicy::HotPotato) {
    for (std::size_t p = 0; p < out.size(); ++p) out[p] = decide(p);
    return;
  }
  // Cold potato: one decision per zone, copied to each of its VMs.
  std::array<std::optional<ResolveExplanation>, topo::kAllContinents.size()>
      zone_verdict;
  for (std::size_t p = 0; p < out.size(); ++p) {
    auto& verdict = zone_verdict[pop_zone_[p]];
    if (!verdict) verdict = decide(pop_zone_[p]);
    out[p] = *verdict;
  }
}

namespace {

/// Convert a live speaker RIB snapshot into engine-style candidates: one
/// per backbone link to the entry's neighbor, each at that link's ingress
/// POP, as the analytic engine delivers a route once per parallel link.
std::vector<bgp::RouteCandidate> live_candidates(
    const bgp::AsGraph& graph, bgp::NodeId backbone,
    const std::vector<bgpd::RibInEntry>& rib) {
  std::vector<bgp::RouteCandidate> out;
  out.reserve(rib.size());
  for (const bgpd::RibInEntry& entry : rib) {
    for (const bgp::Neighbor& nb : graph.neighbors(backbone)) {
      if (nb.id != entry.from) continue;
      out.push_back(bgp::RouteCandidate{entry.route, entry.source, entry.from,
                                        entry.from_asn, nb.local_pop});
    }
  }
  return out;
}

/// The role-age preference among a live RIB: the oldest entry within the
/// best (localpref, path length) class "arrived first".
bgp::TieBreakMode live_tie_mode(const std::vector<bgpd::RibInEntry>& rib) {
  const bgpd::RibInEntry* oldest = nullptr;
  bgp::RouteSource best_src = bgp::RouteSource::Provider;
  for (const auto& e : rib) best_src = std::min(best_src, e.source);
  std::size_t best_len = std::numeric_limits<std::size_t>::max();
  for (const auto& e : rib) {
    if (e.source == best_src) {
      best_len = std::min(best_len, e.route.path_length());
    }
  }
  for (const auto& e : rib) {
    if (e.source != best_src || e.route.path_length() != best_len) continue;
    if (oldest == nullptr || e.arrived < oldest->arrived) oldest = &e;
  }
  if (oldest == nullptr || oldest->route.role == bgp::OriginRole::Victim) {
    return bgp::TieBreakMode::VictimFirst;
  }
  return bgp::TieBreakMode::AdversaryFirst;
}

}  // namespace

bgp::OriginReached CloudProviderModel::resolve_live(
    std::size_t perspective, const bgpd::BgpSpeaker& backbone_speaker,
    const netsim::Ipv4Prefix& prefix,
    const std::optional<netsim::Ipv4Prefix>& sub_prefix,
    const bgp::RoaRegistry* roas) const {
  if (sub_prefix) {
    const auto sub_rib = backbone_speaker.rib_in(*sub_prefix);
    if (!sub_rib.empty()) {
      const auto cands =
          live_candidates(*graph_, backbone_, sub_rib);
      const bgp::RouteComparator cmp(live_tie_mode(sub_rib), 0);
      if (select_egress(perspective, cands, cmp, roas) != nullptr) {
        return bgp::OriginReached::Adversary;
      }
    }
  }
  const auto rib = backbone_speaker.rib_in(prefix);
  if (rib.empty()) return bgp::OriginReached::None;
  const auto cands = live_candidates(*graph_, backbone_, rib);
  const bgp::RouteComparator cmp(live_tie_mode(rib), 0);
  return outcome_of(select_egress(perspective, cands, cmp, roas));
}

bgp::OriginReached CloudProviderModel::resolve(
    std::size_t perspective, const bgp::HijackScenario& scenario,
    const bgp::RoaRegistry* roas) const {
  check_perspective(perspective);
  // A more-specific route, if the backbone holds one that survives its
  // ROAs, wins longest-prefix match for the target no matter which egress a
  // covering route would use. Every candidate for it shares one prefix and
  // origin, so egress selection over them would pick *some* route exactly
  // when one survives: the scenario answers that without a RIB.
  if (scenario.holds_more_specific(backbone_, roas)) {
    return bgp::OriginReached::Adversary;
  }
  return outcome_of(select_egress(perspective,
                                  scenario.primary_rib(backbone_),
                                  scenario.comparator(), roas));
}

void CloudProviderModel::resolve_all(const bgp::HijackScenario& scenario,
                                     const bgp::RoaRegistry* roas,
                                     EgressScratch& scratch,
                                     std::span<ResolveExplanation> out) const {
  if (!scenario.holds_more_specific(backbone_, roas)) {
    select_all(scenario.primary_rib(backbone_), scenario.comparator(), roas,
               scratch, out);
    return;
  }
  check_verdicts(out);
  std::ranges::fill(out, ResolveExplanation{bgp::OriginReached::Adversary,
                                            false,
                                            obs::VerdictStep::MoreSpecific});
}

}  // namespace marcopolo::cloud
