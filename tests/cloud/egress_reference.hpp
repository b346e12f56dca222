// Per-perspective reference implementation of cloud egress selection.
//
// This is the selection routine CloudProviderModel ran before it split
// into a per-backbone class and a table-indexed per-perspective pick:
// every call re-filters the RIB, rebuilds the best (local-pref,
// path-length) class, calls great_circle_km per class member, and a
// cold-potato VM recomputes its zone's decision. It is deliberately kept
// OUT of the production path — its only callers are the EgressClassify
// differential tests. Outcome, `contested` and `decided_by` here must
// stay identical to CloudProviderModel's; if the two ever disagree, the
// fast path is wrong.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "cloud/model.hpp"

namespace marcopolo::cloud::reference {

class EgressReference {
 public:
  /// `config` is the one `model` was built from (policy, zones,
  /// geo_margin).
  EgressReference(const CloudProviderModel& model, const CloudConfig& config)
      : config_(config), backbone_(model.backbone()) {
    for (const topo::RegionInfo& r : model.regions()) {
      pop_location_.push_back(r.location);
      pop_zone_.push_back(zone_of(r.continent, config.zones));
    }
    zone_centroid_.assign(topo::kAllContinents.size(), netsim::GeoPoint{});
    std::vector<std::size_t> zone_pop_count(zone_centroid_.size(), 0);
    for (std::size_t pop = 0; pop < pop_location_.size(); ++pop) {
      const auto z = static_cast<std::size_t>(pop_zone_[pop]);
      zone_centroid_[z].lat += pop_location_[pop].lat;
      zone_centroid_[z].lon += pop_location_[pop].lon;
      ++zone_pop_count[z];
    }
    for (std::size_t z = 0; z < zone_centroid_.size(); ++z) {
      if (zone_pop_count[z] > 0) {
        zone_centroid_[z].lat /= static_cast<double>(zone_pop_count[z]);
        zone_centroid_[z].lon /= static_cast<double>(zone_pop_count[z]);
      }
    }
  }

  /// CloudProviderModel::resolve() plus provenance, one perspective.
  [[nodiscard]] ResolveExplanation resolve(
      std::size_t perspective, const bgp::HijackScenario& scenario,
      const bgp::RoaRegistry* roas) const {
    ResolveExplanation why;
    if (scenario.holds_more_specific(backbone_, roas)) {
      why.outcome = bgp::OriginReached::Adversary;
      why.decided_by = obs::VerdictStep::MoreSpecific;
      return why;
    }
    const bgp::RouteCandidate* chosen =
        select(perspective, scenario.primary_rib(backbone_),
               scenario.comparator(), roas, why);
    why.outcome = outcome_of(chosen);
    return why;
  }

  [[nodiscard]] static bgp::OriginReached outcome_of(
      const bgp::RouteCandidate* chosen) {
    if (chosen == nullptr) return bgp::OriginReached::None;
    return chosen->ann.role == bgp::OriginRole::Victim
               ? bgp::OriginReached::Victim
               : bgp::OriginReached::Adversary;
  }

  /// CloudProviderModel::select_egress() plus provenance (`outcome` is
  /// left for the caller).
  [[nodiscard]] const bgp::RouteCandidate* select(
      std::size_t perspective, std::span<const bgp::RouteCandidate> rib,
      const bgp::RouteComparator& cmp, const bgp::RoaRegistry* roas,
      ResolveExplanation& why) const {
    std::vector<const bgp::RouteCandidate*> valid;
    for (const bgp::RouteCandidate& c : rib) {
      if (bgp::passes_rov(c.ann, roas)) valid.push_back(&c);
    }
    why.contested = false;
    why.decided_by = obs::VerdictStep::Unopposed;
    if (valid.empty()) return nullptr;

    bgp::RouteSource best_src = bgp::RouteSource::Provider;
    for (const auto* c : valid) best_src = std::min(best_src, c->source);
    std::size_t best_len = std::numeric_limits<std::size_t>::max();
    for (const auto* c : valid) {
      if (c->source == best_src) {
        best_len = std::min(best_len, c->ann.path_length());
      }
    }
    std::vector<const bgp::RouteCandidate*> cls;
    for (const auto* c : valid) {
      if (c->source == best_src && c->ann.path_length() == best_len) {
        cls.push_back(c);
      }
    }

    bool class_contested = false;
    bool has_role[2] = {false, false};
    bgp::RouteSource role_src[2] = {bgp::RouteSource::Provider,
                                    bgp::RouteSource::Provider};
    std::size_t role_len[2] = {std::numeric_limits<std::size_t>::max(),
                               std::numeric_limits<std::size_t>::max()};
    for (const auto* c : valid) {
      const auto r = static_cast<std::size_t>(c->ann.role);
      has_role[r] = true;
      role_src[r] = std::min(role_src[r], c->source);
      if (c->source == best_src) {
        role_len[r] = std::min(role_len[r], c->ann.path_length());
      }
    }
    why.contested = has_role[0] && has_role[1];
    if (why.contested) {
      if (role_src[0] != role_src[1]) {
        why.decided_by = obs::VerdictStep::LocalPref;
      } else if (role_len[0] != role_len[1]) {
        why.decided_by = obs::VerdictStep::PathLength;
      } else {
        class_contested = true;
      }
    }

    const auto attribute_tiebreak = [&](const bgp::RouteCandidate* a,
                                        const bgp::RouteCandidate* b) {
      if (a->ann.role != b->ann.role) {
        return a->ann.role == cmp.preferred_role(backbone_);
      }
      if (a->from_asn != b->from_asn) return a->from_asn < b->from_asn;
      return a->ingress_pop < b->ingress_pop;
    };

    if (config_.policy == EgressPolicy::HotPotato) {
      const netsim::GeoPoint here = pop_location_.at(perspective);
      const bgp::RouteCandidate* best = nullptr;
      double best_km = std::numeric_limits<double>::max();
      double role_km[2] = {std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::max()};
      for (const auto* c : cls) {
        const double km =
            c->ingress_pop.valid()
                ? netsim::great_circle_km(
                      here, pop_location_.at(c->ingress_pop.value))
                : 20037.0;
        auto& slot = role_km[static_cast<std::size_t>(c->ann.role)];
        slot = std::min(slot, km);
        if (best == nullptr || km < best_km - 1e-9 ||
            (std::abs(km - best_km) <= 1e-9 && attribute_tiebreak(c, best))) {
          best = c;
          best_km = km;
        }
      }
      if (class_contested) {
        why.decided_by = std::abs(role_km[0] - role_km[1]) > 1e-9
                             ? obs::VerdictStep::IngressPop
                             : obs::VerdictStep::RouteAge;
      }
      return best;
    }

    const auto zone = static_cast<std::size_t>(pop_zone_.at(perspective));
    const netsim::GeoPoint anchor = zone_centroid_[zone];
    double best_km[2] = {std::numeric_limits<double>::max(),
                         std::numeric_limits<double>::max()};
    for (const auto* c : cls) {
      const double km =
          c->ingress_pop.valid()
              ? netsim::great_circle_km(anchor,
                                        pop_location_.at(c->ingress_pop.value))
              : 20037.0;
      auto& slot = best_km[static_cast<std::size_t>(c->ann.role)];
      slot = std::min(slot, km);
    }
    const double victim_km =
        best_km[static_cast<std::size_t>(bgp::OriginRole::Victim)];
    const double adversary_km =
        best_km[static_cast<std::size_t>(bgp::OriginRole::Adversary)];

    bgp::OriginRole preferred;
    bool geo_decided = true;
    if (adversary_km < config_.geo_margin * victim_km) {
      preferred = bgp::OriginRole::Adversary;
    } else if (victim_km < config_.geo_margin * adversary_km) {
      preferred = bgp::OriginRole::Victim;
    } else {
      preferred = cmp.preferred_role(backbone_, zone);
      geo_decided = false;
    }
    if (class_contested) {
      why.decided_by = geo_decided ? obs::VerdictStep::IngressPop
                                   : obs::VerdictStep::RouteAge;
    }

    const auto zone_tiebreak = [&](const bgp::RouteCandidate* a,
                                   const bgp::RouteCandidate* b) {
      if (a->ann.role != b->ann.role) return a->ann.role == preferred;
      if (a->from_asn != b->from_asn) return a->from_asn < b->from_asn;
      return a->ingress_pop < b->ingress_pop;
    };
    const bgp::RouteCandidate* best = nullptr;
    for (const auto* c : cls) {
      if (best == nullptr || zone_tiebreak(c, best)) best = c;
    }
    return best;
  }

 private:
  CloudConfig config_;
  bgp::NodeId backbone_;
  std::vector<netsim::GeoPoint> pop_location_;
  std::vector<std::uint8_t> pop_zone_;
  std::vector<netsim::GeoPoint> zone_centroid_;
};

}  // namespace marcopolo::cloud::reference
