// Cloud provider routing models.
//
// Each provider is one backbone AS attached to the Internet at a POP per
// region. Route *collection* happens in the shared BGP propagation engine;
// route *selection for a given VM* happens here and is where providers
// differ (paper §5.2):
//
//   Hot potato (AWS, Azure): each region picks, among the routes that
//   survive the global BGP attribute comparison, the one whose ingress POP
//   is nearest — traffic leaves the backbone as early as possible, so
//   perspectives in different regions diversify.
//
//   Cold potato (GCP Premium Tier): the backbone picks one best route per
//   backbone zone (continent); all perspectives in a zone move together,
//   which reduces the effective perspective diversity.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "bgp/scenario.hpp"
#include "bgpd/speaker.hpp"
#include "obs/flight_recorder.hpp"
#include "topo/internet.hpp"
#include "topo/region_catalog.hpp"

namespace marcopolo::cloud {

/// Decision provenance of one perspective resolution: which rule of the
/// egress decision picked the winning origin, and whether the decision
/// was contested (both origins' routes survived ROV at the backbone).
/// `decided_by == RouteAge` on a contested verdict marks the outcome as
/// rerun-sensitive (paper §4.4.4).
struct ResolveExplanation {
  bgp::OriginReached outcome = bgp::OriginReached::None;
  bool contested = false;
  obs::VerdictStep decided_by = obs::VerdictStep::Unopposed;
};

enum class EgressPolicy : std::uint8_t { HotPotato, ColdPotato };

/// How finely a cold-potato backbone partitions its egress decision.
/// Continent = one best route per continent; SuperRegion = one per
/// Americas / EMEA / APAC (heavier centralization, the GCP default).
enum class ZoneGranularity : std::uint8_t { Continent, SuperRegion };

/// Zone id of a continent under a granularity (dense, starting at 0).
[[nodiscard]] std::uint8_t zone_of(topo::Continent c, ZoneGranularity g);

[[nodiscard]] constexpr const char* to_cstring(EgressPolicy p) {
  return p == EgressPolicy::HotPotato ? "hot-potato" : "cold-potato";
}

struct CloudConfig {
  topo::CloudProvider provider = topo::CloudProvider::Aws;
  bgp::Asn asn{16509};
  EgressPolicy policy = EgressPolicy::HotPotato;
  /// Tier-1 transit contracts; each attaches at the POP nearest the
  /// tier-1's home location.
  int transit_tier1_count = 3;
  /// Settlement-free peering sessions established at every POP with nearby
  /// tier-2 networks. More peering = more egress diversity.
  int peers_per_pop = 2;
  /// Egress-decision partitioning for cold-potato backbones.
  ZoneGranularity zones = ZoneGranularity::Continent;
  /// Cold potato only: if one origin's best ingress POP is closer to the
  /// zone centroid than the other's by more than this factor, geography
  /// decides the zone; otherwise the zone is contested and the route-age
  /// coin decides. 0 = always coin; 1 = always geography.
  double geo_margin = 0.55;
  std::uint64_t wiring_seed = 7;
};

/// Default configs matching the paper's three providers: AWS and Azure hot
/// potato (Azure with the densest peering), GCP Premium Tier cold potato.
[[nodiscard]] CloudConfig default_config(topo::CloudProvider provider);

/// Reusable per-thread storage for CloudProviderModel::resolve_all() and
/// select_all(): it holds one backbone's egress class between the
/// per-backbone step and the per-perspective picks, so a steady-state
/// call allocates nothing. Opaque to callers; one per worker.
class EgressScratch {
 private:
  friend class CloudProviderModel;
  struct Member {
    const bgp::RouteCandidate* route = nullptr;
    std::size_t column = 0;  ///< distance-table column of its ingress POP
  };
  std::vector<Member> members_;
};

class CloudProviderModel {
 public:
  /// Wires the backbone AS into `internet` (one POP per catalog region).
  CloudProviderModel(topo::Internet& internet, const CloudConfig& config);

  [[nodiscard]] topo::CloudProvider provider() const {
    return config_.provider;
  }
  [[nodiscard]] EgressPolicy policy() const { return config_.policy; }
  [[nodiscard]] bgp::NodeId backbone() const { return backbone_; }
  [[nodiscard]] std::span<const topo::RegionInfo> regions() const {
    return regions_;
  }
  [[nodiscard]] std::size_t perspective_count() const {
    return regions_.size();
  }

  /// Which origin traffic from the VM in region `perspective` reaches under
  /// the scenario, applying this provider's egress policy over the
  /// backbone's Adj-RIB-In (using the scenario's own tie-break comparator).
  /// Optional `roas`: if non-null the backbone drops RPKI-invalid
  /// candidates before selection (ROV at the cloud edge).
  [[nodiscard]] bgp::OriginReached resolve(
      std::size_t perspective, const bgp::HijackScenario& scenario,
      const bgp::RoaRegistry* roas = nullptr) const;

  /// resolve() for every perspective at once, plus decision provenance:
  /// `out[p]` is perspective p's verdict, and `out.size()` must equal
  /// perspective_count(). The backbone's class is built once, and a
  /// cold-potato zone decides once for all of its VMs. resolve(),
  /// select_egress() and this call run the same two selection steps, so
  /// `out[p].outcome == resolve(p, ...)` always (asserted by tests).
  void resolve_all(const bgp::HijackScenario& scenario,
                   const bgp::RoaRegistry* roas, EgressScratch& scratch,
                   std::span<ResolveExplanation> out) const;

  /// Egress selection over an explicit candidate list (exposed for tests).
  /// Throws std::out_of_range if a candidate's ingress POP is not one of
  /// this backbone's POPs.
  [[nodiscard]] const bgp::RouteCandidate* select_egress(
      std::size_t perspective, std::span<const bgp::RouteCandidate> rib,
      const bgp::RouteComparator& cmp,
      const bgp::RoaRegistry* roas = nullptr) const;

  /// resolve_all() over an explicit candidate list (exposed for tests).
  void select_all(std::span<const bgp::RouteCandidate> rib,
                  const bgp::RouteComparator& cmp,
                  const bgp::RoaRegistry* roas, EgressScratch& scratch,
                  std::span<ResolveExplanation> out) const;

  /// Live variant: resolve a perspective from the backbone's event-driven
  /// speaker state. Equal-attribute ties break toward the oldest route
  /// (real route age), matching the speaker's own decision process.
  /// `sub_prefix`: more-specific prefix to consult first (longest-prefix
  /// match), or nullopt.
  [[nodiscard]] bgp::OriginReached resolve_live(
      std::size_t perspective, const bgpd::BgpSpeaker& backbone_speaker,
      const netsim::Ipv4Prefix& prefix,
      const std::optional<netsim::Ipv4Prefix>& sub_prefix = std::nullopt,
      const bgp::RoaRegistry* roas = nullptr) const;

 private:
  /// Result of the per-backbone step: the best (local-pref, path-length)
  /// class among the ROV-valid candidates, and the provenance settled
  /// before the egress policy runs.
  struct EgressClass {
    std::span<const EgressScratch::Member> members;
    /// `contested` plus LocalPref, PathLength or Unopposed (outcome unset).
    ResolveExplanation why;
    /// Both origins made the class: the pick reports IngressPop or
    /// RouteAge.
    bool policy_decides = false;
    /// The route-age preference at the backbone (hot potato's tie-break).
    bgp::OriginRole age_preferred = bgp::OriginRole::Victim;
  };

  /// Per-backbone step, run once per (RIB, comparator, ROAs): ROV filter,
  /// best class and its provenance. Members are stored in `scratch`.
  [[nodiscard]] EgressClass prepare(std::span<const bgp::RouteCandidate> rib,
                                    const bgp::RouteComparator& cmp,
                                    const bgp::RoaRegistry* roas,
                                    EgressScratch& scratch) const;

  /// Per-perspective step: the class member the decision point `row` of
  /// the distance table egresses through (null on an empty class). A row
  /// is a region under hot potato and a zone under cold potato; `why`
  /// gets IngressPop or RouteAge when the policy decided.
  [[nodiscard]] const bgp::RouteCandidate* pick(
      std::size_t row, const EgressClass& cls, const bgp::RouteComparator& cmp,
      ResolveExplanation& why) const;

  void check_perspective(std::size_t perspective) const {
    if (perspective >= regions_.size()) {
      throw std::out_of_range("perspective index");
    }
  }
  void check_verdicts(std::span<const ResolveExplanation> out) const {
    if (out.size() != regions_.size()) {
      throw std::invalid_argument("one verdict per perspective");
    }
  }

  CloudConfig config_;
  const bgp::AsGraph* graph_ = nullptr;  // set at wiring; outlives the model
  bgp::NodeId backbone_;
  std::span<const topo::RegionInfo> regions_;
  std::vector<std::uint8_t> pop_zone_;  // by PopId (zone id)
  /// Great-circle km from each decision point (row: a region's VM under
  /// hot potato, a zone centroid under cold potato) to each POP (column,
  /// by PopId). The last column is the stand-in for an unknown ingress
  /// POP. Row-major, perspective_count() + 1 columns.
  std::vector<double> egress_km_;
};

}  // namespace marcopolo::cloud
