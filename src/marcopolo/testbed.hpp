// Testbed assembly: the full measurement environment of paper §4.3.
//
// One synthetic Internet + 32 Vultr victim/adversary sites + three cloud
// backbones hosting 106 perspectives (27 AWS, 40 GCP, 39 Azure), with a
// global perspective registry that analysis indexes into.
//
// A testbed is built with no transit defense deployed. ROV and RFC 9234
// OTC are deployed on the built topology (internet().deploy_rov /
// deploy_otc), and each call replaces the previous deployment, so a sweep
// over deployments builds the topology once.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "cloud/model.hpp"
#include "topo/internet.hpp"
#include "topo/vultr.hpp"

namespace marcopolo::core {

struct TestbedConfig {
  topo::InternetConfig internet;
  /// Victim/adversary site pool. Defaults to the paper's 32 Vultr sites;
  /// topo::peering_muxes() gives the PEERING superset of §4.4.2. The span
  /// must outlive the Testbed (catalog spans are static).
  std::span<const topo::RegionInfo> site_catalog = topo::vultr_sites();
  std::uint64_t vultr_seed = 0xB612;
  /// Cloud provider models to instantiate; defaults to AWS, GCP, Azure with
  /// paper-matching policies when empty.
  std::vector<cloud::CloudConfig> clouds;
};

struct PerspectiveRecord {
  std::uint16_t index = 0;  ///< Global index across all providers.
  topo::CloudProvider provider;
  std::size_t local_index = 0;  ///< Index within the provider's region list.
  std::string_view region_name;
  topo::Rir rir;
  topo::Continent continent;
  netsim::GeoPoint location;
};

class Testbed {
 public:
  explicit Testbed(const TestbedConfig& config = {});

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  [[nodiscard]] topo::Internet& internet() { return internet_; }
  [[nodiscard]] const topo::Internet& internet() const { return internet_; }

  [[nodiscard]] const std::vector<topo::Site>& sites() const {
    return sites_;
  }

  [[nodiscard]] const std::vector<PerspectiveRecord>& perspectives() const {
    return perspectives_;
  }
  [[nodiscard]] std::vector<std::uint16_t> perspectives_of(
      topo::CloudProvider provider) const;
  [[nodiscard]] std::optional<std::uint16_t> find_perspective(
      topo::CloudProvider provider, std::string_view region_name) const;

  [[nodiscard]] const cloud::CloudProviderModel& cloud_of(
      topo::CloudProvider provider) const;

  /// Which origin the perspective's traffic reaches under a scenario.
  [[nodiscard]] bgp::OriginReached perspective_outcome(
      std::uint16_t perspective, const bgp::HijackScenario& scenario,
      const bgp::RoaRegistry* roas = nullptr) const;

  /// Every perspective's outcome plus decision provenance, one backbone
  /// at a time: `out[p]` is global perspective p's verdict, and
  /// `out.size()` must equal perspectives().size(). Same selection code
  /// as perspective_outcome(), so the outcomes always match; `scratch`
  /// is the caller's per-thread storage.
  void resolve_all(const bgp::HijackScenario& scenario,
                   const bgp::RoaRegistry* roas, cloud::EgressScratch& scratch,
                   std::span<cloud::ResolveExplanation> out) const;

 private:
  topo::Internet internet_;
  std::vector<topo::Site> sites_;
  std::deque<cloud::CloudProviderModel> clouds_;  // stable addresses
  std::vector<PerspectiveRecord> perspectives_;
  // perspective -> (cloud model index) for dispatch
  std::vector<std::uint8_t> perspective_cloud_;
};

}  // namespace marcopolo::core
