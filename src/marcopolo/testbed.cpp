#include "marcopolo/testbed.hpp"

#include <stdexcept>

namespace marcopolo::core {

Testbed::Testbed(const TestbedConfig& config) : internet_(config.internet) {
  sites_ = topo::build_sites(internet_, config.site_catalog,
                             config.vultr_seed);

  std::vector<cloud::CloudConfig> cloud_configs = config.clouds;
  if (cloud_configs.empty()) {
    cloud_configs = {cloud::default_config(topo::CloudProvider::Aws),
                     cloud::default_config(topo::CloudProvider::Azure),
                     cloud::default_config(topo::CloudProvider::Gcp)};
  }

  for (const cloud::CloudConfig& cc : cloud_configs) {
    clouds_.emplace_back(internet_, cc);
    const auto& model = clouds_.back();
    const std::uint8_t cloud_idx =
        static_cast<std::uint8_t>(clouds_.size() - 1);
    for (std::size_t i = 0; i < model.perspective_count(); ++i) {
      const topo::RegionInfo& region = model.regions()[i];
      PerspectiveRecord rec;
      rec.index = static_cast<std::uint16_t>(perspectives_.size());
      rec.provider = cc.provider;
      rec.local_index = i;
      rec.region_name = region.name;
      rec.rir = region.rir;
      rec.continent = region.continent;
      rec.location = region.location;
      perspectives_.push_back(rec);
      perspective_cloud_.push_back(cloud_idx);
    }
  }
  // Internet's constructor validated the graph. The sites and backbones
  // above only add leaf ASes through add_provider_customer / add_peering,
  // which write both sides of each link and refuse self loops, and an AS
  // without customers closes no provider cycle: the graph stays valid.
}

std::vector<std::uint16_t> Testbed::perspectives_of(
    topo::CloudProvider provider) const {
  std::vector<std::uint16_t> out;
  for (const PerspectiveRecord& rec : perspectives_) {
    if (rec.provider == provider) out.push_back(rec.index);
  }
  return out;
}

std::optional<std::uint16_t> Testbed::find_perspective(
    topo::CloudProvider provider, std::string_view region_name) const {
  for (const PerspectiveRecord& rec : perspectives_) {
    if (rec.provider == provider && rec.region_name == region_name) {
      return rec.index;
    }
  }
  return std::nullopt;
}

const cloud::CloudProviderModel& Testbed::cloud_of(
    topo::CloudProvider provider) const {
  for (const auto& model : clouds_) {
    if (model.provider() == provider) return model;
  }
  throw std::invalid_argument("no such cloud provider in testbed");
}

bgp::OriginReached Testbed::perspective_outcome(
    std::uint16_t perspective, const bgp::HijackScenario& scenario,
    const bgp::RoaRegistry* roas) const {
  if (perspective >= perspectives_.size()) {
    throw std::out_of_range("perspective index");
  }
  const auto& model = clouds_[perspective_cloud_[perspective]];
  return model.resolve(perspectives_[perspective].local_index, scenario,
                       roas);
}

void Testbed::resolve_all(const bgp::HijackScenario& scenario,
                          const bgp::RoaRegistry* roas,
                          cloud::EgressScratch& scratch,
                          std::span<cloud::ResolveExplanation> out) const {
  if (out.size() != perspectives_.size()) {
    throw std::invalid_argument("resolve_all: one verdict per perspective");
  }
  // Each model's perspectives hold consecutive global indices.
  std::size_t first = 0;
  for (const cloud::CloudProviderModel& model : clouds_) {
    model.resolve_all(scenario, roas, scratch,
                      out.subspan(first, model.perspective_count()));
    first += model.perspective_count();
  }
}

}  // namespace marcopolo::core
