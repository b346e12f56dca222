#include "marcopolo/live_campaign.hpp"

#include <stdexcept>

namespace marcopolo::core {

LiveCampaignOutput run_live_campaign(const Testbed& testbed,
                                     const LiveCampaignConfig& config) {
  // The event-driven speakers have no leak model: a leaking adversary
  // would announce nothing, and the no-attack verdicts would be recorded
  // as if measured.
  if (config.type == bgp::AttackType::RouteLeak) {
    throw std::invalid_argument(
        "the live campaign cannot run route-leak attacks");
  }
  const auto& sites = testbed.sites();
  const auto& graph = testbed.internet().graph();

  std::vector<std::pair<SiteIndex, SiteIndex>> pairs = config.pairs;
  if (pairs.empty()) {
    const auto n = static_cast<SiteIndex>(sites.size());
    for (SiteIndex v = 0; v < n; ++v) {
      for (SiteIndex a = 0; a < n; ++a) {
        if (v != a) pairs.emplace_back(v, a);
      }
    }
  }

  std::vector<netsim::GeoPoint> locations;
  locations.reserve(graph.size());
  for (std::uint32_t i = 0; i < graph.size(); ++i) {
    locations.push_back(testbed.internet().location(bgp::NodeId{i}));
  }

  netsim::Simulator sim;
  bgpd::BgpNetworkConfig bgp_cfg = config.bgp;
  bgp_cfg.speaker.roas = config.roas;
  bgpd::BgpNetwork net(graph, std::move(locations), sim, bgp_cfg);

  LiveCampaignOutput out{
      ResultStore(sites.size(), testbed.perspectives().size(), {config.type}),
      {}};
  const bgp::RoaRegistry* edge_roas =
      config.cloud_edge_rov ? config.roas : nullptr;

  for (const auto& [v, a] : pairs) {
    const bgp::NodeId victim = sites[v].node;
    const bgp::NodeId adversary = sites[a].node;
    const bgp::Asn victim_asn = graph.asn_of(victim);

    // Step 2: announcements (simultaneous or sequential).
    std::optional<netsim::Ipv4Prefix> sub_prefix;
    net.announce(victim,
                 bgp::Announcement{config.prefix, {}, bgp::OriginRole::Victim});
    if (config.sequential_announcements) {
      sim.run_until(sim.now() + config.propagation_wait);
    }
    switch (config.type) {
      case bgp::AttackType::EquallySpecific:
        net.announce(adversary, bgp::Announcement{config.prefix,
                                                  {},
                                                  bgp::OriginRole::Adversary});
        break;
      case bgp::AttackType::ForgedOriginPrepend:
        net.announce(adversary,
                     bgp::Announcement{config.prefix,
                                       {victim_asn},
                                       bgp::OriginRole::Adversary});
        break;
      case bgp::AttackType::SubPrefix: {
        sub_prefix = config.prefix.split().second;
        net.announce(adversary,
                     bgp::Announcement{*sub_prefix,
                                       {victim_asn},
                                       bgp::OriginRole::Adversary});
        break;
      }
      case bgp::AttackType::RouteLeak:
        break;  // rejected before the network was built
    }

    // Step 3: propagation wait, then the DCV snapshot (step 4/5).
    sim.run_until(sim.now() + config.propagation_wait);
    for (const auto& rec : testbed.perspectives()) {
      const auto& model = testbed.cloud_of(rec.provider);
      out.results.record(
          v, a, rec.index,
          model.resolve_live(rec.local_index,
                             net.speaker(model.backbone()), config.prefix,
                             sub_prefix, edge_roas));
    }
    ++out.stats.attacks;

    // Withdraw and settle before the next pair.
    net.withdraw(victim, config.prefix);
    net.withdraw(adversary, sub_prefix ? *sub_prefix : config.prefix);
    sim.run_until(sim.now() + config.withdraw_settle);
  }

  out.stats.updates_sent = net.total_updates_sent();
  out.stats.duration = sim.now() - netsim::kEpoch;
  return out;
}

}  // namespace marcopolo::core
