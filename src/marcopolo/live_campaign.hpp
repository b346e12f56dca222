// Live campaign runner: MarcoPolo's measurement over the event-driven BGP
// layer.
//
// Where the fast campaign evaluates the analytic Gao-Rexford fixed point,
// the live campaign actually *announces* — UPDATE messages propagate over
// sessions with latency and MRAI batching, route-age ties resolve by real
// arrival order, and DCV reads whatever routing state exists when it
// fires. One persistent BGP network carries the whole campaign, so
// consecutive attacks interact exactly as the paper's §4.2.1 worries
// about (withdraw churn, dampening pressure).
#pragma once

#include "bgpd/network.hpp"
#include "marcopolo/result_store.hpp"
#include "marcopolo/testbed.hpp"

namespace marcopolo::core {

struct LiveCampaignConfig {
  /// Attack to announce. RouteLeak is refused: the live speakers have no
  /// leak model.
  bgp::AttackType type = bgp::AttackType::EquallySpecific;
  /// Delay between announcement and the DCV snapshot (paper: 5 minutes).
  netsim::Duration propagation_wait = netsim::minutes(5);
  /// Settling time after withdrawing an attack, before the next one.
  netsim::Duration withdraw_settle = netsim::minutes(5);
  /// §4.4.4 ablation: victim announces, settles, then the adversary.
  bool sequential_announcements = false;
  bgpd::BgpNetworkConfig bgp;
  const bgp::RoaRegistry* roas = nullptr;
  /// Cloud edges filter RPKI-invalid candidates (see FastCampaignConfig).
  bool cloud_edge_rov = true;
  netsim::Ipv4Prefix prefix = *netsim::Ipv4Prefix::parse("203.0.113.0/24");
  /// Pairs to attack; empty = every ordered pair.
  std::vector<std::pair<SiteIndex, SiteIndex>> pairs;
};

struct LiveCampaignStats {
  std::size_t attacks = 0;
  std::size_t updates_sent = 0;  ///< Total BGP UPDATE messages.
  netsim::Duration duration{};
};

struct LiveCampaignOutput {
  ResultStore results;
  LiveCampaignStats stats;
};

/// Runs every configured pair; the result store's one plane is tagged
/// config.type. Throws std::invalid_argument for RouteLeak.
[[nodiscard]] LiveCampaignOutput run_live_campaign(
    const Testbed& testbed, const LiveCampaignConfig& config);

}  // namespace marcopolo::core
