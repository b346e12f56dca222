// The MarcoPolo orchestrator: paper §4.1's five-step attack protocol,
// run end-to-end over the discrete-event network simulation.
//
// For each victim-adversary pair, per prefix lane:
//   (1) pick the pair, (2) both nodes announce the lane prefix (the plane
//   activates the propagated scenario), (3) wait the propagation delay,
//   (4) trigger DCV on every registered MPIC deployment concurrently
//   (the paper's batching optimization), (5) classify each perspective by
//   which node's web server logged its request; rerun the attack if any
//   perspective went missing (simulated packet loss).
//
// Announcement frequency is rate-limited per lane (§4.2.1, route-flap
// avoidance); multiple lanes run attacks in parallel (§4.2.3). The
// sequential-announcement ablation (§4.4.4) serializes victim and
// adversary announcements at ~2.67x the per-attack duration.
#pragma once

#include <deque>
#include <memory>

#include "bgp/propagation.hpp"
#include "dcv/challenge.hpp"
#include "dcv/validator.hpp"
#include "dcv/webserver.hpp"
#include "marcopolo/attack_plane.hpp"
#include "marcopolo/production_systems.hpp"
#include "marcopolo/result_store.hpp"
#include "mpic/acme_ca.hpp"
#include "mpic/certbot_client.hpp"
#include "mpic/rest_service.hpp"
#include "obs/observers.hpp"

namespace marcopolo::core {

struct OrchestratorConfig {
  bgp::AttackType type = bgp::AttackType::EquallySpecific;
  bgp::TieBreakMode tie_break = bgp::TieBreakMode::Hashed;
  std::uint64_t seed = 0x5EED;
  const bgp::RoaRegistry* roas = nullptr;

  /// Prefix partition lanes (parallel attack pipelines).
  std::size_t prefix_lanes = 1;
  /// BGP propagation settling time between announcement and DCV.
  netsim::Duration propagation_wait = netsim::minutes(5);
  /// Total tries per attack (1 = no retries).
  int max_attempts = 3;
  netsim::LossModel loss;
  /// §4.4.4 ablation: victim announces, settles, then adversary announces.
  bool sequential_announcements = false;
  /// Also run the Let's Encrypt-style ACME CA and Cloudflare-style REST
  /// endpoint alongside the global sweep.
  bool include_production_systems = true;

  /// Optional observers (obs/observers.hpp). Counters go under
  /// "orchestrator.*"; records are stamped in virtual simulation time.
  obs::Observers observers;

  /// Pairs to attack; empty = every ordered (victim, adversary) pair.
  std::vector<std::pair<SiteIndex, SiteIndex>> pairs;
};

/// Campaign accounting, mirrored onto the registry in
/// OrchestratorConfig::observers when one is attached (counter names in
/// parentheses).
struct CampaignStats {
  std::size_t attacks_completed = 0;   ///< (orchestrator.attacks_completed)
  std::size_t attack_attempts = 0;     ///< (orchestrator.attack_attempts)
  std::size_t retries = 0;             ///< (orchestrator.retries)
  /// Still missing data after retries (orchestrator.incomplete_attacks).
  std::size_t incomplete_attacks = 0;
  std::size_t announcements = 0;       ///< (orchestrator.announcements)
  /// Perspective DCV fetches triggered (orchestrator.validations).
  std::size_t validations = 0;
  std::size_t dcv_corroborations_passed = 0;
  /// Perspective outcomes missing after a DCV round — simulated packet
  /// loss eating a fetch or its log line (orchestrator.perspective_losses).
  std::size_t perspective_losses = 0;
  netsim::Duration duration{};
};

class Orchestrator {
 public:
  Orchestrator(Testbed& testbed, const OrchestratorConfig& config);
  ~Orchestrator();

  Orchestrator(const Orchestrator&) = delete;
  Orchestrator& operator=(const Orchestrator&) = delete;

  struct Output {
    ResultStore results;
    CampaignStats stats;
  };

  /// Run the whole campaign in virtual time and return the dataset.
  [[nodiscard]] Output run();

 private:
  struct Lane;
  struct Attack;

  void start_lane(Lane& lane);
  void launch_attack(Lane& lane);
  void run_dcv(Lane& lane);
  void conclude_attack(Lane& lane);

  Testbed& testbed_;
  OrchestratorConfig config_;

  netsim::Simulator sim_;
  std::unique_ptr<netsim::Network> net_;
  netsim::DnsTable dns_;
  std::unique_ptr<AttackPlane> plane_;
  std::shared_ptr<dcv::TokenStore> central_store_;
  dcv::ChallengeIssuer issuer_;

  std::vector<std::unique_ptr<dcv::SimWebServer>> site_servers_;
  std::vector<std::unique_ptr<dcv::PerspectiveAgent>> agents_;

  std::unique_ptr<mpic::RestMpicService> global_sweep_;
  std::unique_ptr<mpic::AcmeCa> le_ca_;
  std::unique_ptr<mpic::RestMpicService> cf_service_;

  std::vector<std::unique_ptr<Lane>> lanes_;
  std::deque<std::pair<SiteIndex, SiteIndex>> work_;
  std::unordered_map<std::uint64_t, int> attempts_;  // pair key -> tries

  ResultStore results_;
  CampaignStats stats_;

  /// Registry mirror of stats_ (null handles without a registry).
  struct RegistryStats {
    obs::Counter attacks_completed;
    obs::Counter attack_attempts;
    obs::Counter retries;
    obs::Counter incomplete_attacks;
    obs::Counter announcements;
    obs::Counter validations;
    obs::Counter dcv_corroborations_passed;
    obs::Counter perspective_losses;
    obs::Histogram attack_virtual_ms;  ///< Announce-to-conclusion sim time,
                                       ///< one sample per concluded attempt.
    /// Pre-interned propagation-engine handles shared by every scenario.
    bgp::PropagationMetrics propagation;
  } rstats_;

  /// Flight-recorder lane (null without a recorder). The simulator is
  /// single-threaded, so one buffer serves every lane and callback.
  obs::FlightBuffer* flight_ = nullptr;

  /// Telemetry completion slot (null without a hub).
  obs::TelemetryWorkerSlot* telemetry_slot_ = nullptr;
};

}  // namespace marcopolo::core
