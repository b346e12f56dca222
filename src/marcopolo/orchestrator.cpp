#include "marcopolo/orchestrator.hpp"

#include <algorithm>
#include <chrono>
#include <set>

#include "obs/log.hpp"

namespace marcopolo::core {

namespace {

/// Virtual simulation time as microseconds since the sim epoch (the time
/// base of every orchestrator flight record).
std::uint64_t virtual_us(netsim::TimePoint at) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(at -
                                                            netsim::kEpoch)
          .count());
}

netsim::Ipv4Addr site_server_addr(std::size_t site) {
  return netsim::Ipv4Addr(100, 67, static_cast<std::uint8_t>(site / 250),
                          static_cast<std::uint8_t>(site % 250 + 1));
}

netsim::Ipv4Addr perspective_addr(std::size_t p) {
  return netsim::Ipv4Addr(100, 66, static_cast<std::uint8_t>(p / 250),
                          static_cast<std::uint8_t>(p % 250 + 1));
}

netsim::Ipv4Prefix lane_prefix(std::size_t lane) {
  return netsim::Ipv4Prefix(
      netsim::Ipv4Addr(100, 64, static_cast<std::uint8_t>(lane), 0), 24);
}

std::uint64_t pair_key(SiteIndex v, SiteIndex a) {
  return (std::uint64_t{v} << 16) | a;
}

}  // namespace

/// One prefix-partition pipeline: its own prefix, DNS zone, and cadence.
struct Orchestrator::Lane {
  std::size_t index = 0;
  netsim::Ipv4Prefix prefix;
  std::string zone;  ///< DNS zone, wildcarded to the lane target.
  netsim::TimePoint last_announce = netsim::kEpoch;
  bool first_attack = true;
  std::unique_ptr<Attack> current;
};

/// State of the in-flight attack on a lane.
struct Orchestrator::Attack {
  SiteIndex victim = 0;
  SiteIndex adversary = 0;
  std::unique_ptr<bgp::HijackScenario> scenario;
  netsim::TimePoint announced = netsim::kEpoch;
  netsim::TimePoint dcv_start = netsim::kEpoch;
  std::set<std::string> paths;  ///< Challenge paths belonging to this attack.
  std::size_t systems_outstanding = 0;
};

Orchestrator::Orchestrator(Testbed& testbed, const OrchestratorConfig& config)
    : testbed_(testbed),
      config_(config),
      issuer_(netsim::hash_combine(config.seed, 0x10)),
      results_(testbed.sites().size(), testbed.perspectives().size()) {
  obs::MetricsRegistry* reg = config_.observers.metrics;
  rstats_.attacks_completed =
      obs::MetricsRegistry::counter(reg, "orchestrator.attacks_completed");
  rstats_.attack_attempts =
      obs::MetricsRegistry::counter(reg, "orchestrator.attack_attempts");
  rstats_.retries = obs::MetricsRegistry::counter(reg, "orchestrator.retries");
  rstats_.incomplete_attacks =
      obs::MetricsRegistry::counter(reg, "orchestrator.incomplete_attacks");
  rstats_.announcements =
      obs::MetricsRegistry::counter(reg, "orchestrator.announcements");
  rstats_.validations =
      obs::MetricsRegistry::counter(reg, "orchestrator.validations");
  rstats_.dcv_corroborations_passed = obs::MetricsRegistry::counter(
      reg, "orchestrator.dcv_corroborations_passed");
  rstats_.perspective_losses =
      obs::MetricsRegistry::counter(reg, "orchestrator.perspective_losses");
  rstats_.attack_virtual_ms =
      obs::MetricsRegistry::histogram(reg, "orchestrator.attack_virtual_ms");
  rstats_.propagation = bgp::PropagationMetrics::create(reg);
  if (config_.observers.recorder != nullptr) {
    flight_ = config_.observers.recorder->open_buffer();
    verdicts_.resize(testbed.perspectives().size());
  }
  net_ = std::make_unique<netsim::Network>(
      sim_, netsim::hash_combine(config.seed, 0x20));
  net_->set_loss_model(config.loss);
  plane_ = std::make_unique<AttackPlane>(testbed);
  net_->set_forwarding_plane(plane_.get());
  central_store_ = std::make_shared<dcv::TokenStore>();

  // One web server per Vultr site; both attack roles use the site's server.
  const auto& sites = testbed.sites();
  for (std::size_t s = 0; s < sites.size(); ++s) {
    auto server = std::make_unique<dcv::SimWebServer>(
        *net_, site_server_addr(s), sites[s].location,
        std::string(sites[s].name));
    server->set_fallback(central_store_);
    plane_->register_site(server->endpoint(), static_cast<std::uint16_t>(s),
                          server->address());
    site_servers_.push_back(std::move(server));
  }

  // One validation agent per perspective.
  const auto& perspectives = testbed.perspectives();
  for (std::size_t p = 0; p < perspectives.size(); ++p) {
    auto agent = std::make_unique<dcv::PerspectiveAgent>(
        *net_, dns_, perspective_addr(p), perspectives[p].location,
        std::string(to_string_view(perspectives[p].provider)) + ":" +
            std::string(perspectives[p].region_name));
    plane_->register_perspective(agent->endpoint(),
                                 static_cast<std::uint16_t>(p),
                                 agent->address());
    agents_.push_back(std::move(agent));
  }

  // Global sweep: a REST MPIC "deployment" over every perspective — this is
  // the measurement instrument (quorum value is irrelevant to the logs).
  std::vector<dcv::PerspectiveAgent*> all_agents;
  for (const auto& a : agents_) all_agents.push_back(a.get());
  global_sweep_ = std::make_unique<mpic::RestMpicService>(
      sim_, all_agents, mpic::QuorumPolicy(all_agents.size(), 1),
      "global-sweep");

  if (config_.include_production_systems) {
    const auto le = lets_encrypt_spec(testbed);
    std::vector<dcv::PerspectiveAgent*> le_remotes;
    for (const auto idx : le.remotes) le_remotes.push_back(agents_[idx].get());
    mpic::AcmeCaConfig le_cfg;
    le_cfg.name = "le-staging";
    le_cfg.staging = true;
    le_cfg.policy = le.policy;
    le_cfg.challenge_seed = netsim::hash_combine(config.seed, 0x30);
    le_ca_ = std::make_unique<mpic::AcmeCa>(sim_, agents_[*le.primary].get(),
                                            std::move(le_remotes), le_cfg);

    const auto cf = cloudflare_spec(testbed);
    std::vector<dcv::PerspectiveAgent*> cf_agents;
    for (const auto idx : cf.remotes) cf_agents.push_back(agents_[idx].get());
    cf_service_ = std::make_unique<mpic::RestMpicService>(
        sim_, std::move(cf_agents), cf.policy, "cloudflare");
  }

  // Lanes with their DNS zones.
  for (std::size_t l = 0; l < std::max<std::size_t>(1, config_.prefix_lanes);
       ++l) {
    auto lane = std::make_unique<Lane>();
    lane->index = l;
    lane->prefix = lane_prefix(l);
    lane->zone = "lane" + std::to_string(l) + ".marcopolo.test";
    lanes_.push_back(std::move(lane));
  }
}

Orchestrator::~Orchestrator() = default;

Orchestrator::Output Orchestrator::run() {
  // Build the work queue.
  work_.clear();
  if (config_.pairs.empty()) {
    const auto n = static_cast<SiteIndex>(testbed_.sites().size());
    for (SiteIndex v = 0; v < n; ++v) {
      for (SiteIndex a = 0; a < n; ++a) {
        if (v != a) work_.emplace_back(v, a);
      }
    }
  } else {
    work_.assign(config_.pairs.begin(), config_.pairs.end());
  }
  for (const auto& [v, a] : work_) attempts_[pair_key(v, a)] = 0;

  MARCOPOLO_LOG(Info) << "orchestrated campaign"
                      << obs::field("attack", to_cstring(config_.type))
                      << obs::field("pairs", work_.size())
                      << obs::field("lanes", lanes_.size())
                      << obs::field("recording", flight_ != nullptr);

  if (config_.observers.telemetry != nullptr) {
    config_.observers.telemetry->add_planned_tasks(work_.size());
    if (telemetry_slot_ == nullptr) {
      telemetry_slot_ = config_.observers.telemetry->open_worker_slot();
    }
  }

  for (const auto& lane : lanes_) start_lane(*lane);
  sim_.run();

  if (telemetry_slot_ != nullptr) {
    config_.observers.telemetry->close_worker_slot(telemetry_slot_);
  }
  stats_.duration = sim_.now() - netsim::kEpoch;
  return Output{std::move(results_), stats_};
}

void Orchestrator::start_lane(Lane& lane) {
  if (work_.empty()) return;
  launch_attack(lane);
}

void Orchestrator::launch_attack(Lane& lane) {
  if (work_.empty()) return;
  const auto [victim, adversary] = work_.front();
  work_.pop_front();

  auto attack = std::make_unique<Attack>();
  attack->victim = victim;
  attack->adversary = adversary;
  ++attempts_[pair_key(victim, adversary)];
  ++stats_.attack_attempts;
  rstats_.attack_attempts.add(1);

  // Step 2: simultaneous (or sequential) announcements. Propagation is
  // computed once; the plane activates it for the lane's target address.
  const bgp::ScenarioConfig sc{
      config_.type, config_.tie_break,
      netsim::hash_combine(config_.seed, 0x40), config_.roas,
      config_.observers.metrics != nullptr ? &rstats_.propagation : nullptr};
  attack->scenario = std::make_unique<bgp::HijackScenario>(
      testbed_.internet().graph(), testbed_.sites()[victim].node,
      testbed_.sites()[adversary].node, lane.prefix, sc);
  stats_.announcements += 2;
  rstats_.announcements.add(2);
  attack->announced = sim_.now();
  lane.last_announce = sim_.now();

  const netsim::Ipv4Addr target = attack->scenario->target_address();
  plane_->begin_attack(target,
                       AttackPlane::ActiveAttack{
                           attack->scenario.get(), config_.roas,
                           site_servers_[attack->victim]->endpoint(),
                           site_servers_[attack->adversary]->endpoint()});
  if (lane.first_attack) {
    dns_.add_wildcard(lane.zone, target);
    dns_.add(lane.zone, target);
    lane.first_attack = false;
  }
  lane.current = std::move(attack);

  // Step 3: wait for propagation (twice plus settling when sequential).
  const netsim::Duration wait =
      config_.sequential_announcements
          ? config_.propagation_wait + config_.propagation_wait
          : config_.propagation_wait;
  sim_.schedule_after(wait, [this, &lane] { run_dcv(lane); });
}

void Orchestrator::run_dcv(Lane& lane) {
  Attack& attack = *lane.current;
  attack.dcv_start = sim_.now();

  // Step 4: trigger every registered MPIC deployment concurrently.
  attack.systems_outstanding = 1u + (le_ca_ != nullptr ? 1u : 0u) +
                               (cf_service_ != nullptr ? 1u : 0u);
  auto system_done = [this, &lane] {
    if (--lane.current->systems_outstanding == 0) conclude_attack(lane);
  };

  // Global sweep with a fresh challenge.
  {
    dcv::Http01Challenge ch = issuer_.issue(lane.zone);
    central_store_->put(ch.url_path(), ch.key_authorization);
    attack.paths.insert(ch.url_path());
    stats_.validations += agents_.size();
    rstats_.validations.add(agents_.size());
    global_sweep_->corroborate(
        dcv::ValidationJob{ch.domain, ch.url_path(), ch.key_authorization},
        [this, system_done, lane_idx = lane.index, victim = attack.victim,
         adversary = attack.adversary](mpic::CorroborationResult r) mutable {
          if (r.corroborated) {
            ++stats_.dcv_corroborations_passed;
            rstats_.dcv_corroborations_passed.add(1);
          }
          if (flight_ != nullptr) {
            flight_->record_quorum(obs::QuorumRecord{
                "global-sweep", static_cast<std::uint32_t>(lane_idx), victim,
                adversary, r.corroborated, virtual_us(sim_.now())});
          }
          system_done();
        });
  }

  if (cf_service_ != nullptr) {
    dcv::Http01Challenge ch = issuer_.issue(lane.zone);
    central_store_->put(ch.url_path(), ch.key_authorization);
    attack.paths.insert(ch.url_path());
    stats_.validations += cf_service_->perspective_count();
    rstats_.validations.add(cf_service_->perspective_count());
    cf_service_->corroborate(
        dcv::ValidationJob{ch.domain, ch.url_path(), ch.key_authorization},
        [this, system_done, lane_idx = lane.index, victim = attack.victim,
         adversary = attack.adversary](mpic::CorroborationResult r) mutable {
          if (r.corroborated) {
            ++stats_.dcv_corroborations_passed;
            rstats_.dcv_corroborations_passed.add(1);
          }
          if (flight_ != nullptr) {
            flight_->record_quorum(obs::QuorumRecord{
                "cloudflare", static_cast<std::uint32_t>(lane_idx), victim,
                adversary, r.corroborated, virtual_us(sim_.now())});
          }
          system_done();
        });
  }

  if (le_ca_ != nullptr) {
    // ACME path: randomized subdomain, token published centrally, manual
    // auth aborts before finalize (CertbotClient semantics, inlined so the
    // challenge path can be attributed to this attack).
    const std::string domain =
        issuer_.random_label(10) + "." + lane.zone;
    stats_.validations += 1 + 4;  // pre-flight + remotes
    rstats_.validations.add(1 + 4);
    le_ca_->order(
        domain,
        [this, &attack](const dcv::Http01Challenge& ch) {
          central_store_->put(ch.url_path(), ch.key_authorization);
          attack.paths.insert(ch.url_path());
        },
        [this, system_done, lane_idx = lane.index, victim = attack.victim,
         adversary = attack.adversary](mpic::OrderResult r) mutable {
          const bool issued = r.status == mpic::OrderStatus::Ready &&
                              !r.from_cached_authorization;
          if (issued) {
            ++stats_.dcv_corroborations_passed;
            rstats_.dcv_corroborations_passed.add(1);
          }
          if (flight_ != nullptr) {
            flight_->record_quorum(obs::QuorumRecord{
                "le-staging", static_cast<std::uint32_t>(lane_idx), victim,
                adversary, issued, virtual_us(sim_.now())});
          }
          system_done();
        });
  }
}

void Orchestrator::conclude_attack(Lane& lane) {
  Attack& attack = *lane.current;

  // Step 5: classify perspectives by which node's server saw their request.
  const auto classify = [&](const dcv::SimWebServer& server,
                            bgp::OriginReached outcome,
                            std::vector<std::uint8_t>& seen) {
    for (const dcv::RequestRecord& rec : server.requests()) {
      if (rec.at < attack.dcv_start || !attack.paths.contains(rec.path)) {
        continue;
      }
      for (std::size_t p = 0; p < agents_.size(); ++p) {
        if (agents_[p]->address() == rec.source) {
          results_.record(attack.victim, attack.adversary,
                          static_cast<PerspectiveIndex>(p), outcome);
          seen[p] = 1;
          break;
        }
      }
    }
  };
  std::vector<std::uint8_t> seen(agents_.size(), 0);
  classify(*site_servers_[attack.victim], bgp::OriginReached::Victim, seen);
  classify(*site_servers_[attack.adversary], bgp::OriginReached::Adversary,
           seen);
  for (const std::uint8_t s : seen) {
    if (s == 0) {
      ++stats_.perspective_losses;
      rstats_.perspective_losses.add(1);
    }
  }
  rstats_.attack_virtual_ms.observe(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(sim_.now() -
                                                            attack.announced)
          .count()));

  // Completeness is judged on the accumulated store: outcomes recorded by
  // earlier attempts of this pair persist (the paper's central server keeps
  // all logs), so a retry only needs to fill the gaps.
  const bool complete =
      results_.pair_complete(attack.victim, attack.adversary);

  if (flight_ != nullptr) {
    obs::AttackSpanRecord span;
    span.lane = static_cast<std::uint32_t>(lane.index);
    span.victim = attack.victim;
    span.adversary = attack.adversary;
    span.attempt = static_cast<std::uint8_t>(
        attempts_[pair_key(attack.victim, attack.adversary)]);
    span.complete = complete;
    span.announce_us = virtual_us(attack.announced);
    span.dcv_us = virtual_us(attack.dcv_start);
    span.conclude_us = virtual_us(sim_.now());
    flight_->record_attack(span);
    // Provenance for every perspective of this attack: the scenario's own
    // resolution explains the route the DCV fetch took (resolve_all shares
    // code with the plane's resolution, so outcomes agree).
    std::uint64_t adversary_verdicts = 0;
    testbed_.resolve_all(*attack.scenario, config_.roas, egress_, verdicts_);
    const auto n = static_cast<std::uint16_t>(verdicts_.size());
    for (std::uint16_t p = 0; p < n; ++p) {
      const cloud::ResolveExplanation& why = verdicts_[p];
      obs::VerdictRecord v;
      v.victim = attack.victim;
      v.adversary = attack.adversary;
      v.perspective = p;
      v.outcome = static_cast<std::uint8_t>(why.outcome);
      v.decided_by = why.decided_by;
      v.contested = why.contested;
      flight_->record_verdict(v);
      if (why.outcome == bgp::OriginReached::Adversary) ++adversary_verdicts;
    }
    config_.observers.recorder->note_verdicts(n, adversary_verdicts);
  }

  // Withdraw.
  plane_->end_attack(attack.scenario->target_address());
  for (const std::string& path : attack.paths) central_store_->remove(path);

  const SiteIndex victim = attack.victim;
  const SiteIndex adversary = attack.adversary;
  if (!complete) {
    if (attempts_[pair_key(victim, adversary)] < config_.max_attempts) {
      ++stats_.retries;
      rstats_.retries.add(1);
      work_.emplace_back(victim, adversary);
    } else {
      ++stats_.incomplete_attacks;
      rstats_.incomplete_attacks.add(1);
    }
  } else {
    ++stats_.attacks_completed;
    rstats_.attacks_completed.add(1);
    if (telemetry_slot_ != nullptr) {
      config_.observers.telemetry->note_task_done(telemetry_slot_);
    }
  }
  lane.current.reset();

  if (work_.empty()) return;

  // Rate limit: announcements on this lane at least propagation_wait apart
  // (plus withdraw settling in sequential mode, §4.4.4's 2.67x).
  netsim::Duration min_gap = config_.propagation_wait;
  if (config_.sequential_announcements) {
    min_gap = 2 * config_.propagation_wait + (2 * config_.propagation_wait) / 3;
  }
  const netsim::TimePoint earliest = lane.last_announce + min_gap;
  const netsim::Duration delay =
      earliest > sim_.now() ? earliest - sim_.now() : netsim::Duration::zero();
  sim_.schedule_after(delay, [this, &lane] { launch_attack(lane); });
}

}  // namespace marcopolo::core
