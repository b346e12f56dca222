// Determinism contract of the parallel campaign engine: the thread count
// must not change a single byte of the ResultStore. Every scenario is a
// pure function of (announcer, adversary, config) and workers write
// disjoint cells, so threads=1 and threads=N are required to save the
// same MPRS bytes (every cell of every plane) for every attack type and
// surface.
#include "marcopolo/fast_campaign.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "bgp/attack_model.hpp"
#include "store_bytes.hpp"
#include "testbed_fixture.hpp"

namespace marcopolo::core {
namespace {

using testing_support::mprs_bytes;
using testing_support::same_bytes;
using testing_support::shared_testbed;

ResultStore run_with_threads(FastCampaignConfig cfg, std::size_t threads) {
  cfg.threads = threads;
  return run_fast_campaign(shared_testbed(), cfg);
}

TEST(CampaignParallel, EquallySpecificIsThreadCountInvariant) {
  FastCampaignConfig cfg;
  cfg.type = bgp::AttackType::EquallySpecific;
  const auto serial = run_with_threads(cfg, 1);
  const auto parallel = run_with_threads(cfg, 4);
  EXPECT_TRUE(same_bytes(mprs_bytes(serial), mprs_bytes(parallel)));
}

TEST(CampaignParallel, ForgedOriginPrependIsThreadCountInvariant) {
  FastCampaignConfig cfg;
  cfg.type = bgp::AttackType::ForgedOriginPrepend;
  const auto serial = run_with_threads(cfg, 1);
  const auto parallel = run_with_threads(cfg, 4);
  EXPECT_TRUE(same_bytes(mprs_bytes(serial), mprs_bytes(parallel)));
}

TEST(CampaignParallel, DnsSurfaceIsThreadCountInvariant) {
  // Shared-host DNS surface: the scenario cache groups victims by
  // announcer, which must not perturb results under parallel scheduling.
  const auto& tb = shared_testbed();
  FastCampaignConfig cfg;
  cfg.surface = AttackSurface::Dns;
  cfg.dns_host_of_victim.resize(tb.sites().size());
  for (SiteIndex v = 0; v < tb.sites().size(); ++v) {
    // A few shared hosts so multiple victims collapse onto one announcer.
    cfg.dns_host_of_victim[v] = static_cast<SiteIndex>(v % 3);
  }
  const auto serial = run_with_threads(cfg, 1);
  const auto parallel = run_with_threads(cfg, 4);
  EXPECT_TRUE(same_bytes(mprs_bytes(serial), mprs_bytes(parallel)));
}

TEST(CampaignParallel, HardwareConcurrencyDefaultMatchesSerial) {
  FastCampaignConfig cfg;
  const auto serial = run_with_threads(cfg, 1);
  const auto automatic = run_with_threads(cfg, 0);  // hardware concurrency
  EXPECT_TRUE(same_bytes(mprs_bytes(serial), mprs_bytes(automatic)));
}

TEST(CampaignParallel, PaperCampaignsAreThreadCountInvariant) {
  const auto& tb = shared_testbed();
  const auto serial =
      run_paper_campaigns(tb, bgp::TieBreakMode::Hashed, 0xCAFE, 1);
  const auto parallel =
      run_paper_campaigns(tb, bgp::TieBreakMode::Hashed, 0xCAFE, 4);
  EXPECT_TRUE(
      same_bytes(mprs_bytes(serial.no_rpki), mprs_bytes(parallel.no_rpki)));
  EXPECT_TRUE(same_bytes(mprs_bytes(serial.rpki), mprs_bytes(parallel.rpki)));
}

TEST(CampaignParallel, IncrementalModeIsPureOptimization) {
  // `incremental` swaps a per-pair full propagation for one baseline per
  // announcer plus delta replays; the store must be byte-identical with
  // the flag on or off, for every attack type and any thread count.
  for (const auto type : bgp::all_attack_types()) {
    FastCampaignConfig full;
    full.type = type;
    full.incremental = false;
    FastCampaignConfig inc;
    inc.type = type;
    inc.incremental = true;
    const std::string reference = mprs_bytes(run_with_threads(full, 1));
    for (const std::size_t threads : {1u, 4u, 64u}) {
      EXPECT_TRUE(
          same_bytes(mprs_bytes(run_with_threads(inc, threads)), reference))
          << bgp::to_cstring(type) << ", " << threads << " threads";
    }
  }
}

TEST(CampaignParallel, IncrementalModeIsPureOptimizationUnderRov) {
  // Same identity with the ROV filter active in both engines: per-victim
  // prefixes, a ROA per victim, and enforcing transit ASes would surface
  // any divergence in the delta engine's validation path or in the
  // sub-prefix plane's reachability closure. Strict ROAs make the
  // adversary's /25 Invalid (so enforcing ASes drop it); MAX_LEN 25 ROAs
  // make it Valid. The cloud edge filter is toggled so transit ROV is
  // observed both alone and behind the edge; rov_fraction 0 keeps the
  // edge-only case.
  for (const double rov_fraction : {0.0, 0.5, 1.0}) {
    // rov_fraction 0 is the shared testbed itself, all 32 sites. The
    // enforcing testbeds take half the site pool, which keeps their
    // full-engine references affordable: 240 pairs per campaign.
    std::optional<Testbed> enforcing;
    if (rov_fraction > 0.0) {
      TestbedConfig tb_cfg = testing_support::small_testbed_config();
      tb_cfg.site_catalog = topo::vultr_sites().first(16);
      enforcing.emplace(tb_cfg);
      enforcing->internet().deploy_rov(rov_fraction, topo::kDefaultRovSeed);
    }
    const Testbed& tb = enforcing ? *enforcing : shared_testbed();
    for (const std::optional<std::uint8_t> max_len :
         {std::optional<std::uint8_t>{}, std::optional<std::uint8_t>{25}}) {
      bgp::RoaRegistry roas;
      FastCampaignConfig cfg;
      const auto all = bgp::all_attack_types();
      cfg.attacks.assign(all.begin(), all.end());
      cfg.per_victim_prefix = true;
      for (std::size_t v = 0; v < tb.sites().size(); ++v) {
        roas.add(bgp::Roa{cfg.victim_prefix(v),
                          tb.internet().graph().asn_of(tb.sites()[v].node),
                          max_len});
      }
      cfg.roas = &roas;
      for (const bool edge_rov : {true, false}) {
        SCOPED_TRACE(::testing::Message()
                     << "rov " << rov_fraction << ", "
                     << (max_len ? "MAX_LEN 25" : "strict") << " ROAs, edge "
                     << (edge_rov ? "on" : "off"));
        cfg.cloud_edge_rov = edge_rov;
        cfg.incremental = false;
        cfg.threads = 1;
        const std::string reference = mprs_bytes(run_fast_campaign(tb, cfg));
        cfg.incremental = true;
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
          cfg.threads = threads;
          EXPECT_TRUE(
              same_bytes(mprs_bytes(run_fast_campaign(tb, cfg)), reference))
              << threads << " threads";
        }
      }
    }
  }
}

TEST(CampaignParallel, OverSubscribedThreadCountStillWorks) {
  // More threads than tasks must clamp, not crash or leave holes.
  FastCampaignConfig cfg;
  const auto serial = run_with_threads(cfg, 1);
  const auto flood = run_with_threads(cfg, 64);
  EXPECT_TRUE(same_bytes(mprs_bytes(serial), mprs_bytes(flood)));
  for (SiteIndex v = 0; v < flood.num_sites(); ++v) {
    for (SiteIndex adv = 0; adv < flood.num_sites(); ++adv) {
      if (v == adv) continue;
      EXPECT_TRUE(flood.pair_complete(v, adv));
    }
  }
}

}  // namespace
}  // namespace marcopolo::core
