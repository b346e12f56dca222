// Quickstart: build the testbed, run a MarcoPolo campaign, and evaluate a
// few MPIC deployments.
//
// This walks the three core steps of the framework:
//   1. Assemble the measurement environment (synthetic Internet + 32 Vultr
//      victim/adversary sites + 106 cloud perspectives).
//   2. Run the pairwise hijack campaign (the fast path computes the same
//      hijacked(P, v, a) dataset the orchestrator measures), plus a small
//      orchestrated slice of the five-step protocol for comparison.
//   3. Ask post-hoc questions: how resilient is a single perspective? an
//      optimized (6, N-2) deployment per provider? the production systems?
//
// With `--attacks <csv|all>` (names from the attack registry, e.g.
// "equally-specific,route-leak") an extra multi-attack sweep runs after
// the paper campaigns: one campaign, one result plane per attack type,
// every plane sharing each victim's propagation baseline.
//
// The observer flags (--metrics-out, --trace-out, --progress, --verbose,
// --profile[=hz], --telemetry-out, --serve-metrics, --tick-ms) are parsed
// and wired by obs::Session (src/obs/session.hpp): one set of observers
// rides the paper campaigns, the sweep, the orchestrated slice and the
// optimizer, and the run ends by writing the RunManifest and the
// self-checked trace bundle. Results are byte-identical with any of them
// on, off, or degraded.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/optimizer.hpp"
#include "analysis/report.hpp"
#include "bgp/attack_model.hpp"
#include "marcopolo/fast_campaign.hpp"
#include "marcopolo/orchestrator.hpp"
#include "marcopolo/production_systems.hpp"
#include "obs/session.hpp"
#include "obs/timer.hpp"

using namespace marcopolo;

int main(int argc, char** argv) {
  obs::SessionArgs args =
      obs::parse_session_args(argc, argv, obs::kAllSessionFlags);
  std::vector<bgp::AttackType> extra_attacks;
  for (std::size_t i = 0; i < args.rest.size() && args.error.empty(); ++i) {
    if (args.rest[i] != "--attacks" || i + 1 == args.rest.size()) {
      args.error = "unexpected argument " + args.rest[i];
      break;
    }
    try {
      extra_attacks = bgp::parse_attack_list(args.rest[++i]);
    } catch (const std::invalid_argument& e) {
      args.error = e.what();
    }
  }
  if (!args.error.empty()) {
    std::fprintf(stderr, "%s\nusage: quickstart [--attacks <csv|all>] %s\n",
                 args.error.c_str(),
                 obs::session_usage(obs::kAllSessionFlags).c_str());
    return 2;
  }
  obs::Session session("quickstart", std::move(args.options));
  const obs::Observers& observers = session.observers();
  obs::RunManifest& manifest = session.manifest();

  // 1. Testbed.
  obs::PhaseClock phase;
  core::TestbedConfig tb_config;
  core::Testbed testbed(tb_config);
  manifest.add_phase("build_testbed", phase.seconds());
  std::printf("Testbed: %zu ASes, %zu Vultr sites, %zu perspectives\n",
              testbed.internet().graph().size(), testbed.sites().size(),
              testbed.perspectives().size());

  // 2. Campaign: every ordered victim/adversary pair, equally-specific
  //    hijacks, hashed route-age tie break.
  phase.restart();
  const auto dataset = core::run_paper_campaigns(
      testbed, bgp::TieBreakMode::Hashed, 0xCAFE, /*threads=*/0, observers);
  manifest.add_phase("fast_campaign", phase.seconds());
  std::printf("Campaign: %zu attacks recorded (plus RPKI variant)\n",
              testbed.sites().size() * (testbed.sites().size() - 1));

  // 2b'. Optional multi-attack sweep: one campaign, one store plane per
  //      requested attack type, all sharing each victim's baseline.
  if (!extra_attacks.empty()) {
    phase.restart();
    core::FastCampaignConfig sweep;
    sweep.attacks = extra_attacks;
    sweep.tie_break = bgp::TieBreakMode::Hashed;
    sweep.tie_break_seed = 0xCAFE;
    sweep.observers = observers;
    const auto sweep_store = core::run_fast_campaign(testbed, sweep);
    manifest.add_phase("multi_attack_sweep", phase.seconds());
    analysis::TextTable sweep_table({"Attack", "Hijacked verdicts"});
    const auto n = static_cast<core::SiteIndex>(sweep_store.num_sites());
    for (std::size_t ai = 0; ai < sweep_store.num_attacks(); ++ai) {
      std::size_t hijacked = 0;
      for (core::SiteIndex v = 0; v < n; ++v) {
        for (core::SiteIndex a = 0; a < n; ++a) {
          if (v == a) continue;
          for (const auto& rec : testbed.perspectives()) {
            if (sweep_store.hijacked(ai, v, a, rec.index)) ++hijacked;
          }
        }
      }
      sweep_table.add_row(
          {bgp::to_cstring(sweep_store.attack_types()[ai]),
           std::to_string(hijacked)});
    }
    std::printf("\nMulti-attack sweep (%zu planes):\n%s",
                sweep_store.num_attacks(), sweep_table.to_string().c_str());
  }

  // 2b. A small orchestrated slice of the five-step protocol — enough to
  //     populate the orchestrator's attempt/retry accounting without the
  //     full 992-pair run (blackbox_audit does that).
  phase.restart();
  core::OrchestratorConfig orch_cfg;
  for (core::SiteIndex v = 0; v < 2; ++v) {
    for (core::SiteIndex a = 30; a < 32; ++a) orch_cfg.pairs.emplace_back(v, a);
  }
  orch_cfg.prefix_lanes = 2;
  orch_cfg.loss = netsim::LossModel{0.01, 0.01};
  orch_cfg.observers = observers;
  core::Orchestrator orchestrator(testbed, orch_cfg);
  const auto orch_out = orchestrator.run();
  manifest.add_phase("orchestrated_slice", phase.seconds());
  // Without a registry the snapshot is empty: the plain stats table.
  const obs::MetricsSnapshot snap = observers.metrics != nullptr
                                        ? observers.metrics->snapshot()
                                        : obs::MetricsSnapshot{};
  std::printf("\nOrchestrated slice (%zu pairs):\n%s", orch_cfg.pairs.size(),
              analysis::format_campaign_stats(orch_out.stats, &snap).c_str());

  // 3a. Single-perspective (no MPIC) baseline per provider.
  phase.restart();
  analysis::ResilienceAnalyzer plain(dataset.no_rpki);
  analysis::DeploymentOptimizer optimizer(plain);
  analysis::TextTable table(
      {"Deployment", "Config", "Median", "Average", "25th pct"});

  for (const auto provider :
       {topo::CloudProvider::Aws, topo::CloudProvider::Azure,
        topo::CloudProvider::Gcp}) {
    analysis::OptimizerConfig single;
    single.set_size = 1;
    single.max_failures = 0;
    single.candidates = testbed.perspectives_of(provider);
    single.name_prefix = std::string(topo::to_string_view(provider));
    single.observers = observers;
    const auto best1 = optimizer.best(single);
    const auto s1 = plain.evaluate(best1.spec);
    table.add_row({std::string(topo::to_string_view(provider)), "(1, N)",
                   analysis::format_resilience(s1.median),
                   analysis::format_resilience(s1.average),
                   analysis::format_resilience(s1.p25)});
  }

  // 3b. Optimal (6, N-2) per provider (beam search keeps this quick;
  //     the table2 bench runs the exhaustive version).
  for (const auto provider :
       {topo::CloudProvider::Aws, topo::CloudProvider::Azure,
        topo::CloudProvider::Gcp}) {
    analysis::OptimizerConfig cfg;
    cfg.set_size = 6;
    cfg.max_failures = 2;
    cfg.candidates = testbed.perspectives_of(provider);
    cfg.strategy = analysis::SearchStrategy::Beam;
    cfg.beam_width = 48;
    cfg.name_prefix = std::string(topo::to_string_view(provider));
    cfg.observers = observers;
    const auto best = optimizer.best(cfg);
    const auto s = plain.evaluate(best.spec);
    table.add_row({std::string(topo::to_string_view(provider)), "(6, N-2)",
                   analysis::format_resilience(s.median),
                   analysis::format_resilience(s.average),
                   analysis::format_resilience(s.p25)});
  }

  // 3c. Production systems.
  for (const auto& spec : {core::lets_encrypt_spec(testbed),
                           core::cloudflare_spec(testbed)}) {
    const auto s = plain.evaluate(spec);
    table.add_row({spec.name, spec.config_string(),
                   analysis::format_resilience(s.median),
                   analysis::format_resilience(s.average),
                   analysis::format_resilience(s.p25)});
  }
  manifest.add_phase("analysis", phase.seconds());

  std::printf("\nResilience without RPKI (fraction of adversaries defeated):\n%s",
              table.to_string().c_str());

  manifest.set("tie_break", "hashed");
  manifest.set("tie_break_seed", std::uint64_t{0xCAFE});
  manifest.set("sites", testbed.sites().size());
  manifest.set("perspectives", testbed.perspectives().size());
  manifest.set("ases", testbed.internet().graph().size());
  manifest.set("orchestrated_pairs", orch_cfg.pairs.size());
  return session.finish();
}
