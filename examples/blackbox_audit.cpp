// Example: audit an MPIC system as a black box, end-to-end.
//
// This drives the full orchestrated protocol (paper §4.1) instead of the
// fast analysis path: real (simulated) BGP announcements, five-minute
// propagation waits, concurrent DCV triggers against an ACME CA with a
// pre-flight primary and a REST corroboration endpoint, request-log
// classification at the victim/adversary web servers, and retries under
// injected packet loss. The per-system verdicts are then computed from the
// recorded logs — exactly how MarcoPolo evaluated Let's Encrypt staging
// and Cloudflare's API without any knowledge of their internals.
//
// Usage: blackbox_audit [--verbose]
//   --verbose is obs::Session's (src/obs/session.hpp): the timestamped
//   leveled log on stderr, where the orchestrator logs campaign
//   start/config through MARCOPOLO_LOG.
#include <cstdio>
#include <utility>

#include "analysis/resilience.hpp"
#include "analysis/report.hpp"
#include "marcopolo/orchestrator.hpp"
#include "obs/session.hpp"

using namespace marcopolo;

int main(int argc, char** argv) {
  obs::SessionArgs args =
      obs::parse_session_args(argc, argv, obs::kVerboseFlag);
  if (!args.error.empty() || !args.rest.empty()) {
    std::fprintf(stderr, "usage: blackbox_audit [--verbose]\n");
    return 2;
  }
  const obs::Session session("blackbox_audit", std::move(args.options));
  core::Testbed testbed{core::TestbedConfig{}};

  // A slice of the pair matrix keeps the demo quick; the table3 bench runs
  // the full 992-pair campaign.
  std::vector<std::pair<core::SiteIndex, core::SiteIndex>> pairs;
  for (core::SiteIndex v = 0; v < 8; ++v) {
    for (core::SiteIndex a = 24; a < 32; ++a) pairs.emplace_back(v, a);
  }

  core::OrchestratorConfig cfg;
  cfg.pairs = pairs;
  cfg.prefix_lanes = 4;                   // §4.2.3 prefix partitioning
  cfg.loss = netsim::LossModel{0.01, 0.01};  // exercise step-5 retries
  cfg.max_attempts = 6;
  cfg.observers = session.observers();

  std::printf("Auditing production-style MPIC systems with %zu ethical "
              "hijacks over %zu prefix lanes...\n",
              pairs.size(), cfg.prefix_lanes);
  core::Orchestrator orchestrator(testbed, cfg);
  const auto out = orchestrator.run();

  std::printf("\nCampaign stats:\n%s",
              analysis::format_campaign_stats(out.stats).c_str());

  // Post-hoc black-box verdicts from the raw logs.
  const analysis::ResilienceAnalyzer analyzer(out.results);
  analysis::TextTable table(
      {"System", "Interface", "Config", "Attacks defeated", "Success rate"});
  for (const auto& spec : {core::lets_encrypt_spec(testbed),
                           core::cloudflare_spec(testbed)}) {
    std::size_t defeated = 0;
    for (const auto& [v, a] : pairs) {
      const std::size_t captured =
          out.results.hijacked_count(v, a, spec.remotes);
      const bool primary_hijacked =
          !spec.primary || out.results.hijacked(v, a, *spec.primary);
      if (!spec.policy.attack_succeeds(captured, primary_hijacked)) {
        ++defeated;
      }
    }
    char rate[16];
    std::snprintf(rate, sizeof rate, "%.1f%%",
                  100.0 * static_cast<double>(defeated) /
                      static_cast<double>(pairs.size()));
    table.add_row({spec.name,
                   spec.primary ? "ACME (pre-flight)" : "REST API",
                   spec.policy.to_string(),
                   std::to_string(defeated) + "/" +
                       std::to_string(pairs.size()),
                   rate});
  }
  std::printf("\nBlack-box audit results:\n%s", table.to_string().c_str());
  std::printf("\nNo certificate was ever issued: the ACME CA runs in "
              "staging and the client aborts before finalize (paper §3).\n");
  return 0;
}
