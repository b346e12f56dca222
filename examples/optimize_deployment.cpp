// Example: compute optimized MPIC perspective sets for a CA.
//
// This is the workflow the paper ran for Google Trust Services and the
// Open MPIC project (§1, §5.1): given a cloud provider preference and a
// perspective count, produce the CA/Browser-Forum-compliant deployments
// ranked by resilience, including the recommended primary perspective.
//
// Usage: optimize_deployment [provider] [count] [--attacks <csv|all>]
//                            [observer flags]
//   provider: aws | gcp | azure   (default azure)
//   count:    2..12               (default 6)
//
// With --attacks the campaign sweeps every listed attack type (one store
// plane each) and the optimizer scores deployments against the worst
// case: a perspective counts as hijacked for a pair when ANY listed
// attack captures it, so the ranked sets are robust to the adversary's
// choice of attack, not just to equally-specific hijacks.
//
// The observer flags are obs::Session's (src/obs/session.hpp), all but
// --verbose: one set of observers rides the campaign and the optimizer,
// and the run ends by writing the RunManifest and the self-checked trace
// bundle.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/optimizer.hpp"
#include "analysis/report.hpp"
#include "analysis/rir_cluster.hpp"
#include "bgp/attack_model.hpp"
#include "marcopolo/fast_campaign.hpp"
#include "obs/session.hpp"
#include "obs/timer.hpp"

using namespace marcopolo;

namespace {

topo::CloudProvider parse_provider(const char* text) {
  if (std::strcmp(text, "aws") == 0) return topo::CloudProvider::Aws;
  if (std::strcmp(text, "gcp") == 0) return topo::CloudProvider::Gcp;
  if (std::strcmp(text, "azure") == 0) return topo::CloudProvider::Azure;
  std::fprintf(stderr, "unknown provider '%s' (aws|gcp|azure)\n", text);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  constexpr unsigned kFlags = obs::kAllSessionFlags & ~obs::kVerboseFlag;
  obs::SessionArgs args = obs::parse_session_args(argc, argv, kFlags);
  std::vector<bgp::AttackType> attacks;
  std::vector<const char*> positional;
  for (std::size_t i = 0; i < args.rest.size() && args.error.empty(); ++i) {
    if (args.rest[i] != "--attacks" || i + 1 == args.rest.size()) {
      positional.push_back(args.rest[i].c_str());
      continue;
    }
    try {
      attacks = bgp::parse_attack_list(args.rest[++i]);
    } catch (const std::invalid_argument& e) {
      args.error = e.what();
    }
  }
  const std::size_t count =
      positional.size() > 1
          ? static_cast<std::size_t>(
                obs::parse_count("count", positional[1], args.error, 2))
          : 6;
  if (!args.error.empty()) {
    std::fprintf(stderr,
                 "%s\nusage: optimize_deployment [provider] [count] "
                 "[--attacks <csv|all>] %s\n",
                 args.error.c_str(), obs::session_usage(kFlags).c_str());
    return 2;
  }
  const topo::CloudProvider provider = !positional.empty()
                                           ? parse_provider(positional[0])
                                           : topo::CloudProvider::Azure;
  if (count > 12) {
    std::fprintf(stderr, "count must be in [2, 12]\n");
    return 2;
  }
  obs::Session session("optimize_deployment", std::move(args.options));
  obs::RunManifest& manifest = session.manifest();

  obs::PhaseClock phase;
  core::Testbed testbed{core::TestbedConfig{}};
  manifest.add_phase("build_testbed", phase.seconds());
  std::printf("Running MarcoPolo campaign (%zu pairwise hijacks)...\n",
              testbed.sites().size() * (testbed.sites().size() - 1));
  phase.restart();
  core::FastCampaignConfig campaign_cfg;
  campaign_cfg.observers = session.observers();
  campaign_cfg.attacks = attacks;
  auto store = core::run_fast_campaign(testbed, campaign_cfg);
  manifest.add_phase("fast_campaign", phase.seconds());
  if (store.num_attacks() > 1) {
    // Fold the planes to the adversary's best case: any attack that
    // captures a perspective marks it hijacked in the store the
    // optimizer scores against.
    core::ResultStore folded = store.extract_attack(0);
    const auto n = static_cast<core::SiteIndex>(store.num_sites());
    for (core::SiteIndex v = 0; v < n; ++v) {
      for (core::SiteIndex a = 0; a < n; ++a) {
        if (v == a) continue;
        for (const auto& rec : testbed.perspectives()) {
          for (std::size_t ai = 1; ai < store.num_attacks(); ++ai) {
            if (store.hijacked(ai, v, a, rec.index)) {
              folded.record(v, a, rec.index, bgp::OriginReached::Adversary);
              break;
            }
          }
        }
      }
    }
    std::printf("Scoring against worst case over %zu attack types\n",
                store.num_attacks());
    store = std::move(folded);
  }
  analysis::ResilienceAnalyzer analyzer(store);
  analysis::DeploymentOptimizer optimizer(analyzer);

  // CA/Browser Forum minimum quorum for this perspective count.
  const auto policy = mpic::QuorumPolicy::cab_minimum(count);
  std::printf("Optimizing %s deployments with policy %s "
              "(CA/B-compliant: %s)\n",
              std::string(topo::to_string_view(provider)).c_str(),
              policy.to_string().c_str(),
              policy.cab_compliant() ? "yes" : "no");

  analysis::OptimizerConfig cfg;
  cfg.set_size = count;
  cfg.max_failures = policy.max_failures;
  cfg.with_primary = true;
  cfg.candidates = testbed.perspectives_of(provider);
  cfg.top_k = 10;
  cfg.strategy = count <= 6 ? analysis::SearchStrategy::Exhaustive
                            : analysis::SearchStrategy::Beam;
  cfg.name_prefix = std::string(topo::to_string_view(provider));
  cfg.observers = session.observers();

  phase.restart();
  const auto ranked = optimizer.optimize(cfg);
  manifest.add_phase("optimize", phase.seconds());

  analysis::TextTable table({"Rank", "Median", "Average", "Primary",
                             "Remote perspectives", "RIR shape"});
  std::vector<topo::Rir> rirs;
  for (const auto& rec : testbed.perspectives()) rirs.push_back(rec.rir);

  for (std::size_t i = 0; i < ranked.size(); ++i) {
    const auto& rd = ranked[i];
    std::string remotes;
    for (const auto p : rd.spec.remotes) {
      if (!remotes.empty()) remotes += ", ";
      remotes += std::string(testbed.perspectives()[p].region_name);
    }
    const auto sig = analysis::cluster_signature(rd.spec, rirs);
    table.add_row(
        {std::to_string(i + 1), analysis::format_resilience(rd.score.median),
         analysis::format_resilience(rd.score.average),
         std::string(testbed.perspectives()[*rd.spec.primary].region_name),
         remotes, analysis::format_signature(sig, true)});
  }
  std::printf("\nTop deployments (primary must succeed; quorum %zu of %zu "
              "remotes):\n%s",
              policy.required(), count, table.to_string().c_str());

  const auto stats = analysis::analyze_clusters(ranked, rirs,
                                                policy.max_failures);
  std::printf("\nRIR clustering among these: %s at %s "
              "(paper §5.3 predicts clusters of Y+1 = %zu)\n",
              stats.top_signature.c_str(),
              analysis::format_share(stats.top_share).c_str(),
              policy.max_failures + 1);

  manifest.set("provider", std::string(topo::to_string_view(provider)));
  manifest.set("set_size", count);
  manifest.set("max_failures", policy.max_failures);
  manifest.set("strategy",
               cfg.strategy == analysis::SearchStrategy::Exhaustive
                   ? "exhaustive"
                   : "beam");
  return session.finish();
}
