// Example: publish a campaign's artifacts the way MPIC Labs does — raw
// per-perspective logs as CSV, ranked deployments and full evaluations as
// JSON — and prove the raw dataset round-trips.
//
// Usage: export_dataset [output_dir]
//   output_dir  defaults to the current directory
//
// The raw logs go out twice: marcopolo_results.csv for spreadsheets and
// other tools (a write-only export), and marcopolo_results.bin, the
// versioned binary store format this code reads back. The binary is
// reloaded and compared cell by cell.
#include <cstdio>
#include <fstream>
#include <string>

#include "analysis/bootstrap.hpp"
#include "analysis/export.hpp"
#include "marcopolo/fast_campaign.hpp"
#include "marcopolo/production_systems.hpp"

using namespace marcopolo;

int main(int argc, char** argv) {
  if (argc > 2 || (argc == 2 && argv[1][0] == '-')) {
    std::fprintf(stderr, "usage: export_dataset [output_dir]\n");
    return 2;
  }
  const std::string dir = argc == 2 ? argv[1] : ".";

  core::Testbed testbed{core::TestbedConfig{}};
  std::printf("Running campaign...\n");
  const auto store =
      core::run_fast_campaign(testbed, core::FastCampaignConfig{});

  // 1. Raw logs: the CSV export, then the binary store plus its
  //    round-trip check.
  const std::string csv_path = dir + "/marcopolo_results.csv";
  {
    std::ofstream out(csv_path);
    store.save_csv(out);
  }
  std::printf("Wrote %s\n", csv_path.c_str());
  const std::string bin_path = dir + "/marcopolo_results.bin";
  {
    std::ofstream out(bin_path, std::ios::binary);
    store.save_binary(out);
  }
  {
    std::ifstream in(bin_path, std::ios::binary);
    const auto reloaded = core::ResultStore::load_binary(in);
    std::size_t mismatches = 0;
    for (core::SiteIndex v = 0; v < store.num_sites(); ++v) {
      for (core::SiteIndex a = 0; a < store.num_sites(); ++a) {
        for (core::PerspectiveIndex p = 0; p < store.num_perspectives(); ++p) {
          if (reloaded.outcome(v, a, p) != store.outcome(v, a, p)) {
            ++mismatches;
          }
        }
      }
    }
    std::printf("Wrote %s (round-trip mismatches: %zu)\n", bin_path.c_str(),
                mismatches);
  }

  // 2. Ranked deployments as JSON.
  analysis::ResilienceAnalyzer analyzer(store);
  analysis::DeploymentOptimizer optimizer(analyzer);
  analysis::OptimizerConfig cfg;
  cfg.set_size = 6;
  cfg.max_failures = 2;
  cfg.candidates = testbed.perspectives_of(topo::CloudProvider::Azure);
  cfg.top_k = 25;
  cfg.strategy = analysis::SearchStrategy::Beam;
  cfg.beam_width = 64;
  cfg.name_prefix = "azure-6-n2";
  const auto ranked = optimizer.optimize(cfg);
  const std::string ranked_path = dir + "/azure_top_deployments.json";
  {
    std::ofstream out(ranked_path);
    analysis::write_ranked_json(out, ranked, testbed);
  }
  std::printf("Wrote %s (%zu deployments)\n", ranked_path.c_str(),
              ranked.size());

  // 3. A full evaluation with bootstrap confidence intervals.
  const auto le = core::lets_encrypt_spec(testbed);
  const auto summary = analyzer.evaluate(le);
  const std::string eval_path = dir + "/lets_encrypt_evaluation.json";
  {
    std::ofstream out(eval_path);
    analysis::write_evaluation_json(out, le, summary, testbed);
  }
  const auto ci = analysis::bootstrap_median(summary.per_victim);
  std::printf("Wrote %s\n", eval_path.c_str());
  std::printf("Let's Encrypt median resilience: %.0f%% "
              "(95%% bootstrap CI over victims: [%.0f%%, %.0f%%])\n",
              ci.point * 100.0, ci.low * 100.0, ci.high * 100.0);
  return 0;
}
