// Campaign wall-clock benchmark: run_paper_campaigns on the default
// testbed across worker-thread counts, the analysis kernels and two
// 50k-AS campaigns, written as one run manifest.
//
// Measures the end-to-end time of the paper's headline artifact (both
// attack-type hijack matrices) and checks the determinism invariant along
// the way: every thread count, and one serial run with the session's
// observers on, must produce a byte-identical ResultStore pair.
// Usage:
//
//   campaign_wallclock [--phases <csv>] [--attacks <csv|all>]
//                      [observer flags] [output.json] [thread counts...]
//
// Defaults: output "campaign_wallclock.json", thread counts {1, 2, 4, 8},
// all phases. The run is an obs::Session (src/obs/session.hpp): the
// output is its RunManifest (tool "campaign_wallclock"), and the observer
// flags --trace-out, --profile[=hz], --telemetry-out and --tick-ms attach
// to the observed serial run below. Any other "--" token, --phases or
// --attacks without a valid value, or a thread count that is not one
// whole positive decimal token prints the usage and exits 2 before any
// work.
//
// Every gated measurement is a manifest phase: one per thread count of
// the campaign sweep (paper_campaigns_threads_<n>_ms), then
// optimizer_exhaustive_ms, optimizer_exhaustive_scalar_ms,
// resilience_kernel_ms, scaled_campaign_50k_ms and
// multi_attack_campaign_ms. Timed runs attach no observer. Each row
// carries the process peak RSS at phase end and the RSS change across the
// phase (obs::time_phase); hosts without /proc omit both. The config echo
// records provenance (version, hostname, hardware_concurrency), each
// group's workload and its check results.
//
// --phases selects which measurement groups run, so CI and local loops
// can re-run one gated phase without paying for the rest (in particular,
// re-measuring the optimizer or resilience kernels without the 50k-AS
// build). Tokens: runs, optimizer, resilience, scaled, multi — or a gated
// phase name, which selects its group. Phases and config keys of skipped
// groups are omitted and their exit-code checks don't apply.
//
// Whenever a group on the default testbed runs (runs, optimizer,
// resilience), one serial campaign runs under the session's observers
// after the sweep. It fills the manifest's metrics section, it is the
// outcome plane the analysis phases score, and its stores must match the
// sweep's byte for byte (observers on vs off). With --trace-out its
// journal is the trace bundle, which Session::finish() checks against
// the manifest counters.
//
// The multi group sweeps every registered attack type (narrow with
// --attacks <csv|all>) over the same 50k-AS testbed the scaled group
// uses — one campaign, one result-store plane per attack — and gates the
// total as multi_attack_campaign_ms. Because every plane reuses the
// announcer's victim baseline, the per-attack cost should stay below a
// standalone campaign's; "multi.per_attack_ratio_vs_scaled" states the
// measured ratio whenever the scaled group also ran.
//
// Exit codes: 0 ok; 1 when a check fails (determinism across thread
// counts or observers, packed vs scalar optimizer, pair completeness) or
// an artifact cannot be written, the manifest being written either way;
// 2 usage.
#include <iostream>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "analysis/optimizer.hpp"
#include "analysis/scalar_reference.hpp"
#include "bgp/attack_model.hpp"
#include "marcopolo/fast_campaign.hpp"
#include "obs/session.hpp"
#include "obs/timer.hpp"

using namespace marcopolo;

#ifndef MARCOPOLO_GIT_DESCRIBE
#define MARCOPOLO_GIT_DESCRIBE "unknown"
#endif

namespace {

std::string dataset_bytes(const core::CampaignDataset& data) {
  std::ostringstream out;
  data.no_rpki.save_binary(out);
  data.rpki.save_binary(out);
  return out.str();
}

std::string hostname() {
#if defined(__unix__) || defined(__APPLE__)
  char buf[256] = {};
  if (::gethostname(buf, sizeof(buf) - 1) == 0 && buf[0] != '\0') return buf;
#endif
  return "unknown";
}

/// Which measurement groups this invocation runs (--phases).
struct PhaseSelection {
  bool runs = true;
  bool optimizer = true;
  bool resilience = true;
  bool scaled = true;
  bool multi = true;

  /// Parse a --phases csv; returns false on an unknown token.
  static bool parse(const std::string& csv, PhaseSelection& out,
                    std::string& bad_token) {
    out = PhaseSelection{false, false, false, false, false};
    std::size_t pos = 0;
    while (pos <= csv.size()) {
      std::size_t comma = csv.find(',', pos);
      if (comma == std::string::npos) comma = csv.size();
      const std::string token = csv.substr(pos, comma - pos);
      pos = comma + 1;
      if (token.empty()) continue;
      // Gated phase names select the group that produces them, so a CI
      // log's failing phase name can be pasted straight back in.
      if (token == "runs" || token.starts_with("paper_campaigns_threads_")) {
        out.runs = true;
      } else if (token == "optimizer" || token == "optimizer_exhaustive_ms" ||
                 token == "optimizer_exhaustive_scalar_ms") {
        out.optimizer = true;
      } else if (token == "resilience" || token == "resilience_kernel_ms") {
        out.resilience = true;
      } else if (token == "scaled" || token == "scaled_campaign_50k_ms") {
        out.scaled = true;
      } else if (token == "multi" || token == "multi_attack_campaign_ms") {
        out.multi = true;
      } else {
        bad_token = token;
        return false;
      }
    }
    return true;
  }
};

/// The fastest of three reps, each run by `rep`. Single runs of these
/// phases jitter by tens of percent (a fresh 50k-AS heap's page faults
/// and allocator warm-up, a ~5 ms kernel), which would flap the gate.
template <typename Rep>
obs::PhaseRow fastest_of_3(Rep&& rep) {
  obs::PhaseRow best = rep();
  for (int i = 1; i < 3; ++i) {
    obs::PhaseRow row = rep();
    if (row.seconds < best.seconds) best = std::move(row);
  }
  return best;
}

bool all_pairs_complete(const core::ResultStore& store) {
  for (std::size_t ai = 0; ai < store.num_attacks(); ++ai) {
    for (core::SiteIndex v = 0; v < store.num_sites(); ++v) {
      for (core::SiteIndex a = 0; a < store.num_sites(); ++a) {
        if (v != a && !store.pair_complete(ai, v, a)) return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr unsigned kFlags =
      obs::kTraceOutFlag | obs::kProfileFlag | obs::kTelemetryFlags;
  const std::string usage =
      "usage: campaign_wallclock [--phases <csv>] [--attacks <csv|all>] " +
      obs::session_usage(kFlags) + " [output.json] [thread counts...]";
  obs::SessionArgs args = obs::parse_session_args(argc, argv, kFlags);
  std::string out_path;
  std::vector<std::size_t> thread_counts;
  PhaseSelection select;
  std::vector<bgp::AttackType> attack_list;
  const std::vector<std::string>& rest = args.rest;
  for (std::size_t i = 0; i < rest.size() && args.error.empty(); ++i) {
    const std::string& arg = rest[i];
    // Any other flag, or one of these two without its value, would
    // otherwise be taken for the output path or a thread count.
    if (arg.starts_with("--") &&
        ((arg != "--phases" && arg != "--attacks") || i + 1 == rest.size())) {
      args.error = "unexpected argument " + arg;
    } else if (arg == "--phases") {
      std::string bad;
      if (!PhaseSelection::parse(rest[++i], select, bad)) {
        args.error = "unknown phase \"" + bad +
                     "\" (valid: runs, optimizer, resilience, scaled, "
                     "multi, or a gated phase name)";
      }
    } else if (arg == "--attacks") {
      try {
        attack_list = bgp::parse_attack_list(rest[++i]);
      } catch (const std::invalid_argument& e) {
        args.error = e.what();
      }
    } else if (out_path.empty()) {
      out_path = arg;
    } else {
      thread_counts.push_back(static_cast<std::size_t>(
          obs::parse_count("thread count", arg, args.error)));
    }
  }
  if (!args.error.empty()) {
    std::cerr << args.error << "\n" << usage << std::endl;
    return 2;
  }
  if (thread_counts.empty()) thread_counts = {1, 2, 4, 8};
  args.options.metrics_out =
      out_path.empty() ? "campaign_wallclock.json" : out_path;
  obs::Session session("campaign_wallclock", std::move(args.options));
  obs::RunManifest& manifest = session.manifest();
  manifest.set("version", MARCOPOLO_GIT_DESCRIBE);
  manifest.set("hostname", hostname());
  manifest.set("hardware_concurrency",
               std::uint64_t{std::thread::hardware_concurrency()});
  std::vector<std::string> failures;  // Exit 1, after the manifest.

  constexpr std::uint64_t kSeed = 0xCAFE;
  std::optional<core::Testbed> testbed;
  std::optional<core::CampaignDataset> observed;
  double serial_seconds = 0.0;  // threads=1 sweep phase; 0 = not run.
  if (select.runs || select.optimizer || select.resilience) {
    std::cerr << "building default testbed..." << std::endl;
    testbed.emplace(core::TestbedConfig{});
    manifest.set("testbed", "default");
    manifest.set("sites", testbed->sites().size());
    manifest.set("perspectives", testbed->perspectives().size());
    manifest.set("attack_types", "equally_specific,forged_origin_prepend");
    manifest.set("tie_break", "hashed");
    manifest.set("tie_break_seed", kSeed);
    const auto campaign = [&](std::size_t threads,
                              const obs::Observers& observers) {
      return core::run_paper_campaigns(*testbed, bgp::TieBreakMode::Hashed,
                                       kSeed, threads, observers);
    };
    // Every store pair must match the first one written.
    std::string reference;
    const auto same_as_first = [&](const core::CampaignDataset& data) {
      const std::string bytes = dataset_bytes(data);
      if (reference.empty()) reference = bytes;
      return bytes == reference;
    };
    if (select.runs) {
      std::string counts;
      for (const std::size_t threads : thread_counts) {
        std::optional<core::CampaignDataset> data;
        obs::PhaseRow row = obs::time_phase(
            "paper_campaigns_threads_" + std::to_string(threads) + "_ms",
            [&] { data = campaign(threads, {}); });
        const bool identical = same_as_first(*data);
        std::cerr << "threads=" << threads << "  " << row.seconds << " s  "
                  << (identical ? "identical" : "MISMATCH") << std::endl;
        if (!identical) {
          failures.push_back("determinism violation at threads=" +
                             std::to_string(threads));
        }
        if (threads == 1 && serial_seconds == 0.0) {
          serial_seconds = row.seconds;
        }
        manifest.add_phase(std::move(row));
        counts += (counts.empty() ? "" : ",") + std::to_string(threads);
      }
      manifest.set("thread_counts", counts);
    }
    std::cerr << "serial run with observers..." << std::endl;
    observed = campaign(1, session.observers());
    const bool identical = same_as_first(*observed);
    std::cerr << "observed run  " << (identical ? "identical" : "MISMATCH")
              << std::endl;
    if (!identical) {
      failures.emplace_back("determinism violation with observers on");
    }
  }

  // Exhaustive-optimizer phase: the analysis layer's hot loop at benchmark
  // scale — a (6, N-2) search over every GCP perspective, C(40, 6) =
  // 3,838,380 candidate sets, single-threaded so thread count never skews
  // the phase. The identical search then runs on the retained scalar
  // reference (the seed's byte-per-pair path), so one output file both
  // demonstrates the packed-kernel speedup and gives the CI gate a packed
  // wall-clock phase to hold.
  std::vector<analysis::PerspectiveIndex> gcp;
  std::optional<analysis::ResilienceAnalyzer> analyzer;
  if (select.optimizer || select.resilience) {
    gcp = testbed->perspectives_of(topo::CloudProvider::Gcp);
    analyzer.emplace(observed->no_rpki);
  }
  if (select.optimizer) {
    std::cerr << "exhaustive optimizer, (6, N-2) over GCP..." << std::endl;
    const analysis::DeploymentOptimizer optimizer(*analyzer);
    analysis::SearchStats stats;
    analysis::OptimizerConfig ocfg;
    ocfg.set_size = 6;
    ocfg.max_failures = 2;
    ocfg.candidates = gcp;
    ocfg.top_k = 1;
    ocfg.threads = 1;
    ocfg.stats = &stats;
    analysis::RankedDeployment packed;
    obs::PhaseRow packed_row = obs::time_phase(
        "optimizer_exhaustive_ms", [&] { packed = optimizer.best(ocfg); });
    std::cerr << "  packed: " << packed_row.seconds << " s  ("
              << stats.complete_sets_scored << " sets scored, "
              << stats.subtrees_pruned << " subtrees pruned)" << std::endl;

    const analysis::ScalarReference scalar(observed->no_rpki);
    analysis::ScalarSearchBest scalar_best;
    obs::PhaseRow scalar_row =
        obs::time_phase("optimizer_exhaustive_scalar_ms", [&] {
          scalar_best = analysis::scalar_exhaustive_best(
              scalar, gcp, ocfg.set_size, ocfg.set_size - ocfg.max_failures);
        });
    const bool agree = packed.score.median == scalar_best.score.median &&
                       packed.score.average == scalar_best.score.average &&
                       packed.spec.remotes == scalar_best.set;
    const double speedup = packed_row.seconds > 0.0
                               ? scalar_row.seconds / packed_row.seconds
                               : 0.0;
    std::cerr << "  scalar: " << scalar_row.seconds
              << " s  (packed speedup " << speedup << "x)  "
              << (agree ? "identical" : "MISMATCH") << std::endl;
    if (!agree) {
      failures.emplace_back("packed optimizer disagrees with scalar reference");
    }
    manifest.add_phase(std::move(packed_row));
    manifest.add_phase(std::move(scalar_row));
    manifest.set("optimizer.candidates", gcp.size());
    manifest.set("optimizer.set_size", ocfg.set_size);
    manifest.set("optimizer.max_failures", ocfg.max_failures);
    manifest.set("optimizer.complete_sets_scored", stats.complete_sets_scored);
    manifest.set("optimizer.subtrees_pruned", stats.subtrees_pruned);
    manifest.set("optimizer.best_median", packed.score.median);
    manifest.set("optimizer.best_average", packed.score.average);
    manifest.set("optimizer.packed_speedup_vs_scalar", speedup);
    manifest.set("optimizer.scalar_agrees", agree);
  }

  // Resilience-kernel phase: the packed-word scoring kernel in isolation —
  // build_success_mask + score over sliding 6-windows of the GCP pool at
  // every quorum from 6-0 to 6-5, repeated to a stable ~100ms. This is
  // the innermost loop every ROADMAP SIMD item targets (a fixed
  // instruction stream, no allocation, no propagation). The checksum both
  // defeats dead-code elimination and doubles as a determinism check.
  if (select.resilience) {
    std::cerr << "resilience kernel sweep..." << std::endl;
    analysis::ResilienceAnalyzer::ScoreScratch scratch =
        analyzer->make_scratch();
    constexpr std::size_t kWindow = 6;
    constexpr int kKernelReps = 40;
    double checksum = 0.0;
    std::uint64_t scored = 0;
    obs::PhaseRow best = fastest_of_3([&] {
      checksum = 0.0;
      scored = 0;
      return obs::time_phase("resilience_kernel_ms", [&] {
        for (int r = 0; r < kKernelReps; ++r) {
          for (std::size_t start = 0; start + kWindow <= gcp.size();
               ++start) {
            const std::span<const analysis::PerspectiveIndex> set(
                gcp.data() + start, kWindow);
            for (std::size_t required = 1; required <= kWindow; ++required) {
              const auto score =
                  analyzer->score_set(set, required, std::nullopt, scratch);
              checksum += score.median + score.average;
              ++scored;
            }
          }
        }
      });
    });
    std::cerr << "  " << scored << " scores in " << best.seconds
              << " s (best of 3), checksum " << checksum << std::endl;
    manifest.add_phase(std::move(best));
    manifest.set("resilience_kernel.candidates", gcp.size());
    manifest.set("resilience_kernel.window", kWindow);
    manifest.set("resilience_kernel.sets_scored", scored);
    manifest.set("resilience_kernel.checksum", checksum);
  }

  // Scaled-topology phase: a full 32x31 campaign on a 50k-AS Internet.
  // The incremental engine (one baseline per announcer, delta replays per
  // adversary) is what keeps this within a small multiple of the default
  // ~900-AS testbed's per-matrix wall clock; the phase puts that claim
  // under the CI regression gate.
  std::optional<core::Testbed> scaled_testbed;
  if (select.scaled || select.multi) {
    // One 50k-AS build serves both the scaled and the multi-attack phase.
    // It is allocation-bound and jitters ~30% run to run, so it is
    // echoed but not gated.
    std::cerr << "building 50k-AS testbed..." << std::endl;
    core::TestbedConfig scaled_cfg;
    scaled_cfg.internet = topo::scaled_internet_config(50000);
    const obs::PhaseClock build;
    scaled_testbed.emplace(scaled_cfg);
    const double build_seconds = build.seconds();
    const std::size_t ases = scaled_testbed->internet().graph().size();
    std::cerr << "  " << ases << " ASes in " << build_seconds << " s"
              << std::endl;
    manifest.set("internet_50k.ases", ases);
    manifest.set("internet_50k.sites", scaled_testbed->sites().size());
    manifest.set("internet_50k.build_seconds", build_seconds);
  }
  double scaled_seconds = 0.0;
  if (select.scaled) {
    core::FastCampaignConfig scaled_run;
    scaled_run.threads = 1;
    bool complete = true;
    obs::PhaseRow best = fastest_of_3([&] {
      std::optional<core::ResultStore> store;
      obs::PhaseRow row = obs::time_phase("scaled_campaign_50k_ms", [&] {
        store = core::run_fast_campaign(*scaled_testbed, scaled_run);
      });
      complete = all_pairs_complete(*store) && complete;
      return row;
    });
    scaled_seconds = best.seconds;
    std::cerr << "scaled campaign: " << scaled_seconds << " s  "
              << (complete ? "complete" : "INCOMPLETE") << std::endl;
    if (!complete) {
      failures.emplace_back("scaled campaign left incomplete pairs");
    }
    manifest.add_phase(std::move(best));
    // The serial default run covers two hijack matrices: compare per
    // matrix.
    if (serial_seconds > 0.0) {
      manifest.set("scaled.per_matrix_ratio_vs_default",
                   scaled_seconds / (serial_seconds * 0.5));
    }
    manifest.set("scaled.complete", complete);
  }

  // Multi-attack phase: every attack type in one campaign over the same
  // 50k-AS testbed — one store plane per type, each reusing the
  // announcer's baseline. Gated as a whole; the per-attack ratio against
  // the single-attack scaled phase quantifies the baseline-sharing win.
  if (select.multi) {
    std::vector<bgp::AttackType> attacks = attack_list;
    if (attacks.empty()) {
      const auto all = bgp::all_attack_types();
      attacks.assign(all.begin(), all.end());
    }
    std::cerr << "multi-attack campaign (" << attacks.size()
              << " types) on the 50k-AS testbed..." << std::endl;
    core::FastCampaignConfig multi_run;
    multi_run.threads = 1;
    multi_run.attacks = attacks;
    bool complete = true;
    obs::PhaseRow best = fastest_of_3([&] {
      std::optional<core::ResultStore> store;
      obs::PhaseRow row = obs::time_phase("multi_attack_campaign_ms", [&] {
        store = core::run_fast_campaign(*scaled_testbed, multi_run);
      });
      complete = all_pairs_complete(*store) && complete;
      return row;
    });
    std::cerr << "multi-attack campaign: " << best.seconds << " s  "
              << (complete ? "complete" : "INCOMPLETE") << std::endl;
    if (!complete) {
      failures.emplace_back("multi-attack campaign left incomplete pairs");
    }
    std::string names;
    for (const bgp::AttackType type : attacks) {
      names += (names.empty() ? "" : ",") + std::string(bgp::to_cstring(type));
    }
    manifest.set("multi.attack_types", names);
    if (scaled_seconds > 0.0) {
      manifest.set("multi.per_attack_ratio_vs_scaled",
                   best.seconds / (static_cast<double>(attacks.size()) *
                                   scaled_seconds));
    }
    manifest.set("multi.complete", complete);
    manifest.add_phase(std::move(best));
  }

  const int written = session.finish();
  for (const std::string& failure : failures) std::cerr << failure << "\n";
  return failures.empty() ? written : 1;
}
