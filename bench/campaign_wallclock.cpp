// Campaign wall-clock benchmark: run_paper_campaigns on the default
// testbed across worker-thread counts, emitting self-describing JSON.
//
// Measures the end-to-end time of the paper's headline artifact (both
// attack-type hijack matrices) and checks the determinism invariant along
// the way: every thread count must produce a byte-identical ResultStore
// pair, with metrics enabled. The JSON carries everything needed to
// interpret a result file on its own: the source version (git describe),
// hostname, hardware thread count, the exact campaign config, and the
// full metrics snapshot of the serial run.
// Usage:
//
//   campaign_wallclock [--phases <csv>] [--attacks <csv|all>]
//                      [observer flags] [output.json] [thread counts...]
//
// Defaults: JSON to stdout-adjacent "campaign_wallclock.json", thread
// counts {1, 2, 4, 8}, all phases. The observer flags are obs::Session's
// --trace-out, --profile[=hz], --telemetry-out and --tick-ms
// (src/obs/session.hpp); they attach only to the recording block below.
// Any other "--" token, or --phases/--attacks without a value, prints
// the usage and exits 2 before any work.
//
// --phases selects which measurement groups run, so CI and local loops
// can re-run one gated phase without paying for the rest (in particular,
// re-measuring the optimizer or resilience kernels without the 50k-AS
// build). Tokens: runs, recording, optimizer, resilience, scaled, multi —
// or a gated phase name (optimizer_exhaustive_ms, resilience_kernel_ms,
// ...), which selects its group. Sections for skipped groups are omitted
// from the JSON and their exit-code checks don't apply.
//
// The multi group sweeps every registered attack type (narrow with
// --attacks <csv|all>) over the same 50k-AS testbed the scaled group
// uses — one campaign, one result-store plane per attack — and gates the
// total as multi_attack_campaign_ms. Because every plane reuses the
// announcer's victim baseline, the per-attack cost should stay below a
// standalone campaign's; the "per_attack_ratio_vs_scaled" field states
// the measured ratio whenever the scaled group also ran.
//
// Every gated single-threaded phase row carries the process peak RSS at
// phase end and the RSS change across the phase next to the wall-clock
// (obs/mem_stats.hpp); hosts without /proc omit both fields.
//
// The recording block runs three recorded serial campaigns and checks
// that each store is byte-identical to an unrecorded run (the
// pure-observer invariant), reporting the journal's task-span and verdict
// counts. --profile and --telemetry-out ride every recorded rep;
// --profile adds a top-level "profile" section (hot symbols, same schema
// as a run manifest) that `mpinspect diff` uses for hot-symbol
// regression attribution. With --trace-out the journal of the last
// recorded rep is exported as a trace bundle into <dir>.
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
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
#include "obs/manifest.hpp"
#include "obs/mem_stats.hpp"
#include "obs/session.hpp"
#include "obs/symbolize.hpp"
#include "obs/trace_export.hpp"

using namespace marcopolo;

#ifndef MARCOPOLO_GIT_DESCRIBE
#define MARCOPOLO_GIT_DESCRIBE "unknown"
#endif

namespace {

std::string store_bytes(const core::ResultStore& store) {
  std::ostringstream out;
  store.save_csv(out);
  return out.str();
}

std::string dataset_bytes(const core::CampaignDataset& data) {
  return store_bytes(data.no_rpki) + store_bytes(data.rpki);
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
  bool recording = true;
  bool optimizer = true;
  bool resilience = true;
  bool scaled = true;
  bool multi = true;

  /// Parse a --phases csv; returns false on an unknown token.
  static bool parse(const std::string& csv, PhaseSelection& out,
                    std::string& bad_token) {
    out = PhaseSelection{false, false, false, false, false, false};
    std::size_t pos = 0;
    while (pos <= csv.size()) {
      std::size_t comma = csv.find(',', pos);
      if (comma == std::string::npos) comma = csv.size();
      const std::string token = csv.substr(pos, comma - pos);
      pos = comma + 1;
      if (token.empty()) continue;
      // Gated phase names select the group that produces them, so a CI
      // log's failing phase name can be pasted straight back in.
      if (token == "runs") {
        out.runs = true;
      } else if (token == "recording") {
        out.recording = true;
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

/// One gated phase row for the JSON "phases" array: wall-clock plus the
/// memory samples taken at phase entry and exit.
struct PhaseRow {
  std::string name;
  double seconds = 0.0;
  obs::MemorySample start;
  obs::MemorySample end;
};

/// Run `body` once as a rep of phase `name`, timed and memory-sampled.
template <typename Body>
PhaseRow time_phase(std::string name, Body&& body) {
  PhaseRow row;
  row.name = std::move(name);
  const auto t0 = std::chrono::steady_clock::now();
  row.start = obs::read_memory_sample();
  body();
  row.end = obs::read_memory_sample();
  row.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr unsigned kFlags =
      obs::kTraceOutFlag | obs::kProfileFlag | obs::kTelemetryFlags;
  const std::string usage =
      "usage: campaign_wallclock [--phases <csv>] [--attacks <csv|all>] " +
      obs::session_usage(kFlags) + " [output.json] [thread counts...]";
  const obs::SessionArgs args = obs::parse_session_args(argc, argv, kFlags);
  if (!args.error.empty()) {
    std::cerr << args.error << "\n" << usage << std::endl;
    return 2;
  }
  const obs::SessionOptions& observer_flags = args.options;
  const std::string& trace_out = observer_flags.trace_out;
  std::string out_path;
  std::vector<std::size_t> thread_counts;
  PhaseSelection select;
  std::vector<bgp::AttackType> attack_list;
  const std::vector<std::string>& rest = args.rest;
  for (std::size_t i = 0; i < rest.size(); ++i) {
    // Any other flag, or one of these two without its value, would
    // otherwise be taken for the output path or a thread count.
    if (rest[i].starts_with("--") &&
        ((rest[i] != "--phases" && rest[i] != "--attacks") ||
         i + 1 == rest.size())) {
      std::cerr << "unexpected argument " << rest[i] << "\n" << usage
                << std::endl;
      return 2;
    }
    if (rest[i] == "--phases") {
      std::string bad;
      if (!PhaseSelection::parse(rest[++i], select, bad)) {
        std::cerr << "unknown phase \"" << bad
                  << "\" (valid: runs, recording, optimizer, resilience, "
                     "scaled, multi, or a gated phase name)"
                  << std::endl;
        return 2;
      }
    } else if (rest[i] == "--attacks") {
      try {
        attack_list = bgp::parse_attack_list(rest[++i]);
      } catch (const std::invalid_argument& e) {
        std::cerr << e.what() << std::endl;
        return 2;
      }
    } else if (out_path.empty()) {
      out_path = rest[i];
    } else {
      try {
        thread_counts.push_back(static_cast<std::size_t>(std::stoul(rest[i])));
      } catch (const std::exception&) {
        std::cerr << usage << "\n  bad thread count: " << rest[i]
                  << std::endl;
        return 2;
      }
    }
  }
  if (out_path.empty()) out_path = "campaign_wallclock.json";
  if (thread_counts.empty()) thread_counts = {1, 2, 4, 8};

  const auto clock = [] { return std::chrono::steady_clock::now(); };
  constexpr std::uint64_t kSeed = 0xCAFE;

  const bool need_default_testbed = select.runs || select.recording ||
                                    select.optimizer || select.resilience;
  std::optional<core::Testbed> testbed;
  if (need_default_testbed) {
    std::cerr << "building default testbed..." << std::endl;
    testbed.emplace(core::TestbedConfig{});
  }

  struct Row {
    std::size_t threads;
    double seconds;
    bool identical;
    std::uint64_t tasks;
    std::uint64_t propagations;
  };
  std::vector<Row> rows;
  std::string reference;
  double serial_seconds = 0.0;
  obs::MetricsSnapshot serial_metrics;
  bool have_serial_metrics = false;
  std::optional<core::CampaignDataset> analysis_data;

  if (select.runs) {
    for (const std::size_t threads : thread_counts) {
      // Fresh registry per run so each snapshot describes one run only;
      // the invariant check below therefore also covers "metrics
      // enabled".
      obs::MetricsRegistry registry;
      const auto t0 = clock();
      const auto data = core::run_paper_campaigns(
          *testbed, bgp::TieBreakMode::Hashed, kSeed, threads,
          {.metrics = &registry});
      const auto t1 = clock();
      const double secs = std::chrono::duration<double>(t1 - t0).count();
      const std::string bytes = dataset_bytes(data);
      if (reference.empty()) reference = bytes;
      const bool identical = bytes == reference;
      const obs::MetricsSnapshot snap = registry.snapshot();
      if (threads == 1) {
        serial_seconds = secs;
        serial_metrics = snap;
        have_serial_metrics = true;
      }
      if (!analysis_data) analysis_data = data;
      rows.push_back(Row{threads, secs, identical,
                         snap.counter("campaign.tasks_executed"),
                         snap.counter("campaign.propagations")});
      std::cerr << "threads=" << threads << "  " << secs << " s  "
                << (identical ? "identical" : "MISMATCH") << std::endl;
    }
    if (!have_serial_metrics && !rows.empty()) {
      // No serial run requested: describe the first run instead.
      obs::MetricsRegistry registry;
      const auto t0 = clock();
      (void)core::run_paper_campaigns(*testbed, bgp::TieBreakMode::Hashed,
                                      kSeed, rows.front().threads,
                                      {.metrics = &registry});
      serial_seconds = std::chrono::duration<double>(clock() - t0).count();
      serial_metrics = registry.snapshot();
      have_serial_metrics = true;
    }
  }
  if ((select.optimizer || select.resilience) && !analysis_data) {
    // Optimizer/resilience phases score a campaign's outcome plane; with
    // the sweep skipped, produce it once, untimed.
    std::cerr << "campaign for analysis phases (untimed)..." << std::endl;
    obs::MetricsRegistry registry;
    analysis_data = core::run_paper_campaigns(
        *testbed, bgp::TieBreakMode::Hashed, kSeed, 1, {.metrics = &registry});
    if (!have_serial_metrics) {
      serial_metrics = registry.snapshot();
      have_serial_metrics = true;
    }
  }

  // Recording block: recorded serial runs whose stores must stay
  // byte-identical to an unrecorded run (pure-observer invariant).
  constexpr int kRecordedReps = 3;
  bool recorded_identical = true;
  std::size_t journal_tasks = 0;
  std::size_t journal_verdicts = 0;
  // With --profile every recorded rep runs under the sampling profiler.
  // One profiler accumulates across reps and is drained once, after the
  // last recorded run.
  const std::unique_ptr<obs::SamplingProfiler> profiler =
      select.recording ? obs::make_profiler(observer_flags) : nullptr;
  obs::CpuProfile cpu_profile;
  if (select.recording) {
    std::cerr << "serial runs with flight recorder"
              << (profiler != nullptr && profiler->available()
                      ? " and profiler..."
                      : "...")
              << std::endl;
    if (reference.empty()) {
      // The sweep was skipped: one unrecorded run is the reference.
      reference = dataset_bytes(core::run_paper_campaigns(
          *testbed, bgp::TieBreakMode::Hashed, kSeed, 1));
    }
    // The telemetry hub rides every recorded rep — one hub for the whole
    // block, so tick ids stay monotone across reps. The recorder and
    // registry are hoisted to keep the hub's pointers valid: drain()
    // resets the recorder between reps, and the per-rep registry swap
    // rebinds the hub around the emplace (set_metrics synchronizes with
    // the tick, so the old registry can die safely).
    obs::FlightRecorder flight_recorder;
    std::optional<obs::MetricsRegistry> registry;
    const std::unique_ptr<obs::TelemetryHub> hub =
        obs::start_telemetry(observer_flags, nullptr, &flight_recorder);
    for (int rep = 0; rep < kRecordedReps; ++rep) {
      if (hub) hub->set_metrics(nullptr);
      registry.emplace();
      if (hub) hub->set_metrics(&*registry);
      const auto data = core::run_paper_campaigns(
          *testbed, bgp::TieBreakMode::Hashed, kSeed, 1,
          {.metrics = &*registry,
           .recorder = &flight_recorder,
           .profiler = profiler.get(),
           .telemetry = hub.get()});
      recorded_identical =
          recorded_identical && dataset_bytes(data) == reference;
      const obs::FlightJournal journal = flight_recorder.drain();
      journal_tasks = journal.task_count();
      journal_verdicts = journal.verdict_count();
      if (rep == kRecordedReps - 1 && profiler != nullptr) {
        cpu_profile = obs::symbolize_profile(profiler->drain());
        if (cpu_profile.available && cpu_profile.samples > 0) {
          std::cerr << "cpu profile: " << cpu_profile.samples
                    << " samples @ " << profiler->hz() << " Hz, hottest "
                    << (cpu_profile.symbols.empty()
                            ? "(none)"
                            : cpu_profile.symbols.front().name)
                    << std::endl;
        }
      }
      if (rep == kRecordedReps - 1 && !trace_out.empty()) {
        const obs::MetricsSnapshot snap = registry->snapshot();
        const bool with_profile =
            cpu_profile.available && cpu_profile.samples > 0;
        if (!obs::write_trace_dir(trace_out, journal, &snap,
                                  with_profile ? &cpu_profile : nullptr)) {
          std::cerr << "failed to write trace bundle to " << trace_out
                    << std::endl;
          return 1;
        }
        std::cerr << "wrote trace bundle to " << trace_out << std::endl;
      }
    }
    // Final tick (marked "final":true) scrapes the last rep's registry,
    // which is what check_trace_bundle holds against metrics.prom.
    if (hub) hub->stop();
    std::cerr << "recorded runs: " << kRecordedReps << "  "
              << (recorded_identical ? "identical" : "MISMATCH") << std::endl;
  }

  std::vector<PhaseRow> phase_rows;

  // Exhaustive-optimizer phase: the analysis layer's hot loop at benchmark
  // scale — a (6, N-2) search over every GCP perspective, C(40, 6) =
  // 3,838,380 candidate sets, single-threaded so thread count never skews
  // the phase. The identical search then runs on the retained scalar
  // reference (the seed's byte-per-pair path), so one output file both
  // demonstrates the packed-kernel speedup and gives the CI gate a packed
  // wall-clock phase to hold.
  std::vector<analysis::PerspectiveIndex> gcp;
  std::optional<analysis::ResilienceAnalyzer> analyzer;
  double optimizer_seconds = 0.0;
  double optimizer_scalar_seconds = 0.0;
  double optimizer_speedup = 0.0;
  bool optimizer_agree = true;
  analysis::SearchStats opt_stats;
  analysis::RankedDeployment packed_best;
  if (select.optimizer || select.resilience) {
    gcp = testbed->perspectives_of(topo::CloudProvider::Gcp);
    analyzer.emplace(analysis_data->no_rpki);
  }
  if (select.optimizer) {
    std::cerr << "exhaustive optimizer, (6, N-2) over GCP..." << std::endl;
    const analysis::DeploymentOptimizer optimizer(*analyzer);
    analysis::OptimizerConfig ocfg;
    ocfg.set_size = 6;
    ocfg.max_failures = 2;
    ocfg.candidates = gcp;
    ocfg.top_k = 1;
    ocfg.threads = 1;
    ocfg.stats = &opt_stats;
    phase_rows.push_back(time_phase("optimizer_exhaustive_ms", [&] {
      packed_best = optimizer.best(ocfg);
    }));
    optimizer_seconds = phase_rows.back().seconds;
    std::cerr << "  packed: " << optimizer_seconds << " s  ("
              << opt_stats.complete_sets_scored << " sets scored, "
              << opt_stats.subtrees_pruned << " subtrees pruned)"
              << std::endl;

    const analysis::ScalarReference scalar(analysis_data->no_rpki);
    const std::size_t opt_required = ocfg.set_size - ocfg.max_failures;
    analysis::ScalarSearchBest scalar_best;
    phase_rows.push_back(time_phase("optimizer_exhaustive_scalar_ms", [&] {
      scalar_best = analysis::scalar_exhaustive_best(scalar, gcp,
                                                     ocfg.set_size,
                                                     opt_required);
    }));
    optimizer_scalar_seconds = phase_rows.back().seconds;
    optimizer_agree =
        packed_best.score.median == scalar_best.score.median &&
        packed_best.score.average == scalar_best.score.average &&
        packed_best.spec.remotes == scalar_best.set;
    optimizer_speedup =
        optimizer_seconds > 0.0 ? optimizer_scalar_seconds / optimizer_seconds
                                : 0.0;
    std::cerr << "  scalar: " << optimizer_scalar_seconds
              << " s  (packed speedup " << optimizer_speedup << "x)  "
              << (optimizer_agree ? "identical" : "MISMATCH") << std::endl;
  }

  // Resilience-kernel phase: the direct packed-word kernel in isolation —
  // build_success_mask + score over sliding 6-windows of the GCP pool at
  // every quorum from 6-0 to 6-5, repeated to a stable ~100ms. This is
  // the innermost loop every ROADMAP SIMD item targets (a fixed
  // instruction stream, no allocation, no propagation). The checksum both
  // defeats dead-code elimination and doubles as a determinism check.
  double resilience_seconds = 0.0;
  double resilience_checksum = 0.0;
  std::uint64_t resilience_sets_scored = 0;
  if (select.resilience) {
    std::cerr << "resilience direct kernel sweep..." << std::endl;
    analysis::ResilienceAnalyzer::ScoreScratch scratch =
        analyzer->make_scratch();
    constexpr std::size_t kWindow = 6;
    constexpr int kKernelReps = 40;
    PhaseRow best;
    for (int rep = 0; rep < 3; ++rep) {
      double checksum = 0.0;
      std::uint64_t scored = 0;
      const PhaseRow row = time_phase("resilience_kernel_ms", [&] {
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
      if (rep == 0 || row.seconds < best.seconds) best = row;
      resilience_checksum = checksum;
      resilience_sets_scored = scored;
    }
    resilience_seconds = best.seconds;
    phase_rows.push_back(best);
    std::cerr << "  " << resilience_sets_scored << " scores in "
              << resilience_seconds << " s (best of 3), checksum "
              << resilience_checksum << std::endl;
  }

  // Scaled-topology phase: a full 32x31 campaign on a 50k-AS Internet.
  // The incremental engine (one baseline per announcer, delta replays per
  // adversary) is what keeps this within a small multiple of the default
  // ~900-AS testbed's per-matrix wall clock; the phase entry below puts
  // that claim under the CI regression gate.
  double scaled_build_seconds = 0.0;
  double scaled_seconds = 0.0;
  double scaled_ratio = 0.0;
  bool scaled_complete = true;
  std::size_t scaled_ases = 0;
  std::size_t scaled_sites = 0;
  // One 50k-AS build serves both the scaled and the multi-attack phase.
  const bool need_scaled_testbed = select.scaled || select.multi;
  std::optional<core::Testbed> scaled_testbed;
  if (need_scaled_testbed) {
    std::cerr << "building 50k-AS testbed..." << std::endl;
    core::TestbedConfig scaled_cfg;
    scaled_cfg.internet = topo::scaled_internet_config(50000);
    const auto build_t0 = clock();
    scaled_testbed.emplace(scaled_cfg);
    scaled_build_seconds =
        std::chrono::duration<double>(clock() - build_t0).count();
    scaled_ases = scaled_testbed->internet().graph().size();
    scaled_sites = scaled_testbed->sites().size();
    std::cerr << "  " << scaled_ases << " ASes in " << scaled_build_seconds
              << " s" << std::endl;
  }
  if (select.scaled) {
    core::FastCampaignConfig scaled_run;
    scaled_run.threads = 1;
    // Best of 3: a fresh 50k-AS heap makes single runs jitter by tens of
    // percent (page faults, allocator warm-up), which would flap the gate.
    PhaseRow best;
    for (int rep = 0; rep < 3; ++rep) {
      std::optional<core::ResultStore> scaled_store;
      const PhaseRow row = time_phase("scaled_campaign_50k_ms", [&] {
        scaled_store = core::run_fast_campaign(*scaled_testbed, scaled_run);
      });
      if (rep == 0 || row.seconds < best.seconds) best = row;
      for (core::SiteIndex v = 0; v < scaled_store->num_sites(); ++v) {
        for (core::SiteIndex a = 0; a < scaled_store->num_sites(); ++a) {
          if (v != a && !scaled_store->pair_complete(v, a)) {
            scaled_complete = false;
          }
        }
      }
    }
    scaled_seconds = best.seconds;
    phase_rows.push_back(best);
    // The serial default run covers two hijack matrices; compare per
    // matrix (0 when the sweep was skipped).
    scaled_ratio = serial_seconds > 0.0
                       ? scaled_seconds / (serial_seconds * 0.5)
                       : 0.0;
    std::cerr << "scaled campaign: " << scaled_seconds << " s  ("
              << scaled_ratio << "x the default per-matrix serial run)  "
              << (scaled_complete ? "complete" : "INCOMPLETE") << std::endl;
  }

  // Multi-attack phase: every attack type in one campaign over the same
  // 50k-AS testbed — one store plane per type, each reusing the
  // announcer's baseline. Gated as a whole; the per-attack ratio against
  // the single-attack scaled phase quantifies the baseline-sharing win.
  double multi_seconds = 0.0;
  double multi_per_attack_ratio = 0.0;
  bool multi_complete = true;
  std::vector<bgp::AttackType> multi_attacks = attack_list;
  if (multi_attacks.empty()) {
    const auto all = bgp::all_attack_types();
    multi_attacks.assign(all.begin(), all.end());
  }
  if (select.multi) {
    std::cerr << "multi-attack campaign (" << multi_attacks.size()
              << " types) on the 50k-AS testbed..." << std::endl;
    core::FastCampaignConfig multi_run;
    multi_run.threads = 1;
    multi_run.attacks = multi_attacks;
    PhaseRow best;
    for (int rep = 0; rep < 3; ++rep) {
      std::optional<core::ResultStore> multi_store;
      const PhaseRow row = time_phase("multi_attack_campaign_ms", [&] {
        multi_store = core::run_fast_campaign(*scaled_testbed, multi_run);
      });
      if (rep == 0 || row.seconds < best.seconds) best = row;
      for (std::size_t ai = 0; ai < multi_store->num_attacks(); ++ai) {
        for (core::SiteIndex v = 0; v < multi_store->num_sites(); ++v) {
          for (core::SiteIndex a = 0; a < multi_store->num_sites(); ++a) {
            if (v != a && !multi_store->pair_complete(ai, v, a)) {
              multi_complete = false;
            }
          }
        }
      }
    }
    multi_seconds = best.seconds;
    phase_rows.push_back(best);
    multi_per_attack_ratio =
        scaled_seconds > 0.0
            ? multi_seconds /
                  (static_cast<double>(multi_attacks.size()) * scaled_seconds)
            : 0.0;
    std::cerr << "multi-attack campaign: " << multi_seconds << " s  ("
              << multi_per_attack_ratio
              << "x the single-attack scaled run per attack)  "
              << (multi_complete ? "complete" : "INCOMPLETE") << std::endl;
  }

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"benchmark\": \"run_paper_campaigns\",\n"
      << "  \"version\": \"" << obs::json_escape(MARCOPOLO_GIT_DESCRIBE)
      << "\",\n"
      << "  \"hostname\": \"" << obs::json_escape(hostname()) << "\",\n"
      << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n"
      << "  \"thread_counts\": [";
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    out << (i ? ", " : "") << thread_counts[i];
  }
  out << "],\n";
  if (testbed) {
    out << "  \"config\": {\n"
        << "    \"testbed\": \"default\",\n"
        << "    \"sites\": " << testbed->sites().size() << ",\n"
        << "    \"perspectives\": " << testbed->perspectives().size() << ",\n"
        << "    \"attack_types\": [\"equally_specific\", "
           "\"forged_origin_prepend\"],\n"
        << "    \"tie_break\": \"hashed\",\n"
        << "    \"tie_break_seed\": " << kSeed << ",\n"
        << "    \"metrics_enabled\": true\n"
        << "  },\n";
  }
  out << "  \"runs\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"threads\": " << r.threads << ", \"seconds\": " << r.seconds
        << ", \"speedup_vs_1\": "
        << (serial_seconds > 0.0 && r.seconds > 0.0
                ? serial_seconds / r.seconds
                : 0.0)
        << ", \"tasks\": " << r.tasks
        << ", \"propagations\": " << r.propagations
        << ", \"store_identical\": " << (r.identical ? "true" : "false")
        << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"phases\": [\n";
  for (std::size_t i = 0; i < phase_rows.size(); ++i) {
    const PhaseRow& p = phase_rows[i];
    out << "    {\"name\": \"" << p.name << "\", \"seconds\": " << p.seconds
        << ", \"ms\": " << p.seconds * 1000.0;
    if (p.start.valid && p.end.valid) {
      out << ", \"peak_rss_kb\": " << p.end.peak_rss_kb
          << ", \"rss_delta_kb\": "
          << static_cast<std::int64_t>(p.end.rss_kb) -
                 static_cast<std::int64_t>(p.start.rss_kb);
    }
    out << "}" << (i + 1 < phase_rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  if (select.scaled) {
    out << "  \"scaled\": {\n"
        << "    \"ases\": " << scaled_ases << ",\n"
        << "    \"sites\": " << scaled_sites << ",\n"
        // The 50k testbed build is allocation-bound and jitters ~30% run
        // to run, so it is reported here but not gated as a phase.
        << "    \"build_seconds\": " << scaled_build_seconds << ",\n"
        << "    \"campaign_seconds\": " << scaled_seconds << ",\n"
        << "    \"per_matrix_ratio_vs_default\": " << scaled_ratio << ",\n"
        << "    \"complete\": " << (scaled_complete ? "true" : "false")
        << "\n  },\n";
  }
  if (select.multi) {
    out << "  \"multi_attack\": {\n"
        << "    \"ases\": " << scaled_ases << ",\n"
        << "    \"sites\": " << scaled_sites << ",\n"
        << "    \"attack_types\": [";
    for (std::size_t i = 0; i < multi_attacks.size(); ++i) {
      out << (i ? ", " : "") << "\"" << bgp::to_cstring(multi_attacks[i])
          << "\"";
    }
    out << "],\n"
        << "    \"campaign_seconds\": " << multi_seconds << ",\n"
        << "    \"per_attack_ratio_vs_scaled\": " << multi_per_attack_ratio
        << ",\n"
        << "    \"complete\": " << (multi_complete ? "true" : "false")
        << "\n  },\n";
  }
  if (select.optimizer) {
    out << "  \"optimizer\": {\n"
        << "    \"candidates\": " << gcp.size() << ",\n"
        << "    \"set_size\": 6,\n"
        << "    \"max_failures\": 2,\n"
        << "    \"threads\": 1,\n"
        << "    \"complete_sets_scored\": " << opt_stats.complete_sets_scored
        << ",\n"
        << "    \"subtrees_pruned\": " << opt_stats.subtrees_pruned << ",\n"
        << "    \"best_median\": " << packed_best.score.median << ",\n"
        << "    \"best_average\": " << packed_best.score.average << ",\n"
        << "    \"packed_speedup_vs_scalar\": " << optimizer_speedup << ",\n"
        << "    \"scalar_agrees\": " << (optimizer_agree ? "true" : "false")
        << "\n  },\n";
  }
  if (select.resilience) {
    out << "  \"resilience_kernel\": {\n"
        << "    \"candidates\": " << gcp.size() << ",\n"
        << "    \"window\": 6,\n"
        << "    \"sets_scored\": " << resilience_sets_scored << ",\n"
        << "    \"checksum\": " << resilience_checksum << "\n  },\n";
  }
  if (select.recording) {
    out << "  \"recording\": {\n"
        << "    \"store_identical\": "
        << (recorded_identical ? "true" : "false") << ",\n"
        << "    \"task_spans\": " << journal_tasks << ",\n"
        << "    \"verdicts\": " << journal_verdicts << ",\n"
        << "    \"profiled\": "
        << (profiler != nullptr && profiler->available() ? "true" : "false")
        << "\n  },\n";
  }
  if (cpu_profile.available && cpu_profile.samples > 0) {
    // Same schema as the run-manifest "profile" section, so mpinspect
    // diff ranks hot-symbol share changes between bench documents.
    out << "  \"profile\": ";
    obs::write_profile_json(out, cpu_profile, "  ");
    out << ",\n";
  }
  out << "  \"metrics\": ";
  obs::write_metrics_json(out, serial_metrics, "  ");
  out << "\n}\n";
  std::cerr << "wrote " << out_path << std::endl;

  for (const Row& r : rows) {
    if (!r.identical) {
      std::cerr << "determinism violation at threads=" << r.threads
                << std::endl;
      return 1;
    }
  }
  if (select.recording && !recorded_identical) {
    std::cerr << "determinism violation with flight recorder on" << std::endl;
    return 1;
  }
  if (select.optimizer && !optimizer_agree) {
    std::cerr << "packed optimizer disagrees with scalar reference"
              << std::endl;
    return 1;
  }
  if (select.scaled && !scaled_complete) {
    std::cerr << "scaled campaign left incomplete pairs" << std::endl;
    return 1;
  }
  if (select.multi && !multi_complete) {
    std::cerr << "multi-attack campaign left incomplete pairs" << std::endl;
    return 1;
  }
  return 0;
}
