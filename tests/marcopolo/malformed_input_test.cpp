// Malformed-input harness: every artifact reader either loads a damaged
// file or reports its documented error. It never crashes, throws an
// exception it does not document, or trips a sanitizer (CI runs this
// suite under ASan/UBSan and TSan).
//
// The valid artifacts are written here by the real writers: an MPRS
// store, journal.ndjson, timeseries.ndjson, a run manifest, a matrix
// JSON and profile.folded. Each is then fed back cut short, with bits
// flipped, and spliced (a prefix joined to a suffix from elsewhere in
// the file, which drops or repeats a stretch), from fixed seeds, so a
// failure names a reproducible case. Where a reader accepts the damage,
// what mpinspect does next with the result runs too. Inputs that crashed
// a reader stay below as named cases.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>

#include "analysis/attack_matrix.hpp"
#include "marcopolo/result_store.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/journal_reader.hpp"
#include "obs/manifest.hpp"
#include "obs/manifest_reader.hpp"
#include "obs/run_compare.hpp"
#include "obs/telemetry_hub.hpp"
#include "obs/timeseries_reader.hpp"
#include "obs/trace_export.hpp"

namespace marcopolo {
namespace {

constexpr int kCasesPerArtifact = 300;

/// One seeded way to damage `valid`, by `kind`: 0 cuts it short, 1 flips
/// one to four bits, 2 splices a prefix to a suffix.
std::string damage(const std::string& valid, std::mt19937_64& rng,
                   int kind) {
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % (n + 1));  // in [0, n]
  };
  std::string out = valid;
  if (kind == 0) {
    out.resize(pick(valid.size() - 1));
  } else if (kind == 1) {
    for (std::uint64_t flips = 1 + rng() % 4; flips > 0; --flips) {
      char& byte = out[pick(out.size() - 1)];
      byte = static_cast<char>(static_cast<unsigned char>(byte) ^
                               (1u << (rng() % 8)));
    }
  } else {
    const std::size_t cut = pick(valid.size());
    out = valid.substr(0, cut) + valid.substr(pick(valid.size()));
  }
  return out;
}

/// Feed `read` the valid artifact, then kCasesPerArtifact damaged ones.
/// `read` returns whether the input loaded; it may throw only what the
/// reader documents, and handles that itself.
void hammer(const char* artifact, const std::string& valid,
            std::uint64_t seed,
            const std::function<bool(const std::string&)>& read) {
  ASSERT_TRUE(read(valid)) << artifact << ": the undamaged file must load";
  std::mt19937_64 rng(seed);
  int loaded = 0;
  for (int i = 0; i < kCasesPerArtifact; ++i) {
    const std::string input = damage(valid, rng, i % 3);
    try {
      loaded += read(input) ? 1 : 0;
    } catch (const std::exception& e) {
      ADD_FAILURE() << artifact << " case " << i << " (seed " << seed
                    << "): undocumented exception: " << e.what();
    }
  }
  // Not every flip lands somewhere a reader checks, and not every cut
  // leaves a broken file; the tally is a sanity check on the damage.
  EXPECT_LT(loaded, kCasesPerArtifact) << artifact;
}

// --- The artifacts, from their writers --------------------------------------

std::string valid_store() {
  core::ResultStore store(4, 3,
                          {bgp::AttackType::EquallySpecific,
                           bgp::AttackType::SubPrefix});
  for (std::size_t attack = 0; attack < 2; ++attack) {
    for (core::SiteIndex v = 0; v < 4; ++v) {
      for (core::SiteIndex a = 0; a < 4; ++a) {
        if (v == a) continue;
        for (core::PerspectiveIndex p = 0; p < 3; ++p) {
          store.record(attack, v, a, p,
                       static_cast<bgp::OriginReached>((v + a + p) % 3));
        }
      }
    }
  }
  std::ostringstream out;
  store.save_binary(out);
  return out.str();
}

obs::FlightJournal small_journal() {
  obs::FlightJournal journal;
  for (std::uint32_t w = 0; w < 2; ++w) {
    obs::FlightJournal::WorkerLane lane;
    lane.worker = w;
    lane.tasks.push_back({.announcer = w, .adversary = 3, .victim_rows = 1,
                          .start_ns = 1000 + w, .duration_ns = 500,
                          .propagate_ns = 200, .classify_ns = 200,
                          .record_ns = 50, .attack = 2});
    lane.propagations.push_back({.start_ns = 1001 + w, .duration_ns = 150,
                                 .delivered = 40, .decided = {1, 2, 3, 4, 5}});
    lane.verdicts.push_back({.victim = 1, .adversary = 3, .perspective = 7,
                             .outcome = 2,
                             .decided_by = obs::VerdictStep::RouteAge,
                             .contested = true});
    lane.verdicts.push_back({.victim = 1, .adversary = 3, .perspective = 8,
                             .outcome = 1});
    journal.workers.push_back(std::move(lane));
  }
  journal.attacks.push_back({.lane = 1, .victim = 1, .adversary = 3,
                             .attempt = 2, .complete = true,
                             .announce_us = 10, .dcv_us = 20,
                             .conclude_us = 30});
  journal.quorums.push_back({.system = "lets-encrypt", .lane = 1,
                             .victim = 1, .adversary = 3,
                             .corroborated = true, .virtual_us = 30});
  journal.epoch_ns = 1000;
  return journal;
}

std::string valid_journal() {
  std::ostringstream out;
  obs::write_journal_ndjson(out, small_journal());
  return out.str();
}

obs::MetricsSnapshot small_metrics() {
  obs::MetricsRegistry registry;
  registry.counter("campaign.tasks_executed").add(2048);
  registry.counter("campaign.worker_threads").add(4);
  for (const std::uint64_t ns : {100u, 1'000u, 100'000u}) {
    registry.histogram("campaign.phase.classify_ns").observe(ns);
    registry.histogram("campaign.phase.baseline_ns").observe(ns / 2);
  }
  return registry.snapshot();
}

std::string valid_timeseries() {
  obs::MetricsRegistry registry;
  registry.counter("campaign.tasks_executed").add(3);
  registry.histogram("campaign.phase.propagate_ns").observe(500);
  // Named per test: ctest runs tests of this file in parallel processes.
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      (std::string("mp_malformed_") +
       ::testing::UnitTest::GetInstance()->current_test_info()->name() +
       ".ndjson");
  {
    obs::TelemetryHub hub({.tick_ms = 3'600'000,
                           .timeseries_path = path.string(),
                           .metrics = &registry});
    hub.start();
    hub.add_planned_tasks(8);
    obs::TelemetryWorkerSlot* slot = hub.open_worker_slot();
    for (int i = 0; i < 3; ++i) {
      hub.note_task_done(slot, 2);
      hub.tick_now();
    }
    hub.stop();
  }
  std::ifstream in(path, std::ios::binary);
  std::string text{std::istreambuf_iterator<char>(in), {}};
  std::filesystem::remove(path);
  return text;
}

std::string valid_manifest() {
  obs::RunManifest manifest("quickstart");
  manifest.set("ases", 943);
  manifest.set("tie_break", "hashed");
  manifest.set("fraction", 0.25);
  manifest.set("incremental", true);
  manifest.add_phase({.name = "fast_campaign", .seconds = 0.5,
                      .has_mem = true, .peak_rss_kb = 9000,
                      .rss_delta_kb = -12});
  manifest.add_phase("analysis", 0.125);
  obs::CpuProfile profile;
  profile.available = true;
  profile.hz = 997;
  profile.samples = 10;
  profile.symbols = {{"classify", 6, 9}, {"propagate", 4, 10}};
  manifest.set_profile(profile);
  std::ostringstream out;
  manifest.write_json(out, small_metrics());
  return out.str();
}

std::string valid_matrix() {
  analysis::AttackMatrixReport report;
  report.sites = 32;
  report.perspectives = 106;
  report.quorum_required = 2;
  report.attacks = {bgp::AttackType::EquallySpecific,
                    bgp::AttackType::RouteLeak};
  report.rov_levels = {0.0, 1.0};
  report.otc_levels = {0.0, 0.5};
  for (const bgp::AttackType attack : report.attacks) {
    for (const double rov : report.rov_levels) {
      for (const double otc : report.otc_levels) {
        report.cells.push_back({.attack = attack, .rov_fraction = rov,
                                .otc_fraction = otc, .hijack_rate = 0.25,
                                .single_median = 0.5,
                                .single_average = 0.45,
                                .quorum_median = 0.75,
                                .quorum_average = 0.7});
      }
    }
  }
  std::ostringstream out;
  analysis::write_attack_matrix_json(out, report);
  return out.str();
}

std::string valid_folded() {
  obs::CpuProfile profile;
  profile.available = true;
  profile.samples = 9;
  profile.stacks = {{"main;run;classify", 5},
                    {"main;run;propagate", 3},
                    {"main;run;run", 1}};
  std::ostringstream out;
  obs::write_folded_profile(out, profile);
  return out.str();
}

// --- The readers, and what mpinspect does with what they load ---------------

bool read_store(const std::string& bytes) {
  std::istringstream in(bytes);
  try {
    const core::ResultStore store = core::ResultStore::load_binary(in);
    std::ostringstream out;
    store.save_binary(out);
    return true;
  } catch (const std::runtime_error&) {
    return false;  // documented: load_binary throws std::runtime_error
  }
}

bool read_journal(const std::string& text) {
  std::istringstream in(text);
  const obs::ReadJournal read = obs::JournalReader::read(in);
  (void)obs::summarize_provenance(read.journal);
  (void)obs::attribute_phases(read.journal);
  std::ostringstream trace;
  obs::write_chrome_trace(trace, read.journal);
  return read.ok();
}

bool read_timeseries(const std::string& text) {
  std::istringstream in(text);
  const obs::ReadTimeseries read = obs::TimeseriesReader::read(in);
  for (const obs::TimeseriesTick& tick : read.ticks) {
    (void)obs::format_tick_line(tick);
  }
  return read.ok();
}

bool read_manifest(const std::string& text) {
  const obs::ReadManifest read = obs::ManifestReader::read_string(text);
  if (!read.ok()) return false;
  const obs::RunComparison comparison = obs::compare_runs(read, read);
  (void)obs::evaluate_gate(comparison, obs::DiffGateConfig{});
  for (const obs::HistogramSnapshot& h : read.metrics.histograms) {
    (void)h.quantile(0.99);
  }
  return true;
}

bool read_matrix(const std::string& text) {
  std::istringstream in(text);
  const analysis::ReadAttackMatrix read =
      analysis::read_attack_matrix_json(in);
  if (read.ok) (void)analysis::render_attack_matrix(read.report);
  return read.ok;
}

bool read_folded(const std::string& text) {
  std::istringstream in(text);
  return obs::read_folded_profile(in).ok();
}

TEST(MalformedInput, ResultStoreMprs) {
  hammer("MPRS", valid_store(), 0x5EED01, read_store);
}

TEST(MalformedInput, JournalNdjson) {
  hammer("journal.ndjson", valid_journal(), 0x5EED02, read_journal);
}

TEST(MalformedInput, TimeseriesNdjson) {
  hammer("timeseries.ndjson", valid_timeseries(), 0x5EED03,
         read_timeseries);
}

TEST(MalformedInput, RunManifestJson) {
  hammer("manifest", valid_manifest(), 0x5EED04, read_manifest);
}

TEST(MalformedInput, AttackMatrixJson) {
  hammer("matrix", valid_matrix(), 0x5EED05, read_matrix);
}

TEST(MalformedInput, ProfileFolded) {
  hammer("profile.folded", valid_folded(), 0x5EED06, read_folded);
}

TEST(MalformedInput, DeepNestingInEveryJsonArtifact) {
  // 100,000 open brackets where a value belongs: the JSON parser
  // recurses once per bracket, so without its depth bound every JSON
  // reader overflows the stack.
  const std::string deep(100'000, '[');
  const auto spliced = [&deep](const std::string& valid, char after) {
    const std::size_t at = valid.find(after) + 1;
    return valid.substr(0, at) + deep + valid.substr(at);
  };
  EXPECT_FALSE(read_manifest(spliced(valid_manifest(), ':')));
  EXPECT_FALSE(read_matrix(spliced(valid_matrix(), ':')));
  EXPECT_FALSE(read_journal(spliced(valid_journal(), ':')));
  EXPECT_FALSE(read_timeseries(spliced(valid_timeseries(), ':')));
}

}  // namespace
}  // namespace marcopolo
