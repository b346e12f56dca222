// mpinspect: interrogate recorded MarcoPolo runs without re-running them.
//
//   mpinspect summarize <trace-dir | manifest.json> [--json]
//       Human-readable summary of one recorded run: decision-provenance
//       distribution, per-phase wall-clock attribution (split again per
//       attack plane when the journal holds more than one), histogram
//       quantiles, config echo. --json emits the same facts as a
//       machine-readable document on stdout.
//
//   mpinspect hotspots <trace-dir | manifest.json> [--top <N>] [--json]
//       Hot-symbol view of a profiled run: symbols ranked by self share
//       (CPU samples with the symbol on top of the stack) with total
//       (anywhere-on-stack) shares alongside. Reads the "profile"
//       section of a run manifest, or profile.folded from a trace
//       bundle. Exits 1 when the run carries no profile — run it with
//       --profile to record one.
//
//   mpinspect diff <baseline.json> <candidate.json>
//             [--max-regress-pct <P>] [--json]
//       Compare two run manifests / campaign_wallclock documents:
//       per-thread-count wall-clock and throughput, per-phase wall-clock,
//       histogram p50/p95/p99 shifts, counter drift. Exits 1 when a gated
//       quantity regresses: wall clock by more than P percent (default
//       25). --json emits a machine-readable report on stdout instead of
//       tables.
//
//   mpinspect check <trace-dir> [--manifest <run.json>]
//       Structural validation of a trace bundle: journal schema tag,
//       line-numbered parse errors (a truncated journal fails here),
//       meta-vs-actual record counts, monotone timestamps per lane,
//       trace.json well-formedness, journal-vs-manifest counter
//       agreement, and — when the bundle carries a timeseries.ndjson —
//       tick-id monotonicity plus final-tick-vs-manifest counter
//       agreement. Exits 1 on any problem — this is the CI smoke check.
//
//   mpinspect watch <dir | file.ndjson> [--interval-ms <n>] [--once]
//       Live view of a running campaign: re-reads the timeseries.ndjson
//       its --telemetry-out is growing and redraws one status line per
//       tick: tasks done/total, tasks/s, ETA, RSS, live workers, stalls,
//       hot phase. A target not ending in ".ndjson" is a bundle dir, as
//       for the writer; it may not exist yet. Only complete lines are
//       parsed, so a tick still being appended waits for the next poll.
//       Exits 0 when the final tick lands, 1 on a malformed file or if
//       the file never appears. --once renders the current last tick and
//       exits immediately.
//
//   mpinspect tail <dir | file.ndjson> [--last <N>]
//       Table of the last N ticks (default 10) of a recorded
//       time-series, plus the meta header. Line-numbered errors (a
//       tampered or non-monotone file, or a torn last line, fails here)
//       exit 1.
//
//   mpinspect matrix <matrix.json> [--json]
//       Render an attack x defense resilience matrix produced by
//       examples/attack_matrix: one table per attack type, ROV rows x
//       OTC columns, each cell median single/quorum resilience plus the
//       raw capture rate. --json echoes the validated document back out
//       (a cheap schema check for pipelines). Exits 2 on unreadable or
//       malformed input.
//
// Exit codes: 0 ok, 1 check/gate failure, 2 usage or I/O error.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/attack_matrix.hpp"
#include "analysis/report.hpp"
#include "bgp/scenario.hpp"
#include "obs/journal_reader.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/manifest_reader.hpp"
#include "obs/run_compare.hpp"
#include "obs/telemetry_hub.hpp"
#include "obs/timeseries_reader.hpp"

using namespace marcopolo;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: mpinspect <command> ...\n"
      "  mpinspect summarize <trace-dir | manifest.json> [--json]\n"
      "  mpinspect hotspots <trace-dir | manifest.json>"
      " [--top <N>] [--json]\n"
      "  mpinspect diff <baseline.json> <candidate.json>"
      " [--max-regress-pct <P>] [--json]\n"
      "  mpinspect check <trace-dir> [--manifest <run.json>]\n"
      "  mpinspect watch <dir | file.ndjson>"
      " [--interval-ms <n>] [--once]\n"
      "  mpinspect tail <dir | file.ndjson> [--last <N>]\n"
      "  mpinspect matrix <matrix.json> [--json]\n");
  return 2;
}

std::string format_ms(std::uint64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.2f ms",
                static_cast<double>(ns) / 1e6);
  return buf;
}

std::string format_pct01(double value01) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.1f%%", 100.0 * value01);
  return buf;
}

std::string format_signed_pct(double pct) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%+.1f%%", pct);
  return buf;
}

std::string format_double(double value, const char* fmt = "%.3f") {
  char buf[64];
  std::snprintf(buf, sizeof buf, fmt, value);
  return buf;
}

// ---------------------------------------------------------------------------
// summarize

/// Display name of a journal attack tag (a bgp::AttackType value).
std::string plane_name(std::uint8_t tag) {
  if (tag < bgp::kAttackTypeCount) {
    return bgp::to_cstring(static_cast<bgp::AttackType>(tag));
  }
  return "attack-" + std::to_string(tag);
}

void print_phase_split_json(const obs::PhaseSplit& split) {
  std::printf(
      "{\"total\": %llu, \"propagate\": %llu, \"classify\": %llu, "
      "\"record\": %llu, \"other\": %llu}",
      static_cast<unsigned long long>(split.total_ns),
      static_cast<unsigned long long>(split.propagate_ns),
      static_cast<unsigned long long>(split.classify_ns),
      static_cast<unsigned long long>(split.record_ns),
      static_cast<unsigned long long>(split.other_ns()));
}

void summarize_journal_json(const obs::ReadJournal& read) {
  const obs::ProvenanceSummary prov =
      obs::summarize_provenance(read.journal);
  const obs::PhaseAttribution phases = obs::attribute_phases(read.journal);
  std::printf("{\n");
  std::printf(
      "  \"journal\": {\"schema\": %d, \"lines\": %zu, \"workers\": %zu, "
      "\"tasks\": %zu, \"verdicts\": %zu, \"attacks\": %zu, "
      "\"quorums\": %zu, \"skipped_records\": %zu},\n",
      read.schema, read.lines, read.journal.workers.size(),
      read.journal.task_count(), read.journal.verdict_count(),
      read.journal.attacks.size(), read.quorums.size(),
      read.skipped_records);
  std::printf("  \"provenance\": {\"verdicts\": %llu, \"adversary\": %llu, "
              "\"contested_rate\": %g, \"route_age_sensitive_rate\": %g, "
              "\"decided_by\": {",
              static_cast<unsigned long long>(prov.verdicts),
              static_cast<unsigned long long>(prov.adversary),
              prov.contested_rate(), prov.route_age_sensitive_rate());
  bool first = true;
  for (const auto& [step, count] : prov.decided_by) {
    std::printf("%s\"%s\": %llu", first ? "" : ", ",
                obs::json_escape(step).c_str(),
                static_cast<unsigned long long>(count));
    first = false;
  }
  std::printf("}},\n");
  std::printf("  \"phases_ns\": ");
  print_phase_split_json(phases);
  // Per-plane split only when there is more than one plane, so
  // single-attack output keeps its shape.
  if (phases.by_attack.size() > 1) {
    std::printf(",\n  \"phases_ns_by_attack\": {");
    bool first_plane = true;
    for (const auto& [tag, split] : phases.by_attack) {
      std::printf("%s\n    \"%s\": ", first_plane ? "" : ",",
                  obs::json_escape(plane_name(tag)).c_str());
      print_phase_split_json(split);
      first_plane = false;
    }
    std::printf("\n  }");
  }
  std::printf("\n}\n");
}

void summarize_manifest_json(const obs::ReadManifest& manifest) {
  std::printf("{\n");
  std::printf("  \"tool\": \"%s\",\n  \"version\": \"%s\",\n"
              "  \"schema\": %d,\n",
              obs::json_escape(manifest.tool).c_str(),
              obs::json_escape(manifest.version).c_str(), manifest.schema);
  std::printf("  \"config\": {");
  bool first = true;
  for (const auto& [key, value] : manifest.config) {
    std::printf("%s\"%s\": \"%s\"", first ? "" : ", ",
                obs::json_escape(key).c_str(),
                obs::json_escape(value).c_str());
    first = false;
  }
  std::printf("},\n");
  std::printf("  \"phases\": [");
  for (std::size_t i = 0; i < manifest.phases.size(); ++i) {
    const obs::ReadPhase& phase = manifest.phases[i];
    std::printf("%s\n    {\"name\": \"%s\", \"seconds\": %g",
                i == 0 ? "" : ",", obs::json_escape(phase.name).c_str(),
                phase.seconds);
    if (phase.has_mem) {
      std::printf(", \"peak_rss_kb\": %llu",
                  static_cast<unsigned long long>(phase.peak_rss_kb));
    }
    std::printf("}");
  }
  std::printf("%s],\n", manifest.phases.empty() ? "" : "\n  ");
  std::printf("  \"runs\": [");
  for (std::size_t i = 0; i < manifest.runs.size(); ++i) {
    const obs::BenchRunRow& run = manifest.runs[i];
    std::printf("%s\n    {\"threads\": %llu, \"seconds\": %g, "
                "\"tasks_per_s\": %g, \"store_identical\": %s}",
                i == 0 ? "" : ",",
                static_cast<unsigned long long>(run.threads), run.seconds,
                run.throughput(), run.store_identical ? "true" : "false");
  }
  std::printf("%s],\n", manifest.runs.empty() ? "" : "\n  ");
  std::printf("  \"histograms\": [");
  for (std::size_t i = 0; i < manifest.metrics.histograms.size(); ++i) {
    const obs::HistogramSnapshot& h = manifest.metrics.histograms[i];
    std::printf("%s\n    {\"name\": \"%s\", \"count\": %llu, \"p50\": %g, "
                "\"p95\": %g, \"p99\": %g, \"max\": %llu}",
                i == 0 ? "" : ",", obs::json_escape(h.name).c_str(),
                static_cast<unsigned long long>(h.count), h.quantile(0.50),
                h.quantile(0.95), h.quantile(0.99),
                static_cast<unsigned long long>(h.max));
  }
  std::printf("%s],\n", manifest.metrics.histograms.empty() ? "" : "\n  ");
  std::printf("  \"counters\": {");
  first = true;
  for (const auto& [name, value] : manifest.metrics.counters) {
    std::printf("%s\"%s\": %llu", first ? "" : ", ",
                obs::json_escape(name).c_str(),
                static_cast<unsigned long long>(value));
    first = false;
  }
  std::printf("}");
  if (manifest.has_profile) {
    const obs::ReadProfile& profile = manifest.profile;
    std::printf(",\n  \"profile\": {\"hz\": %llu, \"samples\": %llu, "
                "\"dropped\": %llu, \"truncated\": %llu, \"symbols\": [",
                static_cast<unsigned long long>(profile.hz),
                static_cast<unsigned long long>(profile.samples),
                static_cast<unsigned long long>(profile.dropped),
                static_cast<unsigned long long>(profile.truncated));
    for (std::size_t i = 0; i < profile.symbols.size(); ++i) {
      const obs::ReadHotSymbol& symbol = profile.symbols[i];
      std::printf("%s\n    {\"name\": \"%s\", \"self\": %llu, "
                  "\"total\": %llu, \"self_share\": %g}",
                  i == 0 ? "" : ",", obs::json_escape(symbol.name).c_str(),
                  static_cast<unsigned long long>(symbol.self),
                  static_cast<unsigned long long>(symbol.total),
                  profile.self_share(symbol.self));
    }
    std::printf("%s]}", profile.symbols.empty() ? "" : "\n  ");
  }
  std::printf("\n}\n");
}

void summarize_journal(const obs::ReadJournal& read) {
  std::printf("journal: schema %d, %zu lines, %zu worker lanes\n",
              read.schema, read.lines, read.journal.workers.size());
  std::printf(
      "records: %zu tasks, %zu verdicts, %zu attacks, %zu quorums"
      " (%zu unknown-type skipped)\n",
      read.journal.task_count(), read.journal.verdict_count(),
      read.journal.attacks.size(), read.quorums.size(),
      read.skipped_records);

  const obs::ProvenanceSummary prov =
      obs::summarize_provenance(read.journal);
  if (prov.verdicts != 0) {
    analysis::TextTable table({"Decided by", "Verdicts", "Share"});
    for (const auto& [step, count] : prov.decided_by) {
      table.add_row({step, std::to_string(count),
                     format_pct01(static_cast<double>(count) /
                                  static_cast<double>(prov.verdicts))});
    }
    std::printf("\nDecision provenance (%llu verdicts):\n%s",
                static_cast<unsigned long long>(prov.verdicts),
                table.to_string().c_str());
    std::printf(
        "adversary-routed %s, contested %s, route-age-sensitive %s\n",
        format_pct01(static_cast<double>(prov.adversary) /
                     static_cast<double>(prov.verdicts))
            .c_str(),
        format_pct01(prov.contested_rate()).c_str(),
        format_pct01(prov.route_age_sensitive_rate()).c_str());
  }

  const obs::PhaseAttribution phases = obs::attribute_phases(read.journal);
  if (phases.total_ns != 0) {
    analysis::TextTable table({"Task phase", "Wall clock", "Share"});
    const auto row = [&table, &phases](const char* name, std::uint64_t ns) {
      table.add_row({name, format_ms(ns),
                     format_pct01(static_cast<double>(ns) /
                                  static_cast<double>(phases.total_ns))});
    };
    row("propagate", phases.propagate_ns);
    row("classify", phases.classify_ns);
    row("record", phases.record_ns);
    row("other", phases.other_ns());
    std::printf("\nWorker time attribution (%s total in task spans):\n%s",
                format_ms(phases.total_ns).c_str(),
                table.to_string().c_str());
  }
  if (phases.total_ns != 0 && phases.by_attack.size() > 1) {
    analysis::TextTable table({"Attack plane", "Wall clock", "Share",
                               "Propagate", "Classify", "Record", "Other"});
    for (const auto& [tag, split] : phases.by_attack) {
      table.add_row({plane_name(tag), format_ms(split.total_ns),
                     format_pct01(static_cast<double>(split.total_ns) /
                                  static_cast<double>(phases.total_ns)),
                     format_ms(split.propagate_ns),
                     format_ms(split.classify_ns), format_ms(split.record_ns),
                     format_ms(split.other_ns())});
    }
    std::printf("\nPer-plane attribution (%zu attack planes):\n%s",
                phases.by_attack.size(), table.to_string().c_str());
  }
}

void summarize_manifest(const obs::ReadManifest& manifest) {
  std::printf("%s: %s%s%s\n",
              manifest.schema != 0 ? "manifest" : "benchmark",
              manifest.tool.c_str(),
              manifest.version.empty() ? "" : " @ ",
              manifest.version.c_str());
  if (!manifest.config.empty()) {
    analysis::TextTable table({"Config", "Value"});
    for (const auto& [key, value] : manifest.config) {
      table.add_row({key, value});
    }
    std::printf("\n%s", table.to_string().c_str());
  }
  if (!manifest.phases.empty()) {
    bool any_mem = false;
    for (const obs::ReadPhase& phase : manifest.phases) {
      any_mem = any_mem || phase.has_mem;
    }
    std::vector<std::string> header = {"Phase", "Seconds"};
    if (any_mem) header.push_back("Peak RSS");
    analysis::TextTable table(header);
    for (const obs::ReadPhase& phase : manifest.phases) {
      std::vector<std::string> row = {phase.name,
                                      format_double(phase.seconds)};
      if (any_mem) {
        row.push_back(phase.has_mem
                          ? format_double(static_cast<double>(
                                              phase.peak_rss_kb) /
                                              1024.0,
                                          "%.1f MiB")
                          : "-");
      }
      table.add_row(row);
    }
    std::printf("\n%s", table.to_string().c_str());
  }
  if (!manifest.runs.empty()) {
    analysis::TextTable table(
        {"Threads", "Seconds", "Tasks/s", "Store identical"});
    for (const obs::BenchRunRow& run : manifest.runs) {
      table.add_row({std::to_string(run.threads),
                     format_double(run.seconds),
                     format_double(run.throughput(), "%.1f"),
                     run.store_identical ? "yes" : "NO"});
    }
    std::printf("\n%s", table.to_string().c_str());
  }
  if (!manifest.metrics.histograms.empty()) {
    analysis::TextTable table(
        {"Histogram", "Count", "p50", "p95", "p99", "Max"});
    for (const obs::HistogramSnapshot& h : manifest.metrics.histograms) {
      table.add_row({h.name, std::to_string(h.count),
                     format_double(h.quantile(0.50), "%.0f"),
                     format_double(h.quantile(0.95), "%.0f"),
                     format_double(h.quantile(0.99), "%.0f"),
                     std::to_string(h.max)});
    }
    std::printf("\nLatency histograms:\n%s", table.to_string().c_str());
  }
  if (!manifest.metrics.counters.empty()) {
    analysis::TextTable table({"Counter", "Value"});
    for (const auto& [name, value] : manifest.metrics.counters) {
      table.add_row({name, std::to_string(value)});
    }
    std::printf("\nCounters:\n%s", table.to_string().c_str());
  }
  if (manifest.has_profile) {
    const obs::ReadProfile& profile = manifest.profile;
    analysis::TextTable table({"Hot symbol", "Self", "Total", "Self share"});
    for (const obs::ReadHotSymbol& symbol : profile.symbols) {
      table.add_row({symbol.name, std::to_string(symbol.self),
                     std::to_string(symbol.total),
                     format_pct01(profile.self_share(symbol.self))});
    }
    std::printf("\nCPU profile (%llu Hz, %llu samples, %llu dropped, "
                "%llu truncated):\n%s",
                static_cast<unsigned long long>(profile.hz),
                static_cast<unsigned long long>(profile.samples),
                static_cast<unsigned long long>(profile.dropped),
                static_cast<unsigned long long>(profile.truncated),
                table.to_string().c_str());
  }
}

int cmd_summarize(const std::vector<std::string>& args) {
  std::string target;
  bool as_json = false;
  for (const std::string& arg : args) {
    if (arg == "--json") {
      as_json = true;
    } else if (target.empty()) {
      target = arg;
    } else {
      return usage();
    }
  }
  if (target.empty()) return usage();
  if (std::filesystem::is_directory(target)) {
    const obs::ReadJournal read = obs::JournalReader::read_file(
        (std::filesystem::path(target) / "journal.ndjson").string());
    for (const obs::JournalIssue& issue : read.errors) {
      std::fprintf(stderr, "journal.ndjson line %zu: %s\n", issue.line,
                   issue.message.c_str());
    }
    if (!read.ok()) return 1;
    if (as_json) {
      summarize_journal_json(read);
    } else {
      summarize_journal(read);
    }
    return 0;
  }
  const obs::ReadManifest manifest = obs::ManifestReader::read_file(target);
  for (const std::string& error : manifest.errors) {
    std::fprintf(stderr, "%s: %s\n", target.c_str(), error.c_str());
  }
  if (!manifest.ok()) return 1;
  if (as_json) {
    summarize_manifest_json(manifest);
  } else {
    summarize_manifest(manifest);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// hotspots

struct HotspotRow {
  std::string name;
  std::uint64_t self = 0;
  std::uint64_t total = 0;
};

void print_hotspots_json(const std::string& source, std::uint64_t hz,
                         std::uint64_t samples,
                         const std::vector<HotspotRow>& rows) {
  std::printf("{\n  \"source\": \"%s\",\n", obs::json_escape(source).c_str());
  if (hz != 0) std::printf("  \"hz\": %llu,\n",
                           static_cast<unsigned long long>(hz));
  std::printf("  \"samples\": %llu,\n  \"symbols\": [",
              static_cast<unsigned long long>(samples));
  const double denom = samples == 0 ? 1.0 : static_cast<double>(samples);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const HotspotRow& row = rows[i];
    std::printf("%s\n    {\"name\": \"%s\", \"self\": %llu, "
                "\"total\": %llu, \"self_share\": %g, \"total_share\": %g}",
                i == 0 ? "" : ",", obs::json_escape(row.name).c_str(),
                static_cast<unsigned long long>(row.self),
                static_cast<unsigned long long>(row.total),
                static_cast<double>(row.self) / denom,
                static_cast<double>(row.total) / denom);
  }
  std::printf("%s]\n}\n", rows.empty() ? "" : "\n  ");
}

int cmd_hotspots(const std::vector<std::string>& args) {
  std::string target;
  std::size_t top_n = 20;
  bool as_json = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--json") {
      as_json = true;
    } else if (args[i] == "--top" && i + 1 < args.size()) {
      try {
        top_n = static_cast<std::size_t>(std::stoul(args[++i]));
      } catch (const std::exception&) {
        std::fprintf(stderr, "bad --top: %s\n", args[i].c_str());
        return 2;
      }
    } else if (target.empty()) {
      target = args[i];
    } else {
      return usage();
    }
  }
  if (target.empty()) return usage();

  std::vector<HotspotRow> rows;
  std::uint64_t hz = 0;
  std::uint64_t samples = 0;
  std::string source;
  if (std::filesystem::is_directory(target)) {
    const std::filesystem::path folded =
        std::filesystem::path(target) / "profile.folded";
    if (!std::filesystem::exists(folded)) {
      std::fprintf(stderr,
                   "%s: no profile.folded — record the run with --profile\n",
                   target.c_str());
      return 1;
    }
    source = folded.string();
    const obs::FoldedProfile profile =
        obs::read_folded_profile_file(source);
    for (const std::string& problem : profile.problems) {
      std::fprintf(stderr, "%s: %s\n", source.c_str(), problem.c_str());
    }
    if (!profile.ok()) return 1;
    samples = profile.total;
    for (const obs::ReadHotSymbol& symbol : profile.symbols) {
      rows.push_back({symbol.name, symbol.self, symbol.total});
    }
  } else {
    const obs::ReadManifest manifest = obs::ManifestReader::read_file(target);
    for (const std::string& error : manifest.errors) {
      std::fprintf(stderr, "%s: %s\n", target.c_str(), error.c_str());
    }
    if (!manifest.ok()) return 2;
    if (!manifest.has_profile) {
      std::fprintf(stderr,
                   "%s: no \"profile\" section — record the run with"
                   " --profile\n",
                   target.c_str());
      return 1;
    }
    source = target;
    hz = manifest.profile.hz;
    samples = manifest.profile.samples;
    for (const obs::ReadHotSymbol& symbol : manifest.profile.symbols) {
      rows.push_back({symbol.name, symbol.self, symbol.total});
    }
  }
  if (rows.size() > top_n) rows.resize(top_n);

  if (as_json) {
    print_hotspots_json(source, hz, samples, rows);
    return 0;
  }
  analysis::TextTable table(
      {"Hot symbol", "Self", "Total", "Self share", "Total share"});
  const double denom = samples == 0 ? 1.0 : static_cast<double>(samples);
  for (const HotspotRow& row : rows) {
    table.add_row({row.name, std::to_string(row.self),
                   std::to_string(row.total),
                   format_pct01(static_cast<double>(row.self) / denom),
                   format_pct01(static_cast<double>(row.total) / denom)});
  }
  if (hz != 0) {
    std::printf("CPU profile: %llu samples @ %llu Hz (%s)\n%s",
                static_cast<unsigned long long>(samples),
                static_cast<unsigned long long>(hz), source.c_str(),
                table.to_string().c_str());
  } else {
    std::printf("CPU profile: %llu samples (%s)\n%s",
                static_cast<unsigned long long>(samples), source.c_str(),
                table.to_string().c_str());
  }
  return 0;
}

// ---------------------------------------------------------------------------
// diff

void print_diff_tables(const obs::RunComparison& comparison) {
  if (!comparison.runs.empty()) {
    analysis::TextTable table(
        {"Threads", "Base s", "Cand s", "Wall delta", "Base tasks/s",
         "Cand tasks/s"});
    for (const obs::BenchRunDelta& run : comparison.runs) {
      table.add_row({std::to_string(run.threads),
                     format_double(run.base_seconds),
                     format_double(run.cand_seconds),
                     format_signed_pct(run.seconds_pct()),
                     format_double(run.base_throughput, "%.1f"),
                     format_double(run.cand_throughput, "%.1f")});
    }
    std::printf("Wall clock by thread count:\n%s\n",
                table.to_string().c_str());
  }
  if (!comparison.phases.empty()) {
    analysis::TextTable table({"Phase", "Base s", "Cand s", "Delta"});
    for (const obs::PhaseDelta& phase : comparison.phases) {
      table.add_row(
          {phase.name,
           phase.in_base ? format_double(phase.base_seconds) : "-",
           phase.in_cand ? format_double(phase.cand_seconds) : "-",
           phase.in_base && phase.in_cand ? format_signed_pct(phase.pct())
                                          : "-"});
    }
    std::printf("Phases:\n%s\n", table.to_string().c_str());
  }
  if (!comparison.quantiles.empty()) {
    analysis::TextTable table({"Histogram", "q", "Base", "Cand", "Delta"});
    for (const obs::QuantileDelta& quantile : comparison.quantiles) {
      table.add_row({quantile.name,
                     "p" + std::to_string(static_cast<int>(
                               quantile.q * 100.0 + 0.5)),
                     format_double(quantile.base, "%.0f"),
                     format_double(quantile.cand, "%.0f"),
                     format_signed_pct(quantile.pct())});
    }
    std::printf("Histogram quantiles:\n%s\n", table.to_string().c_str());
  }
  analysis::TextTable table({"Counter", "Base", "Cand", "Delta"});
  bool any = false;
  for (const obs::CounterDelta& counter : comparison.counters) {
    if (counter.delta() == 0 && counter.in_base == counter.in_cand) continue;
    any = true;
    table.add_row({counter.name,
                   counter.in_base ? std::to_string(counter.base) : "-",
                   counter.in_cand ? std::to_string(counter.cand) : "-",
                   format_signed_pct(counter.pct())});
  }
  if (any) {
    std::printf("Counter drift (changed only):\n%s\n",
                table.to_string().c_str());
  } else {
    std::printf("Counters: no drift.\n\n");
  }
  if (comparison.base_has_profile && comparison.cand_has_profile &&
      !comparison.hot_symbols.empty()) {
    analysis::TextTable hot(
        {"Hot symbol", "Base self", "Cand self", "Base share", "Cand share",
         "Delta"});
    std::size_t shown = 0;
    for (const obs::HotSymbolDelta& symbol : comparison.hot_symbols) {
      if (shown >= 15) break;
      // Skip the flat tail: symbols whose share barely moved explain
      // nothing about a regression.
      if (symbol.share_delta_pp() < 0.05 && symbol.share_delta_pp() > -0.05) {
        continue;
      }
      char delta[32];
      std::snprintf(delta, sizeof delta, "%+.1fpp", symbol.share_delta_pp());
      hot.add_row({symbol.name,
                   symbol.in_base ? std::to_string(symbol.base_self) : "-",
                   symbol.in_cand ? std::to_string(symbol.cand_self) : "-",
                   format_pct01(symbol.base_share),
                   format_pct01(symbol.cand_share), delta});
      ++shown;
    }
    if (shown != 0) {
      std::printf("Hot symbols by self-share delta (%llu -> %llu samples):"
                  "\n%s\n",
                  static_cast<unsigned long long>(
                      comparison.base_profile_samples),
                  static_cast<unsigned long long>(
                      comparison.cand_profile_samples),
                  hot.to_string().c_str());
    }
  } else if (comparison.base_has_profile != comparison.cand_has_profile) {
    std::printf("CPU profile: %s only — no hot-symbol attribution.\n\n",
                comparison.base_has_profile ? "baseline" : "candidate");
  }
}

void print_diff_json(const obs::RunComparison& comparison,
                     const obs::DiffGateResult& gate,
                     const obs::DiffGateConfig& config,
                     const std::string& base_path,
                     const std::string& cand_path) {
  std::printf("{\n");
  std::printf("  \"baseline\": \"%s\",\n",
              obs::json_escape(base_path).c_str());
  std::printf("  \"candidate\": \"%s\",\n",
              obs::json_escape(cand_path).c_str());
  std::printf("  \"max_regress_pct\": %g,\n", config.max_regress_pct);
  std::printf("  \"pass\": %s,\n", gate.pass ? "true" : "false");
  std::printf("  \"runs\": [");
  for (std::size_t i = 0; i < comparison.runs.size(); ++i) {
    const obs::BenchRunDelta& run = comparison.runs[i];
    std::printf("%s\n    {\"threads\": %llu, \"base_seconds\": %g, "
                "\"cand_seconds\": %g, \"seconds_pct\": %g}",
                i == 0 ? "" : ",",
                static_cast<unsigned long long>(run.threads),
                run.base_seconds, run.cand_seconds, run.seconds_pct());
  }
  std::printf("%s],\n", comparison.runs.empty() ? "" : "\n  ");
  std::printf("  \"phases\": [");
  for (std::size_t i = 0; i < comparison.phases.size(); ++i) {
    const obs::PhaseDelta& phase = comparison.phases[i];
    std::printf("%s\n    {\"name\": \"%s\", \"base_seconds\": %g, "
                "\"cand_seconds\": %g, \"pct\": %g, \"in_base\": %s, "
                "\"in_cand\": %s",
                i == 0 ? "" : ",", obs::json_escape(phase.name).c_str(),
                phase.base_seconds, phase.cand_seconds, phase.pct(),
                phase.in_base ? "true" : "false",
                phase.in_cand ? "true" : "false");
    if (phase.base_has_mem && phase.cand_has_mem) {
      std::printf(", \"base_peak_rss_kb\": %llu, \"cand_peak_rss_kb\": %llu",
                  static_cast<unsigned long long>(phase.base_peak_rss_kb),
                  static_cast<unsigned long long>(phase.cand_peak_rss_kb));
    }
    std::printf("}");
  }
  std::printf("%s],\n", comparison.phases.empty() ? "" : "\n  ");
  std::printf("  \"quantiles\": [");
  for (std::size_t i = 0; i < comparison.quantiles.size(); ++i) {
    const obs::QuantileDelta& quantile = comparison.quantiles[i];
    std::printf("%s\n    {\"histogram\": \"%s\", \"q\": %g, \"base\": %g, "
                "\"cand\": %g, \"pct\": %g}",
                i == 0 ? "" : ",", obs::json_escape(quantile.name).c_str(),
                quantile.q, quantile.base, quantile.cand, quantile.pct());
  }
  std::printf("%s],\n", comparison.quantiles.empty() ? "" : "\n  ");
  std::printf("  \"counters\": [");
  bool first = true;
  for (const obs::CounterDelta& counter : comparison.counters) {
    if (counter.delta() == 0 && counter.in_base == counter.in_cand) continue;
    std::printf("%s\n    {\"name\": \"%s\", \"base\": %llu, \"cand\": %llu}",
                first ? "" : ",", obs::json_escape(counter.name).c_str(),
                static_cast<unsigned long long>(counter.base),
                static_cast<unsigned long long>(counter.cand));
    first = false;
  }
  std::printf("%s],\n", first ? "" : "\n  ");
  if (comparison.base_has_profile || comparison.cand_has_profile) {
    std::printf("  \"profile\": {\"base_samples\": %llu, "
                "\"cand_samples\": %llu, \"hot_symbols\": [",
                static_cast<unsigned long long>(
                    comparison.base_profile_samples),
                static_cast<unsigned long long>(
                    comparison.cand_profile_samples));
    const std::size_t limit =
        comparison.hot_symbols.size() < 20 ? comparison.hot_symbols.size()
                                           : 20;
    for (std::size_t i = 0; i < limit; ++i) {
      const obs::HotSymbolDelta& symbol = comparison.hot_symbols[i];
      std::printf("%s\n    {\"name\": \"%s\", \"base_self\": %llu, "
                  "\"cand_self\": %llu, \"base_share\": %g, "
                  "\"cand_share\": %g, \"share_delta_pp\": %g}",
                  i == 0 ? "" : ",", obs::json_escape(symbol.name).c_str(),
                  static_cast<unsigned long long>(symbol.base_self),
                  static_cast<unsigned long long>(symbol.cand_self),
                  symbol.base_share, symbol.cand_share,
                  symbol.share_delta_pp());
    }
    std::printf("%s]},\n", limit == 0 ? "" : "\n  ");
  }
  std::printf("  \"violations\": [");
  for (std::size_t i = 0; i < gate.violations.size(); ++i) {
    std::printf("%s\n    \"%s\"", i == 0 ? "" : ",",
                obs::json_escape(gate.violations[i]).c_str());
  }
  std::printf("%s],\n", gate.violations.empty() ? "" : "\n  ");
  std::printf("  \"notes\": [");
  for (std::size_t i = 0; i < gate.notes.size(); ++i) {
    std::printf("%s\n    \"%s\"", i == 0 ? "" : ",",
                obs::json_escape(gate.notes[i]).c_str());
  }
  std::printf("%s]\n}\n", gate.notes.empty() ? "" : "\n  ");
}

int cmd_diff(const std::vector<std::string>& args) {
  std::vector<std::string> paths;
  obs::DiffGateConfig config;
  bool as_json = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--max-regress-pct" && i + 1 < args.size()) {
      try {
        config.max_regress_pct = std::stod(args[++i]);
      } catch (const std::exception&) {
        std::fprintf(stderr, "bad --max-regress-pct: %s\n", args[i].c_str());
        return 2;
      }
    } else if (args[i] == "--json") {
      as_json = true;
    } else {
      paths.push_back(args[i]);
    }
  }
  if (paths.size() != 2) return usage();

  const obs::ReadManifest base = obs::ManifestReader::read_file(paths[0]);
  const obs::ReadManifest cand = obs::ManifestReader::read_file(paths[1]);
  for (const auto* manifest : {&base, &cand}) {
    for (const std::string& error : manifest->errors) {
      std::fprintf(stderr, "%s: %s\n",
                   (manifest == &base ? paths[0] : paths[1]).c_str(),
                   error.c_str());
    }
  }
  if (!base.ok() || !cand.ok()) return 2;

  const obs::RunComparison comparison = obs::compare_runs(base, cand);
  const obs::DiffGateResult gate = obs::evaluate_gate(comparison, config);
  if (as_json) {
    print_diff_json(comparison, gate, config, paths[0], paths[1]);
  } else {
    std::printf("baseline:  %s (%s)\ncandidate: %s (%s)\n\n",
                paths[0].c_str(),
                base.version.empty() ? base.tool.c_str()
                                     : base.version.c_str(),
                paths[1].c_str(),
                cand.version.empty() ? cand.tool.c_str()
                                     : cand.version.c_str());
    print_diff_tables(comparison);
    for (const std::string& note : gate.notes) {
      std::printf("note: %s\n", note.c_str());
    }
    if (gate.pass) {
      std::printf("PASS: no gated quantity regressed more than %.0f%%.\n",
                  config.max_regress_pct);
    } else {
      for (const std::string& violation : gate.violations) {
        std::printf("REGRESSION: %s\n", violation.c_str());
      }
    }
  }
  return gate.pass ? 0 : 1;
}

// ---------------------------------------------------------------------------
// check

int cmd_check(const std::vector<std::string>& args) {
  std::string dir;
  std::string manifest_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--manifest" && i + 1 < args.size()) {
      manifest_path = args[++i];
    } else if (dir.empty()) {
      dir = args[i];
    } else {
      return usage();
    }
  }
  if (dir.empty()) return usage();

  const obs::BundleCheckResult result =
      obs::check_trace_bundle(dir, manifest_path);
  for (const std::string& problem : result.problems) {
    std::fprintf(stderr, "FAIL %s: %s\n", dir.c_str(), problem.c_str());
  }
  if (result.ok) {
    char profile[64] = "";
    if (result.has_profile) {
      std::snprintf(profile, sizeof profile, ", profile %llu samples",
                    static_cast<unsigned long long>(result.profile_samples));
    }
    char timeseries[64] = "";
    if (result.has_timeseries) {
      std::snprintf(timeseries, sizeof timeseries, ", timeseries %zu ticks",
                    result.timeseries_ticks);
    }
    std::printf(
        "OK %s: %zu journal lines (%zu tasks, %zu verdicts, %zu attacks, "
        "%zu quorums)%s%s%s\n",
        dir.c_str(), result.journal_lines, result.tasks, result.verdicts,
        result.attacks, result.quorums,
        manifest_path.empty() ? "" : ", manifest counters agree", profile,
        timeseries);
  }
  return result.ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// watch / tail

std::string format_mib(std::uint64_t kb) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.1f MiB",
                static_cast<double>(kb) / 1024.0);
  return buf;
}

std::string format_eta(double seconds) {
  char buf[48];
  if (seconds >= 3600.0) {
    std::snprintf(buf, sizeof buf, "%dh%02dm", static_cast<int>(seconds) / 3600,
                  (static_cast<int>(seconds) % 3600) / 60);
  } else if (seconds >= 60.0) {
    std::snprintf(buf, sizeof buf, "%dm%02ds", static_cast<int>(seconds) / 60,
                  static_cast<int>(seconds) % 60);
  } else {
    std::snprintf(buf, sizeof buf, "%.1fs", seconds);
  }
  return buf;
}

/// One status line for a tick; every ISSUE-mandated field that the
/// writer recorded, nothing invented for the ones it omitted.
std::string render_tick(const obs::TimeseriesTick& tick) {
  std::string line = "[watch] tick " + std::to_string(tick.tick);
  line += "  " + std::to_string(tick.tasks_done);
  if (tick.tasks_total != 0) {
    char pct[48];
    std::snprintf(pct, sizeof pct, "/%llu tasks (%.1f%%)",
                  static_cast<unsigned long long>(tick.tasks_total),
                  100.0 * static_cast<double>(tick.tasks_done) /
                      static_cast<double>(tick.tasks_total));
    line += pct;
  } else {
    line += " tasks";
  }
  line += "  " + format_double(tick.tasks_per_s, "%.1f") + " tasks/s";
  if (tick.has_eta) line += "  ETA " + format_eta(tick.eta_s);
  if (tick.has_mem) {
    line += "  RSS " + format_mib(tick.rss_kb) + " (peak " +
            format_mib(tick.peak_rss_kb) + ")";
  }
  line += "  workers " + std::to_string(tick.workers_live);
  line += "  stalls " + std::to_string(tick.stalls);
  if (!tick.hot_phase.empty()) line += "  hot " + tick.hot_phase;
  if (tick.final_tick) line += "  [final]";
  return line;
}

/// The ticks on the complete lines of a timeseries file that may still
/// be growing: the writer appends a tick line by line, so text after the
/// last '\n' is a tick in flight, left for the next poll.
obs::ReadTimeseries read_complete_lines(std::istream& in) {
  std::string text{std::istreambuf_iterator<char>(in), {}};
  text.resize(text.rfind('\n') + 1);  // npos + 1 == 0: no complete line
  std::istringstream lines(text);
  return obs::TimeseriesReader::read(lines);
}

int cmd_watch(const std::vector<std::string>& args) {
  std::string target;
  int interval_ms = 1000;
  bool once = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--interval-ms" && i + 1 < args.size()) {
      interval_ms = std::atoi(args[++i].c_str());
      if (interval_ms <= 0) {
        std::fprintf(stderr, "bad --interval-ms: %s\n", args[i].c_str());
        return 2;
      }
    } else if (args[i] == "--once") {
      once = true;
    } else if (target.empty()) {
      target = args[i];
    } else {
      return usage();
    }
  }
  if (target.empty()) return usage();
  const std::string path = obs::TelemetryHub::resolve_timeseries_path(target);

  obs::LineGuard guard(stdout);
  bool connected = false;
  std::optional<std::uint64_t> last_rendered_tick;
  // Before the file first opens, keep trying for a grace window (the
  // watched process may not have created it yet); after that, a file
  // that cannot be opened is an error.
  int attempts_left = 20;
  for (;;) {
    std::ifstream in(path, std::ios::binary);
    if (in.is_open()) {
      connected = true;
    } else if (connected) {
      guard.finish_live_line();
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    // A stream that did not open reads as empty: no tick yet.
    const obs::ReadTimeseries read = read_complete_lines(in);
    if (!read.ok()) {
      guard.finish_live_line();
      for (const obs::TimeseriesIssue& issue : read.errors) {
        std::fprintf(stderr, "%s line %zu: %s\n", path.c_str(), issue.line,
                     issue.message.c_str());
      }
      return 1;
    }

    const obs::TimeseriesTick* tick = read.last_tick();
    if (tick != nullptr && (last_rendered_tick != tick->tick || once)) {
      last_rendered_tick = tick->tick;
      guard.live_line(render_tick(*tick), /*final=*/once || tick->final_tick);
      if (tick->final_tick && !once) return 0;
    }
    if (once) {
      if (tick == nullptr) {
        std::fprintf(stderr, "no tick available in %s\n", path.c_str());
        return 1;
      }
      return 0;
    }
    if (!connected && --attempts_left <= 0) {
      std::fprintf(stderr, "watch target never became reachable: no %s\n",
                   path.c_str());
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}

int cmd_tail(const std::vector<std::string>& args) {
  std::string target;
  std::size_t last_n = 10;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--last" && i + 1 < args.size()) {
      try {
        last_n = static_cast<std::size_t>(std::stoul(args[++i]));
      } catch (const std::exception&) {
        std::fprintf(stderr, "bad --last: %s\n", args[i].c_str());
        return 2;
      }
    } else if (target.empty()) {
      target = args[i];
    } else {
      return usage();
    }
  }
  if (target.empty()) return usage();
  const std::string path = obs::TelemetryHub::resolve_timeseries_path(target);

  const obs::ReadTimeseries read = obs::TimeseriesReader::read_file(path);
  for (const obs::TimeseriesIssue& issue : read.errors) {
    std::fprintf(stderr, "%s line %zu: %s\n", path.c_str(), issue.line,
                 issue.message.c_str());
  }
  if (!read.ok()) return 1;
  if (read.has_meta) {
    std::printf("timeseries: schema %d, tick every %llu ms, %zu ticks"
                " (%zu unknown-type skipped)\n",
                read.schema, static_cast<unsigned long long>(read.tick_ms),
                read.ticks.size(), read.skipped_records);
  }
  analysis::TextTable table({"Tick", "t", "Tasks", "Tasks/s", "Workers",
                             "Stalls", "RSS", "Hot phase"});
  const std::size_t begin =
      read.ticks.size() > last_n ? read.ticks.size() - last_n : 0;
  for (std::size_t i = begin; i < read.ticks.size(); ++i) {
    const obs::TimeseriesTick& tick = read.ticks[i];
    std::string tasks = std::to_string(tick.tasks_done);
    if (tick.tasks_total != 0) tasks += "/" + std::to_string(tick.tasks_total);
    if (tick.final_tick) tasks += " (final)";
    table.add_row(
        {std::to_string(tick.tick),
         format_double(static_cast<double>(tick.t_ns) / 1e9, "%.1fs"),
         tasks, format_double(tick.tasks_per_s, "%.1f"),
         std::to_string(tick.workers_live), std::to_string(tick.stalls),
         tick.has_mem ? format_mib(tick.rss_kb) : "-",
         tick.hot_phase.empty() ? "-" : tick.hot_phase});
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}

int cmd_matrix(const std::vector<std::string>& args) {
  std::string path;
  bool as_json = false;
  for (const std::string& arg : args) {
    if (arg == "--json") {
      as_json = true;
    } else if (path.empty()) {
      path = arg;
    } else {
      return usage();
    }
  }
  if (path.empty()) return usage();

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 2;
  }
  const analysis::ReadAttackMatrix read =
      analysis::read_attack_matrix_json(in);
  if (!read.ok) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), read.error.c_str());
    return 2;
  }
  if (as_json) {
    std::ostringstream out;
    analysis::write_attack_matrix_json(out, read.report);
    std::fputs(out.str().c_str(), stdout);
    return 0;
  }
  std::fputs(analysis::render_attack_matrix(read.report).c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "summarize") return cmd_summarize(args);
  if (command == "hotspots") return cmd_hotspots(args);
  if (command == "diff") return cmd_diff(args);
  if (command == "check") return cmd_check(args);
  if (command == "watch") return cmd_watch(args);
  if (command == "tail") return cmd_tail(args);
  if (command == "matrix") return cmd_matrix(args);
  return usage();
}
