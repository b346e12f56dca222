// ManifestReader: parse run-manifest JSON (`--metrics-out`, RunManifest)
// and campaign_wallclock benchmark JSON back into MetricsSnapshot-shaped
// data.
//
// Both document families share the top-level "metrics" section written
// by write_metrics_json(); the reader reconstructs counters and
// histograms (buckets, count, sum, min, max — the pNN fields are derived
// and recomputed via HistogramSnapshot::quantile, never trusted from the
// file). Manifest-only sections (config echo, phases) and bench-only
// sections (per-thread-count runs) are optional: whatever is present is
// read, everything else defaults. Unknown fields are skipped — same
// forward-compatibility policy as the journal reader.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace marcopolo::obs {

/// One wall-clock phase row, with memory attribution when the writing
/// host had /proc (has_mem distinguishes "zero" from "absent").
struct ReadPhase {
  std::string name;
  double seconds = 0.0;

  bool has_mem = false;
  std::uint64_t peak_rss_kb = 0;
  std::int64_t rss_delta_kb = 0;
};

/// One campaign_wallclock thread-count run row.
struct BenchRunRow {
  std::uint64_t threads = 0;
  double seconds = 0.0;
  std::uint64_t tasks = 0;
  std::uint64_t propagations = 0;
  bool store_identical = true;

  /// Tasks retired per wall-clock second; 0 when unmeasurable.
  [[nodiscard]] double throughput() const {
    return seconds > 0.0 ? static_cast<double>(tasks) / seconds : 0.0;
  }
};

/// One row of a manifest's hot-symbol table ("profile"."symbols").
struct ReadHotSymbol {
  std::string name;
  std::uint64_t self = 0;   ///< Samples with this symbol as leaf.
  std::uint64_t total = 0;  ///< Samples with this symbol anywhere.
};

/// The "profile" section written by write_profile_json (manifests and
/// campaign_wallclock documents share the shape).
struct ReadProfile {
  std::uint32_t hz = 0;
  std::uint64_t samples = 0;
  std::uint64_t dropped = 0;
  std::uint64_t truncated = 0;
  /// Top-N by self samples, in document (descending-self) order.
  std::vector<ReadHotSymbol> symbols;

  /// Self share of the run, in [0,1]; 0 when the sample total is 0.
  [[nodiscard]] double self_share(std::uint64_t self) const {
    return samples == 0 ? 0.0
                        : static_cast<double>(self) /
                              static_cast<double>(samples);
  }
};

/// Everything read back from one manifest/benchmark JSON document.
struct ReadManifest {
  int schema = 0;       ///< manifest_schema; 0 for bench documents.
  std::string tool;     ///< "tool" (manifest) or "benchmark" (bench) name.
  std::string version;  ///< Bench "version" (git describe); may be empty.

  /// Config echo, values re-serialized as display strings.
  std::vector<std::pair<std::string, std::string>> config;
  /// Wall-clock phases in document order.
  std::vector<ReadPhase> phases;

  MetricsSnapshot metrics;

  std::vector<BenchRunRow> runs;  ///< campaign_wallclock only.

  /// CPU-profile summary; has_profile distinguishes "absent" (profiler
  /// off/unavailable, or a pre-profiler document) from an empty table.
  bool has_profile = false;
  ReadProfile profile;

  std::vector<std::string> errors;
  [[nodiscard]] bool ok() const { return errors.empty(); }
};

class ManifestReader {
 public:
  [[nodiscard]] static ReadManifest read(std::istream& in);
  [[nodiscard]] static ReadManifest read_string(const std::string& text);
  [[nodiscard]] static ReadManifest read_file(const std::string& path);
};

}  // namespace marcopolo::obs
