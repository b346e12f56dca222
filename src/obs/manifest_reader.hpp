// ManifestReader: parse a run manifest (RunManifest JSON: every CLI's
// --metrics-out and campaign_wallclock's output) back into
// MetricsSnapshot-shaped data.
//
// The reader reconstructs counters and histograms (buckets, count, sum,
// min, max — the pNN fields are derived and recomputed via
// HistogramSnapshot::quantile, never trusted from the file). The config
// echo, phases and profile sections are optional: whatever is present is
// read, everything else defaults. Unknown fields are skipped — same
// forward-compatibility policy as the journal reader. A document without
// a "tool" is not a run manifest and reads as an error.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "obs/manifest.hpp"  // PhaseRow
#include "obs/metrics.hpp"
#include "obs/symbolize.hpp"  // HotSymbol

namespace marcopolo::obs {

/// A manifest's "profile" section.
struct ReadProfile {
  std::uint32_t hz = 0;
  std::uint64_t samples = 0;
  std::uint64_t dropped = 0;
  std::uint64_t truncated = 0;
  /// The hot-symbol table ("profile"."symbols"): top-N by self samples,
  /// in document (descending-self) order.
  std::vector<HotSymbol> symbols;

  /// Self share of the run, in [0,1]; 0 when the sample total is 0.
  [[nodiscard]] double self_share(std::uint64_t self) const {
    return samples == 0 ? 0.0
                        : static_cast<double>(self) /
                              static_cast<double>(samples);
  }
};

/// Everything read back from one run manifest.
struct ReadManifest {
  int schema = 0;    ///< manifest_schema; 0 when absent.
  std::string tool;  ///< The writing CLI ("tool").

  /// Config echo, values re-serialized as display strings.
  std::vector<std::pair<std::string, std::string>> config;
  /// Wall-clock phases in document order.
  std::vector<PhaseRow> phases;

  MetricsSnapshot metrics;

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
