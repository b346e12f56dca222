// RunManifest: one self-describing JSON document per run.
//
// Serializes (1) a config echo — whatever key/value pairs the host
// program records, in insertion order, (2) named wall-clock phases, and
// (3) a full MetricsSnapshot (every counter and histogram), so a single
// `--metrics-out run.json` file answers "what ran, with what settings,
// how long each phase took, and what the instrumented subsystems
// counted" without re-running anything. The format is plain JSON with a
// `manifest_schema` version field; `write_metrics_json()` is exposed
// separately so benches can embed the metrics section inside their own
// documents (campaign_wallclock does).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "obs/json.hpp"  // json_escape (the writers' shared escaper)
#include "obs/metrics.hpp"
#include "obs/symbolize.hpp"

namespace marcopolo::obs {

/// Write one MetricsSnapshot as a JSON object:
///   {"counters": {...}, "histograms": {name: {count, sum, min, max,
///    p50, p95, p99, buckets: [{"le": ..., "count": ...}]}}}
/// The pNN fields are log2-bucket interpolation estimates
/// (HistogramSnapshot::quantile).
/// `indent` is prepended to every line after the first.
void write_metrics_json(std::ostream& out, const MetricsSnapshot& snapshot,
                        std::string_view indent = {});

/// Write a CpuProfile's summary as a JSON object: sampling rate, sample
/// accounting, and the top-`top_n` hot symbols by self samples
/// ({"name", "self", "total"} each). Shared between RunManifest and the
/// campaign_wallclock bench so both emit the exact field names
/// manifest_reader parses. `indent` is prepended to every line after the
/// first.
void write_profile_json(std::ostream& out, const CpuProfile& profile,
                        std::string_view indent = {},
                        std::size_t top_n = 20);

class RunManifest {
 public:
  explicit RunManifest(std::string tool) : tool_(std::move(tool)) {}

  /// Config echo (insertion order preserved; re-setting a key overwrites).
  void set(std::string_view key, std::string_view value);
  void set(std::string_view key, const char* value) {
    set(key, std::string_view(value));
  }
  void set(std::string_view key, std::int64_t value);
  void set(std::string_view key, std::uint64_t value) {
    set(key, static_cast<std::int64_t>(value));
  }
  void set(std::string_view key, int value) {
    set(key, static_cast<std::int64_t>(value));
  }
  void set(std::string_view key, double value);
  void set(std::string_view key, bool value);

  /// Record a completed wall-clock phase.
  void add_phase(std::string_view name, double seconds);

  /// Attach a CPU profile summary. Serialized as a "profile" section
  /// only when the profile is available and non-empty, so profiler
  /// off/unavailable manifests stay byte-identical to pre-profiler ones
  /// — call sites never branch on availability.
  void set_profile(const CpuProfile& profile);

  /// Serialize config + phases + `snapshot` as one JSON document.
  void write_json(std::ostream& out, const MetricsSnapshot& snapshot) const;

  /// write_json() to `path`; returns false (and writes nothing) on I/O
  /// failure.
  [[nodiscard]] bool write_file(const std::string& path,
                                const MetricsSnapshot& snapshot) const;

 private:
  using Value = std::variant<std::string, std::int64_t, double, bool>;

  struct Phase {
    std::string name;
    double seconds = 0.0;
  };

  std::string tool_;
  std::vector<std::pair<std::string, Value>> config_;
  std::vector<Phase> phases_;
  CpuProfile profile_;  // available && samples > 0 gates serialization
};

}  // namespace marcopolo::obs
