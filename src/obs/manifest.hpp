// RunManifest: one self-describing JSON document per run.
//
// Serializes (1) a config echo — whatever key/value pairs the host
// program records, in insertion order, (2) named wall-clock phases, each
// with the process memory across it when it was timed by time_phase(),
// and (3) a full MetricsSnapshot (every counter and histogram), so a
// single run document answers "what ran, with what settings, how long
// each phase took, and what the instrumented subsystems counted" without
// re-running anything. The format is plain JSON with a `manifest_schema`
// version field. Every CLI writes one through obs::Session, the
// campaign_wallclock bench included; ManifestReader reads it back.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "obs/json.hpp"  // json_escape (the writers' shared escaper)
#include "obs/mem_stats.hpp"
#include "obs/metrics.hpp"
#include "obs/symbolize.hpp"

namespace marcopolo::obs {

/// One wall-clock phase row, as RunManifest writes it and ManifestReader
/// reads it back. The memory pair is present (has_mem) when the phase
/// was timed by time_phase() on a host with /proc: the process peak RSS
/// at phase end and the RSS change across the phase.
struct PhaseRow {
  std::string name;
  double seconds = 0.0;

  bool has_mem = false;
  std::uint64_t peak_rss_kb = 0;
  std::int64_t rss_delta_kb = 0;
};

/// Run `body` once as phase `name`: wall clock plus memory samples at
/// entry and exit (obs/mem_stats.hpp; ~5 us each, inside the timing).
template <typename Body>
[[nodiscard]] PhaseRow time_phase(std::string name, Body&& body) {
  PhaseRow row{.name = std::move(name)};
  const auto t0 = std::chrono::steady_clock::now();
  const MemorySample start = read_memory_sample();
  body();
  const MemorySample end = read_memory_sample();
  row.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  if (start.valid && end.valid) {
    row.has_mem = true;
    row.peak_rss_kb = end.peak_rss_kb;
    row.rss_delta_kb = static_cast<std::int64_t>(end.rss_kb) -
                       static_cast<std::int64_t>(start.rss_kb);
  }
  return row;
}

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
  void add_phase(std::string_view name, double seconds) {
    add_phase(PhaseRow{.name = std::string(name), .seconds = seconds});
  }
  void add_phase(PhaseRow row) { phases_.push_back(std::move(row)); }

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

  std::string tool_;
  std::vector<std::pair<std::string, Value>> config_;
  std::vector<PhaseRow> phases_;
  CpuProfile profile_;  // available && samples > 0 gates serialization
};

}  // namespace marcopolo::obs
