// TimeseriesReader: parse a timeseries.ndjson written by TelemetryHub
// back into tick records. TimeseriesTick is also the record the hub
// fills and writes, and format_tick_line the one status-line view of it.
//
// Same schema policy as the journal reader (timeseries_schema 1,
// forward-compatible reads): unknown "type" records are counted and
// skipped; unknown fields inside a tick are ignored; missing fields
// default to zero-values. Structural problems — a non-object line, a
// missing "type", an unsupported schema, a tick id that fails to
// strictly increase (the tamper/corruption signature) — are errors
// carrying their 1-based line number.
//
// Consumers: `mpinspect tail` / `mpinspect watch` (render ticks),
// `check_trace_bundle` (monotonicity + final-tick counter agreement).
// The hub's --progress line and `watch` draw a tick with the same
// format_tick_line.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace marcopolo::obs {

/// One problem found while reading, anchored to its line.
struct TimeseriesIssue {
  std::size_t line = 0;  ///< 1-based.
  std::string message;
};

/// One tick record: what the hub fills and writes, and what the reader
/// decodes.
struct TimeseriesTick {
  std::uint64_t tick = 0;
  std::uint64_t t_ns = 0;
  std::uint64_t tasks_done = 0;
  std::uint64_t tasks_total = 0;
  double tasks_per_s = 0.0;
  std::uint64_t workers_live = 0;
  std::uint64_t stalls = 0;
  std::uint64_t verdicts = 0;
  std::uint64_t adversary_verdicts = 0;
  bool has_mem = false;  ///< rss fields present (writer had /proc).
  std::uint64_t rss_kb = 0;
  std::uint64_t peak_rss_kb = 0;
  std::string hot_phase;  ///< Empty when the writer had no registry.
  bool has_eta = false;
  double eta_s = 0.0;
  bool final_tick = false;
  /// Embedded registry counter scrape, in file (name-sorted) order;
  /// empty when the writer had no registry attached.
  std::vector<std::pair<std::string, std::uint64_t>> counters;

  /// Counter value by name; 0 if absent.
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
};

/// The one-line status view of a tick:
///
///   [campaign] tick 41  812/2052 tasks (39.6%)  131.0 tasks/s  ETA 9.5s
///   RSS 80.1 MiB (peak 95.0 MiB)  workers 4  stalls 0  hot classify
///   hijacked 34.2%  [final]
///
/// (one line). A field the writer omitted (ETA, RSS, hot phase) is left
/// out, and so is the hijack rate while no verdict has been tallied.
[[nodiscard]] std::string format_tick_line(const TimeseriesTick& tick);

/// Everything read back from one timeseries.ndjson.
struct ReadTimeseries {
  /// From the meta header line (0 when no meta line was seen).
  int schema = 0;
  bool has_meta = false;
  std::uint64_t tick_ms = 0;
  std::uint64_t start_ns = 0;

  std::vector<TimeseriesTick> ticks;

  std::vector<TimeseriesIssue> errors;  ///< Malformed/non-monotone lines.
  std::size_t skipped_records = 0;      ///< Unknown "type" (forward compat).
  std::size_t lines = 0;                ///< Non-empty lines consumed.

  [[nodiscard]] bool ok() const { return errors.empty(); }
  /// The last tick, or nullptr when the file held none.
  [[nodiscard]] const TimeseriesTick* last_tick() const {
    return ticks.empty() ? nullptr : &ticks.back();
  }
};

/// Parses timeseries.ndjson streams. Stateless; the static methods are
/// the whole interface.
class TimeseriesReader {
 public:
  [[nodiscard]] static ReadTimeseries read(std::istream& in);
  /// read() on the file's contents; an unopenable path is reported as an
  /// error on line 0.
  [[nodiscard]] static ReadTimeseries read_file(const std::string& path);
};

}  // namespace marcopolo::obs
