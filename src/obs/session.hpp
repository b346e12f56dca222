// obs::Session: the observers one CLI run attaches, built from the shared
// observer flags. A binary accepts a constant subset of the flags and
// parses what parse_session_args leaves over itself. A profiler or
// endpoint that cannot start degrades and says why on stderr (the
// pure-observer contract, observers.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/manifest.hpp"
#include "obs/observers.hpp"

namespace marcopolo::obs {

/// One bit per observer flag; a binary ORs together the ones it accepts.
enum SessionFlag : unsigned {
  /// --metrics-out <file.json>: a registry; finish() writes a RunManifest.
  kMetricsOutFlag = 1u << 0,
  /// --trace-out <dir>: a flight recorder; finish() writes the trace
  /// bundle and self-checks it. Implies metrics (it embeds metrics.prom).
  kTraceOutFlag = 1u << 1,
  kProgressFlag = 1u << 2,  ///< --progress: live stderr task line.
  kVerboseFlag = 1u << 3,   ///< --verbose: timestamped log on stderr.
  kProfileFlag = 1u << 4,   ///< --profile[=hz]: sampling CPU profiler.
  /// --telemetry-out <dir|file>: a telemetry hub appending
  /// timeseries.ndjson (give the --trace-out dir for one bundle).
  kTelemetryOutFlag = 1u << 5,
  /// --serve-metrics <port>: the hub serves /metrics, /healthz and
  /// /snapshot.json on 127.0.0.1 (port 0 = kernel-assigned).
  kServeMetricsFlag = 1u << 6,
  kTickMsFlag = 1u << 7,  ///< --tick-ms <n>: hub period (default 1000).
  kTelemetryFlags = kTelemetryOutFlag | kServeMetricsFlag | kTickMsFlag,
  kAllSessionFlags = (1u << 8) - 1,
};

struct SessionOptions {
  std::string metrics_out;
  std::string trace_out;
  bool progress = false;
  bool verbose = false;
  std::uint32_t profile_hz = 0;  ///< Sampling rate; 0 = no profiler.
  std::string telemetry_out;
  int serve_port = -1;  ///< < 0 = no endpoint.
  int tick_ms = 1000;
};

struct SessionArgs {
  SessionOptions options;
  std::vector<std::string> rest;  ///< The other arguments, in order.
  /// Set for a flag outside `accepted`, a missing value, or a number that
  /// is not one whole decimal token in range (port 0..65535, positive
  /// rate and tick). The caller prints it with its usage and exits 2.
  std::string error;
};

[[nodiscard]] SessionArgs parse_session_args(int argc,
                                             const char* const* argv,
                                             unsigned accepted);

/// Usage text for `accepted`, e.g. "[--trace-out <dir>] [--profile[=hz]]".
[[nodiscard]] std::string session_usage(unsigned accepted);

/// The profiler --profile asks for, or null; an unavailable one is still
/// returned after its reason is echoed.
[[nodiscard]] std::unique_ptr<SamplingProfiler> make_profiler(
    const SessionOptions& options);

/// The started hub --telemetry-out/--serve-metrics ask for, or null,
/// scraping `metrics` and `recorder` (either may be null). Echoes the
/// served URL or why the endpoint is unavailable.
[[nodiscard]] std::unique_ptr<TelemetryHub> start_telemetry(
    const SessionOptions& options, MetricsRegistry* metrics,
    const FlightRecorder* recorder);

class Session {
 public:
  /// Build every observer `options` asks for; `tool` names the manifest.
  Session(std::string tool, SessionOptions options);
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Hand these to every pipeline of the run.
  [[nodiscard]] const Observers& observers() const { return observers_; }
  /// Phases and config echo go here; finish() writes it.
  [[nodiscard]] RunManifest& manifest() { return manifest_; }

  /// In this order: symbolize the profile into the manifest (printing a
  /// summary line), stop the hub (its final tick must be on disk before
  /// the self-check reads it), write the manifest, write the trace bundle
  /// and run check_trace_bundle on it. Returns the exit code: 1 when an
  /// artifact cannot be written or the self-check fails, else 0.
  [[nodiscard]] int finish();

 private:
  SessionOptions options_;
  MetricsRegistry registry_;
  FlightRecorder recorder_;
  ProgressReporter reporter_;
  std::unique_ptr<SamplingProfiler> profiler_;
  std::unique_ptr<TelemetryHub> hub_;
  Observers observers_;
  RunManifest manifest_;
};

}  // namespace marcopolo::obs
