#include "obs/session.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <limits>
#include <string_view>
#include <utility>

#include "obs/log.hpp"
#include "obs/run_compare.hpp"
#include "obs/symbolize.hpp"
#include "obs/trace_export.hpp"

namespace marcopolo::obs {

namespace {

struct Flag {
  SessionFlag bit;
  std::string_view name;
  std::string_view value;  ///< Usage of its value; " <...>" = takes one.
};

constexpr Flag kFlags[] = {
    {kMetricsOutFlag, "--metrics-out", " <file.json>"},
    {kTraceOutFlag, "--trace-out", " <dir>"},
    {kProgressFlag, "--progress", ""},
    {kVerboseFlag, "--verbose", ""},
    {kProfileFlag, "--profile", "[=hz]"},
    {kTelemetryOutFlag, "--telemetry-out", " <dir|file>"},
    {kServeMetricsFlag, "--serve-metrics", " <port>"},
    {kTickMsFlag, "--tick-ms", " <n>"},
};

/// `text` as one whole decimal token in [lo, hi]; else sets `error`.
int whole_number(std::string_view name, std::string_view text, int lo,
                 int hi, std::string& error) {
  int n = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, n);
  if (ec != std::errc() || stop != end || n < lo || n > hi) {
    error = "bad " + std::string(name) + " '" + std::string(text) +
            "' (want " +
            (lo == 0 ? "0.." + std::to_string(hi) : "a positive integer") +
            ")";
  }
  return n;
}

}  // namespace

SessionArgs parse_session_args(int argc, const char* const* argv,
                               unsigned accepted) {
  constexpr int kMax = std::numeric_limits<int>::max();
  SessionArgs out;
  SessionOptions& o = out.options;
  for (int i = 1; i < argc && out.error.empty(); ++i) {
    std::string_view name = argv[i];
    std::string_view value;
    const bool rate = name.starts_with("--profile=");  // value in the token
    if (rate) {
      value = name.substr(name.find('=') + 1);
      name = "--profile";
    }
    const Flag* flag =
        std::find_if(std::begin(kFlags), std::end(kFlags),
                     [&](const Flag& f) { return f.name == name; });
    if (flag == std::end(kFlags)) {
      out.rest.emplace_back(argv[i]);
      continue;
    }
    if ((accepted & flag->bit) == 0) {
      out.error = std::string(name) + " is not supported here";
      break;
    }
    if (flag->value.starts_with(' ')) {
      if (i + 1 == argc) {
        out.error = std::string(name) + " needs a value";
        break;
      }
      value = argv[++i];
    }
    switch (flag->bit) {
      case kMetricsOutFlag: o.metrics_out = value; break;
      case kTraceOutFlag: o.trace_out = value; break;
      case kProgressFlag: o.progress = true; break;
      case kVerboseFlag: o.verbose = true; break;
      case kProfileFlag:
        o.profile_hz = rate ? static_cast<std::uint32_t>(whole_number(
                                  name, value, 1, kMax, out.error))
                            : kDefaultProfileHz;
        break;
      case kTelemetryOutFlag: o.telemetry_out = value; break;
      case kServeMetricsFlag:
        o.serve_port = whole_number(name, value, 0, 65535, out.error);
        break;
      case kTickMsFlag:
        o.tick_ms = whole_number(name, value, 1, kMax, out.error);
        break;
      default: break;
    }
  }
  return out;
}

std::string session_usage(unsigned accepted) {
  std::string usage;
  for (const Flag& flag : kFlags) {
    if ((accepted & flag.bit) == 0) continue;
    if (!usage.empty()) usage += ' ';
    usage += "[" + std::string(flag.name) + std::string(flag.value) + "]";
  }
  return usage;
}

std::unique_ptr<SamplingProfiler> make_profiler(
    const SessionOptions& options) {
  if (options.profile_hz == 0) return nullptr;
  auto profiler = std::make_unique<SamplingProfiler>(options.profile_hz);
  if (!profiler->available()) {
    std::fprintf(stderr, "profiler unavailable: %s\n",
                 profiler->unavailable_reason().c_str());
  }
  return profiler;
}

std::unique_ptr<TelemetryHub> start_telemetry(const SessionOptions& options,
                                              MetricsRegistry* metrics,
                                              const FlightRecorder* recorder) {
  if (options.telemetry_out.empty() && options.serve_port < 0) return nullptr;
  auto hub = std::make_unique<TelemetryHub>(
      TelemetryConfig{.tick_ms = options.tick_ms,
                      .timeseries_path = options.telemetry_out,
                      .serve_port = options.serve_port,
                      .metrics = metrics,
                      .recorder = recorder});
  hub->start();
  if (options.serve_port < 0) return hub;
  if (hub->serving()) {
    std::fprintf(stderr, "telemetry: serving http://127.0.0.1:%d\n",
                 hub->port());
  } else {
    std::fprintf(stderr, "telemetry: endpoint unavailable (%s)\n",
                 hub->serve_reason().c_str());
  }
  return hub;
}

Session::Session(std::string tool, SessionOptions options)
    : options_(std::move(options)),
      reporter_(options_.trace_out.empty() ? nullptr : &recorder_),
      profiler_(make_profiler(options_)),
      manifest_(std::move(tool)) {
  if (options_.verbose) {
    Logger::global().set_stderr_sink(LogLevel::Debug, /*timestamps=*/true);
  }
  // The trace bundle embeds a metrics.prom, so tracing implies metrics.
  if (!options_.metrics_out.empty() || !options_.trace_out.empty()) {
    observers_.metrics = &registry_;
  }
  if (!options_.trace_out.empty()) observers_.recorder = &recorder_;
  if (options_.progress) {
    observers_.progress = [this](std::size_t done, std::size_t total) {
      reporter_.update(done, total);
    };
  }
  observers_.profiler = profiler_.get();
  hub_ = start_telemetry(options_, observers_.metrics, observers_.recorder);
  observers_.telemetry = hub_.get();
}

int Session::finish() {
  // The manifest and bundle writers skip a profile without samples.
  CpuProfile profile;
  if (profiler_ != nullptr) profile = symbolize_profile(profiler_->drain());
  manifest_.set_profile(profile);
  const bool sampled = profile.available && profile.samples > 0;
  if (sampled) {
    std::printf("\nCPU profile: %llu samples @ %u Hz (%llu dropped, "
                "%llu truncated), hottest: %s\n",
                static_cast<unsigned long long>(profile.samples),
                profiler_->hz(),
                static_cast<unsigned long long>(profile.dropped),
                static_cast<unsigned long long>(profile.truncated),
                profile.symbols.empty()
                    ? "(none)"
                    : profile.symbols.front().name.c_str());
  }
  if (hub_ != nullptr) hub_->stop();

  const std::string& metrics_out = options_.metrics_out;
  if (!metrics_out.empty()) {
    if (!manifest_.write_file(metrics_out, registry_.snapshot())) {
      std::fprintf(stderr, "failed to write %s\n", metrics_out.c_str());
      return 1;
    }
    std::printf("\nRun manifest written to %s\n", metrics_out.c_str());
  }
  if (observers_.recorder == nullptr) return 0;

  const std::string& trace_out = options_.trace_out;
  const FlightJournal journal = recorder_.drain();
  const MetricsSnapshot snap = registry_.snapshot();
  if (!write_trace_dir(trace_out, journal, &snap, &profile)) {
    std::fprintf(stderr, "failed to write trace bundle to %s\n",
                 trace_out.c_str());
    return 1;
  }
  std::printf("\nTrace bundle written to %s (trace.json, journal.ndjson, "
              "metrics.prom%s): %zu task spans, %zu verdicts (%zu "
              "adversary-routed)\n",
              trace_out.c_str(), sampled ? ", profile.folded" : "",
              journal.task_count(), journal.verdict_count(),
              journal.adversary_verdict_count());
  // A bundle this process cannot read back, or whose journal disagrees
  // with the manifest counters, is a bug, not a warning.
  const BundleCheckResult check = check_trace_bundle(trace_out, metrics_out);
  for (const std::string& problem : check.problems) {
    std::fprintf(stderr, "trace bundle self-check: %s\n", problem.c_str());
  }
  return check.ok ? 0 : 1;
}

}  // namespace marcopolo::obs
