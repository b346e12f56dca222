// obs::Observers: every optional observer of a pipeline run, as one value.
// FastCampaignConfig, OrchestratorConfig and OptimizerConfig each hold
// one; obs::Session (session.hpp) builds one from a CLI's flags.
//
// The pure-observer contract, for every member: the default (null/off)
// costs nothing, and on, off or degraded (profiler or perf counters
// unavailable) leaves ResultStore bytes and the other observers'
// deterministic output unchanged (campaign_*_test).
// Nothing observed feeds back into a simulation decision.
//
// The campaign reads all six members; the Orchestrator metrics, recorder
// and telemetry; the DeploymentOptimizer metrics, hw_counters and
// profiler. One value can serve every pipeline of a run.
#pragma once

#include <cstddef>
#include <functional>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry_hub.hpp"

namespace marcopolo::obs {

struct Observers {
  /// Counters and latency histograms, counted into per-thread shards.
  MetricsRegistry* metrics = nullptr;
  /// Task spans, propagation records and verdicts, one lane per worker.
  /// Null means no clock reads at all.
  FlightRecorder* recorder = nullptr;
  /// (tasks_completed, tasks_total) as campaign tasks retire. Called from
  /// worker threads: it must be thread-safe and not touch the store.
  std::function<void(std::size_t, std::size_t)> progress{};
  /// Per-worker perf_event groups counting instructions and cycles; no
  /// syscalls when off, and off (no counter metrics) where denied.
  bool hw_counters = false;
  /// Sampling CPU profiler; workers attach for their task loop.
  SamplingProfiler* profiler = nullptr;
  /// Live telemetry: planned tasks plus a per-worker completion slot.
  TelemetryHub* telemetry = nullptr;
};

}  // namespace marcopolo::obs
