// obs::Observers: every optional observer of a pipeline run, as one value.
// FastCampaignConfig, OrchestratorConfig and OptimizerConfig each hold
// one; obs::Session (session.hpp) builds one from a CLI's flags.
//
// The pure-observer contract, for every member: the default (null/off)
// costs nothing, and on, off or degraded (profiler unavailable) leaves
// ResultStore bytes and the other observers' deterministic output
// unchanged (campaign_*_test).
// Nothing observed feeds back into a simulation decision.
//
// The campaign reads all four members; the Orchestrator metrics, recorder
// and telemetry; the DeploymentOptimizer metrics and profiler. One value
// can serve every pipeline of a run.
#pragma once

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
  /// Sampling CPU profiler; workers attach for their task loop.
  SamplingProfiler* profiler = nullptr;
  /// Live telemetry: planned tasks plus a per-worker completion slot.
  /// It also draws the --progress status line.
  TelemetryHub* telemetry = nullptr;
};

}  // namespace marcopolo::obs
