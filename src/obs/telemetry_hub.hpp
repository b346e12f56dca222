// Live telemetry plane: a background sampler that turns the passive obs
// layer (sharded MetricsRegistry, FlightRecorder live tallies, mem_stats)
// into an in-flight time-series.
//
// Every artifact the obs layer produced before this existed — manifest,
// trace bundle, folded profile — is written *after* the run ends. A
// long sweep needs the opposite: "is it stalled, is it on pace, which
// phase is hot" answered while the process runs. The hub is that answer:
//
//   - A sampler thread ticks on a configurable period (default 1s).
//     Each tick scrapes the metrics registry, the recorder's live
//     verdict tallies, per-worker completion slots, and VmRSS/VmHWM,
//     derives rates from the previous tick, and appends
//     one schema-versioned NDJSON record to `timeseries.ndjson`
//     (crash-safe: append + flush per tick, so a killed run keeps every
//     completed tick). `mpinspect watch` follows that file live.
//   - A stall watchdog rides the same tick: when zero tasks complete for
//     `stall_ticks` consecutive ticks while workers are live, it logs a
//     Warn line with per-worker last-completed-task ages and raises a
//     `campaign.stalls` counter (interned lazily, so runs that never
//     stall keep byte-identical manifests).
//
// Contract, same as the recorder/profiler layers: the hub is a pure
// observer and null by default. Pipelines carry a `TelemetryHub*`
// defaulting to nullptr; hub on or off leaves ResultStore, manifest, and
// journal bytes identical. Worker-side cost is two relaxed atomic stores
// per completed task.
//
// NDJSON schema (timeseries_schema 1, journal-style evolution policy:
// unknown types skipped, unknown fields ignored, missing fields default):
//   {"type":"meta","timeseries_schema":1,"tick_ms":...,"start_ns":...}
//   {"type":"tick","tick":0,"t_ns":...,"tasks_done":...,"tasks_total":...,
//    "tasks_per_s":...,"workers_live":...,"stalls":...,"verdicts":...,
//    "adversary_verdicts":...,"rss_kb":...,"peak_rss_kb":...,
//    "hot_phase":"classify","eta_s":...,
//    "counters":{"campaign.tasks_executed":...,...}}
// Tick ids are monotone from 0; the last record of a clean shutdown adds
// "final":true. rss/peak_rss are omitted when /proc is unavailable,
// eta_s when unknown, counters when no registry is attached.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace marcopolo::obs {

class FlightRecorder;

/// Per-worker completion slot. Workers stamp it through
/// TelemetryHub::note_task_done(); the sampler thread reads it each tick
/// (all fields relaxed atomics — tick totals are monotone counters, so
/// a torn read across workers only shifts work between adjacent ticks).
struct TelemetryWorkerSlot {
  std::atomic<std::uint64_t> completed{0};        ///< Tasks finished.
  std::atomic<std::uint64_t> last_complete_ns{0}; ///< steady_clock stamp.
  std::atomic<bool> live{true};                   ///< Cleared on close.
};

struct TelemetryConfig {
  int tick_ms = 1000;          ///< Sampler period; clamped to >= 10.
  /// Where timeseries.ndjson goes: a directory (the trace-bundle dir;
  /// the file is created inside it) or a path ending in ".ndjson".
  /// Empty = no time-series file.
  std::string timeseries_path;
  int stall_ticks = 5;         ///< Zero-progress ticks before a warning.
  MetricsRegistry* metrics = nullptr;     ///< Scraped per tick (optional).
  const FlightRecorder* recorder = nullptr;  ///< Live tallies (optional).
};

/// One tick's derived state; latest() returns a copy for tests.
struct TelemetrySnapshot {
  std::uint64_t tick = 0;
  std::uint64_t t_ns = 0;        ///< Nanoseconds since hub start.
  std::uint64_t tasks_done = 0;
  std::uint64_t tasks_total = 0;
  double tasks_per_s = 0.0;
  int workers_live = 0;
  std::uint64_t stalls = 0;
  std::uint64_t verdicts = 0;
  std::uint64_t adversary_verdicts = 0;
  std::uint64_t rss_kb = 0;
  std::uint64_t peak_rss_kb = 0;
  bool mem_valid = false;
  std::string hot_phase;         ///< Phase with the largest ns delta.
  double eta_s = -1.0;           ///< < 0 = unknown.
  bool final_tick = false;
};

class TelemetryHub {
 public:
  explicit TelemetryHub(TelemetryConfig config);
  ~TelemetryHub();
  TelemetryHub(const TelemetryHub&) = delete;
  TelemetryHub& operator=(const TelemetryHub&) = delete;

  /// Open the time-series file (writing the meta record) and start the
  /// sampler thread. A file that cannot be opened is logged, and the
  /// hub still ticks. Idempotent.
  void start();

  /// Emit one last tick (marked "final":true), join the sampler, close
  /// the file. Idempotent; also run by the destructor.
  void stop();

  /// Rebind the scraped registry mid-run (the bench harness builds a
  /// fresh registry per rep). Synchronized with the tick, so the old
  /// registry may be destroyed as soon as this returns. Pass nullptr to
  /// detach before the current registry dies.
  void set_metrics(MetricsRegistry* metrics);

  /// Grow the denominator for progress/ETA. Campaigns call this once
  /// with tasks*sites before workers start; multiple campaigns sharing
  /// one hub accumulate.
  void add_planned_tasks(std::uint64_t n);

  /// Register a worker. The returned slot stays valid until the hub is
  /// destroyed (slots are pooled and never handed out twice).
  [[nodiscard]] TelemetryWorkerSlot* open_worker_slot();
  /// Mark the worker done; its completed count keeps contributing.
  void close_worker_slot(TelemetryWorkerSlot* slot);

  /// Worker hot path: two relaxed stores. Null-safe on the hub pointer
  /// at the call site (the usual `if (hub)` guard).
  void note_task_done(TelemetryWorkerSlot* slot, std::uint64_t n = 1);

  /// Run one tick synchronously on the calling thread (works without
  /// start(); tests use this for deterministic watchdog timing).
  void tick_now();

  [[nodiscard]] TelemetrySnapshot latest() const;
  [[nodiscard]] std::uint64_t stalls() const {
    return stalls_.load(std::memory_order_relaxed);
  }

  /// Resolve a timeseries_path the way the hub does: a path ending in
  /// ".ndjson" is used as-is, anything else is treated as a bundle
  /// directory and gets "/timeseries.ndjson" appended.
  [[nodiscard]] static std::string resolve_timeseries_path(
      const std::string& configured);

 private:
  void sampler_loop();
  void tick_locked(bool final_tick);
  void write_tick_line(const TelemetrySnapshot& snap,
                       const MetricsSnapshot* counters);

  TelemetryConfig config_;

  std::mutex tick_mutex_;  ///< Serializes ticks, set_metrics, start/stop.
  std::condition_variable tick_cv_;
  std::thread sampler_;
  bool started_ = false;
  bool stop_requested_ = false;

  std::FILE* timeseries_ = nullptr;

  std::chrono::steady_clock::time_point start_time_{};
  std::uint64_t next_tick_ = 0;
  std::atomic<std::uint64_t> planned_tasks_{0};
  std::atomic<std::uint64_t> stalls_{0};

  mutable std::mutex slots_mutex_;
  std::vector<std::unique_ptr<TelemetryWorkerSlot>> slots_;

  // Previous-tick state for rate/hot-phase derivation (sampler only).
  std::uint64_t prev_t_ns_ = 0;
  std::uint64_t prev_tasks_done_ = 0;
  std::uint64_t prev_phase_ns_[3] = {0, 0, 0};
  int zero_progress_ticks_ = 0;
  Counter stall_counter_;  ///< Interned lazily on first stall.

  mutable std::mutex latest_mutex_;
  TelemetrySnapshot latest_;
};

}  // namespace marcopolo::obs
