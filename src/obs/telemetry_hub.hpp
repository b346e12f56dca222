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
//   - With a status stream (--progress) each tick is also drawn as the
//     live stderr status line, by the format_tick_line that `mpinspect
//     watch` uses.
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

#include <array>
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
#include "obs/timeseries_reader.hpp"

namespace marcopolo::obs {

class FlightRecorder;
class LineGuard;  // obs/log.hpp

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
  /// Where each tick is drawn as the live status line; null = no line.
  /// A tick redraws it only when the done or total count moved, and
  /// ends it with a newline once every planned task has retired and on
  /// the final tick.
  LineGuard* status = nullptr;
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

  /// The last tick, as written; t_ns counts from hub start.
  [[nodiscard]] TimeseriesTick latest() const;
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
  void write_tick_line(const TimeseriesTick& tick);
  void draw_status(const TimeseriesTick& tick);

  TelemetryConfig config_;

  std::mutex tick_mutex_;  ///< Serializes ticks and start/stop.
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
  /// Per campaign phase: baseline, propagate, classify, record.
  std::array<std::uint64_t, 4> prev_phase_ns_{};
  int zero_progress_ticks_ = 0;
  Counter stall_counter_;  ///< Interned lazily on first stall.
  // The last status line drawn (sampler only).
  std::uint64_t drawn_done_ = 0;
  std::uint64_t drawn_total_ = 0;
  bool line_open_ = false;  ///< Drawn without its newline.

  mutable std::mutex latest_mutex_;
  TimeseriesTick latest_;
};

}  // namespace marcopolo::obs
