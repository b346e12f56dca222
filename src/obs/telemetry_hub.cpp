#include "obs/telemetry_hub.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <filesystem>
#include <sstream>

#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/mem_stats.hpp"

namespace marcopolo::obs {

namespace {

constexpr int kTimeseriesSchema = 1;

/// The phase histograms whose per-tick ns deltas pick the hot phase.
constexpr const char* kPhaseNames[3] = {"propagate", "classify", "record"};
constexpr const char* kPhaseHistograms[3] = {"campaign.phase.propagate_ns",
                                             "campaign.phase.classify_ns",
                                             "campaign.phase.record_ns"};

[[nodiscard]] std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// JSON number for a rate/ETA double: finite shortest-form, never
/// inf/nan (which JSON lacks) — those render as 0.
void append_double(std::string* out, double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  out->append(buf);
}

void append_u64_field(std::string* out, const char* key,
                      std::uint64_t value) {
  char buf[96];
  std::snprintf(buf, sizeof buf, ",\"%s\":%" PRIu64, key, value);
  out->append(buf);
}

}  // namespace

TelemetryHub::TelemetryHub(TelemetryConfig config)
    : config_(std::move(config)) {
  config_.tick_ms = std::max(config_.tick_ms, 10);
  config_.stall_ticks = std::max(config_.stall_ticks, 1);
}

TelemetryHub::~TelemetryHub() { stop(); }

std::string TelemetryHub::resolve_timeseries_path(
    const std::string& configured) {
  if (configured.empty()) return {};
  const std::string suffix = ".ndjson";
  if (configured.size() >= suffix.size() &&
      configured.compare(configured.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
    return configured;
  }
  return configured + "/timeseries.ndjson";
}

void TelemetryHub::start() {
  {
    std::scoped_lock lock(tick_mutex_);
    if (started_) return;
    started_ = true;
    stop_requested_ = false;
    start_time_ = std::chrono::steady_clock::now();
    next_tick_ = 0;
    prev_t_ns_ = 0;
    prev_tasks_done_ = 0;
    prev_phase_ns_[0] = prev_phase_ns_[1] = prev_phase_ns_[2] = 0;
    zero_progress_ticks_ = 0;

    if (!config_.timeseries_path.empty()) {
      const std::string path =
          resolve_timeseries_path(config_.timeseries_path);
      std::error_code ec;
      const auto parent = std::filesystem::path(path).parent_path();
      if (!parent.empty()) std::filesystem::create_directories(parent, ec);
      timeseries_ = std::fopen(path.c_str(), "wb");
      if (timeseries_ == nullptr) {
        MARCOPOLO_LOG(Warn) << "telemetry: cannot open time-series file"
                            << field("path", path);
      } else {
        const std::uint64_t start_ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::system_clock::now().time_since_epoch())
                .count());
        std::fprintf(timeseries_,
                     "{\"type\":\"meta\",\"timeseries_schema\":%d,"
                     "\"tick_ms\":%d,\"start_ns\":%" PRIu64 "}\n",
                     kTimeseriesSchema, config_.tick_ms, start_ns);
        std::fflush(timeseries_);
      }
    }
    // Created under the lock (the thread's first step is to take it), so
    // a racing stop() always sees a joinable sampler.
    sampler_ = std::thread([this] { sampler_loop(); });
  }
}

void TelemetryHub::stop() {
  {
    std::scoped_lock lock(tick_mutex_);
    if (!started_) return;
    stop_requested_ = true;
  }
  tick_cv_.notify_all();
  if (sampler_.joinable()) sampler_.join();
  {
    std::scoped_lock lock(tick_mutex_);
    tick_locked(/*final_tick=*/true);
    if (timeseries_ != nullptr) {
      std::fclose(timeseries_);
      timeseries_ = nullptr;
    }
    started_ = false;
  }
}

void TelemetryHub::sampler_loop() {
  std::unique_lock lock(tick_mutex_);
  while (!stop_requested_) {
    const bool stopping = tick_cv_.wait_for(
        lock, std::chrono::milliseconds(config_.tick_ms),
        [this] { return stop_requested_; });
    if (stopping) break;
    tick_locked(/*final_tick=*/false);
  }
}

void TelemetryHub::set_metrics(MetricsRegistry* metrics) {
  std::scoped_lock lock(tick_mutex_);
  config_.metrics = metrics;
  // Handles and phase baselines belong to the old registry.
  stall_counter_ = Counter{};
  prev_phase_ns_[0] = prev_phase_ns_[1] = prev_phase_ns_[2] = 0;
}

void TelemetryHub::add_planned_tasks(std::uint64_t n) {
  planned_tasks_.fetch_add(n, std::memory_order_relaxed);
}

TelemetryWorkerSlot* TelemetryHub::open_worker_slot() {
  std::scoped_lock lock(slots_mutex_);
  slots_.push_back(std::make_unique<TelemetryWorkerSlot>());
  return slots_.back().get();
}

void TelemetryHub::close_worker_slot(TelemetryWorkerSlot* slot) {
  if (slot != nullptr) slot->live.store(false, std::memory_order_relaxed);
}

void TelemetryHub::note_task_done(TelemetryWorkerSlot* slot,
                                  std::uint64_t n) {
  if (slot == nullptr) return;
  slot->completed.fetch_add(n, std::memory_order_relaxed);
  slot->last_complete_ns.store(steady_now_ns(), std::memory_order_relaxed);
}

void TelemetryHub::tick_now() {
  std::scoped_lock lock(tick_mutex_);
  if (start_time_ == std::chrono::steady_clock::time_point{}) {
    start_time_ = std::chrono::steady_clock::now();
  }
  tick_locked(/*final_tick=*/false);
}

TelemetrySnapshot TelemetryHub::latest() const {
  std::scoped_lock lock(latest_mutex_);
  return latest_;
}

void TelemetryHub::tick_locked(bool final_tick) {
  const auto now = std::chrono::steady_clock::now();

  TelemetrySnapshot snap;
  snap.tick = next_tick_++;
  snap.t_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - start_time_)
          .count());
  snap.final_tick = final_tick;

  // Worker progress. Completed counts are monotone, so summing relaxed
  // loads mid-churn only shifts a task between adjacent ticks.
  struct WorkerAge {
    std::size_t index;
    std::uint64_t completed;
    std::uint64_t last_ns;  ///< 0 = never completed a task.
  };
  std::vector<WorkerAge> live_workers;
  {
    std::scoped_lock slots(slots_mutex_);
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const TelemetryWorkerSlot& slot = *slots_[i];
      const std::uint64_t completed =
          slot.completed.load(std::memory_order_relaxed);
      snap.tasks_done += completed;
      if (slot.live.load(std::memory_order_relaxed)) {
        ++snap.workers_live;
        live_workers.push_back(
            {i, completed,
             slot.last_complete_ns.load(std::memory_order_relaxed)});
      }
    }
  }
  snap.tasks_total = planned_tasks_.load(std::memory_order_relaxed);

  const std::uint64_t dt_ns =
      snap.t_ns > prev_t_ns_ ? snap.t_ns - prev_t_ns_ : 0;
  const double dt_s = static_cast<double>(dt_ns) / 1e9;
  const std::uint64_t done_delta =
      snap.tasks_done > prev_tasks_done_
          ? snap.tasks_done - prev_tasks_done_
          : 0;
  if (dt_s > 0.0) {
    snap.tasks_per_s = static_cast<double>(done_delta) / dt_s;
  }

  if (config_.recorder != nullptr) {
    snap.verdicts = config_.recorder->verdicts();
    snap.adversary_verdicts = config_.recorder->adversary_verdicts();
  }

  const MemorySample mem = read_memory_sample();
  snap.mem_valid = mem.valid;
  snap.rss_kb = mem.rss_kb;
  snap.peak_rss_kb = mem.peak_rss_kb;

  // Full registry scrape: hot phase from ns-histogram deltas, counters
  // embedded in the tick line.
  MetricsSnapshot counters;
  bool have_counters = false;
  if (config_.metrics != nullptr) {
    counters = config_.metrics->snapshot();
    have_counters = true;
    std::uint64_t best_delta = 0;
    for (int p = 0; p < 3; ++p) {
      const HistogramSnapshot* hist =
          counters.histogram(kPhaseHistograms[p]);
      const std::uint64_t sum = hist != nullptr ? hist->sum : 0;
      const std::uint64_t delta =
          sum > prev_phase_ns_[p] ? sum - prev_phase_ns_[p] : 0;
      prev_phase_ns_[p] = sum;
      if (delta > best_delta) {
        best_delta = delta;
        snap.hot_phase = kPhaseNames[p];
      }
    }
  }

  if (snap.tasks_total > snap.tasks_done && snap.tasks_per_s > 0.0) {
    snap.eta_s = static_cast<double>(snap.tasks_total - snap.tasks_done) /
                 snap.tasks_per_s;
  }

  // Stall watchdog: fires once per zero-progress episode, at exactly
  // stall_ticks consecutive no-progress ticks with live workers.
  if (!final_tick && snap.workers_live > 0 && done_delta == 0) {
    ++zero_progress_ticks_;
    if (zero_progress_ticks_ == config_.stall_ticks) {
      stalls_.fetch_add(1, std::memory_order_relaxed);
      const std::uint64_t now_ns = steady_now_ns();
      std::ostringstream ages;
      for (const WorkerAge& w : live_workers) {
        if (!ages.str().empty()) ages << ' ';
        ages << 'w' << w.index << '=';
        if (w.last_ns == 0) {
          ages << "never";
        } else {
          ages << (static_cast<double>(now_ns - w.last_ns) / 1e9) << 's';
        }
      }
      MARCOPOLO_LOG(Warn)
          << "campaign stalled: no task completed"
          << field("zero_ticks", zero_progress_ticks_)
          << field("tick_ms", config_.tick_ms)
          << field("workers_live", snap.workers_live)
          << field("tasks_done", snap.tasks_done)
          << field("last_completed_ages", ages.str());
      // Interned lazily so never-stalled runs leave the registry — and
      // therefore the manifest — untouched (pure-observer proof).
      if (config_.metrics != nullptr && !stall_counter_) {
        stall_counter_ = config_.metrics->counter("campaign.stalls");
      }
      stall_counter_.add(1);
    }
  } else if (done_delta != 0) {
    zero_progress_ticks_ = 0;
  }
  snap.stalls = stalls_.load(std::memory_order_relaxed);

  write_tick_line(snap, have_counters ? &counters : nullptr);

  {
    std::scoped_lock latest(latest_mutex_);
    latest_ = snap;
  }

  prev_t_ns_ = snap.t_ns;
  prev_tasks_done_ = snap.tasks_done;
}

void TelemetryHub::write_tick_line(const TelemetrySnapshot& snap,
                                   const MetricsSnapshot* counters) {
  if (timeseries_ == nullptr) return;
  char head[160];
  std::snprintf(head, sizeof head,
                "{\"type\":\"tick\",\"tick\":%" PRIu64 ",\"t_ns\":%" PRIu64,
                snap.tick, snap.t_ns);
  std::string line = head;
  append_u64_field(&line, "tasks_done", snap.tasks_done);
  append_u64_field(&line, "tasks_total", snap.tasks_total);
  line += ",\"tasks_per_s\":";
  append_double(&line, snap.tasks_per_s);
  append_u64_field(&line, "workers_live",
                   static_cast<std::uint64_t>(snap.workers_live));
  append_u64_field(&line, "stalls", snap.stalls);
  append_u64_field(&line, "verdicts", snap.verdicts);
  append_u64_field(&line, "adversary_verdicts", snap.adversary_verdicts);
  if (snap.mem_valid) {
    append_u64_field(&line, "rss_kb", snap.rss_kb);
    append_u64_field(&line, "peak_rss_kb", snap.peak_rss_kb);
  }
  if (!snap.hot_phase.empty()) {
    line += ",\"hot_phase\":\"" + json_escape(snap.hot_phase) + "\"";
  }
  if (snap.eta_s >= 0.0) {
    line += ",\"eta_s\":";
    append_double(&line, snap.eta_s);
  }
  if (snap.final_tick) line += ",\"final\":true";
  if (counters != nullptr) {
    line += ",\"counters\":{";
    bool first = true;
    for (const auto& [name, value] : counters->counters) {
      if (!first) line += ",";
      first = false;
      line += "\"" + json_escape(name) + "\":" + std::to_string(value);
    }
    line += "}";
  }
  line += "}\n";
  std::fputs(line.c_str(), timeseries_);
  // Flush per tick: a killed run keeps every completed tick (the
  // crash-safe-append half of the contract; atomic rename is wrong here
  // because the file grows for the whole run).
  std::fflush(timeseries_);
}

}  // namespace marcopolo::obs
