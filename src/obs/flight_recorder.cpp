#include "obs/flight_recorder.hpp"

#include <algorithm>

#include "obs/log.hpp"

namespace marcopolo::obs {

std::size_t FlightJournal::task_count() const {
  std::size_t n = 0;
  for (const WorkerLane& lane : workers) n += lane.tasks.size();
  return n;
}

std::size_t FlightJournal::verdict_count() const {
  std::size_t n = 0;
  for (const WorkerLane& lane : workers) n += lane.verdicts.size();
  return n;
}

std::size_t FlightJournal::adversary_verdict_count() const {
  std::size_t n = 0;
  for (const WorkerLane& lane : workers) {
    for (const VerdictRecord& v : lane.verdicts) {
      if (v.outcome == 2) ++n;
    }
  }
  return n;
}

FlightBuffer* FlightRecorder::open_buffer() {
  std::scoped_lock lock(mutex_);
  auto buffer = std::make_unique<FlightBuffer>();
  buffer->worker_id_ = static_cast<std::uint32_t>(buffers_.size());
  buffers_.push_back(std::move(buffer));
  return buffers_.back().get();
}

FlightJournal FlightRecorder::drain() {
  std::scoped_lock lock(mutex_);
  FlightJournal journal;
  std::uint64_t epoch = ~std::uint64_t{0};
  for (auto& buffer : buffers_) {
    for (const TaskSpanRecord& t : buffer->tasks_) {
      epoch = std::min(epoch, t.start_ns);
    }
    for (const PropagationRunRecord& p : buffer->propagations_) {
      epoch = std::min(epoch, p.start_ns);
    }
    if (!buffer->tasks_.empty() || !buffer->propagations_.empty() ||
        !buffer->verdicts_.empty()) {
      FlightJournal::WorkerLane lane;
      lane.worker = buffer->worker_id_;
      lane.tasks = std::move(buffer->tasks_);
      lane.propagations = std::move(buffer->propagations_);
      lane.verdicts = std::move(buffer->verdicts_);
      journal.workers.push_back(std::move(lane));
    }
    journal.attacks.insert(journal.attacks.end(), buffer->attacks_.begin(),
                           buffer->attacks_.end());
    journal.quorums.insert(journal.quorums.end(), buffer->quorums_.begin(),
                           buffer->quorums_.end());
  }
  buffers_.clear();
  // Lanes in worker-id order and virtual records in time order, so the
  // journal (and the exported trace) is stable for a given run.
  std::sort(journal.workers.begin(), journal.workers.end(),
            [](const auto& a, const auto& b) { return a.worker < b.worker; });
  std::stable_sort(journal.attacks.begin(), journal.attacks.end(),
                   [](const AttackSpanRecord& a, const AttackSpanRecord& b) {
                     return a.announce_us < b.announce_us;
                   });
  std::stable_sort(journal.quorums.begin(), journal.quorums.end(),
                   [](const QuorumRecord& a, const QuorumRecord& b) {
                     return a.virtual_us < b.virtual_us;
                   });
  journal.epoch_ns = epoch == ~std::uint64_t{0} ? 0 : epoch;
  verdicts_.store(0, std::memory_order_relaxed);
  adversary_verdicts_.store(0, std::memory_order_relaxed);
  instructions_.store(0, std::memory_order_relaxed);
  return journal;
}

ProgressReporter::ProgressReporter(const FlightRecorder* recorder,
                                   double min_interval_s, std::FILE* out)
    : recorder_(recorder),
      min_interval_(min_interval_s),
      start_(std::chrono::steady_clock::now()) {
  if (out == stderr) {
    guard_ = &LineGuard::stderr_guard();
  } else {
    owned_guard_ = std::make_unique<LineGuard>(out);
    guard_ = owned_guard_.get();
  }
}

ProgressReporter::~ProgressReporter() = default;

void ProgressReporter::update(std::size_t done, std::size_t total) {
  const auto now = std::chrono::steady_clock::now();
  std::scoped_lock lock(mutex_);
  const bool final = total != 0 && done >= total;
  if (final && printed_final_) return;
  if (!final) printed_final_ = false;  // a new run started; allow its final
  if (!final && last_.has_value() &&
      std::chrono::duration<double>(now - *last_).count() < min_interval_) {
    return;
  }
  last_ = now;
  if (final) printed_final_ = true;

  const double elapsed =
      std::chrono::duration<double>(now - start_).count();
  const double rate = elapsed > 0.0 ? static_cast<double>(done) / elapsed : 0.0;
  const double pct =
      total != 0 ? 100.0 * static_cast<double>(done) / static_cast<double>(total)
                 : 0.0;
  char eta[32];
  if (final) {
    std::snprintf(eta, sizeof eta, "done in %.1fs", elapsed);
  } else if (rate > 0.0) {
    std::snprintf(eta, sizeof eta, "ETA %.1fs",
                  static_cast<double>(total - done) / rate);
  } else {
    std::snprintf(eta, sizeof eta, "ETA ?");
  }
  char instr[48] = "";
  char hijacked[48] = "";
  if (recorder_ != nullptr) {
    // Live instructions/s, present only on hw_counters runs (the tally
    // stays 0 otherwise, and the line keeps its counter-less shape).
    const std::uint64_t instructions = recorder_->instructions();
    if (instructions != 0 && elapsed > 0.0) {
      const double per_s = static_cast<double>(instructions) / elapsed;
      if (per_s >= 1e9) {
        std::snprintf(instr, sizeof instr, "  %.1fG instr/s", per_s / 1e9);
      } else if (per_s >= 1e6) {
        std::snprintf(instr, sizeof instr, "  %.1fM instr/s", per_s / 1e6);
      } else {
        std::snprintf(instr, sizeof instr, "  %.0f instr/s", per_s);
      }
    }
    const std::uint64_t verdicts = recorder_->verdicts();
    if (verdicts != 0) {
      std::snprintf(hijacked, sizeof hijacked, "  hijacked %.1f%%",
                    100.0 *
                        static_cast<double>(recorder_->adversary_verdicts()) /
                        static_cast<double>(verdicts));
    }
  }
  // Live updates overwrite one stderr line (leading \r, no newline); the
  // final 100% summary is newline-terminated so a completed campaign
  // never leaves a stale partial line behind. The LineGuard pads shorter
  // lines to blank out the previous one and interleaves Logger writes.
  char line[224];
  int len = std::snprintf(line, sizeof line,
                          "[campaign] %zu/%zu tasks (%.1f%%)  %.1f tasks/s"
                          "%s  %s%s",
                          done, total, pct, rate, instr, eta, hijacked);
  if (len < 0) len = 0;
  guard_->live_line(std::string_view(line, static_cast<std::size_t>(len)),
                    final);
}

}  // namespace marcopolo::obs
