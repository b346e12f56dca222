#include "obs/flight_recorder.hpp"

#include <algorithm>

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
  return journal;
}

}  // namespace marcopolo::obs
