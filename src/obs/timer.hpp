// RAII phase timing.
//
// ScopedTimer measures one span with the steady clock and feeds the
// elapsed nanoseconds into a Histogram on destruction; with a null
// histogram handle it never reads the clock at all. The flight recorder
// (flight_recorder.hpp) is the span recorder.
#pragma once

#include <chrono>
#include <cstdint>

#include "obs/metrics.hpp"

namespace marcopolo::obs {

/// Times its own lifetime into `histogram` (nanoseconds). A null
/// histogram reads no clock.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram histogram) : histogram_(histogram) {
    if (histogram_) start_ = std::chrono::steady_clock::now();
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() { stop(); }

  /// Stop early (idempotent); reports the span once.
  void stop() {
    if (stopped_) return;
    stopped_ = true;
    if (!histogram_) return;
    histogram_.observe(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count()));
  }

 private:
  Histogram histogram_;
  std::chrono::steady_clock::time_point start_{};
  bool stopped_ = false;
};

/// Wall-clock stopwatch for manifest phases (seconds as double).
class PhaseClock {
 public:
  PhaseClock() : start_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  void restart() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace marcopolo::obs
