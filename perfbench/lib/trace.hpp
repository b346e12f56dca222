// In-memory span tracing for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own files around calls into the
// library's public functions; nothing inside src/ is instrumented. Each
// worker thread writes to its own Lane, so recording takes no lock. A span
// carries its name, start, end, parent and job id; its id encodes the lane
// and its index there, so a worker's root span can name a parent on
// another thread (the job span on the main lane).
//
// A span's self time is its duration minus the part of it covered by the
// union of its children's intervals (children may overlap one another,
// e.g. two worker threads under one job span).
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using SpanId = std::uint64_t;
inline constexpr SpanId kNoSpan = ~SpanId{0};

struct Span {
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;
  std::uint32_t name = 0;
  std::uint32_t job = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  [[nodiscard]] std::uint64_t duration_ns() const {
    return end_ns > start_ns ? end_ns - start_ns : 0;
  }
};

/// Monotonic clock in nanoseconds.
[[nodiscard]] std::uint64_t now_ns();

/// One thread's span buffer. Spans opened on a lane nest: a new span's
/// parent is the innermost open span, or the lane's root parent.
class Lane {
 public:
  explicit Lane(std::uint32_t index) : index_(index) {}

  /// Parent for spans opened while no other span is open on this lane.
  void set_root_parent(SpanId parent) { current_ = parent; }
  void set_job(std::uint32_t job) { job_ = job; }

  SpanId open(std::uint32_t name);
  void close(SpanId id);

  [[nodiscard]] std::vector<Span>& spans() { return spans_; }
  [[nodiscard]] std::uint32_t job() const { return job_; }
  /// The innermost open span (or the root parent when none is open).
  [[nodiscard]] SpanId current() const { return current_; }

 private:
  std::uint32_t index_;
  std::uint32_t job_ = 0;
  SpanId current_ = kNoSpan;
  std::vector<Span> spans_;
};

/// RAII span on a lane.
class ScopedSpan {
 public:
  ScopedSpan(Lane& lane, std::uint32_t name)
      : lane_(lane), id_(lane.open(name)) {}
  ~ScopedSpan() { lane_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] SpanId id() const { return id_; }

 private:
  Lane& lane_;
  SpanId id_;
};

/// Owns the span-name table and a fixed set of lanes (lane 0 is the main
/// thread; workers take lanes 1..n). Names are interned before tracing
/// starts; lanes are handed to threads by index and never shared.
class Tracer {
 public:
  explicit Tracer(std::size_t lanes);

  std::uint32_t intern(std::string_view name);
  [[nodiscard]] const std::string& name(std::uint32_t id) const {
    return names_[id];
  }
  [[nodiscard]] std::size_t name_count() const { return names_.size(); }

  [[nodiscard]] Lane& lane(std::size_t i) { return lanes_[i]; }
  [[nodiscard]] std::size_t lane_count() const { return lanes_.size(); }

  /// Move every lane's spans out (call only while no worker is running).
  [[nodiscard]] std::vector<Span> drain();

 private:
  std::vector<std::string> names_;
  std::deque<Lane> lanes_;
};

/// Self time of every span, in input order.
[[nodiscard]] std::vector<std::uint64_t> self_times(std::span<const Span> spans);

/// One JSON object per line: name, job, id, parent, start_ns, end_ns.
void write_spans(std::ostream& out, std::span<const Span> spans,
                 const Tracer& tracer);

}  // namespace perfbench
