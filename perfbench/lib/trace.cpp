#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>
#include <unordered_map>
#include <utility>

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

SpanId Lane::open(std::uint32_t name) {
  const SpanId id = (SpanId{index_} << 32) | spans_.size();
  spans_.push_back(Span{id, current_, name, job_, now_ns(), 0});
  current_ = id;
  return id;
}

void Lane::close(SpanId id) {
  Span& span = spans_[static_cast<std::size_t>(id & 0xFFFFFFFFu)];
  span.end_ns = now_ns();
  current_ = span.parent;
}

Tracer::Tracer(std::size_t lanes) {
  for (std::size_t i = 0; i < lanes; ++i) {
    lanes_.emplace_back(static_cast<std::uint32_t>(i));
  }
}

std::uint32_t Tracer::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::vector<Span> Tracer::drain() {
  std::vector<Span> out;
  for (Lane& lane : lanes_) {
    auto& spans = lane.spans();
    out.insert(out.end(), spans.begin(), spans.end());
    spans.clear();
  }
  return out;
}

std::vector<std::uint64_t> self_times(std::span<const Span> spans) {
  std::unordered_map<SpanId, std::size_t> index_of;
  index_of.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;

  using Interval = std::pair<std::uint64_t, std::uint64_t>;
  std::vector<std::vector<Interval>> children(spans.size());
  for (const Span& s : spans) {
    const auto it = index_of.find(s.parent);
    if (it != index_of.end()) {
      children[it->second].emplace_back(s.start_ns, s.end_ns);
    }
  }

  std::vector<std::uint64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    std::uint64_t covered = 0;
    std::uint64_t run_lo = 0;
    std::uint64_t run_hi = 0;
    bool in_run = false;
    for (const auto& [lo_raw, hi_raw] : kids) {
      const std::uint64_t lo = std::max(lo_raw, s.start_ns);
      const std::uint64_t hi = std::min(hi_raw, s.end_ns);
      if (hi <= lo) continue;
      if (in_run && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (in_run) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      in_run = true;
    }
    if (in_run) covered += run_hi - run_lo;
    const std::uint64_t dur = s.duration_ns();
    self[i] = dur > covered ? dur - covered : 0;
  }
  return self;
}

void write_spans(std::ostream& out, std::span<const Span> spans,
                 const Tracer& tracer) {
  for (const Span& s : spans) {
    out << "{\"name\": \"" << tracer.name(s.name) << "\", \"job\": " << s.job
        << ", \"id\": " << s.id << ", \"parent\": ";
    if (s.parent == kNoSpan) {
      out << "null";
    } else {
      out << s.parent;
    }
    out << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}\n";
  }
}

}  // namespace perfbench
