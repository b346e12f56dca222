// Logger level gating / sink capture and ScopedTimer + TraceRing spans.
// The global logger is process-wide state, so every test restores the
// null-sink, level-Off default before returning.
#include "obs/log.hpp"
#include "obs/timer.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace marcopolo::obs {
namespace {

struct LoggerReset {
  ~LoggerReset() {
    Logger::global().set_sink(nullptr);
    Logger::global().set_level(LogLevel::Off);
  }
};

TEST(Log, SilentByDefault) {
  LoggerReset reset;
  // Level Off: nothing is enabled, nothing is formatted.
  EXPECT_FALSE(Logger::global().enabled(LogLevel::Error));
  bool evaluated = false;
  const auto touch = [&] {
    evaluated = true;
    return 1;
  };
  MARCOPOLO_LOG(Error) << "dropped" << touch();
  EXPECT_FALSE(evaluated) << "disabled level must not evaluate operands";
}

TEST(Log, LevelGatingAndSinkCapture) {
  LoggerReset reset;
  std::vector<std::pair<LogLevel, std::string>> captured;
  Logger::global().set_sink([&](LogLevel level, std::string_view msg) {
    captured.emplace_back(level, std::string(msg));
  });
  Logger::global().set_level(LogLevel::Warn);

  MARCOPOLO_LOG(Debug) << "nope";
  MARCOPOLO_LOG(Info) << "nope";
  MARCOPOLO_LOG(Warn) << "campaign stalled" << field("tasks", 7);
  MARCOPOLO_LOG(Error) << "boom";

  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0].first, LogLevel::Warn);
  EXPECT_EQ(captured[0].second, "campaign stalled tasks=7");
  EXPECT_EQ(captured[1].first, LogLevel::Error);
  EXPECT_EQ(captured[1].second, "boom");
}

TEST(Log, LevelNames) {
  EXPECT_STREQ(to_cstring(LogLevel::Debug), "debug");
  EXPECT_STREQ(to_cstring(LogLevel::Error), "error");
  EXPECT_STREQ(to_cstring(LogLevel::Off), "off");
}

TEST(ScopedTimer, FeedsHistogramOnDestruction) {
  MetricsRegistry reg;
  Histogram h = reg.histogram("span.ns");
  { ScopedTimer timer(h); }
  const MetricsSnapshot snap = reg.snapshot();
  const HistogramSnapshot* s = snap.histogram("span.ns");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 1u);
}

TEST(ScopedTimer, StopIsIdempotent) {
  MetricsRegistry reg;
  Histogram h = reg.histogram("span.ns");
  {
    ScopedTimer timer(h);
    timer.stop();
    timer.stop();  // second stop and the destructor must not re-report
  }
  const MetricsSnapshot snap = reg.snapshot();
  const HistogramSnapshot* s = snap.histogram("span.ns");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 1u);
}

TEST(ScopedTimer, NullHandleObservesNothing) {
  // Must be a no-op (and, per the header contract, read no clock).
  ScopedTimer timer(Histogram{});
  timer.stop();
}

TEST(TraceRing, DisabledByDefault) {
  TraceRing ring;
  EXPECT_FALSE(ring.enabled());
  ring.record("span", 0, 1);
  EXPECT_TRUE(ring.drain().empty());
}

TEST(TraceRing, KeepsNewestSpansOldestFirst) {
  TraceRing ring(3);
  for (std::uint64_t i = 0; i < 5; ++i) {
    ring.record("s" + std::to_string(i), i, i * 10);
  }
  const auto spans = ring.drain();
  ASSERT_EQ(spans.size(), 3u);  // capacity bounds retention
  EXPECT_EQ(spans[0].name, "s2");
  EXPECT_EQ(spans[1].name, "s3");
  EXPECT_EQ(spans[2].name, "s4");
  EXPECT_EQ(spans[2].duration_ns, 40u);
  EXPECT_TRUE(ring.drain().empty()) << "drain resets the ring";
}

TEST(TraceRing, ScopedTimerRecordsSpan) {
  MetricsRegistry reg;
  TraceRing ring(8);
  {
    ScopedTimer timer(reg.histogram("span.ns"), &ring, "propagate");
  }
  const auto spans = ring.drain();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "propagate");
}

TEST(TraceRing, ConcurrentScopedTimersWrapWithoutCorruption) {
  // Many writers racing through a small ring: wraparound must keep the
  // ring internally consistent (exactly `capacity` retained spans, every
  // one a real span, histogram sample count exact).
  constexpr std::size_t kCapacity = 64;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kSpansPerThread = 100;

  MetricsRegistry reg;
  Histogram h = reg.histogram("span.ns");
  TraceRing ring(kCapacity);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, &ring, t] {
      const std::string name = "w" + std::to_string(t);
      for (std::size_t i = 0; i < kSpansPerThread; ++i) {
        ScopedTimer timer(h, &ring, name);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const auto spans = ring.drain();
  ASSERT_EQ(spans.size(), kCapacity) << "ring must be exactly full after "
                                        "400 racing records into 64 slots";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].name.size(), 2u) << "slot " << i << " corrupted";
    EXPECT_EQ(spans[i].name[0], 'w') << "slot " << i << " corrupted";
  }
  const MetricsSnapshot metrics = reg.snapshot();
  const HistogramSnapshot* snap = metrics.histogram("span.ns");
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->count, kThreads * kSpansPerThread);
  EXPECT_TRUE(ring.drain().empty()) << "drain resets the ring";
}

}  // namespace
}  // namespace marcopolo::obs
