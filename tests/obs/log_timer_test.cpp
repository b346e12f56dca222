// Logger level gating / sink capture and ScopedTimer spans.
// The global logger is process-wide state, so every test restores the
// null-sink, level-Off default before returning.
#include "obs/log.hpp"
#include "obs/timer.hpp"

#include <gtest/gtest.h>

#include <string>
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

}  // namespace
}  // namespace marcopolo::obs
