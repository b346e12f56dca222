// The live telemetry plane: hub ticks, the stall watchdog's exact
// firing boundary, the --progress status line the hub draws, the
// timeseries reader's tamper detection, and the LineGuard that keeps the
// status line and Logger from shredding each other's stderr lines.
#include "obs/telemetry_hub.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "obs/flight_recorder.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries_reader.hpp"

namespace marcopolo::obs {
namespace {

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("mp_telemetry_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

/// Everything written to `f`, which is then closed.
std::string drain(std::FILE* f) {
  std::fflush(f);
  const long size = std::ftell(f);
  std::rewind(f);
  std::string out(static_cast<std::size_t>(size), '\0');
  const std::size_t got = std::fread(out.data(), 1, out.size(), f);
  out.resize(got);
  std::fclose(f);
  return out;
}

std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

TEST_F(TelemetryTest, TimeseriesRoundTrip) {
  MetricsRegistry registry;
  registry.counter("campaign.tasks_executed").add(7);

  TelemetryConfig cfg;
  cfg.timeseries_path = dir_;  // directory form -> <dir>/timeseries.ndjson
  cfg.metrics = &registry;
  TelemetryHub hub(cfg);
  hub.start();
  hub.add_planned_tasks(10);
  TelemetryWorkerSlot* slot = hub.open_worker_slot();
  hub.note_task_done(slot, 3);
  hub.tick_now();
  hub.note_task_done(slot, 4);
  hub.close_worker_slot(slot);
  hub.stop();  // writes the final tick

  const ReadTimeseries read = TimeseriesReader::read_file(
      TelemetryHub::resolve_timeseries_path(dir_));
  ASSERT_TRUE(read.ok()) << read.errors.front().message;
  EXPECT_TRUE(read.has_meta);
  EXPECT_EQ(read.schema, 1);
  ASSERT_GE(read.ticks.size(), 2u);
  for (std::size_t i = 1; i < read.ticks.size(); ++i) {
    EXPECT_GT(read.ticks[i].tick, read.ticks[i - 1].tick);
  }
  EXPECT_EQ(read.ticks.front().tasks_done, 3u);
  EXPECT_EQ(read.ticks.front().tasks_total, 10u);
  EXPECT_EQ(read.ticks.front().workers_live, 1u);
  const TimeseriesTick* last = read.last_tick();
  ASSERT_NE(last, nullptr);
  EXPECT_TRUE(last->final_tick);
  EXPECT_EQ(last->tasks_done, 7u);
  EXPECT_EQ(last->workers_live, 0u);
  // The embedded counter scrape carries the registry's values.
  EXPECT_EQ(last->counter("campaign.tasks_executed"), 7u);
}

TEST_F(TelemetryTest, HotPhaseIsTheLargestPhaseDeltaBaselineIncluded) {
  MetricsRegistry registry;
  TelemetryConfig cfg;
  cfg.metrics = &registry;
  TelemetryHub hub(cfg);  // no start(): tick_now() drives time by hand
  registry.histogram("campaign.phase.baseline_ns").observe(5000);
  registry.histogram("campaign.phase.classify_ns").observe(3000);
  hub.tick_now();
  EXPECT_EQ(hub.latest().hot_phase, "baseline");
  // Per-tick deltas, not totals: the baseline's 5000 ns are old news.
  registry.histogram("campaign.phase.classify_ns").observe(4000);
  registry.histogram("campaign.phase.baseline_ns").observe(100);
  hub.tick_now();
  EXPECT_EQ(hub.latest().hot_phase, "classify");
}

TEST_F(TelemetryTest, StallFiresAtExactlyNTicksNotNMinusOne) {
  MetricsRegistry registry;
  TelemetryConfig cfg;
  cfg.stall_ticks = 3;
  cfg.metrics = &registry;
  TelemetryHub hub(cfg);  // no start(): tick_now() drives time by hand
  TelemetryWorkerSlot* slot = hub.open_worker_slot();

  hub.note_task_done(slot);
  hub.tick_now();  // progress on this tick
  hub.tick_now();  // zero tick 1
  hub.tick_now();  // zero tick 2 == N-1: must NOT fire yet
  EXPECT_EQ(hub.stalls(), 0u);
  hub.tick_now();  // zero tick 3 == N: fires
  EXPECT_EQ(hub.stalls(), 1u);
  hub.tick_now();  // stays stalled: no refire while stuck
  EXPECT_EQ(hub.stalls(), 1u);

  // Progress resets the window; a second stall fires again.
  hub.note_task_done(slot);
  hub.tick_now();
  for (int i = 0; i < 3; ++i) hub.tick_now();
  EXPECT_EQ(hub.stalls(), 2u);
  EXPECT_EQ(registry.snapshot().counter("campaign.stalls"), 2u);
}

TEST_F(TelemetryTest, StallCounterInternedOnlyOnFirstStall) {
  // Pure-observer byte identity: a run that never stalls must leave the
  // registry without a campaign.stalls counter at all — not a zero row.
  MetricsRegistry registry;
  TelemetryConfig cfg;
  cfg.stall_ticks = 2;
  cfg.metrics = &registry;
  TelemetryHub hub(cfg);
  TelemetryWorkerSlot* slot = hub.open_worker_slot();
  for (int i = 0; i < 5; ++i) {
    hub.note_task_done(slot);
    hub.tick_now();
  }
  EXPECT_EQ(hub.stalls(), 0u);
  for (const auto& [name, value] : registry.snapshot().counters) {
    EXPECT_NE(name, "campaign.stalls") << "interned without a stall";
  }
}

TEST_F(TelemetryTest, NoStallWhileNoWorkersAreLive) {
  TelemetryConfig cfg;
  cfg.stall_ticks = 1;
  TelemetryHub hub(cfg);
  for (int i = 0; i < 4; ++i) hub.tick_now();  // idle, zero workers
  EXPECT_EQ(hub.stalls(), 0u);
}

// --- The --progress status line --------------------------------------------

/// A hub that only ticks when told: a started sampler an hour from its
/// first tick, so stop() still runs the final tick.
TelemetryConfig status_config(LineGuard* guard,
                              const FlightRecorder* recorder = nullptr) {
  TelemetryConfig cfg;
  cfg.tick_ms = 3'600'000;
  cfg.recorder = recorder;
  cfg.status = guard;
  return cfg;
}

TEST_F(TelemetryTest, StatusLineRedrawsOnlyWhenCountsMove) {
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  LineGuard guard(f);
  FlightRecorder recorder;
  recorder.note_verdicts(10, 4);
  {
    TelemetryHub hub(status_config(&guard, &recorder));
    hub.start();
    hub.add_planned_tasks(4);
    TelemetryWorkerSlot* slot = hub.open_worker_slot();
    hub.note_task_done(slot, 1);
    hub.tick_now();  // 1/4: drawn
    hub.tick_now();  // nothing moved: not redrawn
    hub.note_task_done(slot, 3);
    hub.tick_now();  // 4/4: drawn, and the plan is retired
    hub.close_worker_slot(slot);
    hub.tick_now();  // nothing moved
    hub.stop();      // final tick, nothing moved, no line open
  }
  const std::string text = drain(f);
  EXPECT_EQ(count_of(text, "[campaign]"), 2u) << text;
  EXPECT_NE(text.find("4/4 tasks (100.0%)"), std::string::npos) << text;
  EXPECT_NE(text.find("hijacked 40.0%"), std::string::npos) << text;
  EXPECT_EQ(count_of(text, "\n"), 1u) << text;
  EXPECT_EQ(text.back(), '\n');
}

TEST_F(TelemetryTest, StatusLiveLinesOverwriteAndFinalTickEndsTheLine) {
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  LineGuard guard(f);
  {
    TelemetryHub hub(status_config(&guard));
    hub.start();
    hub.add_planned_tasks(4);
    TelemetryWorkerSlot* slot = hub.open_worker_slot();
    hub.note_task_done(slot, 1);
    hub.tick_now();
    hub.note_task_done(slot, 1);
    hub.tick_now();
    hub.stop();  // 2/4 still open: the final tick ends it
  }
  const std::string text = drain(f);
  // Every draw starts with \r so it overwrites the live line in place...
  EXPECT_EQ(count_of(text, "\r"), 3u) << text;
  // ...and only the final tick's draw carries a newline, as the very last
  // byte: the terminal is never left mid-line.
  EXPECT_EQ(count_of(text, "\n"), 1u) << text;
  EXPECT_EQ(text.back(), '\n');
  const std::string last = text.substr(text.find_last_of('\r') + 1);
  EXPECT_NE(last.find("2/4 tasks (50.0%)"), std::string::npos) << last;
  EXPECT_NE(last.find("[final]"), std::string::npos) << last;
}

TEST_F(TelemetryTest, StatusLineIsFormatTickLineOfTheTick) {
  // The stderr line and `mpinspect watch` draw a tick with one function.
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  LineGuard guard(f);
  TelemetryHub hub(status_config(&guard));
  hub.start();
  hub.add_planned_tasks(3);
  hub.note_task_done(hub.open_worker_slot(), 1);
  hub.stop();  // the final tick is the only one drawn
  EXPECT_EQ(drain(f), "\r" + format_tick_line(hub.latest()) + "\n");
}

TEST(FormatTickLine, ShowsWhatTheWriterRecorded) {
  TimeseriesTick tick;
  tick.tick = 41;
  tick.tasks_done = 812;
  tick.tasks_total = 2052;
  tick.tasks_per_s = 131.04;
  tick.workers_live = 4;
  EXPECT_EQ(format_tick_line(tick),
            "[campaign] tick 41  812/2052 tasks (39.6%)  131.0 tasks/s"
            "  workers 4  stalls 0");

  tick.has_eta = true;
  tick.eta_s = 3725.0;
  tick.has_mem = true;
  tick.rss_kb = 2048;
  tick.peak_rss_kb = 3072;
  tick.hot_phase = "classify";
  tick.verdicts = 10;
  tick.adversary_verdicts = 4;
  tick.stalls = 1;
  tick.final_tick = true;
  EXPECT_EQ(format_tick_line(tick),
            "[campaign] tick 41  812/2052 tasks (39.6%)  131.0 tasks/s"
            "  ETA 1h02m  RSS 2.0 MiB (peak 3.0 MiB)  workers 4  stalls 1"
            "  hot classify  hijacked 40.0%  [final]");

  // An ETA read from a file can be any double; none is undefined.
  tick.eta_s = 1e300;
  EXPECT_NE(format_tick_line(tick).find("ETA "), std::string::npos);
  tick.tasks_total = 0;
  EXPECT_NE(format_tick_line(tick).find("  812 tasks  "), std::string::npos);
}

TEST(TimeseriesReaderTest, RejectsNonMonotoneTickIdsWithLineNumbers) {
  std::istringstream in(
      "{\"type\":\"meta\",\"timeseries_schema\":1,\"tick_ms\":100}\n"
      "{\"type\":\"tick\",\"tick\":0,\"tasks_done\":1}\n"
      "{\"type\":\"tick\",\"tick\":2,\"tasks_done\":2}\n"
      "{\"type\":\"tick\",\"tick\":1,\"tasks_done\":3}\n");
  const ReadTimeseries read = TimeseriesReader::read(in);
  EXPECT_FALSE(read.ok());
  ASSERT_EQ(read.errors.size(), 1u);
  EXPECT_EQ(read.errors[0].line, 4u);
  EXPECT_NE(read.errors[0].message.find("non-monotone tick id 1"),
            std::string::npos);
  EXPECT_EQ(read.ticks.size(), 2u);  // the offending tick is dropped
}

TEST(TimeseriesReaderTest, DeepNestingIsALineErrorNotACrash) {
  // A tick line nested 100,000 deep is that line's error, not a stack
  // overflow in `mpinspect tail`.
  std::istringstream in(
      "{\"type\":\"meta\",\"timeseries_schema\":1}\n"
      "{\"type\":\"tick\",\"tick\":0,\"counters\":" +
      std::string(100'000, '[') + "\n");
  const ReadTimeseries read = TimeseriesReader::read(in);
  ASSERT_EQ(read.errors.size(), 1u);
  EXPECT_EQ(read.errors[0].line, 2u);
  EXPECT_NE(read.errors[0].message.find("nesting too deep"),
            std::string::npos);
}

TEST(TimeseriesReaderTest, UnsupportedSchemaIsAnErrorUnknownTypeIsNot) {
  std::istringstream in(
      "{\"type\":\"meta\",\"timeseries_schema\":99}\n"
      "{\"type\":\"sparkline\",\"whatever\":1}\n");
  const ReadTimeseries read = TimeseriesReader::read(in);
  EXPECT_FALSE(read.ok());
  ASSERT_EQ(read.errors.size(), 1u);
  EXPECT_EQ(read.errors[0].line, 1u);
  EXPECT_NE(read.errors[0].message.find("unsupported timeseries_schema 99"),
            std::string::npos);
  EXPECT_EQ(read.skipped_records, 1u);  // forward compat, not an error
}

// --- LineGuard -------------------------------------------------------------

TEST(LineGuardTest, PrintlnBlanksAndRedrawsTheLiveLine) {
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  LineGuard guard(f);
  guard.live_line("12/99 tasks", /*final=*/false);
  guard.println("[warn] stalled");
  guard.finish_live_line();
  const std::string bytes = drain(f);

  // live line, blank-out, the log line on its own row, live redraw, and
  // a finalizing newline — in that order.
  const std::string expected =
      "\r12/99 tasks"
      "\r           \r"
      "[warn] stalled\n"
      "\r12/99 tasks"
      "\r12/99 tasks\n";
  EXPECT_EQ(bytes, expected);
}

TEST(LineGuardTest, ShorterLinesBlankOutLongerPredecessors) {
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  LineGuard guard(f);
  guard.live_line("1000000/2000000 tasks", /*final=*/false);
  guard.live_line("2/2 tasks", /*final=*/true);
  const std::string bytes = drain(f);
  // The final write is padded to the previous line's width, so leftover
  // characters of the longer live line cannot survive it.
  EXPECT_EQ(bytes, "\r1000000/2000000 tasks\r2/2 tasks            \n");
}

TEST(LineGuardTest, ConcurrentWritersNeverShredALogLine) {
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  LineGuard guard(f);
  constexpr int kLines = 200;
  std::thread progress([&guard] {
    for (int i = 0; i < kLines; ++i) {
      guard.live_line("progress " + std::to_string(i), false);
    }
  });
  std::thread logs([&guard] {
    for (int i = 0; i < kLines; ++i) {
      guard.println("log line " + std::to_string(i));
    }
  });
  progress.join();
  logs.join();
  guard.finish_live_line();
  const std::string bytes = drain(f);

  // Every println line must appear intact: preceded by line start
  // (\r or \n) and followed by its newline, never torn by a redraw.
  for (int i = 0; i < kLines; ++i) {
    const std::string needle = "log line " + std::to_string(i) + "\n";
    EXPECT_NE(bytes.find(needle), std::string::npos) << needle;
  }
}

}  // namespace
}  // namespace marcopolo::obs
