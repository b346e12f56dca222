// The live telemetry plane: hub ticks, the stall watchdog's exact
// firing boundary, the timeseries reader's tamper detection, and the
// LineGuard that keeps ProgressReporter and Logger from shredding each
// other's stderr lines.
#include "obs/telemetry_hub.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

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

std::string drain(std::FILE* f) {
  std::fflush(f);
  const long size = std::ftell(f);
  std::rewind(f);
  std::string out(static_cast<std::size_t>(size), '\0');
  const std::size_t got = std::fread(out.data(), 1, out.size(), f);
  out.resize(got);
  return out;
}

TEST(LineGuardTest, PrintlnBlanksAndRedrawsTheLiveLine) {
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  LineGuard guard(f);
  guard.live_line("12/99 tasks", /*final=*/false);
  guard.println("[warn] stalled");
  guard.finish_live_line();
  const std::string bytes = drain(f);
  std::fclose(f);

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
  std::fclose(f);

  // Every println line must appear intact: preceded by line start
  // (\r or \n) and followed by its newline, never torn by a redraw.
  for (int i = 0; i < kLines; ++i) {
    const std::string needle = "log line " + std::to_string(i) + "\n";
    EXPECT_NE(bytes.find(needle), std::string::npos) << needle;
  }
}

}  // namespace
}  // namespace marcopolo::obs
