// FlightRecorder buffer ownership / drain merge semantics, the trace
// exporters (Chrome trace_event, NDJSON journal, Prometheus text), and
// HistogramSnapshot quantile estimation.
#include "obs/flight_recorder.hpp"
#include "obs/trace_export.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace marcopolo::obs {
namespace {

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(FlightRecorder, DrainMergesConcurrentWorkerLanes) {
  FlightRecorder recorder;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kTasksPerThread = 50;

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      // The contract: each worker opens its own buffer on its own thread
      // and appends without synchronization.
      FlightBuffer* buffer = recorder.open_buffer();
      for (std::size_t i = 0; i < kTasksPerThread; ++i) {
        TaskSpanRecord task;
        task.announcer = static_cast<std::uint32_t>(t);
        task.adversary = static_cast<std::uint32_t>(i);
        task.victim_rows = 3;
        task.start_ns = flight_now_ns();
        task.duration_ns = 10;
        buffer->record_task(task);
        VerdictRecord verdict;
        verdict.victim = static_cast<std::uint16_t>(t);
        verdict.outcome = i % 2 == 0 ? 2 : 1;
        verdict.decided_by = VerdictStep::RouteAge;
        verdict.contested = true;
        buffer->record_verdict(verdict);
        recorder.note_verdicts(1, i % 2 == 0 ? 1 : 0);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(recorder.verdicts(), kThreads * kTasksPerThread);
  EXPECT_EQ(recorder.adversary_verdicts(), kThreads * kTasksPerThread / 2);

  const FlightJournal journal = recorder.drain();
  ASSERT_EQ(journal.workers.size(), kThreads);
  for (std::size_t w = 0; w < journal.workers.size(); ++w) {
    // drain() sorts lanes by worker id and ids are dense.
    EXPECT_EQ(journal.workers[w].worker, w);
    EXPECT_EQ(journal.workers[w].tasks.size(), kTasksPerThread);
    EXPECT_EQ(journal.workers[w].verdicts.size(), kTasksPerThread);
  }
  EXPECT_EQ(journal.task_count(), kThreads * kTasksPerThread);
  EXPECT_EQ(journal.verdict_count(), kThreads * kTasksPerThread);
  EXPECT_EQ(journal.adversary_verdict_count(),
            kThreads * kTasksPerThread / 2);
  EXPECT_GT(journal.epoch_ns, 0u);
  for (const auto& lane : journal.workers) {
    for (const auto& task : lane.tasks) {
      EXPECT_GE(task.start_ns, journal.epoch_ns)
          << "epoch must be the earliest wall start";
    }
  }

  // Drain resets: counters zeroed, lanes gone.
  EXPECT_EQ(recorder.verdicts(), 0u);
  EXPECT_EQ(recorder.drain().workers.size(), 0u);
}

TEST(FlightRecorder, EmptyLanesAreDroppedFromJournal) {
  FlightRecorder recorder;
  FlightBuffer* active = recorder.open_buffer();
  (void)recorder.open_buffer();  // never written — must not become a lane
  active->record_task(TaskSpanRecord{});
  const FlightJournal journal = recorder.drain();
  ASSERT_EQ(journal.workers.size(), 1u);
  EXPECT_EQ(journal.task_count(), 1u);
}

TEST(VerdictRecord, RouteAgeSensitivityNeedsContest) {
  VerdictRecord v;
  v.decided_by = VerdictStep::RouteAge;
  v.contested = false;
  EXPECT_FALSE(v.route_age_sensitive());
  v.contested = true;
  EXPECT_TRUE(v.route_age_sensitive());
  v.decided_by = VerdictStep::PathLength;
  EXPECT_FALSE(v.route_age_sensitive());
}

TEST(VerdictStep, Names) {
  EXPECT_STREQ(to_cstring(VerdictStep::LocalPref), "local_pref");
  EXPECT_STREQ(to_cstring(VerdictStep::RouteAge), "route_age");
  EXPECT_STREQ(to_cstring(VerdictStep::MoreSpecific), "more_specific");
  EXPECT_STREQ(to_cstring(VerdictStep::Unopposed), "unopposed");
}

FlightJournal sample_journal() {
  FlightRecorder recorder;
  FlightBuffer* wall = recorder.open_buffer();
  TaskSpanRecord task;
  task.announcer = 1;
  task.adversary = 2;
  task.victim_rows = 1;
  task.start_ns = 1'000'000;
  task.duration_ns = 5'500;
  wall->record_task(task);
  PropagationRunRecord prop;
  prop.start_ns = 1'000'100;
  prop.duration_ns = 4'000;
  prop.delivered = 42;
  prop.decided[2] = 7;
  wall->record_propagation(prop);
  VerdictRecord verdict;
  verdict.victim = 1;
  verdict.adversary = 2;
  verdict.perspective = 9;
  verdict.outcome = 2;
  verdict.decided_by = VerdictStep::RouteAge;
  verdict.contested = true;
  wall->record_verdict(verdict);

  FlightBuffer* sim = recorder.open_buffer();
  AttackSpanRecord attack;
  attack.lane = 3;
  attack.victim = 1;
  attack.adversary = 2;
  attack.attempt = 1;
  attack.complete = true;
  attack.announce_us = 100;
  attack.dcv_us = 400;
  attack.conclude_us = 450;
  sim->record_attack(attack);
  sim->record_quorum(QuorumRecord{"cloudflare", 3, 1, 2, true, 460});
  return recorder.drain();
}

TEST(ChromeTrace, EmitsLanesSpansAndInstants) {
  const FlightJournal journal = sample_journal();
  std::ostringstream out;
  write_chrome_trace(out, journal);
  const std::string trace = out.str();

  EXPECT_NE(trace.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(trace.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  // One thread_name per worker lane, plus both process names.
  EXPECT_NE(trace.find("fast_campaign workers (wall clock)"),
            std::string::npos);
  EXPECT_NE(trace.find("orchestrator (virtual time)"), std::string::npos);
  EXPECT_NE(trace.find("worker 0"), std::string::npos);
  // The task span: µs timestamps relative to the epoch with ns decimals.
  EXPECT_NE(trace.find("task 1\\u21922"), std::string::npos);
  EXPECT_NE(trace.find("\"ts\": 0.000, \"dur\": 5.500"), std::string::npos);
  // Propagation child span and the orchestrator side.
  EXPECT_NE(trace.find("\"name\": \"propagate\""), std::string::npos);
  EXPECT_NE(trace.find("attack 1\\u21922 #1"), std::string::npos);
  EXPECT_NE(trace.find("\"name\": \"propagation_wait\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\": \"dcv_fanout\""), std::string::npos);
  EXPECT_NE(trace.find("quorum cloudflare pass"), std::string::npos);
  // Every event object closes: balanced braces make valid JSON likely;
  // the CI job parses it for real.
  EXPECT_EQ(count_occurrences(trace, "{"), count_occurrences(trace, "}"));
}

TEST(NdjsonJournal, OneObjectPerLineWithMetaHeader) {
  const FlightJournal journal = sample_journal();
  std::ostringstream out;
  write_journal_ndjson(out, journal);
  std::istringstream lines(out.str());
  std::string line;
  std::vector<std::string> parsed;
  while (std::getline(lines, line)) parsed.push_back(line);

  // meta + task + propagation + verdict + attack + quorum.
  ASSERT_EQ(parsed.size(), 6u);
  for (const std::string& l : parsed) {
    EXPECT_EQ(l.front(), '{');
    EXPECT_EQ(l.back(), '}');
  }
  EXPECT_NE(parsed[0].find("\"journal_schema\": 1"), std::string::npos);
  EXPECT_NE(parsed[0].find("\"adversary_verdicts\": 1"), std::string::npos);
  const std::string all = out.str();
  EXPECT_NE(all.find("\"decided_by\": \"route_age\""), std::string::npos);
  EXPECT_NE(all.find("\"route_age_sensitive\": true"), std::string::npos);
  EXPECT_NE(all.find("\"outcome\": \"adversary\""), std::string::npos);
  EXPECT_NE(all.find("\"type\": \"quorum\""), std::string::npos);
}

TEST(PrometheusText, CumulativeBucketsAndSanitizedNames) {
  MetricsRegistry registry;
  registry.counter("campaign.tasks_executed").add(7);
  Histogram h = registry.histogram("campaign.task_ns");
  h.observe(1);   // bucket le=1
  h.observe(2);   // bucket le=3
  h.observe(3);   // bucket le=3
  const MetricsSnapshot snap = registry.snapshot();

  std::ostringstream out;
  write_prometheus_text(out, snap);
  const std::string text = out.str();

  EXPECT_NE(text.find("# TYPE marcopolo_campaign_tasks_executed counter"),
            std::string::npos);
  EXPECT_NE(text.find("marcopolo_campaign_tasks_executed 7"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE marcopolo_campaign_task_ns histogram"),
            std::string::npos);
  // Buckets are cumulative and end with +Inf == count.
  EXPECT_NE(text.find("marcopolo_campaign_task_ns_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("marcopolo_campaign_task_ns_bucket{le=\"3\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("marcopolo_campaign_task_ns_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("marcopolo_campaign_task_ns_sum 6"), std::string::npos);
  EXPECT_NE(text.find("marcopolo_campaign_task_ns_count 3"),
            std::string::npos);

  // Valid Prometheus text exposition: every non-empty line is a comment
  // or `name[{labels}] value`, and each sample name was declared by a
  // preceding # TYPE line.
  std::istringstream lines(text);
  std::string line;
  std::vector<std::string> typed;
  std::size_t samples = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string rest = line.substr(7);
      typed.push_back(rest.substr(0, rest.find(' ')));
      continue;
    }
    if (line[0] == '#') continue;
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << "bad sample line: " << line;
    std::string name = line.substr(0, space);
    if (const auto brace = name.find('{'); brace != std::string::npos) {
      name = name.substr(0, brace);
    }
    bool declared = false;
    for (const std::string& t : typed) {
      declared = declared || name.rfind(t, 0) == 0;
    }
    EXPECT_TRUE(declared) << "sample without # TYPE: " << line;
    ++samples;
  }
  EXPECT_GT(samples, 0u);
}

TEST(TraceDir, WritesAllThreeFiles) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "marcopolo_trace_test";
  std::filesystem::remove_all(dir);

  MetricsRegistry registry;
  registry.counter("x").add(1);
  const MetricsSnapshot snap = registry.snapshot();
  const FlightJournal journal = sample_journal();
  ASSERT_TRUE(write_trace_dir(dir.string(), journal, &snap));
  EXPECT_TRUE(std::filesystem::exists(dir / "trace.json"));
  EXPECT_TRUE(std::filesystem::exists(dir / "journal.ndjson"));
  EXPECT_TRUE(std::filesystem::exists(dir / "metrics.prom"));
  EXPECT_GT(std::filesystem::file_size(dir / "trace.json"), 0u);
  std::filesystem::remove_all(dir);
}

TEST(HistogramQuantile, InterpolatesWithinLog2Buckets) {
  MetricsRegistry registry;
  Histogram h = registry.histogram("q");
  // 100 samples uniform in [1, 100]: p50 ~ 50, p95 ~ 95 — the log2
  // interpolation is coarse, so just require the right bucket region.
  for (std::uint64_t v = 1; v <= 100; ++v) h.observe(v);
  const MetricsSnapshot metrics = registry.snapshot();
  const HistogramSnapshot* snap = metrics.histogram("q");
  ASSERT_NE(snap, nullptr);
  const double p50 = snap->quantile(0.50);
  const double p95 = snap->quantile(0.95);
  const double p99 = snap->quantile(0.99);
  EXPECT_GE(p50, 32.0);
  EXPECT_LE(p50, 63.0);
  EXPECT_GE(p95, 64.0);
  EXPECT_LE(p95, 100.0) << "clamped to the observed max";
  EXPECT_GE(p99, p95);
  EXPECT_LE(snap->quantile(0.0), snap->quantile(1.0));
  EXPECT_DOUBLE_EQ(snap->quantile(1.0), 100.0);
}

TEST(HistogramQuantile, EmptyAndSingleSample) {
  HistogramSnapshot empty;
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);

  MetricsRegistry registry;
  registry.histogram("one").observe(42);
  const MetricsSnapshot metrics = registry.snapshot();
  const HistogramSnapshot* snap = metrics.histogram("one");
  ASSERT_NE(snap, nullptr);
  // One sample: every quantile collapses to it (clamped to [min, max]).
  EXPECT_DOUBLE_EQ(snap->quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(snap->quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(snap->quantile(1.0), 42.0);
}

TEST(HistogramQuantile, DocumentedEdgeBehavior) {
  MetricsRegistry registry;
  Histogram h = registry.histogram("edges");
  h.observe(10);
  h.observe(1000);
  const MetricsSnapshot metrics = registry.snapshot();
  const HistogramSnapshot* snap = metrics.histogram("edges");
  ASSERT_NE(snap, nullptr);

  // q outside [0, 1] clamps: q<=0 -> min, q>=1 -> max.
  EXPECT_DOUBLE_EQ(snap->quantile(-0.5), 10.0);
  EXPECT_DOUBLE_EQ(snap->quantile(2.0), 1000.0);
  // NaN never selects a rank.
  EXPECT_DOUBLE_EQ(snap->quantile(std::nan("")), 0.0);
  // Empty histogram answers 0 for every q, including the weird ones.
  HistogramSnapshot empty;
  EXPECT_DOUBLE_EQ(empty.quantile(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(2.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(std::nan("")), 0.0);
}

TEST(HistogramQuantile, SingleBucketInterpolatesWithinItsBounds) {
  // Every sample in one log2 bucket (le=15 covers (7, 15]): estimates
  // move monotonically through the bucket and clamp to [min, max].
  MetricsRegistry registry;
  Histogram h = registry.histogram("single_bucket");
  for (std::uint64_t v = 9; v <= 14; ++v) h.observe(v);
  const MetricsSnapshot metrics = registry.snapshot();
  const HistogramSnapshot* snap = metrics.histogram("single_bucket");
  ASSERT_NE(snap, nullptr);
  ASSERT_EQ(snap->buckets.size(), 1u);
  const double p25 = snap->quantile(0.25);
  const double p75 = snap->quantile(0.75);
  EXPECT_GE(p25, 9.0);
  EXPECT_LE(p75, 14.0);
  EXPECT_LT(p25, p75);
}

}  // namespace
}  // namespace marcopolo::obs
