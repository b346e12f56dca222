// The sampling profiler must be a pure observer, exactly like metrics
// and the flight recorder: profiling on, off, or degraded to unavailable
// may not change a single result byte, counter value, or journal record.
// This is part of the ASan/UBSan CI job (start/stop/drain under a real
// campaign).
#include "marcopolo/fast_campaign.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/symbolize.hpp"
#include "store_bytes.hpp"
#include "testbed_fixture.hpp"

namespace marcopolo::core {
namespace {

using testing_support::csv_bytes;
using testing_support::same_bytes;
using testing_support::shared_testbed;

TEST(CampaignProfile, ProfilerLeavesResultBytesIdentical) {
  FastCampaignConfig plain;
  plain.threads = 1;
  const std::string baseline =
      csv_bytes(run_fast_campaign(shared_testbed(), plain));

  obs::SamplingProfiler profiler;  // available or degraded — both legal
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    FastCampaignConfig profiled;
    profiled.threads = threads;
    profiled.observers.profiler = &profiler;
    const std::string with_profiler =
        csv_bytes(run_fast_campaign(shared_testbed(), profiled));
    EXPECT_TRUE(same_bytes(with_profiler, baseline))
        << "profiler changed the store (threads=" << threads << ")";
  }
  // The profile itself is a side artifact, never part of the store.
  const obs::RawProfile raw = profiler.drain();
  if (obs::SamplingProfiler::probe()) {
    EXPECT_TRUE(raw.available);
  } else {
    EXPECT_FALSE(raw.available);
    EXPECT_EQ(raw.sample_count(), 0u);
  }
}

TEST(CampaignProfile, CounterSetIdenticalWithProfilerOnOrOff) {
  // Deterministic metrics counters (task counts, propagation totals, ...)
  // must not shift by even one unit when workers run under SIGPROF.
  const auto counters_with = [](obs::SamplingProfiler* profiler) {
    obs::MetricsRegistry registry;
    FastCampaignConfig cfg;
    cfg.threads = 1;
    cfg.observers.metrics = &registry;
    cfg.observers.profiler = profiler;
    (void)run_fast_campaign(shared_testbed(), cfg);
    return registry.snapshot().counters;
  };

  const auto off = counters_with(nullptr);
  obs::SamplingProfiler profiler;
  const auto on = counters_with(&profiler);
  EXPECT_EQ(on, off) << "profiler perturbed the metrics counter set";
  for (const auto& [name, value] : on) {
    EXPECT_EQ(name.find("profile"), std::string::npos)
        << name << "=" << value
        << ": the profiler must not intern metrics of its own";
  }
}

TEST(CampaignProfile, JournalRecordsIdenticalWithProfilerOnOrOff) {
  // The flight journal's deterministic content — verdict records, task
  // counts, lane structure — is the same with and without a profiler
  // attached to the same workers.
  const auto journal_with = [](obs::SamplingProfiler* profiler) {
    obs::FlightRecorder recorder;
    FastCampaignConfig cfg;
    cfg.threads = 1;
    cfg.observers.recorder = &recorder;
    cfg.observers.profiler = profiler;
    (void)run_fast_campaign(shared_testbed(), cfg);
    return recorder.drain();
  };

  const obs::FlightJournal off = journal_with(nullptr);
  obs::SamplingProfiler profiler;
  const obs::FlightJournal on = journal_with(&profiler);

  EXPECT_EQ(on.task_count(), off.task_count());
  EXPECT_EQ(on.verdict_count(), off.verdict_count());
  EXPECT_EQ(on.adversary_verdict_count(), off.adversary_verdict_count());
  EXPECT_EQ(on.workers.size(), off.workers.size());
  ASSERT_EQ(on.workers.size(), off.workers.size());
  for (std::size_t lane = 0; lane < on.workers.size(); ++lane) {
    const auto& a = on.workers[lane];
    const auto& b = off.workers[lane];
    ASSERT_EQ(a.verdicts.size(), b.verdicts.size());
    for (std::size_t i = 0; i < a.verdicts.size(); ++i) {
      EXPECT_EQ(a.verdicts[i].victim, b.verdicts[i].victim);
      EXPECT_EQ(a.verdicts[i].adversary, b.verdicts[i].adversary);
      EXPECT_EQ(a.verdicts[i].perspective, b.verdicts[i].perspective);
      EXPECT_EQ(a.verdicts[i].outcome, b.verdicts[i].outcome);
    }
  }
}

TEST(CampaignProfile, CampaignSamplesAttributeToWorkers) {
  // When the host can profile at all, a profiled serial campaign must
  // actually produce samples attributed to at least one thread — the
  // attach/detach plumbing in the worker loop is live, not decorative.
  if (!obs::SamplingProfiler::probe()) {
    GTEST_SKIP() << "profiler unavailable: "
                 << obs::SamplingProfiler::probe_reason();
  }
  obs::SamplingProfiler profiler;
  FastCampaignConfig cfg;
  cfg.threads = 2;
  cfg.observers.profiler = &profiler;
  (void)run_fast_campaign(shared_testbed(), cfg);

  const obs::CpuProfile profile = obs::symbolize_profile(profiler.drain());
  ASSERT_TRUE(profile.available);
  EXPECT_GT(profile.samples, 0u)
      << "a multi-hundred-ms campaign at 997 Hz must collect samples";
  EXPECT_FALSE(profile.symbols.empty());
  EXPECT_FALSE(profile.stacks.empty());
  std::uint64_t self_sum = 0;
  for (const obs::HotSymbol& s : profile.symbols) self_sum += s.self;
  EXPECT_EQ(self_sum, profile.samples);
}

}  // namespace
}  // namespace marcopolo::core
