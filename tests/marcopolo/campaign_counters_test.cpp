// Hardware-counter attribution must be a pure observer, exactly like
// metrics and the flight recorder: hw_counters on, off, or degraded to
// unavailable may not change a single result byte, and the saved CSV —
// the canonical output artifact — must be byte-identical, not just
// cell-identical. This is the check the ASan CI job runs.
#include "marcopolo/fast_campaign.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "store_bytes.hpp"
#include "testbed_fixture.hpp"

namespace marcopolo::core {
namespace {

using testing_support::csv_bytes;
using testing_support::same_bytes;
using testing_support::shared_testbed;

TEST(CampaignCounters, HwCountersLeaveResultBytesIdentical) {
  FastCampaignConfig plain;
  plain.threads = 1;
  const std::string baseline = csv_bytes(run_fast_campaign(
      shared_testbed(), plain));

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    FastCampaignConfig counted;
    counted.threads = threads;
    counted.observers.hw_counters = true;
    const std::string with_counters = csv_bytes(run_fast_campaign(
        shared_testbed(), counted));
    EXPECT_TRUE(same_bytes(with_counters, baseline))
        << "hw_counters changed the store (threads=" << threads << ")";
  }
}

TEST(CampaignCounters, MetricsShapeMatchesAvailability) {
  // With counters requested, the campaign.* counter metrics exist iff the
  // host can open perf events. On a denied host the snapshot must look
  // exactly like a counters-off run: same counter names and values (the
  // workload counts are deterministic), same histogram names — no
  // zero-valued counter rows, no availability marker, nothing. (The
  // histogram *contents* are wall-clock latencies and differ run to run,
  // so they are excluded from the identity.)
  const auto snapshot_with = [](bool hw_counters) {
    obs::MetricsRegistry registry;
    FastCampaignConfig cfg;
    cfg.threads = 1;
    cfg.observers.metrics = &registry;
    cfg.observers.hw_counters = hw_counters;
    (void)run_fast_campaign(shared_testbed(), cfg);
    return registry.snapshot();
  };

  const obs::MetricsSnapshot off = snapshot_with(false);
  const obs::MetricsSnapshot on = snapshot_with(true);

  std::vector<std::string> on_histograms;
  std::vector<std::string> off_histograms;
  for (const auto& h : on.histograms) on_histograms.push_back(h.name);
  for (const auto& h : off.histograms) off_histograms.push_back(h.name);
  EXPECT_EQ(on_histograms, off_histograms);

  if (obs::PerfCounterGroup::probe()) {
    EXPECT_GT(on.counter("campaign.instructions"), 0u);
    EXPECT_GT(on.counter("campaign.cycles"), 0u);
    EXPECT_GT(on.counter("campaign.phase.propagate_instructions"), 0u);
  } else {
    EXPECT_EQ(on.counters, off.counters)
        << "unavailable counters must leave the counter set identical to "
           "a counters-off run";
  }
  EXPECT_EQ(off.counter("campaign.instructions"), 0u);
  for (const auto& [name, value] : off.counters) {
    EXPECT_EQ(name.find("instructions"), std::string::npos)
        << name << "=" << value << " interned in a counters-off run";
  }
}

TEST(CampaignCounters, RecordedSpansCarryCountersOnlyWhenAvailable) {
  obs::FlightRecorder recorder;
  FastCampaignConfig cfg;
  cfg.threads = 1;
  cfg.observers.recorder = &recorder;
  cfg.observers.hw_counters = true;
  (void)run_fast_campaign(shared_testbed(), cfg);
  const obs::FlightJournal journal = recorder.drain();
  ASSERT_FALSE(journal.workers.empty());

  bool any_counters = false;
  for (const auto& lane : journal.workers) {
    for (const auto& task : lane.tasks) {
      any_counters = any_counters || task.instructions != 0;
    }
  }
  EXPECT_EQ(any_counters, obs::PerfCounterGroup::probe())
      << "task spans must carry instruction counts exactly when the host "
         "has counters";
}

}  // namespace
}  // namespace marcopolo::core
