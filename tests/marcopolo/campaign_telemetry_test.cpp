// The telemetry hub must be a pure observer, exactly like metrics and
// the flight recorder: hub on or off may not change a single result
// byte, and the saved CSV — the canonical output artifact — must be
// byte-identical, not just cell-identical. This is the check the ASan CI
// job runs.
#include "marcopolo/fast_campaign.hpp"

#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.hpp"
#include "obs/telemetry_hub.hpp"
#include "store_bytes.hpp"
#include "testbed_fixture.hpp"

namespace marcopolo::core {
namespace {

using testing_support::csv_bytes;
using testing_support::same_bytes;
using testing_support::shared_testbed;

TEST(CampaignTelemetry, HubLeavesResultBytesIdentical) {
  FastCampaignConfig plain;
  plain.threads = 1;
  const std::string baseline = csv_bytes(run_fast_campaign(
      shared_testbed(), plain));

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    obs::TelemetryConfig tcfg;
    tcfg.tick_ms = 10;  // fastest tick: maximize mid-run scrapes
    obs::TelemetryHub hub(tcfg);
    hub.start();
    FastCampaignConfig observed;
    observed.threads = threads;
    observed.observers.telemetry = &hub;
    const std::string with_hub = csv_bytes(run_fast_campaign(
        shared_testbed(), observed));
    hub.stop();
    EXPECT_TRUE(same_bytes(with_hub, baseline))
        << "telemetry changed the store (threads=" << threads << ")";
    EXPECT_GT(hub.latest().tasks_done, 0u) << "hub saw no completions";
  }
}

TEST(CampaignTelemetry, RegistryBytesIdenticalWithHubAttached) {
  // The hub scrapes the registry but must never write to it unless a
  // stall fires: counter names and values with the hub attached must
  // equal a hub-free run exactly (no campaign.stalls row, no marker).
  const auto counters_with = [](obs::TelemetryHub* hub) {
    obs::MetricsRegistry registry;
    FastCampaignConfig cfg;
    cfg.threads = 1;
    cfg.observers.metrics = &registry;
    cfg.observers.telemetry = hub;
    (void)run_fast_campaign(shared_testbed(), cfg);
    return registry.snapshot().counters;
  };

  const auto without = counters_with(nullptr);

  obs::TelemetryConfig tcfg;
  tcfg.tick_ms = 10;
  obs::TelemetryHub hub(tcfg);
  hub.start();
  const auto with = counters_with(&hub);
  hub.stop();

  EXPECT_EQ(with, without);
}

TEST(CampaignTelemetry, HubTracksPlannedAndCompletedTasks) {
  obs::TelemetryConfig tcfg;
  obs::TelemetryHub hub(tcfg);  // not started: tick_now drives it
  FastCampaignConfig cfg;
  cfg.threads = 2;
  cfg.observers.telemetry = &hub;
  (void)run_fast_campaign(shared_testbed(), cfg);
  hub.tick_now();
  const obs::TelemetrySnapshot snap = hub.latest();
  EXPECT_GT(snap.tasks_total, 0u);
  EXPECT_EQ(snap.tasks_done, snap.tasks_total)
      << "a finished campaign must have retired every planned task";
  EXPECT_EQ(snap.workers_live, 0) << "slots must be closed after the drain";
}

}  // namespace
}  // namespace marcopolo::core
