// Observability must be a pure observer: attaching a MetricsRegistry to
// the campaign (or orchestrator) may not change a single result byte,
// and the merged counters must be a pure function of the workload —
// identical for any worker-thread count. The orchestrator's registry
// counters must mirror its CampaignStats view exactly.
#include "marcopolo/fast_campaign.hpp"
#include "marcopolo/orchestrator.hpp"
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <vector>

#include "testbed_fixture.hpp"

namespace marcopolo::core {
namespace {

using testing_support::shared_testbed;

void expect_stores_identical(const ResultStore& a, const ResultStore& b) {
  ASSERT_EQ(a.num_sites(), b.num_sites());
  ASSERT_EQ(a.num_perspectives(), b.num_perspectives());
  for (PerspectiveIndex p = 0; p < a.num_perspectives(); ++p) {
    const auto lhs = a.hijack_words(p);
    const auto rhs = b.hijack_words(p);
    ASSERT_TRUE(std::equal(lhs.begin(), lhs.end(), rhs.begin()))
        << "hijack words differ at perspective " << p;
  }
  for (SiteIndex v = 0; v < a.num_sites(); ++v) {
    for (SiteIndex adv = 0; adv < a.num_sites(); ++adv) {
      for (PerspectiveIndex p = 0; p < a.num_perspectives(); ++p) {
        ASSERT_EQ(a.outcome(v, adv, p), b.outcome(v, adv, p))
            << "outcome differs at (" << v << "," << adv << "," << p << ")";
      }
    }
  }
}

TEST(CampaignMetrics, RegistryDoesNotChangeResultBytes) {
  // The regression the whole design defends against: metrics on/off (and
  // with any thread count) must leave the ResultStore byte-identical.
  FastCampaignConfig plain;
  plain.threads = 1;
  const ResultStore baseline = run_fast_campaign(shared_testbed(), plain);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    obs::MetricsRegistry registry;
    FastCampaignConfig instrumented;
    instrumented.threads = threads;
    instrumented.observers.metrics = &registry;
    const ResultStore store = run_fast_campaign(shared_testbed(), instrumented);
    expect_stores_identical(baseline, store);
    EXPECT_GT(registry.snapshot().counter("campaign.tasks_executed"), 0u)
        << "registry attached but nothing was counted (threads=" << threads
        << ")";
  }
}

obs::MetricsSnapshot campaign_snapshot(std::size_t threads) {
  obs::MetricsRegistry registry;
  FastCampaignConfig cfg;
  cfg.threads = threads;
  cfg.observers.metrics = &registry;
  (void)run_fast_campaign(shared_testbed(), cfg);
  return registry.snapshot();
}

TEST(CampaignMetrics, CountersAreThreadCountInvariant) {
  const obs::MetricsSnapshot serial = campaign_snapshot(1);
  const auto& tb = shared_testbed();
  const std::uint64_t sites = tb.sites().size();
  const std::uint64_t perspectives = tb.perspectives().size();

  // Closed-form expectations for the default HTTP surface: one task per
  // (announcer, adversary) ordered pair including the diagonal; one
  // propagation per off-diagonal task; one row per perspective per
  // off-diagonal pair.
  EXPECT_EQ(serial.counter("campaign.tasks_executed"), sites * sites);
  EXPECT_EQ(serial.counter("campaign.propagations"), sites * (sites - 1));
  EXPECT_EQ(serial.counter("campaign.rows_recorded"),
            sites * (sites - 1) * perspectives);
  EXPECT_EQ(serial.counter("campaign.dns_dedup_collapses"), 0u)
      << "HTTP surface has one victim per announcer — nothing collapses";
  EXPECT_EQ(serial.counter("campaign.worker_threads"), 1u);

  for (const std::size_t threads : {std::size_t{4}, std::size_t{64}}) {
    const obs::MetricsSnapshot parallel = campaign_snapshot(threads);
    for (const char* name :
         {"campaign.tasks_executed", "campaign.propagations",
          "campaign.rows_recorded", "campaign.dns_dedup_collapses",
          "campaign.total_capture_tasks"}) {
      EXPECT_EQ(parallel.counter(name), serial.counter(name))
          << name << " differs at threads=" << threads;
    }
    // Latency histograms vary in shape but never in sample count.
    const obs::HistogramSnapshot* a = serial.histogram("campaign.task_ns");
    const obs::HistogramSnapshot* b = parallel.histogram("campaign.task_ns");
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->count, a->count) << "threads=" << threads;
  }
}

TEST(CampaignMetrics, DnsSurfaceCountsCollapses) {
  const auto& tb = shared_testbed();
  obs::MetricsRegistry registry;
  FastCampaignConfig cfg;
  cfg.surface = AttackSurface::Dns;
  cfg.dns_host_of_victim.resize(tb.sites().size());
  for (SiteIndex v = 0; v < tb.sites().size(); ++v) {
    cfg.dns_host_of_victim[v] = static_cast<SiteIndex>(v % 3);
  }
  cfg.threads = 1;
  cfg.observers.metrics = &registry;
  (void)run_fast_campaign(tb, cfg);
  const obs::MetricsSnapshot snap = registry.snapshot();

  const std::uint64_t sites = tb.sites().size();
  // All victims collapse onto announcers {0, 1, 2}: every propagation
  // beyond 3 announcers x sites adversaries was saved by dedup.
  EXPECT_EQ(snap.counter("campaign.tasks_executed"), 3 * sites);
  EXPECT_EQ(snap.counter("campaign.dns_dedup_collapses"),
            (sites - 3) * sites);
  EXPECT_GT(snap.counter("campaign.total_capture_tasks"), 0u);
}

TEST(CampaignMetrics, ProgressCallbackReachesTotalSerially) {
  const auto& tb = shared_testbed();
  const std::size_t expected_total = tb.sites().size() * tb.sites().size();

  std::vector<std::pair<std::size_t, std::size_t>> calls;
  FastCampaignConfig cfg;
  cfg.threads = 1;
  cfg.observers.progress = [&](std::size_t done, std::size_t total) {
    calls.emplace_back(done, total);
  };
  (void)run_fast_campaign(tb, cfg);

  ASSERT_FALSE(calls.empty());
  for (std::size_t i = 0; i < calls.size(); ++i) {
    EXPECT_EQ(calls[i].second, expected_total);
    if (i > 0) {
      EXPECT_GT(calls[i].first, calls[i - 1].first);
    }
  }
  EXPECT_EQ(calls.back().first, expected_total)
      << "the final completion must always be reported";
}

TEST(CampaignMetrics, ProgressCallbackIsThreadSafeAndFinal) {
  const auto& tb = shared_testbed();
  const std::size_t expected_total = tb.sites().size() * tb.sites().size();

  std::mutex mutex;
  std::size_t last_done = 0;
  std::size_t call_count = 0;
  FastCampaignConfig cfg;
  cfg.threads = 4;
  cfg.observers.progress = [&](std::size_t done, std::size_t total) {
    std::scoped_lock lock(mutex);
    EXPECT_EQ(total, expected_total);
    EXPECT_LE(done, total);
    last_done = std::max(last_done, done);
    ++call_count;
  };
  (void)run_fast_campaign(tb, cfg);
  EXPECT_GT(call_count, 0u);
  EXPECT_EQ(last_done, expected_total);
}

TEST(CampaignMetrics, OrchestratorCountersMirrorStats) {
  // The orchestrator needs a mutable testbed (it drives announcements),
  // so this test owns one instead of borrowing the shared fixture.
  Testbed testbed(testing_support::small_testbed_config());
  obs::MetricsRegistry registry;
  OrchestratorConfig cfg;
  for (SiteIndex v = 0; v < 2; ++v) {
    for (SiteIndex a = 4; a < 6; ++a) cfg.pairs.emplace_back(v, a);
  }
  cfg.loss = netsim::LossModel{0.02, 0.02};  // exercise retries and losses
  cfg.observers.metrics = &registry;
  Orchestrator orchestrator(testbed, cfg);
  const auto out = orchestrator.run();
  const obs::MetricsSnapshot snap = registry.snapshot();

  // CampaignStats is a thin view over the registry: every field must
  // agree with its counter.
  EXPECT_EQ(snap.counter("orchestrator.attacks_completed"),
            out.stats.attacks_completed);
  EXPECT_EQ(snap.counter("orchestrator.attack_attempts"),
            out.stats.attack_attempts);
  EXPECT_EQ(snap.counter("orchestrator.retries"), out.stats.retries);
  EXPECT_EQ(snap.counter("orchestrator.incomplete_attacks"),
            out.stats.incomplete_attacks);
  EXPECT_EQ(snap.counter("orchestrator.announcements"),
            out.stats.announcements);
  EXPECT_EQ(snap.counter("orchestrator.validations"), out.stats.validations);
  EXPECT_EQ(snap.counter("orchestrator.dcv_corroborations_passed"),
            out.stats.dcv_corroborations_passed);
  EXPECT_EQ(snap.counter("orchestrator.perspective_losses"),
            out.stats.perspective_losses);

  // One virtual-duration sample per concluded attempt (retries included).
  const obs::HistogramSnapshot* h =
      snap.histogram("orchestrator.attack_virtual_ms");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, out.stats.attack_attempts);
  EXPECT_GT(h->min, 0u) << "propagation wait makes every attack take "
                           "virtual time";

  // And the registry must not have perturbed the measurements themselves.
  OrchestratorConfig bare = cfg;
  bare.observers.metrics = nullptr;
  Orchestrator control(testbed, bare);
  const auto control_out = control.run();
  expect_stores_identical(out.results, control_out.results);
}

}  // namespace
}  // namespace marcopolo::core
