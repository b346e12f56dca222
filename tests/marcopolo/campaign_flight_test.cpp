// The flight recorder must be a pure observer: attaching it to the fast
// campaign or the orchestrator may not change a single result byte, and
// the drained journal's per-perspective provenance must agree with what
// the ResultStore recorded.
#include "marcopolo/fast_campaign.hpp"
#include "marcopolo/orchestrator.hpp"
#include "obs/flight_recorder.hpp"

#include <gtest/gtest.h>

#include "store_bytes.hpp"
#include "testbed_fixture.hpp"

namespace marcopolo::core {
namespace {

using testing_support::mprs_bytes;
using testing_support::same_bytes;
using testing_support::shared_testbed;

TEST(CampaignFlight, RecordingDoesNotChangeResultBytes) {
  FastCampaignConfig plain;
  plain.threads = 1;
  const ResultStore baseline = run_fast_campaign(shared_testbed(), plain);

  const auto& tb = shared_testbed();
  const std::size_t sites = tb.sites().size();
  const std::size_t perspectives = tb.perspectives().size();

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    obs::FlightRecorder recorder;
    FastCampaignConfig recorded;
    recorded.threads = threads;
    recorded.observers.recorder = &recorder;
    const ResultStore store = run_fast_campaign(shared_testbed(), recorded);
    EXPECT_TRUE(same_bytes(mprs_bytes(baseline), mprs_bytes(store)));

    const obs::FlightJournal journal = recorder.drain();
    // Every task produces one span (diagonal tasks included); one verdict
    // per off-diagonal pair per perspective.
    EXPECT_EQ(journal.task_count(), sites * sites)
        << "threads=" << threads;
    EXPECT_EQ(journal.verdict_count(), sites * (sites - 1) * perspectives)
        << "threads=" << threads;
    EXPECT_GE(journal.workers.size(), 1u);
    EXPECT_LE(journal.workers.size(), threads);
    EXPECT_GT(journal.epoch_ns, 0u);
  }
}

TEST(CampaignFlight, VerdictProvenanceMatchesStore) {
  obs::FlightRecorder recorder;
  FastCampaignConfig cfg;
  cfg.threads = 1;
  cfg.observers.recorder = &recorder;
  const ResultStore store = run_fast_campaign(shared_testbed(), cfg);
  const obs::FlightJournal journal = recorder.drain();

  std::size_t adversary_routed = 0;
  std::size_t contested = 0;
  for (const auto& lane : journal.workers) {
    for (const obs::VerdictRecord& v : lane.verdicts) {
      // The store and the journal record the same explained verdict, so
      // every journal outcome must equal the stored one.
      EXPECT_EQ(static_cast<std::uint8_t>(
                    store.outcome(v.victim, v.adversary, v.perspective)),
                v.outcome)
          << "verdict disagrees with store at (" << v.victim << ","
          << v.adversary << "," << v.perspective << ")";
      if (v.contested) {
        ++contested;
        // Contested verdicts carry a real decision-process step.
        EXPECT_LE(static_cast<int>(v.decided_by),
                  static_cast<int>(obs::VerdictStep::IngressPop));
      } else {
        EXPECT_TRUE(v.decided_by == obs::VerdictStep::Unopposed ||
                    v.decided_by == obs::VerdictStep::MoreSpecific)
            << "uncontested verdict claims step "
            << to_cstring(v.decided_by);
      }
      if (v.outcome == 2) ++adversary_routed;
    }
  }
  EXPECT_EQ(adversary_routed, journal.adversary_verdict_count());
  EXPECT_GT(adversary_routed, 0u) << "equally-specific hijacks capture "
                                     "some perspectives";
  EXPECT_GT(contested, 0u) << "both origins reach most ingress ASes";
}

TEST(CampaignFlight, LiveCountersTrackJournal) {
  obs::FlightRecorder recorder;
  FastCampaignConfig cfg;
  cfg.threads = 4;
  cfg.observers.recorder = &recorder;
  (void)run_fast_campaign(shared_testbed(), cfg);

  // The live (progress-reporter) counters and the drained journal are
  // fed by the same emit sites and must agree exactly.
  const std::uint64_t live_verdicts = recorder.verdicts();
  const std::uint64_t live_adversary = recorder.adversary_verdicts();
  const obs::FlightJournal journal = recorder.drain();
  EXPECT_EQ(live_verdicts, journal.verdict_count());
  EXPECT_EQ(live_adversary, journal.adversary_verdict_count());
}

TEST(CampaignFlight, OrchestratorRecordingIsPureObserver) {
  // The orchestrator needs a mutable testbed (it drives announcements),
  // so this test owns one instead of borrowing the shared fixture.
  Testbed testbed(testing_support::small_testbed_config());
  obs::FlightRecorder recorder;
  OrchestratorConfig cfg;
  for (SiteIndex v = 0; v < 2; ++v) {
    for (SiteIndex a = 4; a < 6; ++a) cfg.pairs.emplace_back(v, a);
  }
  cfg.observers.recorder = &recorder;
  Orchestrator orchestrator(testbed, cfg);
  const auto out = orchestrator.run();
  const obs::FlightJournal journal = recorder.drain();

  OrchestratorConfig bare = cfg;
  bare.observers.recorder = nullptr;
  Orchestrator control(testbed, bare);
  const auto control_out = control.run();
  EXPECT_TRUE(
      same_bytes(mprs_bytes(out.results), mprs_bytes(control_out.results)));

  // One attack span per concluded attempt, phases in virtual-time order.
  ASSERT_EQ(journal.attacks.size(), out.stats.attack_attempts);
  for (const obs::AttackSpanRecord& a : journal.attacks) {
    EXPECT_LE(a.announce_us, a.dcv_us);
    EXPECT_LE(a.dcv_us, a.conclude_us);
    EXPECT_GT(a.conclude_us, a.announce_us)
        << "propagation wait makes every attack take virtual time";
  }
  // Each attempt fans out to every configured MPIC system.
  EXPECT_GE(journal.quorums.size(), out.stats.attack_attempts);
  for (std::size_t i = 1; i < journal.quorums.size(); ++i) {
    EXPECT_GE(journal.quorums[i].virtual_us,
              journal.quorums[i - 1].virtual_us)
        << "drain() sorts quorum records by virtual time";
  }
  // Per-perspective provenance for every attempt, agreeing with the
  // recorded outcomes wherever the store has one.
  EXPECT_EQ(journal.verdict_count(),
            out.stats.attack_attempts * testbed.perspectives().size());
  for (const auto& lane : journal.workers) {
    for (const obs::VerdictRecord& v : lane.verdicts) {
      const auto stored =
          out.results.outcome(v.victim, v.adversary, v.perspective);
      if (stored != bgp::OriginReached::None) {
        EXPECT_EQ(static_cast<std::uint8_t>(stored), v.outcome);
      }
    }
  }
}

}  // namespace
}  // namespace marcopolo::core
