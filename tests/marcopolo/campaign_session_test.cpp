// obs::Session end to end: one session's observers (metrics, recorder,
// profiler, telemetry hub) ride a campaign, an orchestrated slice and an
// optimizer call, as in quickstart. finish() must write a manifest and a
// trace bundle that pass the bundle self-check, and the campaign's store
// must equal the same campaign's store with default observers.
#include "obs/session.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "analysis/optimizer.hpp"
#include "marcopolo/fast_campaign.hpp"
#include "marcopolo/orchestrator.hpp"
#include "obs/run_compare.hpp"
#include "store_bytes.hpp"
#include "testbed_fixture.hpp"

namespace marcopolo::core {
namespace {

using testing_support::csv_bytes;
using testing_support::same_bytes;
using testing_support::shared_testbed;

TEST(CampaignSession, EveryObserverOnKeepsStoreAndWritesCheckedBundle) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("mp_session_" +
       std::string(
           ::testing::UnitTest::GetInstance()->current_test_info()->name()));
  std::filesystem::remove_all(dir);
  obs::SessionOptions options;
  options.metrics_out = (dir / "run.json").string();
  options.trace_out = (dir / "bundle").string();
  options.telemetry_out = options.trace_out;  // one self-checking bundle
  options.profile_hz = obs::kDefaultProfileHz;
  options.tick_ms = 10;

  FastCampaignConfig plain;
  plain.threads = 2;
  const std::string baseline =
      csv_bytes(run_fast_campaign(shared_testbed(), plain));

  {
    obs::Session session("campaign_session_test", options);
    FastCampaignConfig observed = plain;
    observed.observers = session.observers();
    const ResultStore store = run_fast_campaign(shared_testbed(), observed);
    EXPECT_TRUE(same_bytes(csv_bytes(store), baseline))
        << "session observers changed the store";

    Testbed testbed(testing_support::small_testbed_config());
    OrchestratorConfig orch;
    for (SiteIndex v = 0; v < 2; ++v) {
      for (SiteIndex a = 4; a < 6; ++a) orch.pairs.emplace_back(v, a);
    }
    orch.observers = session.observers();
    Orchestrator orchestrator(testbed, orch);
    (void)orchestrator.run();

    const analysis::ResilienceAnalyzer analyzer(store);
    const analysis::DeploymentOptimizer optimizer(analyzer);
    analysis::OptimizerConfig search;
    search.set_size = 3;
    search.max_failures = 1;
    search.candidates =
        shared_testbed().perspectives_of(topo::CloudProvider::Gcp);
    search.top_k = 5;
    search.threads = 2;
    search.observers = session.observers();
    EXPECT_FALSE(optimizer.optimize(search).empty());

    EXPECT_EQ(session.finish(), 0);
  }

  const obs::BundleCheckResult check =
      obs::check_trace_bundle(options.trace_out, options.metrics_out);
  EXPECT_TRUE(check.ok) << (check.problems.empty() ? ""
                                                   : check.problems.front());
  EXPECT_TRUE(check.has_timeseries);
  EXPECT_GT(check.verdicts, 0u);
  EXPECT_GT(check.quorums, 0u) << "the orchestrated slice was not recorded";
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace marcopolo::core
