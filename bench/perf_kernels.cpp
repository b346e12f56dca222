// google-benchmark microbenchmarks for the hot kernels:
//   - BGP propagation over the default synthetic Internet (per attack),
//   - HijackScenario construction (propagation + per-pair comparator),
//   - the full fast campaign across worker-thread counts,
//   - resilience scoring (the optimizer's inner loop),
//   - exhaustive optimizer on a small provider,
//   - the packed-vs-scalar exhaustive series (kernel speedup),
//   - prefix trie longest-prefix match.
#include <benchmark/benchmark.h>

#include <thread>

#include "analysis/optimizer.hpp"
#include "analysis/scalar_reference.hpp"
#include "bgpd/network.hpp"
#include "marcopolo/fast_campaign.hpp"
#include "netsim/prefix_trie.hpp"

using namespace marcopolo;

namespace {

const core::Testbed& shared_testbed() {
  static core::Testbed testbed{core::TestbedConfig{}};
  return testbed;
}

const core::ResultStore& shared_store() {
  static core::ResultStore store =
      core::run_fast_campaign(shared_testbed(), core::FastCampaignConfig{});
  return store;
}

void BM_Propagation(benchmark::State& state) {
  const auto& tb = shared_testbed();
  const auto& sites = tb.sites();
  const bgp::ScenarioConfig sc{};
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& v = sites[i % sites.size()];
    const auto& a = sites[(i + 7) % sites.size()];
    ++i;
    bgp::HijackScenario scenario(
        tb.internet().graph(), v.node, a.node,
        *netsim::Ipv4Prefix::parse("203.0.113.0/24"), sc);
    benchmark::DoNotOptimize(scenario.adversary_capture_fraction());
  }
}
BENCHMARK(BM_Propagation)->Unit(benchmark::kMillisecond);

void BM_PerspectiveResolution(benchmark::State& state) {
  const auto& tb = shared_testbed();
  const bgp::ScenarioConfig sc{};
  const bgp::HijackScenario scenario(
      tb.internet().graph(), tb.sites()[0].node, tb.sites()[17].node,
      *netsim::Ipv4Prefix::parse("203.0.113.0/24"), sc);
  for (auto _ : state) {
    std::size_t hijacked = 0;
    for (const auto& rec : tb.perspectives()) {
      if (tb.perspective_outcome(rec.index, scenario) ==
          bgp::OriginReached::Adversary) {
        ++hijacked;
      }
    }
    benchmark::DoNotOptimize(hijacked);
  }
}
BENCHMARK(BM_PerspectiveResolution)->Unit(benchmark::kMicrosecond);

// Full hijack-matrix campaign over the default testbed; Arg = worker
// threads (0 = hardware concurrency). The store is byte-identical across
// thread counts — this sweep measures wall-clock only.
void BM_FastCampaign(benchmark::State& state) {
  const auto& tb = shared_testbed();
  core::FastCampaignConfig cfg;
  cfg.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_fast_campaign(tb, cfg));
  }
  state.counters["threads"] =
      static_cast<double>(cfg.threads == 0
                              ? std::thread::hardware_concurrency()
                              : static_cast<unsigned>(cfg.threads));
}
BENCHMARK(BM_FastCampaign)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_ResilienceScore(benchmark::State& state) {
  analysis::ResilienceAnalyzer analyzer(shared_store());
  auto scratch = analyzer.make_scratch();
  const std::vector<core::PerspectiveIndex> set = {0, 1, 2, 3, 4, 5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analyzer.score_set(set, 4, std::nullopt, scratch));
  }
}
BENCHMARK(BM_ResilienceScore)->Unit(benchmark::kMicrosecond);

void BM_ExhaustiveOptimizer(benchmark::State& state) {
  analysis::ResilienceAnalyzer analyzer(shared_store());
  analysis::DeploymentOptimizer optimizer(analyzer);
  analysis::OptimizerConfig cfg;
  cfg.set_size = static_cast<std::size_t>(state.range(0));
  cfg.max_failures = cfg.set_size >= 6 ? 2 : 1;
  cfg.candidates = shared_testbed().perspectives_of(topo::CloudProvider::Aws);
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimizer.best(cfg));
  }
  // C(27, k) candidate sets scored per iteration.
}
BENCHMARK(BM_ExhaustiveOptimizer)->Arg(4)->Arg(5)->Unit(benchmark::kMillisecond);

// Packed-vs-scalar series: the same best-deployment exhaustive search over
// AWS, Arg = set size, once per kernel. "Packed" is the production
// optimizer (word-reduction kernels at top_k = 1, single thread); "Scalar"
// is the retained byte-per-pair reference walking the identical DFS with
// the identical prune. The per-Arg time ratio is the packed speedup.
void BM_OptimizerExhaustivePacked(benchmark::State& state) {
  analysis::ResilienceAnalyzer analyzer(shared_store());
  analysis::DeploymentOptimizer optimizer(analyzer);
  analysis::OptimizerConfig cfg;
  cfg.set_size = static_cast<std::size_t>(state.range(0));
  cfg.max_failures = cfg.set_size >= 6 ? 2 : 1;
  cfg.candidates = shared_testbed().perspectives_of(topo::CloudProvider::Aws);
  cfg.top_k = 1;
  cfg.threads = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimizer.best(cfg));
  }
}
BENCHMARK(BM_OptimizerExhaustivePacked)
    ->Arg(4)
    ->Arg(5)
    ->Arg(6)
    ->Unit(benchmark::kMillisecond);

void BM_OptimizerExhaustiveScalar(benchmark::State& state) {
  const analysis::ScalarReference scalar(shared_store());
  const auto candidates =
      shared_testbed().perspectives_of(topo::CloudProvider::Aws);
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const std::size_t required = k - (k >= 6 ? 2 : 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::scalar_exhaustive_best(scalar, candidates, k, required));
  }
}
BENCHMARK(BM_OptimizerExhaustiveScalar)
    ->Arg(4)
    ->Arg(5)
    ->Arg(6)
    ->Unit(benchmark::kMillisecond);

void BM_EventDrivenConvergence(benchmark::State& state) {
  const auto& tb = shared_testbed();
  std::vector<netsim::GeoPoint> locations;
  for (std::uint32_t i = 0; i < tb.internet().graph().size(); ++i) {
    locations.push_back(tb.internet().location(bgp::NodeId{i}));
  }
  const auto prefix = *netsim::Ipv4Prefix::parse("203.0.113.0/24");
  std::size_t k = 0;
  for (auto _ : state) {
    const auto& v = tb.sites()[k % tb.sites().size()];
    const auto& a = tb.sites()[(k + 11) % tb.sites().size()];
    ++k;
    netsim::Simulator sim;
    bgpd::BgpNetwork net(tb.internet().graph(), locations, sim);
    net.announce(v.node, bgp::Announcement{prefix, {},
                                           bgp::OriginRole::Victim});
    net.announce(a.node, bgp::Announcement{prefix, {},
                                           bgp::OriginRole::Adversary});
    net.run_to_convergence();
    benchmark::DoNotOptimize(net.total_updates_sent());
  }
}
BENCHMARK(BM_EventDrivenConvergence)->Unit(benchmark::kMillisecond);

void BM_PrefixTrieLpm(benchmark::State& state) {
  netsim::PrefixTrie<int> trie;
  netsim::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    trie.insert(netsim::Ipv4Prefix(
                    netsim::Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
                    static_cast<std::uint8_t>(8 + rng.index(17))),
                i);
  }
  std::uint32_t probe = 1;
  for (auto _ : state) {
    probe = probe * 2654435761u + 12345u;
    benchmark::DoNotOptimize(trie.longest_match(netsim::Ipv4Addr(probe)));
  }
}
BENCHMARK(BM_PrefixTrieLpm);

}  // namespace

BENCHMARK_MAIN();
