#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <exception>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "analysis/optimizer.hpp"
#include "analysis/scalar_reference.hpp"
#include "bgp/attack_model.hpp"
#include "netsim/random.hpp"

namespace perfbench {

namespace analysis = marcopolo::analysis;
namespace netsim = marcopolo::netsim;
namespace topo = marcopolo::topo;

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::PaperDefault: return "paper_default";
    case Workload::Internet50kSweep: return "internet_50k_sweep";
    case Workload::DeploySearch: return "deploy_search";
  }
  return "?";
}

std::optional<Workload> workload_from_name(std::string_view name) {
  for (const Workload w : kWorkloads) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

SeededInputs seeded_inputs(std::uint64_t seed, std::uint64_t draw) {
  const std::uint64_t base = netsim::hash_combine(seed, draw);
  return SeededInputs{netsim::hash_combine(base, 1),
                      netsim::hash_combine(base, 2),
                      netsim::hash_combine(base, 3)};
}

std::span<const topo::RegionInfo> sweep_sites() {
  static const std::vector<topo::RegionInfo> sites = [] {
    constexpr std::size_t kSites = 8;
    std::vector<topo::RegionInfo> out;
    const auto all = topo::vultr_sites();
    for (std::size_t i = 0; i < kSites; ++i) {
      out.push_back(all[i * all.size() / kSites]);
    }
    return out;
  }();
  return sites;
}

core::TestbedConfig testbed_config(Workload w, const SeededInputs& in) {
  core::TestbedConfig config;
  if (w == Workload::Internet50kSweep) {
    config.internet = topo::scaled_internet_config(50000, in.internet_seed);
    config.site_catalog = sweep_sites();
  } else {
    config.internet.seed = in.internet_seed;
  }
  config.vultr_seed = in.vultr_seed;
  return config;
}

core::FastCampaignConfig fast_config(const CampaignSpec& spec) {
  core::FastCampaignConfig config;
  config.type = spec.attacks.front();
  config.attacks = spec.attacks;
  config.tie_break = bgp::TieBreakMode::Hashed;
  config.tie_break_seed = spec.tie_break_seed;
  config.threads = spec.threads;
  return config;
}

std::uint64_t attack_triples(const core::Testbed& testbed,
                             const CampaignSpec& spec) {
  const std::uint64_t n = testbed.sites().size();
  return n * (n - 1) * spec.attacks.size();
}

std::string store_csv(const core::ResultStore& store) {
  std::ostringstream out;
  store.save_csv(out);
  return std::move(out).str();
}

std::string store_mprs(const core::ResultStore& store) {
  std::ostringstream out;
  store.save_binary(out);
  return std::move(out).str();
}

std::uint64_t store_digest(const core::ResultStore& store) {
  return fnv1a(store_mprs(store));
}

TraceNames::TraceNames(Tracer& tracer)
    : job(tracer.intern("job")),
      worker(tracer.intern("campaign.worker")),
      task(tracer.intern("campaign.task")),
      baseline(tracer.intern("bgp.baseline")),
      classify_aws(tracer.intern("cloud.classify.aws")),
      classify_azure(tracer.intern("cloud.classify.azure")),
      classify_gcp(tracer.intern("cloud.classify.gcp")),
      record(tracer.intern("store.record")),
      pack(tracer.intern("analysis.pack")),
      search(tracer.intern("analysis.search")) {
  for (const bgp::AttackType t : bgp::all_attack_types()) {
    replay[static_cast<std::size_t>(t)] =
        tracer.intern(std::string("bgp.replay.") + bgp::to_cstring(t));
  }
}

void LaneCounters::merge(const LaneCounters& other) {
  baseline_calls += other.baseline_calls;
  for (std::size_t i = 0; i < replay_calls.size(); ++i) {
    replay_calls[i] += other.replay_calls[i];
  }
  classify_calls += other.classify_calls;
  rows += other.rows;
  up_recomputed += other.up_recomputed;
  down_recomputed += other.down_recomputed;
  up_changed += other.up_changed;
  classify_ns.merge(other.classify_ns);
}

namespace {

std::uint32_t classify_name(const TraceNames& names, topo::CloudProvider p) {
  switch (p) {
    case topo::CloudProvider::Aws: return names.classify_aws;
    case topo::CloudProvider::Azure: return names.classify_azure;
    case topo::CloudProvider::Gcp: return names.classify_gcp;
    default: break;
  }
  throw std::logic_error("perspective on a non-perspective provider");
}

/// One traced worker: the same per-thread state run_fast_campaign keeps
/// (a propagation workspace, a reusable scenario, one delta engine).
class TracedWorker {
 public:
  TracedWorker(const core::Testbed& testbed,
               const core::FastCampaignConfig& config,
               std::span<const bgp::AttackType> attacks,
               core::ResultStore& store, const TraceNames& names, Lane& lane,
               LaneCounters& counters)
      : testbed_(testbed),
        config_(config),
        attacks_(attacks),
        store_(store),
        names_(names),
        lane_(lane),
        counters_(counters),
        outcomes_(testbed.perspectives().size(), bgp::OriginReached::None) {}

  void run(std::size_t announcer) {
    const ScopedSpan task_span(lane_, names_.task);
    const auto& sites = testbed_.sites();
    {
      const ScopedSpan span(lane_, names_.baseline);
      const bgp::PropagationConfig pc{config_.tie_break,
                                      config_.tie_break_seed, config_.roas,
                                      nullptr, nullptr};
      delta_.set_victim_baseline(testbed_.internet().graph(),
                                 sites[announcer].node,
                                 config_.victim_prefix(announcer), pc);
    }
    ++counters_.baseline_calls;
    for (std::size_t adversary = 0; adversary < sites.size(); ++adversary) {
      // HTTP surface: the announcer's only victim is itself, so the
      // diagonal records no cell (exactly as in run_fast_campaign).
      if (adversary == announcer) continue;
      for (std::size_t ai = 0; ai < attacks_.size(); ++ai) {
        run_attack(announcer, adversary, ai);
      }
    }
  }

 private:
  void run_attack(std::size_t announcer, std::size_t adversary,
                  std::size_t attack) {
    const auto& sites = testbed_.sites();
    const auto& perspectives = testbed_.perspectives();
    const bgp::AttackType type = attacks_[attack];
    const auto type_index = static_cast<std::size_t>(type);
    const bgp::ScenarioConfig sc{type,         config_.tie_break,
                                 config_.tie_break_seed, config_.roas,
                                 nullptr,      nullptr};
    {
      const ScopedSpan span(lane_, names_.replay[type_index]);
      scenario_.reset_incremental(delta_, sites[adversary].node, sc, ws_);
    }
    ++counters_.replay_calls[type_index];

    // Perspectives are grouped by provider: one span per provider block.
    // Every kCallSample-th attack also reads the clock after each call for
    // the per-call latency histogram; timing every call would add a clock
    // read to each ~0.5 us call.
    const bgp::RoaRegistry* edge_roas =
        config_.cloud_edge_rov ? config_.roas : nullptr;
    const bool time_calls = attacks_run_++ % kCallSample == 0;
    std::size_t p = 0;
    while (p < perspectives.size()) {
      const topo::CloudProvider provider = perspectives[p].provider;
      const ScopedSpan span(lane_, classify_name(names_, provider));
      std::uint64_t t = time_calls ? now_ns() : 0;
      for (; p < perspectives.size() && perspectives[p].provider == provider;
           ++p) {
        const std::uint16_t index = perspectives[p].index;
        outcomes_[index] =
            testbed_.perspective_outcome(index, scenario_, edge_roas);
        if (time_calls) {
          const std::uint64_t t_next = now_ns();
          counters_.classify_ns.add(t_next - t);
          t = t_next;
        }
      }
    }
    counters_.classify_calls += perspectives.size();
    // Lazy down-state evaluation happens during classification, so the
    // replay stats are read after it.
    const auto& stats = delta_.stats();
    counters_.up_recomputed += stats.up_recomputed;
    counters_.down_recomputed += stats.down_recomputed;
    counters_.up_changed += stats.up_changed;

    const ScopedSpan span(lane_, names_.record);
    const auto victim = static_cast<core::SiteIndex>(announcer);
    for (const core::PerspectiveRecord& rec : perspectives) {
      store_.record_unsynchronized(attack, victim,
                                   static_cast<core::SiteIndex>(adversary),
                                   rec.index, outcomes_[rec.index]);
    }
    counters_.rows += perspectives.size();
  }

  static constexpr std::uint64_t kCallSample = 8;

  const core::Testbed& testbed_;
  const core::FastCampaignConfig& config_;
  std::span<const bgp::AttackType> attacks_;
  core::ResultStore& store_;
  const TraceNames& names_;
  Lane& lane_;
  LaneCounters& counters_;
  bgp::PropagationWorkspace ws_;
  bgp::HijackScenario scenario_;
  bgp::DeltaPropagation delta_;
  std::vector<bgp::OriginReached> outcomes_;
  std::uint64_t attacks_run_ = 0;
};

}  // namespace

core::ResultStore traced_campaign(const core::Testbed& testbed,
                                  const CampaignSpec& spec, Tracer& tracer,
                                  const TraceNames& names,
                                  std::vector<LaneCounters>& counters) {
  const auto& sites = testbed.sites();
  core::ResultStore store(sites.size(), testbed.perspectives().size(),
                          spec.attacks);
  const core::FastCampaignConfig config = fast_config(spec);
  const std::size_t n_threads =
      std::clamp<std::size_t>(spec.threads, 1, sites.size());
  if (tracer.lane_count() < (n_threads == 1 ? 1 : n_threads + 1) ||
      counters.size() < tracer.lane_count()) {
    throw std::invalid_argument("traced_campaign: too few lanes");
  }

  Lane& main_lane = tracer.lane(0);
  std::atomic<std::size_t> next{0};
  auto drain = [&](std::size_t lane_index) {
    Lane& lane = tracer.lane(lane_index);
    if (lane_index != 0) {
      lane.set_job(main_lane.job());
      lane.set_root_parent(main_lane.current());
    }
    const ScopedSpan worker_span(lane, names.worker);
    TracedWorker worker(testbed, config, spec.attacks, store, names, lane,
                        counters[lane_index]);
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= sites.size()) break;
      worker.run(i);
    }
  };

  if (n_threads == 1) {
    drain(0);
    return store;
  }
  std::vector<std::exception_ptr> errors(n_threads);
  {
    std::vector<std::jthread> pool;
    pool.reserve(n_threads);
    for (std::size_t t = 0; t < n_threads; ++t) {
      pool.emplace_back([&, t] {
        try {
          drain(t + 1);
        } catch (...) {
          errors[t] = std::current_exception();
        }
      });
    }
  }
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return store;
}


namespace {

double seconds_between(std::uint64_t t0, std::uint64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

}  // namespace

bool more_setup(std::size_t done, double spent_s) {
  return done < 5 || (done < 1000 && spent_s < 3.0);
}

namespace {

/// Shared shape of the two campaign workloads: a job runs the public
/// campaign call(s) on one seeded testbed; its stores are checked against
/// an oracle and against that draw's first job. The traced job re-drives
/// the same campaigns and must reproduce the stores.
class CampaignRunner : public WorkloadRunner {
 public:
  CampaignRunner(Workload w, std::uint64_t seed, std::size_t draws)
      : w_(w),
        seed_(seed),
        campaigns_(draws),
        reference_(draws),
        first_digests_(draws),
        csv_checked_(draws, false) {
    for (std::size_t d = 0; d < draws; ++d) {
      inputs_.push_back(seeded_inputs(seed, d));
    }
  }

  SetupTiming setup() override {
    SetupTiming timing;
    const std::uint64_t start = now_ns();
    while (more_setup(timing.setup_s.size(), seconds_between(start, now_ns()))) {
      testbeds_.clear();
      const std::uint64_t t0 = now_ns();
      for (const SeededInputs& in : inputs_) {
        testbeds_.push_back(
            std::make_unique<core::Testbed>(testbed_config(w_, in)));
      }
      const double s = seconds_between(t0, now_ns());
      timing.testbed_build_s.push_back(s / static_cast<double>(inputs_.size()));
      timing.setup_s.push_back(s);
    }
    return timing;
  }

  [[nodiscard]] std::size_t draws() const override { return inputs_.size(); }

  JobResult run_job(std::size_t draw) override {
    const std::uint64_t t0 = now_ns();
    std::vector<core::ResultStore> stores = public_job(draw);
    JobResult result;
    result.seconds = seconds_between(t0, now_ns());
    check(draw, stores, result);
    if (result.ok && reference_[draw].empty()) {
      reference_[draw] = std::move(stores);
    }
    return result;
  }

  JobResult run_traced_job(TraceContext& ctx, std::size_t draw) override {
    JobResult result;
    if (reference_[draw].empty()) {
      // Equivalence is checked against a passing untraced job's stores.
      return fail(result, "no passing untraced job to compare against");
    }
    Lane& lane = ctx.tracer.lane(0);
    std::vector<core::ResultStore> stores;
    {
      const ScopedSpan job_span(lane, ctx.names.job);
      const std::uint64_t t0 = now_ns();
      for (const CampaignSpec& spec : campaigns_[draw]) {
        stores.push_back(traced_campaign(*testbeds_[draw], spec, ctx.tracer,
                                         ctx.names, ctx.counters));
      }
      result.seconds = seconds_between(t0, now_ns());
    }
    if (!csv_checked_[draw]) {
      // Byte identity of the CSV, diagonal cells included: the traced
      // re-drive did the same work as the public call.
      for (std::size_t i = 0; i < stores.size(); ++i) {
        if (store_csv(stores[i]) != store_csv(reference_[draw][i])) {
          return fail(result, "traced store CSV differs from run_fast_campaign");
        }
      }
      csv_checked_[draw] = true;
    }
    check(draw, stores, result);
    return result;
  }

  [[nodiscard]] std::string_view work_name() const override {
    return "attacks_per_s";
  }
  [[nodiscard]] double work_per_job(std::size_t draw) const override {
    std::uint64_t triples = 0;
    for (const CampaignSpec& spec : campaigns_[draw]) {
      triples += attack_triples(*testbeds_[draw], spec);
    }
    return static_cast<double>(triples);
  }
  [[nodiscard]] std::size_t worker_threads() const override {
    return campaigns_.front().front().threads;
  }
  [[nodiscard]] const core::Testbed& testbed() const override {
    return *testbeds_.front();
  }
  [[nodiscard]] const core::ResultStore& result_store() const override {
    if (reference_.front().empty()) throw std::logic_error("no job has run yet");
    return reference_.front().front();
  }

 protected:
  /// The job's public calls on one draw; one store per campaigns_[draw]
  /// entry, in order.
  virtual std::vector<core::ResultStore> public_job(std::size_t draw) = 0;
  /// Workload-specific oracle checks on one job's stores.
  virtual void check_oracle(std::size_t draw,
                            const std::vector<core::ResultStore>& stores,
                            JobResult& result) const = 0;

  static JobResult& fail(JobResult& result, std::string why) {
    if (result.ok) result.failure = std::move(why);
    result.ok = false;
    return result;
  }

  void check(std::size_t draw, const std::vector<core::ResultStore>& stores,
             JobResult& result) {
    if (stores.size() != campaigns_[draw].size()) {
      fail(result, "wrong number of stores");
      return;
    }
    check_oracle(draw, stores, result);
    std::vector<std::uint64_t> digests;
    for (const auto& s : stores) digests.push_back(store_digest(s));
    if (first_digests_[draw].empty()) {
      first_digests_[draw] = digests;
    } else if (digests != first_digests_[draw]) {
      fail(result, "store digest differs from the run's first job");
    }
  }

  Workload w_;
  std::uint64_t seed_;
  std::vector<SeededInputs> inputs_;
  std::vector<std::unique_ptr<core::Testbed>> testbeds_;
  /// The campaigns of one job, per draw.
  std::vector<std::vector<CampaignSpec>> campaigns_;
  std::vector<std::vector<core::ResultStore>> reference_;
  std::vector<std::vector<std::uint64_t>> first_digests_;
  std::vector<bool> csv_checked_;
};

/// The paper's headline artifact: run_paper_campaigns, one worker, on one
/// of kDraws seeded default testbeds per job.
class PaperDefaultRunner final : public CampaignRunner {
 public:
  static constexpr std::size_t kDraws = 4;

  explicit PaperDefaultRunner(std::uint64_t seed)
      : CampaignRunner(Workload::PaperDefault, seed, kDraws) {
    for (std::size_t d = 0; d < kDraws; ++d) {
      for (const bgp::AttackType t : {bgp::AttackType::EquallySpecific,
                                      bgp::AttackType::ForgedOriginPrepend}) {
        campaigns_[d].push_back(CampaignSpec{{t}, inputs_[d].tie_break_seed, 1});
      }
    }
  }

  void prepare_oracle() override {
    // The full engine: every pair propagated from scratch.
    oracle_digests_.resize(kDraws);
    for (std::size_t d = 0; d < kDraws; ++d) {
      for (const CampaignSpec& spec : campaigns_[d]) {
        core::FastCampaignConfig config = fast_config(spec);
        config.incremental = false;
        oracle_digests_[d].push_back(
            store_digest(core::run_fast_campaign(*testbeds_[d], config)));
      }
    }
  }

 protected:
  std::vector<core::ResultStore> public_job(std::size_t draw) override {
    core::CampaignDataset data = core::run_paper_campaigns(
        *testbeds_[draw], bgp::TieBreakMode::Hashed,
        inputs_[draw].tie_break_seed, 1);
    std::vector<core::ResultStore> stores;
    stores.push_back(std::move(data.no_rpki));
    stores.push_back(std::move(data.rpki));
    return stores;
  }

  void check_oracle(std::size_t draw,
                    const std::vector<core::ResultStore>& stores,
                    JobResult& result) const override {
    for (std::size_t i = 0; i < stores.size(); ++i) {
      if (store_digest(stores[i]) != oracle_digests_[draw][i]) {
        fail(result, "store differs from the full-propagation engine");
      }
    }
  }

 private:
  std::vector<std::vector<std::uint64_t>> oracle_digests_;
};

/// Every attack type over the 50k-AS Internet, two workers.
class Internet50kRunner final : public CampaignRunner {
 public:
  explicit Internet50kRunner(std::uint64_t seed)
      : CampaignRunner(Workload::Internet50kSweep, seed, 1) {
    const auto all = bgp::all_attack_types();
    campaigns_[0].push_back(
        CampaignSpec{std::vector<bgp::AttackType>(all.begin(), all.end()),
                     inputs_[0].tie_break_seed, 2});
  }

  void prepare_oracle() override {
    // A seeded sample of pairs, every attack type, each re-evaluated
    // through a fully propagated HijackScenario.
    const CampaignSpec& spec = campaigns_[0].front();
    const core::Testbed& testbed = *testbeds_.front();
    const core::FastCampaignConfig config = fast_config(spec);
    const auto& sites = testbed.sites();
    const auto& perspectives = testbed.perspectives();
    netsim::Rng rng(netsim::hash_combine(seed_, 4));
    for (std::size_t k = 0; k < kSamplePairs; ++k) {
      const std::size_t v = rng.index(sites.size());
      std::size_t a = rng.index(sites.size() - 1);
      if (a >= v) ++a;
      for (std::size_t ai = 0; ai < spec.attacks.size(); ++ai) {
        const bgp::ScenarioConfig sc{spec.attacks[ai], config.tie_break,
                                     config.tie_break_seed, config.roas,
                                     nullptr, nullptr};
        const bgp::HijackScenario scenario(testbed.internet().graph(),
                                           sites[v].node, sites[a].node,
                                           config.victim_prefix(v), sc);
        SampledCell cell{ai, static_cast<core::SiteIndex>(v),
                         static_cast<core::SiteIndex>(a), {}};
        for (const core::PerspectiveRecord& rec : perspectives) {
          cell.outcomes.push_back(
              testbed.perspective_outcome(rec.index, scenario, nullptr));
        }
        samples_.push_back(std::move(cell));
      }
    }
  }

 protected:
  std::vector<core::ResultStore> public_job(std::size_t draw) override {
    std::vector<core::ResultStore> stores;
    stores.push_back(core::run_fast_campaign(
        *testbeds_[draw], fast_config(campaigns_[draw].front())));
    return stores;
  }

  void check_oracle(std::size_t /*draw*/,
                    const std::vector<core::ResultStore>& stores,
                    JobResult& result) const override {
    const core::ResultStore& store = stores.front();
    const auto n = static_cast<core::SiteIndex>(store.num_sites());
    for (std::size_t ai = 0; ai < store.num_attacks(); ++ai) {
      for (core::SiteIndex v = 0; v < n; ++v) {
        for (core::SiteIndex a = 0; a < n; ++a) {
          if (v != a && !store.pair_complete(ai, v, a)) {
            fail(result, "incomplete pair in the store");
            return;
          }
        }
      }
    }
    for (const SampledCell& cell : samples_) {
      for (std::size_t p = 0; p < cell.outcomes.size(); ++p) {
        if (store.outcome(cell.attack, cell.victim, cell.adversary,
                          static_cast<core::PerspectiveIndex>(p)) !=
            cell.outcomes[p]) {
          fail(result, "store differs from a fully propagated scenario");
          return;
        }
      }
    }
  }

 private:
  static constexpr std::size_t kSamplePairs = 8;
  struct SampledCell {
    std::size_t attack;
    core::SiteIndex victim;
    core::SiteIndex adversary;
    std::vector<bgp::OriginReached> outcomes;
  };
  std::vector<SampledCell> samples_;
};

/// The §5 deployment search: an exhaustive (5, N-2) search over GCP's
/// perspectives on the no-RPKI store of one of kDraws seeded default
/// testbeds per job.
class DeploySearchRunner final : public WorkloadRunner {
 public:
  static constexpr std::size_t kDraws = 4;

  explicit DeploySearchRunner(std::uint64_t seed) {
    for (std::size_t d = 0; d < kDraws; ++d) {
      inputs_.push_back(seeded_inputs(seed, d));
    }
  }

  SetupTiming setup() override {
    SetupTiming timing;
    const std::uint64_t start = now_ns();
    while (more_setup(timing.setup_s.size(), seconds_between(start, now_ns()))) {
      draws_.clear();
      double build_s = 0.0;
      const std::uint64_t t0 = now_ns();
      for (const SeededInputs& in : inputs_) {
        Draw draw;
        const std::uint64_t b0 = now_ns();
        draw.testbed = std::make_unique<core::Testbed>(
            testbed_config(Workload::DeploySearch, in));
        build_s += seconds_between(b0, now_ns());
        draw.input =
            CampaignSpec{{bgp::AttackType::EquallySpecific}, in.tie_break_seed, 1};
        draw.store = std::make_unique<core::ResultStore>(
            core::run_fast_campaign(*draw.testbed, fast_config(draw.input)));
        draws_.push_back(std::move(draw));
      }
      timing.testbed_build_s.push_back(build_s /
                                       static_cast<double>(inputs_.size()));
      timing.setup_s.push_back(seconds_between(t0, now_ns()));
    }
    for (Draw& draw : draws_) {
      draw.config.set_size = kSetSize;
      draw.config.max_failures = kMaxFailures;
      draw.config.candidates =
          draw.testbed->perspectives_of(topo::CloudProvider::Gcp);
      draw.config.top_k = 1;
      draw.config.threads = 1;
    }
    return timing;
  }

  void prepare_oracle() override {
    for (Draw& draw : draws_) {
      const analysis::ScalarReference scalar(*draw.store);
      draw.oracle = analysis::scalar_exhaustive_best(
          scalar, draw.config.candidates, kSetSize, kSetSize - kMaxFailures);
    }
  }

  [[nodiscard]] std::size_t draws() const override { return draws_.size(); }

  JobResult run_job(std::size_t d) override {
    Draw& draw = draws_[d];
    analysis::SearchStats stats;
    analysis::OptimizerConfig config = draw.config;
    config.stats = &stats;
    JobResult result;
    const std::uint64_t t0 = now_ns();
    analysis::RankedDeployment best;
    {
      const analysis::ResilienceAnalyzer analyzer(*draw.store);
      const analysis::DeploymentOptimizer optimizer(analyzer);
      best = optimizer.best(config);
    }
    result.seconds = seconds_between(t0, now_ns());
    check(draw, best, stats, result);
    return result;
  }

  JobResult run_traced_job(TraceContext& ctx, std::size_t d) override {
    Draw& draw = draws_[d];
    JobResult result;
    if (!draw.equivalence_checked) {
      // The input campaign re-driven with spans on a private tracer must
      // reproduce run_fast_campaign's CSV byte for byte.
      Tracer tracer(1);
      const TraceNames names(tracer);
      std::vector<LaneCounters> counters(1);
      const core::ResultStore traced =
          traced_campaign(*draw.testbed, draw.input, tracer, names, counters);
      if (store_csv(traced) != store_csv(*draw.store)) {
        result.ok = false;
        result.failure = "traced store CSV differs from run_fast_campaign";
        return result;
      }
      draw.equivalence_checked = true;
    }
    analysis::SearchStats stats;
    analysis::OptimizerConfig config = draw.config;
    config.stats = &stats;
    Lane& lane = ctx.tracer.lane(0);
    analysis::RankedDeployment best;
    {
      const ScopedSpan job_span(lane, ctx.names.job);
      const std::uint64_t t0 = now_ns();
      std::optional<analysis::ResilienceAnalyzer> analyzer;
      {
        const ScopedSpan span(lane, ctx.names.pack);
        analyzer.emplace(*draw.store);
      }
      {
        const ScopedSpan span(lane, ctx.names.search);
        const analysis::DeploymentOptimizer optimizer(*analyzer);
        best = optimizer.best(config);
      }
      result.seconds = seconds_between(t0, now_ns());
    }
    check(draw, best, stats, result);
    return result;
  }

  [[nodiscard]] std::string_view work_name() const override {
    return "sets_per_s";
  }
  [[nodiscard]] double work_per_job(std::size_t d) const override {
    return static_cast<double>(draws_[d].counters.sets_scored);
  }
  [[nodiscard]] std::size_t worker_threads() const override { return 1; }
  [[nodiscard]] const core::Testbed& testbed() const override {
    return *draws_.front().testbed;
  }
  [[nodiscard]] const core::ResultStore& result_store() const override {
    return *draws_.front().store;
  }
  [[nodiscard]] AnalysisCounters analysis_counters() const override {
    AnalysisCounters mean;
    const auto n = static_cast<double>(draws_.size());
    for (const Draw& draw : draws_) {
      mean.sets_scored += draw.counters.sets_scored / n;
      mean.subtrees_pruned += draw.counters.subtrees_pruned / n;
      mean.kernel_bytes += draw.counters.kernel_bytes / n;
    }
    return mean;
  }

 private:
  static constexpr std::size_t kSetSize = 5;
  static constexpr std::size_t kMaxFailures = 2;

  struct Draw {
    std::unique_ptr<core::Testbed> testbed;
    CampaignSpec input;
    std::unique_ptr<core::ResultStore> store;
    analysis::OptimizerConfig config;
    analysis::ScalarSearchBest oracle;
    std::optional<std::uint64_t> first_digest;
    AnalysisCounters counters;  ///< of the draw's first job
    bool equivalence_checked = false;
  };

  static void check(Draw& draw, const analysis::RankedDeployment& best,
                    const analysis::SearchStats& stats, JobResult& result) {
    if (best.score.median != draw.oracle.score.median ||
        best.score.average != draw.oracle.score.average ||
        best.spec.remotes != draw.oracle.set) {
      result.ok = false;
      result.failure = "optimizer disagrees with scalar_exhaustive_best";
      return;
    }
    std::uint64_t digest = kFnvOffset;
    for (const core::PerspectiveIndex p : best.spec.remotes) {
      digest = fnv1a(std::to_string(p) + ",", digest);
    }
    for (const double v : {best.score.median, best.score.average}) {
      char bytes[sizeof v];
      std::memcpy(bytes, &v, sizeof v);
      digest = fnv1a(std::string_view(bytes, sizeof v), digest);
    }
    if (!draw.first_digest) {
      draw.first_digest = digest;
      draw.counters.sets_scored = static_cast<double>(stats.complete_sets_scored);
      draw.counters.subtrees_pruned = static_cast<double>(stats.subtrees_pruned);
      draw.counters.kernel_bytes =
          static_cast<double>(stats.complete_sets_scored * kSetSize *
                              draw.store->words_per_row() * sizeof(std::uint64_t));
    } else if (digest != *draw.first_digest ||
               static_cast<double>(stats.complete_sets_scored) !=
                   draw.counters.sets_scored) {
      result.ok = false;
      result.failure = "search result differs from the run's first job";
    }
  }

  std::vector<SeededInputs> inputs_;
  std::vector<Draw> draws_;
};

}  // namespace

std::unique_ptr<WorkloadRunner> make_runner(Workload w, std::uint64_t seed) {
  switch (w) {
    case Workload::PaperDefault:
      return std::make_unique<PaperDefaultRunner>(seed);
    case Workload::Internet50kSweep:
      return std::make_unique<Internet50kRunner>(seed);
    case Workload::DeploySearch:
      return std::make_unique<DeploySearchRunner>(seed);
  }
  throw std::invalid_argument("unknown workload");
}

}  // namespace perfbench
