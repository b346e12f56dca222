// The benchmark's workloads: seeded inputs, the jobs a user would run
// through the public API, their oracles, and a traced re-drive of the
// campaign's public call sequence for per-layer attribution.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "marcopolo/fast_campaign.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

namespace core = marcopolo::core;
namespace bgp = marcopolo::bgp;

enum class Workload : std::uint8_t { PaperDefault, Internet50kSweep, DeploySearch };

inline constexpr std::array<Workload, 3> kWorkloads = {
    Workload::PaperDefault, Workload::Internet50kSweep, Workload::DeploySearch};

[[nodiscard]] const char* workload_name(Workload w);
[[nodiscard]] std::optional<Workload> workload_from_name(std::string_view name);

/// Everything the library receives that depends on --seed.
struct SeededInputs {
  std::uint64_t internet_seed = 0;   ///< topo::InternetConfig::seed
  std::uint64_t vultr_seed = 0;      ///< core::TestbedConfig::vultr_seed
  std::uint64_t tie_break_seed = 0;  ///< per-pair tie-break salt base
};

/// Inputs of the `draw`-th testbed a workload builds from `seed`.
[[nodiscard]] SeededInputs seeded_inputs(std::uint64_t seed,
                                         std::uint64_t draw = 0);
/// 8 of the 32 Vultr sites, evenly spaced in catalog order: the
/// internet_50k_sweep site pool. Each pair still floods the 50k-AS graph,
/// but a job holds 56 of the 992 pairs, so one run holds dozens of jobs.
[[nodiscard]] std::span<const marcopolo::topo::RegionInfo> sweep_sites();

[[nodiscard]] core::TestbedConfig testbed_config(Workload w,
                                                 const SeededInputs& in);

/// One campaign as run_fast_campaign sees it (HTTP surface, hashed
/// tie-break, no ROAs): one store plane per attack type.
struct CampaignSpec {
  std::vector<bgp::AttackType> attacks;
  std::uint64_t tie_break_seed = 0;
  std::size_t threads = 1;
};

[[nodiscard]] core::FastCampaignConfig fast_config(const CampaignSpec& spec);

/// Off-diagonal (victim, adversary, attack type) triples of a campaign.
[[nodiscard]] std::uint64_t attack_triples(const core::Testbed& testbed,
                                           const CampaignSpec& spec);

[[nodiscard]] std::string store_csv(const core::ResultStore& store);
[[nodiscard]] std::string store_mprs(const core::ResultStore& store);
/// FNV-1a of the store's MPRS bytes (every cell, unrecorded ones too).
[[nodiscard]] std::uint64_t store_digest(const core::ResultStore& store);

/// Span names used by the traced runs, interned once per tracer.
struct TraceNames {
  explicit TraceNames(Tracer& tracer);

  std::uint32_t job;
  std::uint32_t worker;
  std::uint32_t task;
  std::uint32_t baseline;
  std::array<std::uint32_t, bgp::kAttackTypeCount> replay{};
  std::uint32_t classify_aws;
  std::uint32_t classify_azure;
  std::uint32_t classify_gcp;
  std::uint32_t record;
  std::uint32_t pack;
  std::uint32_t search;
};

/// Counts recorded at the traced layer boundaries, one set per lane.
struct LaneCounters {
  std::uint64_t baseline_calls = 0;
  std::array<std::uint64_t, bgp::kAttackTypeCount> replay_calls{};
  std::uint64_t classify_calls = 0;
  std::uint64_t rows = 0;
  std::uint64_t up_recomputed = 0;
  std::uint64_t down_recomputed = 0;
  std::uint64_t up_changed = 0;
  /// perspective_outcome latency, timed on every 8th attack of a worker.
  LogHistogram classify_ns;

  void merge(const LaneCounters& other);
};

/// Re-drive run_fast_campaign's public call sequence from outside the
/// library: per announcer one DeltaPropagation::set_victim_baseline; per
/// (adversary, attack) one HijackScenario::reset_incremental, one
/// Testbed::perspective_outcome per perspective and one
/// ResultStore::record_unsynchronized per recorded cell. Spans go to
/// lanes 0 (one worker) or 1..threads of `tracer`, counts to `counters`
/// (one entry per lane). The returned store must equal the public call's.
[[nodiscard]] core::ResultStore traced_campaign(
    const core::Testbed& testbed, const CampaignSpec& spec, Tracer& tracer,
    const TraceNames& names, std::vector<LaneCounters>& counters);

/// Whether setup runs once more after `done` repetitions that took
/// `spent_s` in total: at least 5 times and until 3 s were spent, but at
/// most 1000 times. Repetitions come in a fast and a ~50% slower mode that
/// lasts up to seconds; a 3-second window lets the fastest one (setup_s)
/// land in the fast mode.
[[nodiscard]] bool more_setup(std::size_t done, double spent_s);

struct SetupTiming {
  std::vector<double> testbed_build_s;  ///< one core::Testbed construction
  std::vector<double> setup_s;          ///< build plus input campaign
};

struct JobResult {
  double seconds = 0.0;
  bool ok = true;
  std::string failure;  ///< first failed check, empty when ok
};

/// Search counters of a deploy_search job (zero elsewhere).
struct AnalysisCounters {
  double sets_scored = 0;
  double subtrees_pruned = 0;
  double kernel_bytes = 0;  ///< computed, not measured
};

struct TraceContext {
  Tracer& tracer;
  const TraceNames& names;
  std::vector<LaneCounters>& counters;
};

/// One workload bound to one seed. Call order: setup, prepare_oracle,
/// then any number of run_job / run_traced_job. A workload builds
/// draws() seeded inputs; each job runs on one of them.
class WorkloadRunner {
 public:
  virtual ~WorkloadRunner() = default;

  /// Build the inputs repeatedly per more_setup() (the last build is kept).
  virtual SetupTiming setup() = 0;
  /// Compute the reference results the jobs are checked against.
  virtual void prepare_oracle() = 0;
  [[nodiscard]] virtual std::size_t draws() const = 0;
  /// One job through the public API; only the call itself is timed.
  virtual JobResult run_job(std::size_t draw) = 0;
  /// The same job re-driven with spans: a "job" span on lane 0 (whose job
  /// id the caller sets) around the work, checks outside it.
  virtual JobResult run_traced_job(TraceContext& ctx, std::size_t draw) = 0;

  /// Unit of work_per_s and its count per job on `draw`.
  [[nodiscard]] virtual std::string_view work_name() const = 0;
  [[nodiscard]] virtual double work_per_job(std::size_t draw) const = 0;
  [[nodiscard]] virtual std::size_t worker_threads() const = 0;
  [[nodiscard]] virtual const core::Testbed& testbed() const = 0;
  /// A result store the workload produced, for the writer timings.
  [[nodiscard]] virtual const core::ResultStore& result_store() const = 0;
  /// Per job, averaged over the draws.
  [[nodiscard]] virtual AnalysisCounters analysis_counters() const {
    return {};
  }
};

[[nodiscard]] std::unique_ptr<WorkloadRunner> make_runner(Workload w,
                                                          std::uint64_t seed);

}  // namespace perfbench
