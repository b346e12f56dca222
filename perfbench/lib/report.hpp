// Metric derivation: end-to-end metrics from the untraced jobs, per-layer
// metrics from the traced jobs' spans and boundary counts.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

/// One traced job reduced to self times.
struct JobTrace {
  std::size_t draw = 0;   ///< which seeded input the job ran on
  double wall_s = 0.0;    ///< the job span's duration
  double thread_s = 0.0;  ///< summed self time of every span in the job
  double layer_s = 0.0;   ///< summed self time of module-layer spans
  /// max/mean of campaign.task durations; 0 when the job has no tasks.
  double task_imbalance = 0.0;
  std::map<std::string, double> self_s;  ///< by span name
};

/// Spans named after a library module (topo, bgp, cloud, store, analysis)
/// count toward layer coverage; job/campaign spans are the driver's own.
[[nodiscard]] bool is_layer_span(std::string_view name);

[[nodiscard]] JobTrace fold_job(std::span<const Span> spans,
                                const Tracer& tracer);

/// The smallest of `times` (0 when empty). On a shared host other tenants
/// only ever add time, so the fastest repetition is the least disturbed.
[[nodiscard]] double fastest(const std::vector<double>& times);

/// Job time of a run: the mean over draws of each draw's fastest job (jobs
/// cycle through the draws).
[[nodiscard]] double draw_job_s(const std::vector<std::vector<double>>& by_draw);

struct EndToEndInputs {
  std::vector<std::vector<double>> job_s;  ///< passing job times, per draw
  std::vector<double> work_per_job;        ///< per draw
  std::vector<double> setup_s;
  double peak_rss_mb = 0.0;
};

/// job_s (draw_job_s), setup_s (the fastest setup repetition),
/// work_per_s (one job per draw: its work over its time) and peak_rss_mb
/// — the BENCHMARK.json end_to_end list, in that order.
[[nodiscard]] std::vector<Metric> end_to_end_metrics(const EndToEndInputs& in);

struct LayerInputs {
  std::vector<double> testbed_build_s;
  std::uint64_t ases = 0;
  std::vector<JobTrace> jobs;
  LaneCounters counters;  ///< summed over every traced job
  AnalysisCounters analysis;
  double untraced_job_s = 0.0;  ///< job_s of the untraced jobs
  double save_csv_s = 0.0;
  std::uint64_t csv_bytes = 0;
  double save_mprs_s = 0.0;
  std::uint64_t mprs_bytes = 0;
};

/// Every per-layer metric of BENCHMARK.json, on every workload (a layer a
/// workload does not exercise reports 0). Per-job values are medians over
/// the traced jobs (obs.traced_job_s is draw_job_s over them, to compare
/// with the untraced job_s); counts are per job.
[[nodiscard]] std::vector<Metric> per_layer_metrics(const LayerInputs& in);

}  // namespace perfbench
