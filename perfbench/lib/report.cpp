#include "report.hpp"

#include <algorithm>
#include <array>
#include <numeric>

#include "bgp/attack_model.hpp"

namespace perfbench {

bool is_layer_span(std::string_view name) {
  constexpr std::array<std::string_view, 5> kLayers = {
      "topo.", "bgp.", "cloud.", "store.", "analysis."};
  return std::any_of(kLayers.begin(), kLayers.end(), [&](std::string_view l) {
    return name.substr(0, l.size()) == l;
  });
}

JobTrace fold_job(std::span<const Span> spans, const Tracer& tracer) {
  JobTrace out;
  const std::vector<std::uint64_t> self = self_times(spans);
  std::vector<double> tasks;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string& name = tracer.name(spans[i].name);
    const double s = static_cast<double>(self[i]) * 1e-9;
    out.self_s[name] += s;
    out.thread_s += s;
    if (is_layer_span(name)) out.layer_s += s;
    if (name == "job") {
      out.wall_s += static_cast<double>(spans[i].duration_ns()) * 1e-9;
    }
    if (name == "campaign.task") {
      tasks.push_back(static_cast<double>(spans[i].duration_ns()));
    }
  }
  if (!tasks.empty()) {
    const double mean = std::accumulate(tasks.begin(), tasks.end(), 0.0) /
                        static_cast<double>(tasks.size());
    if (mean > 0.0) {
      out.task_imbalance = *std::max_element(tasks.begin(), tasks.end()) / mean;
    }
  }
  return out;
}

double fastest(const std::vector<double>& times) {
  return times.empty() ? 0.0 : *std::min_element(times.begin(), times.end());
}

double draw_job_s(const std::vector<std::vector<double>>& by_draw) {
  if (by_draw.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& times : by_draw) sum += fastest(times);
  return sum / static_cast<double>(by_draw.size());
}

std::vector<Metric> end_to_end_metrics(const EndToEndInputs& in) {
  const double job_s = draw_job_s(in.job_s);
  double work = 0.0;
  for (const double w : in.work_per_job) work += w;
  const double pass_s = job_s * static_cast<double>(in.job_s.size());
  return {
      {"job_s", job_s, "s"},
      {"setup_s", fastest(in.setup_s), "s"},
      {"work_per_s", pass_s > 0.0 ? work / pass_s : 0.0, "1/s"},
      {"peak_rss_mb", in.peak_rss_mb, "MB"},
  };
}

std::vector<Metric> per_layer_metrics(const LayerInputs& in) {
  const double jobs = static_cast<double>(std::max<std::size_t>(1, in.jobs.size()));
  const auto per_job = [&](std::uint64_t total) {
    return static_cast<double>(total) / jobs;
  };
  const auto median_of = [&](auto field) {
    std::vector<double> v;
    for (const JobTrace& j : in.jobs) v.push_back(field(j));
    return median(std::move(v));
  };
  const auto self_s = [&](const std::string& name) {
    return median_of([&](const JobTrace& j) {
      const auto it = j.self_s.find(name);
      return it == j.self_s.end() ? 0.0 : it->second;
    });
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const LaneCounters& c = in.counters;

  std::vector<Metric> m;
  m.push_back({"topo.testbed_build_s", fastest(in.testbed_build_s), "s"});
  m.push_back({"topo.ases", static_cast<double>(in.ases), "count"});
  m.push_back({"bgp.baseline_s", self_s("bgp.baseline"), "s"});
  m.push_back({"bgp.baseline_calls", per_job(c.baseline_calls), "count"});
  for (const bgp::AttackType t : bgp::all_attack_types()) {
    const std::string attack = bgp::to_cstring(t);
    m.push_back({"bgp.replay_s." + attack, self_s("bgp.replay." + attack), "s"});
  }
  for (const bgp::AttackType t : bgp::all_attack_types()) {
    m.push_back({std::string("bgp.replay_calls.") + bgp::to_cstring(t),
                 per_job(c.replay_calls[static_cast<std::size_t>(t)]),
                 "count"});
  }
  m.push_back({"bgp.up_recomputed", per_job(c.up_recomputed), "count"});
  m.push_back({"bgp.down_recomputed", per_job(c.down_recomputed), "count"});
  m.push_back({"bgp.up_changed_frac",
               ratio(static_cast<double>(c.up_changed),
                     static_cast<double>(c.up_recomputed)),
               "frac"});
  for (const char* provider : {"aws", "azure", "gcp"}) {
    m.push_back({std::string("cloud.classify_s.") + provider,
                 self_s(std::string("cloud.classify.") + provider), "s"});
  }
  m.push_back({"cloud.classify_calls", per_job(c.classify_calls), "count"});
  m.push_back({"cloud.classify_ns_p50", c.classify_ns.median(), "ns"});
  const std::optional<TailStat> tail = c.classify_ns.tail();
  m.push_back({"cloud.classify_ns_tail", tail ? tail->value : 0.0, "ns"});
  m.push_back({"cloud.classify_ns_tail_pct", tail ? tail->percentile : 0.0, "%"});
  m.push_back({"store.record_s", self_s("store.record"), "s"});
  m.push_back({"store.rows", per_job(c.rows), "count"});
  m.push_back({"store.save_csv_s", in.save_csv_s, "s"});
  m.push_back({"store.csv_bytes", static_cast<double>(in.csv_bytes), "bytes"});
  m.push_back({"store.save_mprs_s", in.save_mprs_s, "s"});
  m.push_back({"store.mprs_bytes", static_cast<double>(in.mprs_bytes), "bytes"});
  m.push_back({"campaign.task_imbalance",
               median_of([](const JobTrace& j) { return j.task_imbalance; }),
               "ratio"});
  const double search_s = self_s("analysis.search");
  const AnalysisCounters& a = in.analysis;
  m.push_back({"analysis.pack_s", self_s("analysis.pack"), "s"});
  m.push_back({"analysis.search_s", search_s, "s"});
  m.push_back({"analysis.sets_scored", a.sets_scored, "count"});
  m.push_back({"analysis.subtrees_pruned", a.subtrees_pruned, "count"});
  m.push_back({"analysis.prune_frac",
               ratio(a.subtrees_pruned, a.subtrees_pruned + a.sets_scored),
               "frac"});
  m.push_back({"analysis.score_set_ns", ratio(search_s * 1e9, a.sets_scored),
               "ns"});
  m.push_back({"analysis.kernel_bytes_computed", a.kernel_bytes, "bytes"});
  std::vector<std::vector<double>> traced_walls;
  for (const JobTrace& j : in.jobs) {
    if (traced_walls.size() <= j.draw) traced_walls.resize(j.draw + 1);
    traced_walls[j.draw].push_back(j.wall_s);
  }
  const double traced_job_s = draw_job_s(traced_walls);
  m.push_back({"obs.trace_overhead_frac",
               in.untraced_job_s > 0.0 ? traced_job_s / in.untraced_job_s - 1.0
                                       : 0.0,
               "frac"});
  m.push_back({"obs.layer_coverage_frac",
               median_of([&](const JobTrace& j) {
                 return ratio(j.layer_s, j.thread_s);
               }),
               "frac"});
  m.push_back({"obs.traced_job_s", traced_job_s, "s"});
  m.push_back({"obs.job_thread_s",
               median_of([](const JobTrace& j) { return j.thread_s; }), "s"});
  return m;
}

}  // namespace perfbench
