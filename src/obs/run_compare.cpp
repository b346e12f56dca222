#include "obs/run_compare.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"
#include "obs/timeseries_reader.hpp"

namespace marcopolo::obs {

ProvenanceSummary summarize_provenance(const FlightJournal& journal) {
  ProvenanceSummary out;
  for (const auto& lane : journal.workers) {
    for (const VerdictRecord& v : lane.verdicts) {
      ++out.verdicts;
      if (v.outcome == 2) ++out.adversary;
      if (v.contested) ++out.contested;
      if (v.route_age_sensitive()) ++out.route_age_sensitive;
      ++out.decided_by[to_cstring(v.decided_by)];
    }
  }
  return out;
}

PhaseAttribution attribute_phases(const FlightJournal& journal) {
  PhaseAttribution out;
  const auto add = [](PhaseSplit& split, const TaskSpanRecord& t) {
    split.total_ns += t.duration_ns;
    split.propagate_ns += t.propagate_ns;
    split.classify_ns += t.classify_ns;
    split.record_ns += t.record_ns;
  };
  for (const auto& lane : journal.workers) {
    for (const TaskSpanRecord& t : lane.tasks) {
      add(out, t);
      add(out.by_attack[t.attack], t);
    }
  }
  return out;
}

namespace {

std::string format_seconds(double seconds) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.3fs", seconds);
  return buf;
}

std::string format_pct(double pct) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%+.1f%%", pct);
  return buf;
}

/// True for histograms whose samples are durations — the ones whose
/// upper quantiles the perf gate guards.
bool is_time_histogram(const std::string& name) {
  return name.ends_with("_ns") || name.ends_with("_ms") ||
         name.ends_with("_us");
}

/// Sample value in nanoseconds, inferred from the histogram's unit suffix.
double to_nanoseconds(const std::string& name, double value) {
  if (name.ends_with("_us")) return value * 1e3;
  if (name.ends_with("_ms")) return value * 1e6;
  return value;
}

}  // namespace

RunComparison compare_runs(const ReadManifest& base,
                           const ReadManifest& cand) {
  RunComparison out;

  // Counters: sorted-name merge over the union (snapshots are sorted).
  std::size_t bi = 0;
  std::size_t ci = 0;
  while (bi < base.metrics.counters.size() ||
         ci < cand.metrics.counters.size()) {
    CounterDelta delta;
    const bool take_base =
        bi < base.metrics.counters.size() &&
        (ci >= cand.metrics.counters.size() ||
         base.metrics.counters[bi].first <= cand.metrics.counters[ci].first);
    const bool take_cand =
        ci < cand.metrics.counters.size() &&
        (bi >= base.metrics.counters.size() ||
         cand.metrics.counters[ci].first <= base.metrics.counters[bi].first);
    if (take_base) {
      delta.name = base.metrics.counters[bi].first;
      delta.base = base.metrics.counters[bi].second;
      delta.in_base = true;
      ++bi;
    }
    if (take_cand) {
      delta.name = cand.metrics.counters[ci].first;
      delta.cand = cand.metrics.counters[ci].second;
      delta.in_cand = true;
      ++ci;
    }
    out.counters.push_back(std::move(delta));
  }

  // Histogram quantiles: common names only (a quantile shift needs both
  // sides), p50/p95/p99 recomputed from buckets via the log2
  // interpolation — never read from the stored pNN fields.
  for (const HistogramSnapshot& bh : base.metrics.histograms) {
    const HistogramSnapshot* ch = cand.metrics.histogram(bh.name);
    if (ch == nullptr) continue;
    for (const double q : {0.50, 0.95, 0.99}) {
      out.quantiles.push_back(
          QuantileDelta{bh.name, q, bh.quantile(q), ch->quantile(q)});
    }
  }

  // Phases: union of names, baseline document order first, then
  // candidate-only names. First occurrence of a name wins on each side.
  const auto find_phase = [](const ReadManifest& m,
                             const std::string& name) -> const PhaseRow* {
    for (const PhaseRow& phase : m.phases) {
      if (phase.name == name) return &phase;
    }
    return nullptr;
  };
  const auto emitted = [&out](const std::string& name) {
    return std::any_of(out.phases.begin(), out.phases.end(),
                       [&](const PhaseDelta& p) { return p.name == name; });
  };
  const auto fill_base = [](PhaseDelta& delta, const PhaseRow& phase) {
    delta.base_seconds = phase.seconds;
    delta.in_base = true;
    delta.base_has_mem = phase.has_mem;
    delta.base_peak_rss_kb = phase.peak_rss_kb;
  };
  const auto fill_cand = [](PhaseDelta& delta, const PhaseRow& phase) {
    delta.cand_seconds = phase.seconds;
    delta.in_cand = true;
    delta.cand_has_mem = phase.has_mem;
    delta.cand_peak_rss_kb = phase.peak_rss_kb;
  };
  for (const PhaseRow& bphase : base.phases) {
    if (emitted(bphase.name)) continue;
    PhaseDelta delta;
    delta.name = bphase.name;
    fill_base(delta, bphase);
    if (const PhaseRow* cand_phase = find_phase(cand, bphase.name)) {
      fill_cand(delta, *cand_phase);
    }
    out.phases.push_back(std::move(delta));
  }
  for (const PhaseRow& cphase : cand.phases) {
    if (emitted(cphase.name)) continue;
    PhaseDelta delta;
    delta.name = cphase.name;
    fill_cand(delta, cphase);
    out.phases.push_back(std::move(delta));
  }

  // Hot symbols: union of both top-N tables, ranked by share growth.
  // Shares normalize by each run's own sample total, so a longer
  // candidate run does not read as "everything regressed".
  out.base_has_profile = base.has_profile;
  out.cand_has_profile = cand.has_profile;
  out.base_profile_samples = base.profile.samples;
  out.cand_profile_samples = cand.profile.samples;
  if (base.has_profile && cand.has_profile) {
    std::map<std::string, HotSymbolDelta> merged;
    for (const HotSymbol& s : base.profile.symbols) {
      HotSymbolDelta& d = merged[s.name];
      d.name = s.name;
      d.in_base = true;
      d.base_self = s.self;
      d.base_share = base.profile.self_share(s.self);
    }
    for (const HotSymbol& s : cand.profile.symbols) {
      HotSymbolDelta& d = merged[s.name];
      d.name = s.name;
      d.in_cand = true;
      d.cand_self = s.self;
      d.cand_share = cand.profile.self_share(s.self);
    }
    out.hot_symbols.reserve(merged.size());
    for (auto& [name, delta] : merged) {
      out.hot_symbols.push_back(std::move(delta));
    }
    std::sort(out.hot_symbols.begin(), out.hot_symbols.end(),
              [](const HotSymbolDelta& a, const HotSymbolDelta& b) {
                if (a.share_delta_pp() != b.share_delta_pp()) {
                  return a.share_delta_pp() > b.share_delta_pp();
                }
                return a.name < b.name;
              });
  }
  return out;
}

DiffGateResult evaluate_gate(const RunComparison& comparison,
                             const DiffGateConfig& config) {
  if (!std::isfinite(config.max_regress_pct) || config.max_regress_pct < 0) {
    throw std::invalid_argument("max_regress_pct must be finite and >= 0");
  }
  DiffGateResult out;
  for (const PhaseDelta& phase : comparison.phases) {
    if (!phase.in_base || !phase.in_cand) {
      out.notes.push_back("phase " + phase.name + " only in " +
                          (phase.in_base ? "baseline" : "candidate"));
      continue;
    }
    if (phase.pct() > config.max_regress_pct) {
      out.pass = false;
      out.violations.push_back(
          "phase " + phase.name + " wall-clock " + format_pct(phase.pct()) +
          " (" + format_seconds(phase.base_seconds) + " -> " +
          format_seconds(phase.cand_seconds) + ") exceeds " +
          format_pct(config.max_regress_pct).substr(1));
    }
  }
  for (const QuantileDelta& quantile : comparison.quantiles) {
    if (quantile.q < 0.95 || !is_time_histogram(quantile.name)) continue;
    if (to_nanoseconds(quantile.name, quantile.base) <
            config.quantile_floor_ns &&
        to_nanoseconds(quantile.name, quantile.cand) <
            config.quantile_floor_ns) {
      continue;  // Below the jitter floor on both sides — noise, not signal.
    }
    if (quantile.pct() > config.max_regress_pct) {
      out.pass = false;
      char row[160];
      std::snprintf(row, sizeof row, "%s p%.0f %s (%.0f -> %.0f) exceeds %s",
                    quantile.name.c_str(), quantile.q * 100.0,
                    format_pct(quantile.pct()).c_str(), quantile.base,
                    quantile.cand,
                    format_pct(config.max_regress_pct).substr(1).c_str());
      out.violations.emplace_back(row);
    }
  }
  for (const CounterDelta& counter : comparison.counters) {
    if (counter.in_base != counter.in_cand) {
      out.notes.push_back("counter " + counter.name + " only in " +
                          (counter.in_base ? "baseline" : "candidate"));
    } else if (counter.name.find("tasks") != std::string::npos &&
               counter.delta() != 0) {
      // Workload-size drift: the timing comparison above may not be
      // apples-to-apples. Surfaced, not gated.
      out.notes.push_back("workload drift: " + counter.name + " " +
                          std::to_string(counter.base) + " -> " +
                          std::to_string(counter.cand));
    }
  }
  return out;
}

FoldedProfile read_folded_profile(std::istream& in) {
  FoldedProfile out;
  std::map<std::string, HotSymbol> symbols;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) {
      out.problems.push_back("line " + std::to_string(lineno) + ": empty");
      continue;
    }
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0 ||
        space + 1 >= line.size()) {
      out.problems.push_back("line " + std::to_string(lineno) +
                             ": expected \"stack count\"");
      continue;
    }
    const std::string stack = line.substr(0, space);
    // One whole decimal token; a count or total past 2^64 would wrap.
    std::uint64_t count = 0;
    const char* line_end = line.data() + line.size();
    const auto [stop, ec] =
        std::from_chars(line.data() + space + 1, line_end, count);
    if (ec != std::errc() || stop != line_end || count == 0 ||
        out.total + count < out.total) {
      out.problems.push_back("line " + std::to_string(lineno) +
                             ": count must be a positive integer (total "
                             "below 2^64)");
      continue;
    }

    // Frames: ';'-separated, none may be empty.
    std::vector<std::string> frames;
    std::size_t begin = 0;
    bool frames_ok = true;
    while (begin <= stack.size()) {
      std::size_t end = stack.find(';', begin);
      if (end == std::string::npos) end = stack.size();
      if (end == begin) {
        out.problems.push_back("line " + std::to_string(lineno) +
                               ": empty frame in stack");
        frames_ok = false;
        break;
      }
      frames.push_back(stack.substr(begin, end - begin));
      if (end == stack.size()) break;
      begin = end + 1;
    }
    if (!frames_ok) continue;

    out.total += count;
    out.stacks.emplace_back(stack, count);
    for (std::size_t i = 0; i < frames.size(); ++i) {
      auto [it, fresh] = symbols.try_emplace(frames[i]);
      if (fresh) it->second.name = frames[i];
      if (i + 1 == frames.size()) it->second.self += count;  // leaf
      // `total` once per stack even if the frame recurses.
      if (std::find(frames.begin(), frames.begin() + static_cast<std::ptrdiff_t>(i),
                    frames[i]) == frames.begin() + static_cast<std::ptrdiff_t>(i)) {
        it->second.total += count;
      }
    }
  }
  if (out.stacks.empty() && out.problems.empty()) {
    out.problems.emplace_back("no stacks");
  }
  out.symbols.reserve(symbols.size());
  for (auto& [name, sym] : symbols) out.symbols.push_back(std::move(sym));
  std::sort(out.symbols.begin(), out.symbols.end(),
            [](const HotSymbol& a, const HotSymbol& b) {
              if (a.self != b.self) return a.self > b.self;
              if (a.total != b.total) return a.total > b.total;
              return a.name < b.name;
            });
  return out;
}

FoldedProfile read_folded_profile_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    FoldedProfile out;
    out.problems.push_back("cannot open " + path);
    return out;
  }
  return read_folded_profile(in);
}

namespace {

/// Minimal Prometheus text parse: plain `name value` sample lines
/// (comments and labeled series like `..._bucket{le="1"}` skipped).
std::map<std::string, std::uint64_t> read_prometheus_counters(
    const std::string& path) {
  std::map<std::string, std::uint64_t> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' ||
        line.find('{') != std::string::npos) {
      continue;
    }
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    try {
      out[line.substr(0, space)] =
          static_cast<std::uint64_t>(std::stoull(line.substr(space + 1)));
    } catch (const std::exception&) {
      // Non-integer sample (histogram _sum can be large but is integral
      // here; anything unparseable is simply not cross-checked).
    }
  }
  return out;
}

void check_monotone_lanes(const ReadJournal& read, BundleCheckResult& out) {
  for (const auto& lane : read.journal.workers) {
    for (std::size_t i = 1; i < lane.tasks.size(); ++i) {
      if (lane.tasks[i].start_ns < lane.tasks[i - 1].start_ns) {
        out.fail("worker " + std::to_string(lane.worker) +
                 ": task start_ns not monotone at index " +
                 std::to_string(i));
        break;
      }
    }
  }
  for (std::size_t i = 1; i < read.journal.attacks.size(); ++i) {
    if (read.journal.attacks[i].announce_us <
        read.journal.attacks[i - 1].announce_us) {
      out.fail("attack announce_us not monotone at index " +
               std::to_string(i));
      break;
    }
  }
  for (std::size_t i = 1; i < read.quorums.size(); ++i) {
    if (read.quorums[i].virtual_us < read.quorums[i - 1].virtual_us) {
      out.fail("quorum virtual_us not monotone at index " +
               std::to_string(i));
      break;
    }
  }
}

void check_meta_agreement(const ReadJournal& read, BundleCheckResult& out) {
  const auto expect_eq = [&out](const char* what, std::uint64_t declared,
                                std::uint64_t actual) {
    if (declared != actual) {
      out.fail(std::string("meta ") + what + " declares " +
               std::to_string(declared) + " but journal carries " +
               std::to_string(actual));
    }
  };
  expect_eq("workers", read.meta_workers, read.journal.workers.size());
  expect_eq("tasks", read.meta_tasks, read.journal.task_count());
  expect_eq("verdicts", read.meta_verdicts, read.journal.verdict_count());
  expect_eq("adversary_verdicts", read.meta_adversary_verdicts,
            read.journal.adversary_verdict_count());
}

}  // namespace

BundleCheckResult check_trace_bundle(const std::string& dir,
                                     const std::string& manifest_path) {
  BundleCheckResult out;
  const std::filesystem::path base(dir);

  const std::string journal_path = (base / "journal.ndjson").string();
  if (!std::filesystem::exists(journal_path)) {
    out.fail("missing " + journal_path);
    return out;
  }
  const ReadJournal read = JournalReader::read_file(journal_path);
  for (const JournalIssue& issue : read.errors) {
    out.fail("journal.ndjson line " + std::to_string(issue.line) + ": " +
             issue.message);
  }
  out.journal_lines = read.lines;
  out.tasks = read.journal.task_count();
  out.verdicts = read.journal.verdict_count();
  out.attacks = read.journal.attacks.size();
  out.quorums = read.quorums.size();
  if (read.ok()) {
    check_meta_agreement(read, out);
    check_monotone_lanes(read, out);
  }

  const std::filesystem::path trace_path = base / "trace.json";
  if (std::filesystem::exists(trace_path)) {
    std::ifstream in(trace_path);
    std::ostringstream text;
    text << in.rdbuf();
    try {
      const json::Value doc = json::parse(text.str());
      const json::Value* events = doc.find("traceEvents");
      if (events == nullptr || !events->is_array()) {
        out.fail("trace.json has no traceEvents array");
      }
    } catch (const json::ParseError& error) {
      out.fail(std::string("trace.json: ") + error.what());
    }
  }

  const std::filesystem::path folded_path = base / "profile.folded";
  if (std::filesystem::exists(folded_path)) {
    const FoldedProfile folded =
        read_folded_profile_file(folded_path.string());
    out.has_profile = true;
    out.profile_samples = folded.total;
    for (const std::string& problem : folded.problems) {
      out.fail("profile.folded " + problem);
    }
  }

  const std::filesystem::path prom_path = base / "metrics.prom";
  if (std::filesystem::exists(prom_path)) {
    const auto samples = read_prometheus_counters(prom_path.string());
    const auto it = samples.find("marcopolo_campaign_tasks_executed");
    if (it != samples.end() && out.tasks != 0 && it->second != out.tasks) {
      out.fail("metrics.prom campaign_tasks_executed " +
               std::to_string(it->second) + " != journal task spans " +
               std::to_string(out.tasks));
    }
  }

  const std::filesystem::path timeseries_path = base / "timeseries.ndjson";
  const TimeseriesTick* last_tick = nullptr;
  ReadTimeseries timeseries;
  if (std::filesystem::exists(timeseries_path)) {
    timeseries = TimeseriesReader::read_file(timeseries_path.string());
    out.has_timeseries = true;
    out.timeseries_ticks = timeseries.ticks.size();
    for (const TimeseriesIssue& issue : timeseries.errors) {
      out.fail("timeseries.ndjson line " + std::to_string(issue.line) +
               ": " + issue.message);
    }
    if (timeseries.ok() && !timeseries.has_meta) {
      out.fail("timeseries.ndjson has no meta record");
    }
    // Final-tick counter agreement: the hub's last registry scrape must
    // tell the same story as the post-run artifacts. (A crashed run has
    // no "final":true tick — that's legitimate; the last completed tick
    // still has to agree when it carries counters.)
    last_tick = timeseries.last_tick();
    if (last_tick != nullptr) {
      const std::uint64_t ts_tasks =
          last_tick->counter("campaign.tasks_executed");
      if (ts_tasks != 0 && out.tasks != 0 && ts_tasks != out.tasks) {
        out.fail("timeseries final tick campaign.tasks_executed " +
                 std::to_string(ts_tasks) + " != journal task spans " +
                 std::to_string(out.tasks));
      }
    }
  }

  if (!manifest_path.empty()) {
    const ReadManifest manifest = ManifestReader::read_file(manifest_path);
    for (const std::string& error : manifest.errors) {
      out.fail(manifest_path + ": " + error);
    }
    if (manifest.ok()) {
      const std::uint64_t tasks =
          manifest.metrics.counter("campaign.tasks_executed");
      if (tasks != 0 && out.tasks != 0 && tasks != out.tasks) {
        out.fail("manifest campaign.tasks_executed " + std::to_string(tasks) +
                 " != journal task spans " + std::to_string(out.tasks));
      }
      const std::uint64_t attempts =
          manifest.metrics.counter("orchestrator.attack_attempts");
      if (attempts != 0 && out.attacks != 0 && attempts != out.attacks) {
        out.fail("manifest orchestrator.attack_attempts " +
                 std::to_string(attempts) + " != journal attack spans " +
                 std::to_string(out.attacks));
      }
      if (out.has_profile && manifest.has_profile &&
          manifest.profile.samples != out.profile_samples) {
        out.fail("manifest profile samples " +
                 std::to_string(manifest.profile.samples) +
                 " != profile.folded total " +
                 std::to_string(out.profile_samples));
      }
      if (last_tick != nullptr) {
        const std::uint64_t ts_tasks =
            last_tick->counter("campaign.tasks_executed");
        const std::uint64_t manifest_tasks =
            manifest.metrics.counter("campaign.tasks_executed");
        if (ts_tasks != 0 && manifest_tasks != 0 &&
            ts_tasks != manifest_tasks) {
          out.fail("timeseries final tick campaign.tasks_executed " +
                   std::to_string(ts_tasks) + " != manifest counter " +
                   std::to_string(manifest_tasks));
        }
      }
    }
  }
  return out;
}

}  // namespace marcopolo::obs
