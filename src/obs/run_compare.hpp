// Run comparison and bundle validation: the analysis layer over the
// readers.
//
// Three consumers share this code:
//   - `mpinspect summarize` renders one recorded run (provenance
//     distribution, phase attribution, histogram quantiles);
//   - `mpinspect diff` compares a candidate run against a baseline and
//     gates CI on wall-clock regressions (phases, throughput per thread
//     count, quantile shifts), noting counter drift;
//   - `mpinspect check` (and quickstart's --trace-out self-check)
//     structurally validates a trace bundle: schema tag, monotone
//     timestamps within each lane, meta-vs-actual and
//     journal-vs-manifest counter agreement.
//
// All comparisons are pure functions of already-read data — nothing here
// re-runs a campaign, exactly the paper's post-hoc posture (§5–§7 work
// from the recorded hijack corpus, not live announcements).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/journal_reader.hpp"
#include "obs/manifest_reader.hpp"

namespace marcopolo::obs {

// ---------------------------------------------------------------------------
// Single-run summaries (from a journal).

/// Verdict provenance distribution over one journal.
struct ProvenanceSummary {
  std::uint64_t verdicts = 0;
  std::uint64_t adversary = 0;       ///< outcome == adversary.
  std::uint64_t contested = 0;
  std::uint64_t route_age_sensitive = 0;
  /// decided_by name -> verdict count (names from to_cstring).
  std::map<std::string, std::uint64_t> decided_by;

  [[nodiscard]] double contested_rate() const {
    return verdicts == 0 ? 0.0
                         : static_cast<double>(contested) /
                               static_cast<double>(verdicts);
  }
  [[nodiscard]] double route_age_sensitive_rate() const {
    return verdicts == 0 ? 0.0
                         : static_cast<double>(route_age_sensitive) /
                               static_cast<double>(verdicts);
  }
};

[[nodiscard]] ProvenanceSummary summarize_provenance(
    const FlightJournal& journal);

/// Wall-clock split of a set of task spans: where did worker time
/// actually go? `other_ns` is span time outside the three instrumented
/// phases (scenario setup, queue overhead).
struct PhaseSplit {
  std::uint64_t total_ns = 0;
  std::uint64_t propagate_ns = 0;
  std::uint64_t classify_ns = 0;
  std::uint64_t record_ns = 0;

  [[nodiscard]] std::uint64_t other_ns() const {
    const std::uint64_t accounted = propagate_ns + classify_ns + record_ns;
    return total_ns > accounted ? total_ns - accounted : 0;
  }
};

/// The split summed over all task spans, and again per attack plane.
struct PhaseAttribution : PhaseSplit {
  /// Keyed by TaskSpanRecord::attack (the bgp::AttackType value); one
  /// entry per tag present, so a single-attack journal has exactly one.
  std::map<std::uint8_t, PhaseSplit> by_attack;
};

[[nodiscard]] PhaseAttribution attribute_phases(const FlightJournal& journal);

// ---------------------------------------------------------------------------
// Two-run comparison (from manifests, optionally journals).

struct CounterDelta {
  std::string name;
  std::uint64_t base = 0;
  std::uint64_t cand = 0;
  bool in_base = false;
  bool in_cand = false;

  [[nodiscard]] std::int64_t delta() const {
    return static_cast<std::int64_t>(cand) - static_cast<std::int64_t>(base);
  }
  /// Relative change in percent; 0 when the base is 0.
  [[nodiscard]] double pct() const {
    return base == 0 ? 0.0
                     : 100.0 * static_cast<double>(delta()) /
                           static_cast<double>(base);
  }
};

/// One histogram quantile (p50/p95/p99) in both runs.
struct QuantileDelta {
  std::string name;   ///< Histogram name.
  double q = 0.0;     ///< Quantile in [0, 1].
  double base = 0.0;
  double cand = 0.0;

  [[nodiscard]] double pct() const {
    return base == 0.0 ? 0.0 : 100.0 * (cand - base) / base;
  }
};

/// One thread-count-matched campaign_wallclock run row in both runs.
struct BenchRunDelta {
  std::uint64_t threads = 0;
  double base_seconds = 0.0;
  double cand_seconds = 0.0;
  double base_throughput = 0.0;  ///< tasks/s.
  double cand_throughput = 0.0;

  /// Wall-clock change in percent (positive = candidate slower).
  [[nodiscard]] double seconds_pct() const {
    return base_seconds == 0.0
               ? 0.0
               : 100.0 * (cand_seconds - base_seconds) / base_seconds;
  }
};

/// One named wall-clock phase (union of both runs, baseline order first).
/// Bench documents use phases for single-shot measurements that have no
/// thread-count axis — e.g. campaign_wallclock's exhaustive optimizer
/// search — so the gate covers phases present in both runs like run rows;
/// a one-sided phase (old baseline predating the measurement) is only a
/// note.
struct PhaseDelta {
  std::string name;
  double base_seconds = 0.0;
  double cand_seconds = 0.0;
  bool in_base = false;
  bool in_cand = false;

  /// Process peak RSS at phase end, present when the writing host had
  /// /proc (ReadPhase::has_mem).
  bool base_has_mem = false;
  bool cand_has_mem = false;
  std::uint64_t base_peak_rss_kb = 0;
  std::uint64_t cand_peak_rss_kb = 0;

  /// Wall-clock change in percent (positive = candidate slower).
  [[nodiscard]] double pct() const {
    return base_seconds == 0.0
               ? 0.0
               : 100.0 * (cand_seconds - base_seconds) / base_seconds;
  }
};

/// One symbol from the union of both runs' hot-symbol tables. Shares are
/// self samples over the run's total samples — sampling rates or run
/// lengths need not match for the comparison to be meaningful.
struct HotSymbolDelta {
  std::string name;
  bool in_base = false;
  bool in_cand = false;
  std::uint64_t base_self = 0;
  std::uint64_t cand_self = 0;
  double base_share = 0.0;  ///< base_self / base total samples, in [0,1].
  double cand_share = 0.0;

  /// Share change in percentage points; positive = the symbol costs a
  /// larger fraction of the candidate run. This is the ranking key of
  /// the hot-symbol regression section: the symbols that grew the most
  /// are the likeliest explanation of a wall-clock breach.
  [[nodiscard]] double share_delta_pp() const {
    return 100.0 * (cand_share - base_share);
  }
};

struct RunComparison {
  std::vector<CounterDelta> counters;    ///< Union of names, sorted.
  std::vector<QuantileDelta> quantiles;  ///< Common histograms × {p50,p95,p99}.
  std::vector<BenchRunDelta> runs;       ///< Thread-count-matched rows.
  std::vector<PhaseDelta> phases;        ///< Name-matched phases in both runs.

  /// Hot-symbol regression attribution, present when both documents
  /// carry a profile section; sorted by share_delta_pp descending (the
  /// biggest riser — the likeliest culprit — first).
  bool base_has_profile = false;
  bool cand_has_profile = false;
  std::uint64_t base_profile_samples = 0;
  std::uint64_t cand_profile_samples = 0;
  std::vector<HotSymbolDelta> hot_symbols;
};

[[nodiscard]] RunComparison compare_runs(const ReadManifest& base,
                                         const ReadManifest& cand);

/// CI gate over a comparison. A regression is a candidate that is slower
/// than baseline by more than `max_regress_pct` percent on a gated
/// quantity: per-thread-count wall-clock seconds (equivalently a
/// throughput drop), named phases present in both runs, and the p95/p99
/// of time-like histograms (names ending in `_ns` / `_ms`). A phase
/// present in only one run is noted, never gated — an old baseline simply
/// predates the measurement. Counter drift is reported in `notes` but
/// never fails the gate — a changed workload makes timing comparisons
/// meaningless, which is a different problem than a slow one.
struct DiffGateConfig {
  double max_regress_pct = 25.0;
  /// Histogram quantiles where both sides sit below this many nanoseconds
  /// are ignored: at single-digit-microsecond latencies, scheduler and
  /// timer jitter routinely exceeds any useful percentage threshold.
  double quantile_floor_ns = 10'000.0;
};

struct DiffGateResult {
  bool pass = true;
  std::vector<std::string> violations;  ///< Human-readable, one per breach.
  std::vector<std::string> notes;       ///< Non-gating observations.
};

[[nodiscard]] DiffGateResult evaluate_gate(const RunComparison& comparison,
                                           const DiffGateConfig& config);

// ---------------------------------------------------------------------------
// Folded-profile parsing and bundle validation.

/// A parsed profile.folded (flamegraph.pl collapsed format). Parsing is
/// also validation: `problems` collects format breaches (empty stacks,
/// empty frames, missing or non-positive counts) with 1-based line
/// numbers, so `mpinspect check` reports them directly.
struct FoldedProfile {
  std::uint64_t total = 0;  ///< Sum of all stack counts.
  std::vector<std::pair<std::string, std::uint64_t>> stacks;
  /// Aggregated per-symbol self/total, same semantics as the manifest
  /// table (self = leaf occurrences, total = once per stack weighted by
  /// count), sorted by self descending — lets `mpinspect hotspots` rank
  /// symbols from the folded file alone.
  std::vector<ReadHotSymbol> symbols;
  std::vector<std::string> problems;
  [[nodiscard]] bool ok() const { return problems.empty(); }
};

[[nodiscard]] FoldedProfile read_folded_profile(std::istream& in);
[[nodiscard]] FoldedProfile read_folded_profile_file(const std::string& path);

struct BundleCheckResult {
  bool ok = true;
  std::vector<std::string> problems;
  /// Counts for the human summary.
  std::size_t journal_lines = 0;
  std::size_t tasks = 0;
  std::size_t verdicts = 0;
  std::size_t attacks = 0;
  std::size_t quorums = 0;
  /// profile.folded accounting (0 / false when the bundle has none).
  bool has_profile = false;
  std::uint64_t profile_samples = 0;
  /// timeseries.ndjson accounting (0 / false when the bundle has none).
  bool has_timeseries = false;
  std::size_t timeseries_ticks = 0;

  void fail(std::string problem) {
    ok = false;
    problems.push_back(std::move(problem));
  }
};

/// Validate the trace bundle in `dir` (journal.ndjson required;
/// trace.json and metrics.prom checked when present):
///   - journal parses with schema 1 and no line errors;
///   - meta header counts match the actual record counts;
///   - timestamps are monotone within each lane (task start_ns per
///     worker, attack announce_us, quorum virtual_us);
///   - trace.json is well-formed JSON with a traceEvents array;
///   - metrics.prom counters agree with the journal (tasks, and when a
///     run manifest is supplied via `manifest_path`, its counters too);
///   - profile.folded, when present, parses cleanly (non-empty
///     `;`-separated stacks, positive counts) and its sample total
///     agrees with the manifest's "profile" section when one is
///     supplied;
///   - timeseries.ndjson, when present, parses with timeseries_schema 1,
///     has strictly increasing tick ids (a tampered or interleaved file
///     fails with its line number), and its last tick's embedded
///     campaign.tasks_executed agrees with the journal task spans and —
///     when a manifest is supplied — the manifest counter. A file with
///     no "final" tick is fine (a killed run keeps every completed
///     tick); counter agreement is still checked against its last one.
[[nodiscard]] BundleCheckResult check_trace_bundle(
    const std::string& dir, const std::string& manifest_path = {});

}  // namespace marcopolo::obs
