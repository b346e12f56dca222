// Run comparison / CI gate / bundle check: the analysis layer mpinspect
// is built on. A run diffed against itself must be all-zero and pass;
// an injected regression must fail with a violation naming the quantity.
#include "obs/run_compare.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"

namespace marcopolo::obs {
namespace {

FlightJournal provenance_journal() {
  FlightRecorder recorder;
  FlightBuffer* w = recorder.open_buffer();
  TaskSpanRecord task;
  task.start_ns = 1'000;
  task.duration_ns = 10'000;
  task.propagate_ns = 6'000;
  task.classify_ns = 2'000;
  task.record_ns = 1'000;
  w->record_task(task);
  task.start_ns = 20'000;
  w->record_task(task);

  VerdictRecord v;
  v.outcome = 2;
  v.decided_by = VerdictStep::RouteAge;
  v.contested = true;
  w->record_verdict(v);  // adversary, contested, route-age-sensitive
  v.outcome = 1;
  v.decided_by = VerdictStep::PathLength;
  w->record_verdict(v);  // victim, contested
  v.decided_by = VerdictStep::Unopposed;
  v.contested = false;
  w->record_verdict(v);  // victim, uncontested
  v.decided_by = VerdictStep::RouteAge;
  w->record_verdict(v);  // route-age but uncontested: NOT sensitive
  return recorder.drain();
}

TEST(ProvenanceSummary, CountsOutcomesAndDecisionSteps) {
  const ProvenanceSummary prov =
      summarize_provenance(provenance_journal());
  EXPECT_EQ(prov.verdicts, 4u);
  EXPECT_EQ(prov.adversary, 1u);
  EXPECT_EQ(prov.contested, 2u);
  EXPECT_EQ(prov.route_age_sensitive, 1u);
  EXPECT_EQ(prov.decided_by.at("route_age"), 2u);
  EXPECT_EQ(prov.decided_by.at("path_length"), 1u);
  EXPECT_EQ(prov.decided_by.at("unopposed"), 1u);
  EXPECT_DOUBLE_EQ(prov.contested_rate(), 0.5);
  EXPECT_DOUBLE_EQ(prov.route_age_sensitive_rate(), 0.25);
  EXPECT_DOUBLE_EQ(ProvenanceSummary{}.contested_rate(), 0.0);
}

TEST(PhaseAttribution, SumsSpansAndDerivesOther) {
  const PhaseAttribution phases =
      attribute_phases(provenance_journal());
  EXPECT_EQ(phases.total_ns, 20'000u);
  EXPECT_EQ(phases.propagate_ns, 12'000u);
  EXPECT_EQ(phases.classify_ns, 4'000u);
  EXPECT_EQ(phases.record_ns, 2'000u);
  EXPECT_EQ(phases.other_ns(), 2'000u);
}

TEST(PhaseAttribution, SplitsSpansPerAttackPlane) {
  // A single-attack journal has one plane, equal to the whole.
  const PhaseAttribution single = attribute_phases(provenance_journal());
  ASSERT_EQ(single.by_attack.size(), 1u);
  EXPECT_EQ(single.by_attack.at(0).total_ns, single.total_ns);
  EXPECT_EQ(single.by_attack.at(0).propagate_ns, single.propagate_ns);

  // Two planes across two lanes: each plane sums only its own spans, and
  // the planes add up to the total.
  FlightRecorder recorder;
  FlightBuffer* a = recorder.open_buffer();
  FlightBuffer* b = recorder.open_buffer();
  TaskSpanRecord task;
  task.duration_ns = 10'000;
  task.propagate_ns = 1'000;
  task.classify_ns = 7'000;
  task.record_ns = 1'000;
  a->record_task(task);  // equally-specific
  task.attack = 2;       // sub-prefix: the plane that used to flood
  task.duration_ns = 50'000;
  task.propagate_ns = 45'000;
  task.classify_ns = 3'000;
  a->record_task(task);
  b->record_task(task);
  const PhaseAttribution multi = attribute_phases(recorder.drain());
  ASSERT_EQ(multi.by_attack.size(), 2u);
  const PhaseSplit& es = multi.by_attack.at(0);
  const PhaseSplit& sub = multi.by_attack.at(2);
  EXPECT_EQ(es.total_ns, 10'000u);
  EXPECT_EQ(es.classify_ns, 7'000u);
  EXPECT_EQ(es.other_ns(), 1'000u);
  EXPECT_EQ(sub.total_ns, 100'000u);
  EXPECT_EQ(sub.propagate_ns, 90'000u);
  EXPECT_EQ(sub.record_ns, 2'000u);
  EXPECT_EQ(sub.other_ns(), 2'000u);
  EXPECT_EQ(es.total_ns + sub.total_ns, multi.total_ns);
  EXPECT_EQ(es.propagate_ns + sub.propagate_ns, multi.propagate_ns);
}

/// A campaign_wallclock-shaped document with adjustable timing.
ReadManifest bench_doc(double t1_seconds, double t2_seconds,
                       std::uint64_t task_ns_scale = 1,
                       std::uint64_t tasks = 2048) {
  std::string doc = R"({"benchmark": "campaign_wallclock", "runs": [)";
  doc += R"({"threads": 1, "seconds": )" + std::to_string(t1_seconds) +
         R"(, "tasks": )" + std::to_string(tasks) +
         R"(, "propagations": 1984},)";
  doc += R"({"threads": 2, "seconds": )" + std::to_string(t2_seconds) +
         R"(, "tasks": )" + std::to_string(tasks) +
         R"(, "propagations": 1984}],)";
  // One log2 bucket per sample keeps the quantile shift proportional to
  // the bucket bound scale.
  const std::uint64_t le = (std::uint64_t{1} << 18) - 1;
  doc += R"("metrics": {"counters": {"campaign.tasks_executed": )" +
         std::to_string(tasks) + R"(},
    "histograms": {"campaign.task_ns": {"count": 100, "sum": 0,
      "min": )" +
         std::to_string((le >> 1) * task_ns_scale + 1) + R"(, "max": )" +
         std::to_string(le * task_ns_scale) + R"(,
      "buckets": [{"le": )" +
         std::to_string(le * task_ns_scale) + R"(, "count": 100}]}}}})";
  const ReadManifest read = ManifestReader::read_string(doc);
  EXPECT_TRUE(read.ok()) << (read.ok() ? "" : read.errors.front());
  return read;
}

TEST(CompareRuns, SelfComparisonIsAllZeroAndPasses) {
  const ReadManifest doc = bench_doc(0.5, 0.3);
  const RunComparison comparison = compare_runs(doc, doc);

  ASSERT_EQ(comparison.runs.size(), 2u);
  for (const BenchRunDelta& run : comparison.runs) {
    EXPECT_DOUBLE_EQ(run.seconds_pct(), 0.0);
    EXPECT_DOUBLE_EQ(run.base_throughput, run.cand_throughput);
  }
  ASSERT_EQ(comparison.quantiles.size(), 3u);  // one histogram x 3 q's
  for (const QuantileDelta& quantile : comparison.quantiles) {
    EXPECT_DOUBLE_EQ(quantile.pct(), 0.0);
  }
  for (const CounterDelta& counter : comparison.counters) {
    EXPECT_EQ(counter.delta(), 0);
    EXPECT_TRUE(counter.in_base && counter.in_cand);
  }

  const DiffGateResult gate = evaluate_gate(comparison, DiffGateConfig{});
  EXPECT_TRUE(gate.pass);
  EXPECT_TRUE(gate.violations.empty());
  EXPECT_TRUE(gate.notes.empty());
}

TEST(CompareRuns, WallClockRegressionFailsTheGate) {
  const ReadManifest base = bench_doc(0.5, 0.3);
  const ReadManifest cand = bench_doc(0.8, 0.3);  // threads=1: +60%
  const DiffGateResult gate =
      evaluate_gate(compare_runs(base, cand), DiffGateConfig{25.0});
  EXPECT_FALSE(gate.pass);
  ASSERT_EQ(gate.violations.size(), 1u);
  EXPECT_NE(gate.violations[0].find("threads=1"), std::string::npos);
  EXPECT_NE(gate.violations[0].find("+60.0%"), std::string::npos);
}

TEST(CompareRuns, QuantileRegressionOnTimeHistogramFailsTheGate) {
  const ReadManifest base = bench_doc(0.5, 0.3, /*task_ns_scale=*/1);
  const ReadManifest cand = bench_doc(0.5, 0.3, /*task_ns_scale=*/2);
  const DiffGateResult gate =
      evaluate_gate(compare_runs(base, cand), DiffGateConfig{25.0});
  EXPECT_FALSE(gate.pass);
  ASSERT_FALSE(gate.violations.empty());
  // p95 and p99 of campaign.task_ns roughly doubled; p50 is not gated.
  for (const std::string& violation : gate.violations) {
    EXPECT_NE(violation.find("campaign.task_ns"), std::string::npos);
    EXPECT_EQ(violation.find("p50"), std::string::npos);
  }
}

TEST(CompareRuns, ImprovementAndThresholdRespectTheConfig) {
  const ReadManifest base = bench_doc(0.5, 0.3);
  const ReadManifest faster = bench_doc(0.2, 0.1);
  EXPECT_TRUE(
      evaluate_gate(compare_runs(base, faster), DiffGateConfig{25.0}).pass);
  // +60% passes a 100% threshold.
  const ReadManifest slower = bench_doc(0.8, 0.3);
  EXPECT_TRUE(
      evaluate_gate(compare_runs(base, slower), DiffGateConfig{100.0}).pass);
}

/// A minimal doc whose single time histogram has all mass at `ns`.
ReadManifest tiny_hist_doc(std::uint64_t ns) {
  const std::string doc =
      R"({"tool": "t", "metrics": {"histograms": {"campaign.phase.classify_ns":
         {"count": 100, "sum": 0, "min": )" +
      std::to_string(ns) + R"(, "max": )" + std::to_string(ns) +
      R"(, "buckets": [{"le": )" + std::to_string(ns) +
      R"(, "count": 100}]}}}})";
  const ReadManifest read = ManifestReader::read_string(doc);
  EXPECT_TRUE(read.ok()) << (read.ok() ? "" : read.errors.front());
  return read;
}

TEST(CompareRuns, QuantilesBelowTheJitterFloorAreNotGated) {
  // Single-digit-microsecond quantiles double — scheduler noise at that
  // scale, so the gate must not fire while both sides sit under the floor.
  const DiffGateResult below = evaluate_gate(
      compare_runs(tiny_hist_doc(2'000), tiny_hist_doc(4'000)),
      DiffGateConfig{25.0});
  EXPECT_TRUE(below.pass) << below.violations.front();

  // The same relative regression crossing the floor is real and gated.
  const DiffGateResult across = evaluate_gate(
      compare_runs(tiny_hist_doc(2'000), tiny_hist_doc(50'000)),
      DiffGateConfig{25.0});
  EXPECT_FALSE(across.pass);
}

TEST(CompareRuns, WorkloadDriftIsANoteNeverAViolation) {
  const ReadManifest base = bench_doc(0.5, 0.3, 1, /*tasks=*/2048);
  const ReadManifest cand = bench_doc(0.5, 0.3, 1, /*tasks=*/4096);
  const DiffGateResult gate =
      evaluate_gate(compare_runs(base, cand), DiffGateConfig{25.0});
  EXPECT_TRUE(gate.pass);
  ASSERT_FALSE(gate.notes.empty());
  EXPECT_NE(gate.notes[0].find("workload drift"), std::string::npos);
  EXPECT_NE(gate.notes[0].find("campaign.tasks_executed"),
            std::string::npos);
}

TEST(CompareRuns, OneSidedCountersAreNoted) {
  const ReadManifest base = ManifestReader::read_string(
      R"({"tool": "t", "metrics": {"counters": {"only.in.base": 1}}})");
  const ReadManifest cand = ManifestReader::read_string(
      R"({"tool": "t", "metrics": {"counters": {"only.in.cand": 2}}})");
  const RunComparison comparison = compare_runs(base, cand);
  ASSERT_EQ(comparison.counters.size(), 2u);
  const DiffGateResult gate = evaluate_gate(comparison, DiffGateConfig{});
  EXPECT_TRUE(gate.pass);
  EXPECT_EQ(gate.notes.size(), 2u);
}

/// A bench-shaped document carrying only named phases.
ReadManifest phase_doc(const std::vector<std::pair<std::string, double>>&
                           phases) {
  std::string doc = R"({"benchmark": "campaign_wallclock", "phases": [)";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    doc += std::string(i ? "," : "") + R"({"name": ")" + phases[i].first +
           R"(", "seconds": )" + std::to_string(phases[i].second) + "}";
  }
  doc += "]}";
  const ReadManifest read = ManifestReader::read_string(doc);
  EXPECT_TRUE(read.ok()) << (read.ok() ? "" : read.errors.front());
  return read;
}

TEST(CompareRuns, PhaseSelfComparisonIsAllZeroAndPasses) {
  const ReadManifest doc =
      phase_doc({{"optimizer_exhaustive_ms", 2.5}, {"setup", 0.1}});
  const RunComparison comparison = compare_runs(doc, doc);
  ASSERT_EQ(comparison.phases.size(), 2u);
  for (const PhaseDelta& phase : comparison.phases) {
    EXPECT_TRUE(phase.in_base && phase.in_cand);
    EXPECT_DOUBLE_EQ(phase.pct(), 0.0);
  }
  const DiffGateResult gate = evaluate_gate(comparison, DiffGateConfig{});
  EXPECT_TRUE(gate.pass);
  EXPECT_TRUE(gate.notes.empty());
}

TEST(CompareRuns, PhaseRegressionFailsTheGateByName) {
  const ReadManifest base = phase_doc({{"optimizer_exhaustive_ms", 2.0}});
  const ReadManifest cand = phase_doc({{"optimizer_exhaustive_ms", 3.0}});
  const DiffGateResult gate =
      evaluate_gate(compare_runs(base, cand), DiffGateConfig{25.0});
  EXPECT_FALSE(gate.pass);
  ASSERT_EQ(gate.violations.size(), 1u);
  EXPECT_NE(gate.violations[0].find("phase optimizer_exhaustive_ms"),
            std::string::npos);
  EXPECT_NE(gate.violations[0].find("+50.0%"), std::string::npos);
  // A phase speedup and a within-threshold slowdown both pass.
  EXPECT_TRUE(
      evaluate_gate(compare_runs(cand, base), DiffGateConfig{25.0}).pass);
  EXPECT_TRUE(
      evaluate_gate(compare_runs(base, cand), DiffGateConfig{75.0}).pass);
}

TEST(CompareRuns, OneSidedPhaseIsANoteNeverAViolation) {
  // An old baseline predating a new phase must not fail the gate — the
  // CI diff of the first run after adding a measurement still gates
  // everything else.
  const ReadManifest base = phase_doc({});
  const ReadManifest cand = phase_doc({{"optimizer_exhaustive_ms", 2.0}});
  const RunComparison comparison = compare_runs(base, cand);
  ASSERT_EQ(comparison.phases.size(), 1u);
  EXPECT_FALSE(comparison.phases[0].in_base);
  EXPECT_TRUE(comparison.phases[0].in_cand);
  const DiffGateResult gate = evaluate_gate(comparison, DiffGateConfig{});
  EXPECT_TRUE(gate.pass);
  ASSERT_EQ(gate.notes.size(), 1u);
  EXPECT_NE(gate.notes[0].find("only in candidate"), std::string::npos);

  const DiffGateResult reverse =
      evaluate_gate(compare_runs(cand, base), DiffGateConfig{});
  EXPECT_TRUE(reverse.pass);
  ASSERT_EQ(reverse.notes.size(), 1u);
  EXPECT_NE(reverse.notes[0].find("only in baseline"), std::string::npos);
}

TEST(CompareRuns, OldCounterFieldsLoadAndDiffOnWallClockAlone) {
  // Bench documents written while the hardware-counter path existed carry
  // a "perf_counters" echo and per-phase counter fields. They still read,
  // and the diff gates wall clock alone: instructions up 10% with an
  // unchanged wall clock is neither a violation nor a note.
  const auto old_doc = [](std::uint64_t instructions) {
    const ReadManifest read = ManifestReader::read_string(
        R"({"benchmark": "campaign_wallclock", "perf_counters": "available",
            "perf_counters_reason": "",
            "phases": [{"name": "resilience_kernel_ms", "seconds": 0.25,
                        "ms": 250, "instructions": )" +
        std::to_string(instructions) +
        R"(, "cycles": 500000000, "cache_references": 100000000,
            "cache_misses": 1000000, "branch_misses": 5000, "ipc": 2.0,
            "cache_miss_rate": 0.01}]})");
    EXPECT_TRUE(read.ok()) << (read.ok() ? "" : read.errors.front());
    return read;
  };
  const ReadManifest base = old_doc(1'000'000'000);
  const ReadManifest cand = old_doc(1'100'000'000);
  const RunComparison comparison = compare_runs(base, cand);
  ASSERT_EQ(comparison.phases.size(), 1u);
  EXPECT_TRUE(comparison.phases[0].in_base && comparison.phases[0].in_cand);
  EXPECT_DOUBLE_EQ(comparison.phases[0].pct(), 0.0);
  const DiffGateResult gate = evaluate_gate(comparison, DiffGateConfig{});
  EXPECT_TRUE(gate.pass);
  EXPECT_TRUE(gate.violations.empty());
  EXPECT_TRUE(gate.notes.empty());
}

// --- check_trace_bundle ---------------------------------------------------

class BundleCheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("mp_bundle_check_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Write a coherent bundle: journal + trace + metrics whose
  /// campaign.tasks_executed matches the journal's task spans.
  FlightJournal write_good_bundle() {
    FlightRecorder recorder;
    FlightBuffer* w = recorder.open_buffer();
    for (int i = 0; i < 3; ++i) {
      TaskSpanRecord task;
      task.start_ns = 1'000 + static_cast<std::uint64_t>(i) * 100;
      task.duration_ns = 50;
      w->record_task(task);
      VerdictRecord v;
      v.outcome = i == 0 ? 2 : 1;
      w->record_verdict(v);
    }
    FlightJournal journal = recorder.drain();
    MetricsRegistry reg;
    reg.counter("campaign.tasks_executed").add(3);
    const MetricsSnapshot snap = reg.snapshot();
    EXPECT_TRUE(write_trace_dir(dir_, journal, &snap));
    return journal;
  }

  std::string dir_;
};

TEST_F(BundleCheckTest, PassesOnACoherentBundle) {
  write_good_bundle();
  const BundleCheckResult result = check_trace_bundle(dir_);
  EXPECT_TRUE(result.ok) << (result.problems.empty()
                                 ? ""
                                 : result.problems.front());
  EXPECT_EQ(result.tasks, 3u);
  EXPECT_EQ(result.verdicts, 3u);
  EXPECT_EQ(result.journal_lines, 7u);  // meta + 3 tasks + 3 verdicts
}

TEST_F(BundleCheckTest, TruncatedJournalFailsWithLineNumber) {
  write_good_bundle();
  const std::string path = dir_ + "/journal.ndjson";
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  text.resize(text.size() / 2);
  std::ofstream(path, std::ios::trunc) << text;

  const BundleCheckResult result = check_trace_bundle(dir_);
  EXPECT_FALSE(result.ok);
  ASSERT_FALSE(result.problems.empty());
  EXPECT_NE(result.problems[0].find("journal.ndjson line"),
            std::string::npos);
}

TEST_F(BundleCheckTest, MetaDisagreementFails) {
  write_good_bundle();
  const std::string path = dir_ + "/journal.ndjson";
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  // Drop the final line (a verdict), leaving the meta header's counts
  // claiming one more verdict than the journal carries.
  text.erase(text.find_last_of('\n', text.size() - 2) + 1);
  std::ofstream(path, std::ios::trunc) << text;

  const BundleCheckResult result = check_trace_bundle(dir_);
  EXPECT_FALSE(result.ok);
  ASSERT_FALSE(result.problems.empty());
  EXPECT_NE(result.problems[0].find("meta"), std::string::npos);
}

TEST_F(BundleCheckTest, NonMonotoneLaneFails) {
  std::filesystem::create_directories(dir_);
  std::ofstream(dir_ + "/journal.ndjson")
      << R"({"type": "meta", "journal_schema": 1, "epoch_ns": 100, )"
      << R"("workers": 1, "tasks": 2, "verdicts": 0, )"
      << R"("adversary_verdicts": 0})" << "\n"
      << R"({"type": "task", "worker": 0, "start_ns": 500, )"
      << R"("duration_ns": 10})" << "\n"
      << R"({"type": "task", "worker": 0, "start_ns": 100, )"
      << R"("duration_ns": 10})" << "\n";
  const BundleCheckResult result = check_trace_bundle(dir_);
  EXPECT_FALSE(result.ok);
  ASSERT_FALSE(result.problems.empty());
  EXPECT_NE(result.problems[0].find("not monotone"), std::string::npos);
}

TEST_F(BundleCheckTest, TimeseriesIsValidatedWhenPresent) {
  write_good_bundle();
  std::ofstream(dir_ + "/timeseries.ndjson")
      << R"({"type":"meta","timeseries_schema":1,"tick_ms":100})" << "\n"
      << R"({"type":"tick","tick":0,"tasks_done":1})" << "\n"
      << R"({"type":"tick","tick":1,"tasks_done":3,"final":true,)"
      << R"("counters":{"campaign.tasks_executed":3}})" << "\n";
  const BundleCheckResult result = check_trace_bundle(dir_);
  EXPECT_TRUE(result.ok) << (result.problems.empty()
                                 ? ""
                                 : result.problems.front());
  EXPECT_TRUE(result.has_timeseries);
  EXPECT_EQ(result.timeseries_ticks, 2u);
}

TEST_F(BundleCheckTest, TamperedTimeseriesFailsWithLineNumber) {
  write_good_bundle();
  // Tick ids that fail to strictly increase are the tamper/corruption
  // signature the checker must reject, naming the line.
  std::ofstream(dir_ + "/timeseries.ndjson")
      << R"({"type":"meta","timeseries_schema":1,"tick_ms":100})" << "\n"
      << R"({"type":"tick","tick":5,"tasks_done":1})" << "\n"
      << R"({"type":"tick","tick":2,"tasks_done":3})" << "\n";
  const BundleCheckResult result = check_trace_bundle(dir_);
  EXPECT_FALSE(result.ok);
  ASSERT_FALSE(result.problems.empty());
  EXPECT_NE(result.problems[0].find("timeseries.ndjson line 3"),
            std::string::npos)
      << result.problems[0];
  EXPECT_NE(result.problems[0].find("non-monotone"), std::string::npos);
}

TEST_F(BundleCheckTest, TimeseriesFinalCounterDisagreementFails) {
  write_good_bundle();
  std::ofstream(dir_ + "/timeseries.ndjson")
      << R"({"type":"meta","timeseries_schema":1,"tick_ms":100})" << "\n"
      << R"({"type":"tick","tick":0,"final":true,)"
      << R"("counters":{"campaign.tasks_executed":999}})" << "\n";
  const BundleCheckResult result = check_trace_bundle(dir_);
  EXPECT_FALSE(result.ok);
  ASSERT_FALSE(result.problems.empty());
  EXPECT_NE(result.problems[0].find("timeseries"), std::string::npos);
  EXPECT_NE(result.problems[0].find("campaign.tasks_executed"),
            std::string::npos);
}

TEST_F(BundleCheckTest, ManifestCounterDisagreementFails) {
  write_good_bundle();
  const std::string manifest = dir_ + "/run.json";
  std::ofstream(manifest)
      << R"({"tool": "t", "metrics": )"
      << R"({"counters": {"campaign.tasks_executed": 999}}})";
  const BundleCheckResult result = check_trace_bundle(dir_, manifest);
  EXPECT_FALSE(result.ok);
  ASSERT_FALSE(result.problems.empty());
  EXPECT_NE(result.problems[0].find("campaign.tasks_executed"),
            std::string::npos);

  // And an agreeing manifest passes.
  std::ofstream(manifest, std::ios::trunc)
      << R"({"tool": "t", "metrics": )"
      << R"({"counters": {"campaign.tasks_executed": 3}}})";
  EXPECT_TRUE(check_trace_bundle(dir_, manifest).ok);
}

TEST_F(BundleCheckTest, MissingJournalFails) {
  std::filesystem::create_directories(dir_);
  const BundleCheckResult result = check_trace_bundle(dir_);
  EXPECT_FALSE(result.ok);
  ASSERT_FALSE(result.problems.empty());
  EXPECT_NE(result.problems[0].find("missing"), std::string::npos);
}

TEST_F(BundleCheckTest, MalformedTraceJsonFails) {
  write_good_bundle();
  std::ofstream(dir_ + "/trace.json", std::ios::trunc) << "{\"oops\": ";
  const BundleCheckResult result = check_trace_bundle(dir_);
  EXPECT_FALSE(result.ok);
  ASSERT_FALSE(result.problems.empty());
  EXPECT_NE(result.problems[0].find("trace.json"), std::string::npos);
}

}  // namespace
}  // namespace marcopolo::obs
