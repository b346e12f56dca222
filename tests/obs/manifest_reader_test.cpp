// ManifestReader: RunManifest JSON and campaign_wallclock benchmark JSON
// decode back into MetricsSnapshot-shaped data, with the same
// forward-compatibility policy as the journal reader.
#include "obs/manifest_reader.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/manifest.hpp"

namespace marcopolo::obs {
namespace {

TEST(ManifestReader, RoundTripsARunManifest) {
  MetricsRegistry reg;
  reg.counter("campaign.tasks_executed").add(2048);
  reg.counter("campaign.propagations").add(1984);
  Histogram h = reg.histogram("campaign.task_ns");
  h.observe(100);
  h.observe(1'000);
  h.observe(100'000);
  const MetricsSnapshot written = reg.snapshot();

  RunManifest manifest("quickstart");
  manifest.set("ases", 943);
  manifest.set("tie_break", "hashed");
  manifest.set("fraction", 0.25);
  manifest.set("rpki", true);
  manifest.add_phase("build_testbed", 0.125);
  manifest.add_phase("fast_campaign", 1.5);
  std::ostringstream out;
  manifest.write_json(out, written);

  const ReadManifest read = ManifestReader::read_string(out.str());
  ASSERT_TRUE(read.ok()) << read.errors.front();
  EXPECT_EQ(read.schema, 1);
  EXPECT_EQ(read.tool, "quickstart");

  // Keys come back sorted (json::Object is an ordered map); the
  // writer's insertion order is not recoverable and not needed.
  ASSERT_EQ(read.config.size(), 4u);
  EXPECT_EQ(read.config[0], (std::pair<std::string, std::string>{
                                "ases", "943"}));
  EXPECT_EQ(read.config[1].second, "0.25");
  EXPECT_EQ(read.config[2].second, "true");
  EXPECT_EQ(read.config[3].second, "hashed");

  ASSERT_EQ(read.phases.size(), 2u);
  EXPECT_EQ(read.phases[0].name, "build_testbed");
  EXPECT_EQ(read.phases[0].seconds, 0.125);
  EXPECT_EQ(read.phases[1].seconds, 1.5);
  // A run manifest's phase rows carry no memory fields.
  EXPECT_FALSE(read.phases[0].has_mem);

  // Counters come back sorted (the snapshot() contract).
  EXPECT_EQ(read.metrics.counter("campaign.tasks_executed"), 2048u);
  EXPECT_EQ(read.metrics.counter("campaign.propagations"), 1984u);
  ASSERT_EQ(read.metrics.counters.size(), 2u);
  EXPECT_LT(read.metrics.counters[0].first, read.metrics.counters[1].first);

  const HistogramSnapshot* rh = read.metrics.histogram("campaign.task_ns");
  const HistogramSnapshot* wh = written.histogram("campaign.task_ns");
  ASSERT_NE(rh, nullptr);
  ASSERT_NE(wh, nullptr);
  EXPECT_EQ(rh->count, wh->count);
  EXPECT_EQ(rh->sum, wh->sum);
  EXPECT_EQ(rh->min, wh->min);
  EXPECT_EQ(rh->max, wh->max);
  ASSERT_EQ(rh->buckets, wh->buckets);
  // Quantiles recompute identically from identical buckets.
  EXPECT_DOUBLE_EQ(rh->quantile(0.95), wh->quantile(0.95));

  EXPECT_TRUE(read.runs.empty());
}

TEST(ManifestReader, ReadsPhaseMemoryPastOldCounterFields) {
  // A campaign_wallclock phase row as written while the hardware-counter
  // path existed: the counter fields are skipped like any unknown field,
  // and the memory fields beside them still read.
  const std::string doc = R"({
    "benchmark": "campaign_wallclock",
    "perf_counters": "available",
    "phases": [
      {"name": "resilience_kernel_ms", "seconds": 0.25, "ms": 250,
       "instructions": 4000000000, "cycles": 2000000000,
       "cache_references": 50000000, "cache_misses": 5000000,
       "branch_misses": 1000000, "ipc": 2.0, "cache_miss_rate": 0.1,
       "peak_rss_kb": 262144, "rss_delta_kb": -512},
      {"name": "plain_phase", "seconds": 0.5, "ms": 500}
    ]
  })";
  const ReadManifest read = ManifestReader::read_string(doc);
  ASSERT_TRUE(read.ok()) << read.errors.front();
  ASSERT_EQ(read.phases.size(), 2u);

  const ReadPhase& phase = read.phases[0];
  EXPECT_EQ(phase.name, "resilience_kernel_ms");
  EXPECT_EQ(phase.seconds, 0.25);
  ASSERT_TRUE(phase.has_mem);
  EXPECT_EQ(phase.peak_rss_kb, 262'144u);
  EXPECT_EQ(phase.rss_delta_kb, -512);

  EXPECT_FALSE(read.phases[1].has_mem);
}

TEST(ManifestReader, PreCounterDocumentsParseCleanly) {
  // A document whose phases carry only name/seconds reads back with the
  // memory flag off.
  const std::string doc = R"({
    "manifest_schema": 1, "tool": "old",
    "config": {}, "phases": [{"name": "fast_campaign", "seconds": 1.5}],
    "metrics": {"counters": {}, "histograms": {}}
  })";
  const ReadManifest read = ManifestReader::read_string(doc);
  ASSERT_TRUE(read.ok()) << read.errors.front();
  ASSERT_EQ(read.phases.size(), 1u);
  EXPECT_FALSE(read.phases[0].has_mem);
}

TEST(ManifestReader, ReadsCampaignWallclockDocuments) {
  const std::string doc = R"({
    "benchmark": "campaign_wallclock",
    "version": "abc1234",
    "config": {"ases": 943, "pairs": 2048},
    "runs": [
      {"threads": 1, "seconds": 0.5, "speedup_vs_1": 1.0,
       "tasks": 2048, "propagations": 1984, "store_identical": true},
      {"threads": 2, "seconds": 0.3, "speedup_vs_1": 1.67,
       "tasks": 2048, "propagations": 1984, "store_identical": true}
    ],
    "recording": {"seconds": 0.52, "recording_overhead": 0.04,
                  "store_identical": true, "task_spans": 2048,
                  "verdicts": 211046},
    "metrics": {"counters": {"campaign.tasks_executed": 2048},
                "histograms": {}}
  })";
  const ReadManifest read = ManifestReader::read_string(doc);
  ASSERT_TRUE(read.ok()) << read.errors.front();
  EXPECT_EQ(read.schema, 0);  // bench documents carry no manifest_schema
  EXPECT_EQ(read.tool, "campaign_wallclock");
  EXPECT_EQ(read.version, "abc1234");

  ASSERT_EQ(read.runs.size(), 2u);
  EXPECT_EQ(read.runs[0].threads, 1u);
  EXPECT_EQ(read.runs[0].seconds, 0.5);
  EXPECT_EQ(read.runs[0].tasks, 2048u);
  EXPECT_EQ(read.runs[0].propagations, 1984u);
  EXPECT_TRUE(read.runs[0].store_identical);
  EXPECT_DOUBLE_EQ(read.runs[0].throughput(), 2048.0 / 0.5);
  EXPECT_EQ(read.runs[1].threads, 2u);

  // The recording section (with the recording_overhead figure older
  // documents carry) is skipped like any unknown section.
  EXPECT_EQ(read.metrics.counter("campaign.tasks_executed"), 2048u);
}

TEST(ManifestReader, QuantileFieldsAreRecomputedNotTrusted) {
  // A document whose stored p95 is nonsense: the reader must ignore it
  // and recompute from the buckets.
  const std::string doc = R"({
    "manifest_schema": 1, "tool": "t", "config": {}, "phases": [],
    "metrics": {"counters": {},
      "histograms": {"h": {"count": 4, "sum": 40, "min": 10, "max": 10,
        "p50": 999999, "p95": 999999, "p99": 999999,
        "buckets": [{"le": 15, "count": 4}]}}}
  })";
  const ReadManifest read = ManifestReader::read_string(doc);
  ASSERT_TRUE(read.ok());
  const HistogramSnapshot* h = read.metrics.histogram("h");
  ASSERT_NE(h, nullptr);
  // All four samples are 10 (min == max == 10): every quantile clamps
  // there, regardless of the bogus stored pNN.
  EXPECT_DOUBLE_EQ(h->quantile(0.95), 10.0);
}

TEST(ManifestReader, UnknownFieldsAndSectionsAreIgnored) {
  const std::string doc = R"({
    "manifest_schema": 1, "tool": "t",
    "config": {"k": 1}, "phases": [],
    "future_section": {"a": [1, 2, 3]},
    "metrics": {"counters": {"c": 5}, "histograms": {},
                "future_subsection": true}
  })";
  const ReadManifest read = ManifestReader::read_string(doc);
  ASSERT_TRUE(read.ok()) << read.errors.front();
  EXPECT_EQ(read.metrics.counter("c"), 5u);
}

TEST(ManifestReader, MalformedDocumentsReportErrors) {
  EXPECT_FALSE(ManifestReader::read_string("{truncated").ok());
  EXPECT_FALSE(ManifestReader::read_string("[1, 2]").ok());  // not an object
  EXPECT_FALSE(ManifestReader::read_string("").ok());
  EXPECT_FALSE(
      ManifestReader::read_file("/nonexistent-dir/manifest.json").ok());
}

TEST(ManifestReader, DocumentWithNeitherToolNorBenchmarkIsAnError) {
  const ReadManifest read =
      ManifestReader::read_string(R"({"something": "else"})");
  EXPECT_FALSE(read.ok());
}

}  // namespace
}  // namespace marcopolo::obs
