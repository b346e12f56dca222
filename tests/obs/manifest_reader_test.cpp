// ManifestReader: RunManifest JSON (campaign_wallclock's output included)
// decodes back into MetricsSnapshot-shaped data, with the same
// forward-compatibility policy as the journal reader.
#include "obs/manifest_reader.hpp"

#include <gtest/gtest.h>

#include <cstdint>
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
}

TEST(ManifestReader, RoundTripsPhasesWithAndWithoutTheMemoryPair) {
  // A row timed by time_phase carries the memory pair wherever /proc is
  // readable; an explicit pair (a negative delta here) and a plain
  // seconds-only row round-trip as written.
  RunManifest manifest("campaign_wallclock");
  manifest.add_phase(time_phase("timed", [] {}));
  manifest.add_phase(PhaseRow{.name = "shrank",
                              .seconds = 0.0184293,
                              .has_mem = true,
                              .peak_rss_kb = 25'240,
                              .rss_delta_kb = -1'692});
  manifest.add_phase("plain", 0.125);
  std::ostringstream out;
  manifest.write_json(out, MetricsSnapshot{});

  const ReadManifest read = ManifestReader::read_string(out.str());
  ASSERT_TRUE(read.ok()) << read.errors.front();
  EXPECT_EQ(read.schema, 1);
  EXPECT_EQ(read.tool, "campaign_wallclock");
  ASSERT_EQ(read.phases.size(), 3u);

  EXPECT_EQ(read.phases[0].name, "timed");
  EXPECT_EQ(read.phases[0].has_mem, read_memory_sample().valid);
  if (read.phases[0].has_mem) {
    EXPECT_GT(read.phases[0].peak_rss_kb, 0u);
  }

  const PhaseRow& shrank = read.phases[1];
  EXPECT_EQ(shrank.seconds, 0.0184293);  // written round-trippable
  ASSERT_TRUE(shrank.has_mem);
  EXPECT_EQ(shrank.peak_rss_kb, 25'240u);
  EXPECT_EQ(shrank.rss_delta_kb, -1'692);

  EXPECT_EQ(read.phases[2].seconds, 0.125);
  EXPECT_FALSE(read.phases[2].has_mem);
}

TEST(ManifestReader, ReadsPhaseMemoryPastOldCounterFields) {
  // Phase rows carrying the counter fields written while the
  // hardware-counter path existed: those are skipped like any unknown
  // field, and the memory fields beside them still read.
  const std::string doc = R"({
    "tool": "campaign_wallclock",
    "perf_counters": "available",
    "phases": [
      {"name": "resilience_kernel_ms", "seconds": 0.25, "ms": 250,
       "instructions": 4000000000, "cycles": 2000000000,
       "cache_references": 50000000, "cache_misses": 5000000,
       "branch_misses": 1000000, "ipc": 2.0, "cache_miss_rate": 0.1,
       "peak_rss_kb": 262144, "rss_delta_kb": -512},
      {"name": "plain_phase", "seconds": 0.5, "ms": 500},
      {"name": "out_of_range", "seconds": 1,
       "peak_rss_kb": 1e30, "rss_delta_kb": 1e300},
      {"name": "out_of_range_down", "seconds": 1,
       "peak_rss_kb": -1e30, "rss_delta_kb": -1e300}
    ]
  })";
  const ReadManifest read = ManifestReader::read_string(doc);
  ASSERT_TRUE(read.ok()) << read.errors.front();
  ASSERT_EQ(read.phases.size(), 4u);

  const PhaseRow& phase = read.phases[0];
  EXPECT_EQ(phase.name, "resilience_kernel_ms");
  EXPECT_EQ(phase.seconds, 0.25);
  ASSERT_TRUE(phase.has_mem);
  EXPECT_EQ(phase.peak_rss_kb, 262'144u);
  EXPECT_EQ(phase.rss_delta_kb, -512);

  EXPECT_FALSE(read.phases[1].has_mem);

  // Out-of-range numbers saturate; a plain cast is undefined behaviour
  // (it read the 1e300 delta as INT64_MIN on x86-64).
  EXPECT_EQ(read.phases[2].peak_rss_kb, ~std::uint64_t{0});
  EXPECT_EQ(read.phases[2].rss_delta_kb, INT64_MAX);
  EXPECT_EQ(read.phases[3].peak_rss_kb, 0u);
  EXPECT_EQ(read.phases[3].rss_delta_kb, INT64_MIN);
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
    "metrics": {"counters": {"c": 5, "huge": 1e30, "negative": -1e30,
                             "past_u64": 18446744073709551616,
                             "infinite": 1e999},
                "histograms": {}, "future_subsection": true}
  })";
  const ReadManifest read = ManifestReader::read_string(doc);
  ASSERT_TRUE(read.ok()) << read.errors.front();
  EXPECT_EQ(read.metrics.counter("c"), 5u);
  // Counters out of the uint64 range saturate instead of reading as 0.
  EXPECT_EQ(read.metrics.counter("huge"), ~std::uint64_t{0});
  EXPECT_EQ(read.metrics.counter("negative"), 0u);
  EXPECT_EQ(read.metrics.counter("past_u64"), ~std::uint64_t{0});
  EXPECT_EQ(read.metrics.counter("infinite"), ~std::uint64_t{0});
}

TEST(ManifestReader, MalformedDocumentsReportErrors) {
  EXPECT_FALSE(ManifestReader::read_string("{truncated").ok());
  EXPECT_FALSE(ManifestReader::read_string("[1, 2]").ok());  // not an object
  EXPECT_FALSE(ManifestReader::read_string("").ok());
  EXPECT_FALSE(
      ManifestReader::read_file("/nonexistent-dir/manifest.json").ok());
}

TEST(ManifestReader, DeepNestingIsAnErrorNotACrash) {
  // A 100 KB document nested 100,000 deep is an error, not a stack
  // overflow in `mpinspect summarize`.
  const ReadManifest read = ManifestReader::read_string(
      R"({"tool": "quickstart", "config": )" + std::string(100'000, '['));
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.errors.front().find("nesting too deep"), std::string::npos)
      << read.errors.front();
}

TEST(ManifestReader, DocumentWithBenchmarkButNoToolIsAnError) {
  // The bench dialect campaign_wallclock used to write named itself with
  // "benchmark"; it is not a run manifest and gets no fallback.
  const ReadManifest bench = ManifestReader::read_string(
      R"({"benchmark": "run_paper_campaigns", "runs": [], "phases": []})");
  ASSERT_FALSE(bench.ok());
  EXPECT_NE(bench.errors.front().find("no \"tool\""), std::string::npos);
  EXPECT_FALSE(ManifestReader::read_string(R"({"something": "else"})").ok());
}

}  // namespace
}  // namespace marcopolo::obs
