// RunManifest JSON round-trip: the emitted document must be valid JSON
// and decode back to the config, phases, and metrics that were written.
// Parsing goes through the shared obs::json parser — strict enough to
// reject trailing garbage and malformed escapes, which doubles as a
// syntax check on the writer.
#include "obs/manifest.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.hpp"

namespace marcopolo::obs {
namespace {

json::Value parse(const std::string& text) { return json::parse(text); }

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// --- Tests ----------------------------------------------------------------

TEST(JsonEscape, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("line\nfeed\ttab"), "line\\nfeed\\ttab");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(RunManifest, JsonRoundTrip) {
  MetricsRegistry reg;
  reg.counter("campaign.tasks_executed").add(1024);
  reg.counter("orchestrator.attack_attempts").add(7);
  Histogram h = reg.histogram("campaign.task_ns");
  h.observe(5);
  h.observe(500);
  h.observe(50000);

  RunManifest manifest("round_trip_test");
  manifest.set("tie_break", "hashed");
  manifest.set("tie_break_seed", std::uint64_t{0xCAFE});
  manifest.set("threads", 4);
  manifest.set("fraction", 0.25);
  manifest.set("rpki", true);
  manifest.set("note", "quote\" and \\slash");
  manifest.add_phase("build", 1.5);
  manifest.add_phase("campaign", 0.125);

  std::ostringstream out;
  manifest.write_json(out, reg.snapshot());

  const json::Value doc = parse(out.str());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("manifest_schema").u64(), 1u);
  EXPECT_EQ(doc.at("tool").str(), "round_trip_test");

  const json::Value& config = doc.at("config");
  EXPECT_EQ(config.at("tie_break").str(), "hashed");
  EXPECT_EQ(config.at("tie_break_seed").u64(), 0xCAFEu);
  EXPECT_EQ(config.at("threads").u64(), 4u);
  EXPECT_EQ(config.at("fraction").number(), 0.25);
  EXPECT_EQ(config.at("rpki").boolean(), true);
  EXPECT_EQ(config.at("note").str(), "quote\" and \\slash");

  const json::Array& phases = doc.at("phases").array();
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].at("name").str(), "build");
  EXPECT_EQ(phases[0].at("seconds").number(), 1.5);
  EXPECT_EQ(phases[1].at("name").str(), "campaign");
  EXPECT_EQ(phases[1].at("seconds").number(), 0.125);

  const json::Value& metrics = doc.at("metrics");
  const json::Object& counters = metrics.at("counters").object();
  EXPECT_EQ(counters.at("campaign.tasks_executed").u64(), 1024u);
  EXPECT_EQ(counters.at("orchestrator.attack_attempts").u64(), 7u);

  const json::Value& hist = metrics.at("histograms").at("campaign.task_ns");
  EXPECT_EQ(hist.at("count").u64(), 3u);
  EXPECT_EQ(hist.at("sum").u64(), 5u + 500u + 50000u);
  EXPECT_EQ(hist.at("min").u64(), 5u);
  EXPECT_EQ(hist.at("max").u64(), 50000u);
  const json::Array& buckets = hist.at("buckets").array();
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0].at("le").u64(), 7u);      // 5 -> le 7
  EXPECT_EQ(buckets[1].at("le").u64(), 511u);    // 500 -> le 511
  EXPECT_EQ(buckets[2].at("le").u64(), 65535u);  // 50000 -> le 65535
  for (const json::Value& b : buckets) {
    EXPECT_EQ(b.at("count").u64(), 1u);
  }
}

TEST(RunManifest, EmptyManifestIsValidJson) {
  RunManifest manifest("empty");
  MetricsRegistry reg;
  std::ostringstream out;
  manifest.write_json(out, reg.snapshot());
  const json::Value doc = parse(out.str());
  EXPECT_TRUE(doc.at("config").object().empty());
  EXPECT_TRUE(doc.at("phases").array().empty());
  EXPECT_TRUE(doc.at("metrics").at("counters").object().empty());
  EXPECT_TRUE(doc.at("metrics").at("histograms").object().empty());
}

TEST(RunManifest, SetOverwritesExistingKey) {
  RunManifest manifest("overwrite");
  manifest.set("key", 1);
  manifest.set("key", 2);
  MetricsRegistry reg;
  std::ostringstream out;
  manifest.write_json(out, reg.snapshot());
  const json::Value doc = parse(out.str());
  EXPECT_EQ(doc.at("config").at("key").u64(), 2u);
  EXPECT_EQ(doc.at("config").object().size(), 1u);
}

TEST(RunManifest, WriteFileRejectsUnwritablePath) {
  RunManifest manifest("io");
  MetricsRegistry reg;
  EXPECT_FALSE(
      manifest.write_file("/nonexistent-dir/out.json", reg.snapshot()));
}

TEST(RunManifest, WriteFileIsAtomicAndLeavesNoTmpBehind) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "mp_manifest_atomic_test")
          .string();
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/run.json";

  // Pre-existing content must survive intact until the rename lands.
  { std::ofstream(path) << "stale, not JSON"; }

  RunManifest manifest("atomic");
  manifest.set("key", 1);
  MetricsRegistry reg;
  ASSERT_TRUE(manifest.write_file(path, reg.snapshot()));

  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  const json::Value doc = parse(slurp(path));
  EXPECT_EQ(doc.at("tool").str(), "atomic");

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace marcopolo::obs
