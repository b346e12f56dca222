// Sampling-profiler unit tests: ring encoding, signal-in-drain drops,
// offline symbolization, folded-format round trips, manifest
// compatibility, and hot-symbol regression attribution — plus a live
// injected-hotspot test (skipped where the host cannot arm per-thread
// CPU timers) asserting the planted symbol tops the diff ranking.
#include "obs/profiler.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/manifest.hpp"
#include "obs/manifest_reader.hpp"
#include "obs/metrics.hpp"
#include "obs/run_compare.hpp"
#include "obs/symbolize.hpp"
#include "obs/trace_export.hpp"

// Exported (the build sets ENABLE_EXPORTS) so dladdr can claim it.
// noipa matters as much as noinline: without it GCC emits per-callsite
// .constprop.isra clones that are LOCAL symbols — invisible to dladdr —
// so every sample would fall back to a hex address. Volatile sink
// defeats constant folding.
#if defined(__GNUC__) && !defined(__clang__)
#define MARCOPOLO_TEST_HOT __attribute__((noinline, noipa))
#else
#define MARCOPOLO_TEST_HOT __attribute__((noinline))
#endif
extern "C" MARCOPOLO_TEST_HOT std::uint64_t
marcopolo_profiler_test_hotspot(std::uint64_t iters) {
  volatile std::uint64_t acc = 1;
  for (std::uint64_t i = 0; i < iters; ++i) {
    acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  return acc;
}

extern "C" MARCOPOLO_TEST_HOT std::uint64_t
marcopolo_profiler_test_mild(std::uint64_t iters) {
  volatile std::uint64_t acc = 2;
  for (std::uint64_t i = 0; i < iters; ++i) acc = acc ^ (acc << 13);
  return acc;
}

namespace marcopolo::obs {
namespace {

RawSample make_sample(std::uint64_t ns,
                      std::vector<std::uintptr_t> frames,
                      bool truncated = false) {
  RawSample s;
  s.ns = ns;
  s.depth = static_cast<std::uint16_t>(frames.size());
  s.truncated = truncated;
  for (std::size_t i = 0; i < frames.size(); ++i) s.pc[i] = frames[i];
  return s;
}

TEST(SampleRing, EncodeDecodeRoundTrip) {
  SampleRing ring(64);
  const RawSample a = make_sample(100, {0x1000, 0x2001, 0x3001});
  const RawSample b = make_sample(200, {0x4000}, /*truncated=*/true);
  EXPECT_TRUE(ring.try_append(a));
  EXPECT_TRUE(ring.try_append(b));
  ring.close();

  const std::vector<RawSample> decoded = ring.decode();
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].ns, 100u);
  EXPECT_EQ(decoded[0].depth, 3u);
  EXPECT_FALSE(decoded[0].truncated);
  EXPECT_EQ(decoded[0].pc[0], 0x1000u);
  EXPECT_EQ(decoded[0].pc[1], 0x2001u);
  EXPECT_EQ(decoded[0].pc[2], 0x3001u);
  EXPECT_EQ(decoded[1].ns, 200u);
  EXPECT_EQ(decoded[1].depth, 1u);
  EXPECT_TRUE(decoded[1].truncated);
  EXPECT_EQ(ring.samples(), 2u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(SampleRing, ClosedRingDropsLateSignal) {
  // A signal the kernel queued before timer_delete can fire while the
  // drain path owns the ring; close() must make that append a counted
  // no-op instead of a race.
  SampleRing ring(64);
  EXPECT_TRUE(ring.try_append(make_sample(1, {0x1000})));
  ring.close();
  EXPECT_FALSE(ring.try_append(make_sample(2, {0x2000})));
  EXPECT_EQ(ring.samples(), 1u);
  EXPECT_EQ(ring.dropped(), 1u);
  EXPECT_EQ(ring.decode().size(), 1u);
}

TEST(SampleRing, FullRingCountsDrops) {
  // Each 1-frame sample costs 3 words (header, ns, pc); a 7-word ring
  // holds exactly two.
  SampleRing ring(7);
  EXPECT_TRUE(ring.try_append(make_sample(1, {0x1000})));
  EXPECT_TRUE(ring.try_append(make_sample(2, {0x2000})));
  EXPECT_FALSE(ring.try_append(make_sample(3, {0x3000})));
  EXPECT_FALSE(ring.try_append(make_sample(4, {0x4000})));
  EXPECT_EQ(ring.samples(), 2u);
  EXPECT_EQ(ring.dropped(), 2u);
}

TEST(SampleRing, ZeroDepthSampleIsDropped) {
  SampleRing ring(64);
  RawSample empty;
  empty.ns = 5;
  EXPECT_FALSE(ring.try_append(empty));
  EXPECT_EQ(ring.samples(), 0u);
  EXPECT_EQ(ring.dropped(), 1u);
}

TEST(Symbolize, UnsymbolizablePcFallsBackToHex) {
  // Page 1 is never mapped; dladdr must fail and the hex form keeps the
  // frame in the fold instead of losing it.
  EXPECT_EQ(symbolize_pc(0x1000, /*adjust_return_address=*/false),
            "[0x1000]");
  // Return-address adjustment applies before formatting.
  EXPECT_EQ(symbolize_pc(0x1001, /*adjust_return_address=*/true),
            "[0x1000]");
}

TEST(Symbolize, ResolvesExportedSymbol) {
  const std::string name = symbolize_pc(
      reinterpret_cast<std::uintptr_t>(&marcopolo_profiler_test_hotspot) + 1,
      /*adjust_return_address=*/false);
  EXPECT_EQ(name, "marcopolo_profiler_test_hotspot");
}

RawProfile synthetic_profile() {
  // Two threads; all PCs unsymbolizable so names are deterministic hex.
  // Leaf-first frames: {leaf, caller_ret, root_ret}; return addresses
  // carry +1 so the symbolizer's -1 adjustment lands on round numbers.
  RawProfile raw;
  raw.hz = 997;
  raw.available = true;
  ThreadSamples t0;
  t0.thread_id = 0;
  t0.samples.push_back(make_sample(100, {0x1000, 0x2001, 0x3001}));
  t0.samples.push_back(make_sample(200, {0x1000, 0x2001, 0x3001}));
  t0.samples.push_back(make_sample(300, {0x2000, 0x3001}));
  ThreadSamples t1;
  t1.thread_id = 1;
  // Recursive stack: 0x1000 appears twice; total must count it once.
  t1.samples.push_back(
      make_sample(150, {0x1000, 0x1001, 0x3001}, /*truncated=*/true));
  t1.dropped = 4;
  raw.threads.push_back(t0);
  raw.threads.push_back(t1);
  return raw;
}

TEST(Symbolize, AggregatesSelfTotalAndFoldedStacks) {
  const CpuProfile profile = symbolize_profile(synthetic_profile());
  EXPECT_TRUE(profile.available);
  EXPECT_EQ(profile.hz, 997u);
  EXPECT_EQ(profile.samples, 4u);
  EXPECT_EQ(profile.dropped, 4u);
  EXPECT_EQ(profile.truncated, 1u);

  // Folded stacks are root-first and sorted lexically.
  ASSERT_EQ(profile.stacks.size(), 3u);
  EXPECT_EQ(profile.stacks[0].stack, "[0x3000];[0x1000];[0x1000]");
  EXPECT_EQ(profile.stacks[0].count, 1u);
  EXPECT_EQ(profile.stacks[1].stack, "[0x3000];[0x2000]");
  EXPECT_EQ(profile.stacks[1].count, 1u);
  EXPECT_EQ(profile.stacks[2].stack, "[0x3000];[0x2000];[0x1000]");
  EXPECT_EQ(profile.stacks[2].count, 2u);

  // Self sums to the sample count; recursion counts total once.
  std::uint64_t self_sum = 0;
  for (const HotSymbol& s : profile.symbols) self_sum += s.self;
  EXPECT_EQ(self_sum, profile.samples);
  ASSERT_FALSE(profile.symbols.empty());
  EXPECT_EQ(profile.symbols[0].name, "[0x1000]");
  EXPECT_EQ(profile.symbols[0].self, 3u);
  EXPECT_EQ(profile.symbols[0].total, 3u) << "recursive frame double-counted";
  for (const HotSymbol& s : profile.symbols) {
    if (s.name == "[0x3000]") {
      EXPECT_EQ(s.self, 0u);
      EXPECT_EQ(s.total, 4u);
    }
  }

  // Timeline events cover every sample, ordered (thread, ns), and index
  // valid stacks.
  ASSERT_EQ(profile.events.size(), 4u);
  for (std::size_t i = 1; i < profile.events.size(); ++i) {
    const SampleEvent& a = profile.events[i - 1];
    const SampleEvent& b = profile.events[i];
    EXPECT_TRUE(a.thread_id < b.thread_id ||
                (a.thread_id == b.thread_id && a.ns <= b.ns));
  }
  for (const SampleEvent& e : profile.events) {
    ASSERT_LT(e.stack, profile.stacks.size());
  }
}

TEST(Symbolize, UnavailableProfileStaysEmpty) {
  RawProfile raw;  // available defaults false
  const CpuProfile profile = symbolize_profile(raw);
  EXPECT_FALSE(profile.available);
  EXPECT_EQ(profile.samples, 0u);
  EXPECT_TRUE(profile.stacks.empty());
  EXPECT_TRUE(profile.symbols.empty());
}

TEST(Folded, WriterParserRoundTrip) {
  const CpuProfile profile = symbolize_profile(synthetic_profile());
  std::ostringstream out;
  write_folded_profile(out, profile);
  std::istringstream in(out.str());
  const FoldedProfile parsed = read_folded_profile(in);
  EXPECT_TRUE(parsed.ok()) << (parsed.problems.empty()
                                   ? ""
                                   : parsed.problems.front());
  EXPECT_EQ(parsed.total, profile.samples);
  ASSERT_EQ(parsed.stacks.size(), profile.stacks.size());
  for (std::size_t i = 0; i < parsed.stacks.size(); ++i) {
    EXPECT_EQ(parsed.stacks[i].first, profile.stacks[i].stack);
    EXPECT_EQ(parsed.stacks[i].second, profile.stacks[i].count);
  }
  // The parser's aggregated symbol table agrees with the symbolizer's.
  ASSERT_FALSE(parsed.symbols.empty());
  EXPECT_EQ(parsed.symbols[0].name, profile.symbols[0].name);
  EXPECT_EQ(parsed.symbols[0].self, profile.symbols[0].self);
  EXPECT_EQ(parsed.symbols[0].total, profile.symbols[0].total);
}

TEST(Folded, ParserReportsFormatBreaches) {
  const auto problems_of = [](const std::string& text) {
    std::istringstream in(text);
    return read_folded_profile(in).problems;
  };
  EXPECT_FALSE(problems_of("").empty()) << "empty file must not validate";
  EXPECT_FALSE(problems_of("a;b\n").empty()) << "missing count";
  EXPECT_FALSE(problems_of("a;b 0\n").empty()) << "zero count";
  EXPECT_FALSE(problems_of("a;b x\n").empty()) << "non-numeric count";
  // A count or a total past 2^64 would wrap and load as a wrong number.
  EXPECT_FALSE(problems_of("a;b 99999999999999999999\n").empty())
      << "count past 2^64";
  EXPECT_FALSE(problems_of("a 18446744073709551615\nb 1\n").empty())
      << "total past 2^64";
  EXPECT_FALSE(problems_of("a;;b 3\n").empty()) << "empty frame";
  EXPECT_FALSE(problems_of("a;b 2\n\na 1\n").empty()) << "blank line";
  EXPECT_TRUE(problems_of("a;b 2\nmain 1\n").empty());
  // Problems carry 1-based line numbers for direct CI output.
  const auto problems = problems_of("ok 1\nbad 0\n");
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("line 2"), std::string::npos) << problems[0];
}

TEST(ManifestProfile, RoundTripsThroughWriterAndReader) {
  const CpuProfile profile = symbolize_profile(synthetic_profile());
  RunManifest manifest("profiler_test");
  manifest.add_phase("work", 1.0);
  manifest.set_profile(profile);
  std::ostringstream out;
  manifest.write_json(out, MetricsSnapshot{});

  const ReadManifest read = ManifestReader::read_string(out.str());
  ASSERT_TRUE(read.ok()) << (read.errors.empty() ? "" : read.errors[0]);
  ASSERT_TRUE(read.has_profile);
  EXPECT_EQ(read.profile.hz, 997u);
  EXPECT_EQ(read.profile.samples, 4u);
  EXPECT_EQ(read.profile.dropped, 4u);
  EXPECT_EQ(read.profile.truncated, 1u);
  ASSERT_FALSE(read.profile.symbols.empty());
  EXPECT_EQ(read.profile.symbols[0].name, "[0x1000]");
  EXPECT_EQ(read.profile.symbols[0].self, 3u);
}

TEST(ManifestProfile, PreProfilerManifestsStillParse) {
  // Backward compat: a manifest written before the profiler existed has
  // no "profile" key and must read back with has_profile == false.
  RunManifest manifest("old_tool");
  manifest.add_phase("work", 1.0);
  std::ostringstream out;
  manifest.write_json(out, MetricsSnapshot{});
  EXPECT_EQ(out.str().find("\"profile\""), std::string::npos);

  const ReadManifest read = ManifestReader::read_string(out.str());
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read.has_profile);
  EXPECT_EQ(read.profile.samples, 0u);
}

TEST(ManifestProfile, UnknownProfileFieldsAreIgnored) {
  // Forward compat: a future writer may add fields to the profile
  // section; today's reader must skip them without erroring.
  const std::string doc = R"({
    "manifest_schema": 1,
    "tool": "future",
    "config": {},
    "phases": [],
    "profile": {"hz": 500, "samples": 7, "dropped": 0, "truncated": 0,
                "flavor": "spicy",
                "symbols": [{"name": "f", "self": 7, "total": 7,
                             "color": "red"}]},
    "metrics": {"counters": {}, "histograms": []}
  })";
  const ReadManifest read = ManifestReader::read_string(doc);
  ASSERT_TRUE(read.ok()) << (read.errors.empty() ? "" : read.errors[0]);
  ASSERT_TRUE(read.has_profile);
  EXPECT_EQ(read.profile.hz, 500u);
  EXPECT_EQ(read.profile.samples, 7u);
  ASSERT_EQ(read.profile.symbols.size(), 1u);
  EXPECT_EQ(read.profile.symbols[0].name, "f");
}

std::string manifest_with_profile(const char* tool,
                                  const CpuProfile& profile) {
  RunManifest manifest(tool);
  manifest.add_phase("work", 1.0);
  manifest.set_profile(profile);
  std::ostringstream out;
  manifest.write_json(out, MetricsSnapshot{});
  return out.str();
}

TEST(HotSymbolDiff, RanksPlantedRiserFirst) {
  // Synthetic regression: "steady" holds 50% in both runs, "planted"
  // grows from 5% to 45%. The diff must put the riser first regardless
  // of differing sample totals.
  CpuProfile base;
  base.hz = 997;
  base.available = true;
  base.samples = 100;
  base.symbols = {{"steady", 50, 100}, {"other", 45, 45}, {"planted", 5, 5}};
  CpuProfile cand;
  cand.hz = 997;
  cand.available = true;
  cand.samples = 200;
  cand.symbols = {{"steady", 100, 200}, {"planted", 90, 90},
                  {"other", 10, 10}};

  const ReadManifest base_read =
      ManifestReader::read_string(manifest_with_profile("base", base));
  const ReadManifest cand_read =
      ManifestReader::read_string(manifest_with_profile("cand", cand));
  ASSERT_TRUE(base_read.ok());
  ASSERT_TRUE(cand_read.ok());

  const RunComparison comparison = compare_runs(base_read, cand_read);
  ASSERT_TRUE(comparison.base_has_profile);
  ASSERT_TRUE(comparison.cand_has_profile);
  EXPECT_EQ(comparison.base_profile_samples, 100u);
  EXPECT_EQ(comparison.cand_profile_samples, 200u);
  ASSERT_FALSE(comparison.hot_symbols.empty());
  EXPECT_EQ(comparison.hot_symbols[0].name, "planted");
  EXPECT_NEAR(comparison.hot_symbols[0].share_delta_pp(), 40.0, 1e-9);
  // Shares are per-run fractions, not raw counts, so the 2x sample total
  // cancels out.
  EXPECT_NEAR(comparison.hot_symbols.back().share_delta_pp(), -40.0, 1e-9)
      << "the faller ('other') belongs at the bottom";
}

TEST(TraceExport, SampleSectionsOnlyWithProfileData) {
  // A null/empty profile leaves trace.json byte-identical to the
  // pre-profiler format; real samples add stackFrames + samples.
  FlightJournal journal;
  std::ostringstream without;
  write_chrome_trace(without, journal, nullptr);
  CpuProfile empty;
  empty.available = true;  // available but zero samples
  std::ostringstream with_empty;
  write_chrome_trace(with_empty, journal, &empty);
  EXPECT_EQ(without.str(), with_empty.str());

  const CpuProfile profile = symbolize_profile(synthetic_profile());
  std::ostringstream with_samples;
  write_chrome_trace(with_samples, journal, &profile);
  EXPECT_NE(with_samples.str().find("\"stackFrames\""), std::string::npos);
  EXPECT_NE(with_samples.str().find("\"samples\""), std::string::npos);
  EXPECT_NE(with_samples.str().find("cpu_sample"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Live profiler tests — need a host that can arm per-thread CPU timers.

TEST(SamplingProfiler, ProbeReasonIsStableWhenUnavailable) {
  if (SamplingProfiler::probe()) {
    EXPECT_TRUE(SamplingProfiler::probe_reason().empty());
  } else {
    EXPECT_FALSE(SamplingProfiler::probe_reason().empty());
    SamplingProfiler profiler;
    EXPECT_FALSE(profiler.available());
    // Unavailable profilers drain to an unavailable profile: downstream
    // consumers emit nothing, matching a null profiler byte for byte.
    const RawProfile raw = profiler.drain();
    EXPECT_FALSE(raw.available);
    EXPECT_EQ(raw.sample_count(), 0u);
  }
}

TEST(SamplingProfiler, InjectedHotspotDominatesProfile) {
  if (!SamplingProfiler::probe()) {
    GTEST_SKIP() << "profiler unavailable: "
                 << SamplingProfiler::probe_reason();
  }
  SamplingProfiler profiler(1997);  // high rate keeps the test short
  ASSERT_TRUE(profiler.available()) << profiler.unavailable_reason();

  std::thread worker([&profiler] {
    ProfiledThread guard(&profiler);
    // ~150ms of CPU on typical hardware — thousands of samples at 2kHz.
    (void)marcopolo_profiler_test_hotspot(80'000'000);
  });
  worker.join();

  const CpuProfile profile = symbolize_profile(profiler.drain());
  ASSERT_TRUE(profile.available);
  ASSERT_GT(profile.samples, 20u)
      << "a 150ms spin at 1997 Hz must collect real samples";
  ASSERT_FALSE(profile.symbols.empty());
  // The spin loop must dominate self time — and thanks to ENABLE_EXPORTS
  // its name must symbolize, not fall back to hex.
  EXPECT_EQ(profile.symbols[0].name, "marcopolo_profiler_test_hotspot")
      << "hottest symbol was " << profile.symbols[0].name;
  EXPECT_GT(static_cast<double>(profile.symbols[0].self) /
                static_cast<double>(profile.samples),
            0.5);
}

TEST(SamplingProfiler, DiffRanksInjectedHotspotFirst) {
  // The end-to-end acceptance path: profile a mild run and a run with a
  // planted hot function, write both as manifests, and assert the diff's
  // hot-symbol ranking names the plant.
  if (!SamplingProfiler::probe()) {
    GTEST_SKIP() << "profiler unavailable: "
                 << SamplingProfiler::probe_reason();
  }
  const auto profiled_run = [](bool with_hotspot) {
    SamplingProfiler profiler(1997);
    std::thread worker([&profiler, with_hotspot] {
      ProfiledThread guard(&profiler);
      (void)marcopolo_profiler_test_mild(150'000'000);
      if (with_hotspot) {
        (void)marcopolo_profiler_test_hotspot(120'000'000);
      }
    });
    worker.join();
    return symbolize_profile(profiler.drain());
  };
  const CpuProfile base = profiled_run(false);
  const CpuProfile cand = profiled_run(true);
  ASSERT_GT(base.samples, 10u);
  ASSERT_GT(cand.samples, 10u);

  const ReadManifest base_read =
      ManifestReader::read_string(manifest_with_profile("base", base));
  const ReadManifest cand_read =
      ManifestReader::read_string(manifest_with_profile("cand", cand));
  ASSERT_TRUE(base_read.has_profile);
  ASSERT_TRUE(cand_read.has_profile);

  const RunComparison comparison = compare_runs(base_read, cand_read);
  ASSERT_FALSE(comparison.hot_symbols.empty());
  EXPECT_EQ(comparison.hot_symbols[0].name,
            "marcopolo_profiler_test_hotspot")
      << "diff must attribute the regression to the planted symbol; got "
      << comparison.hot_symbols[0].name << " (+"
      << comparison.hot_symbols[0].share_delta_pp() << "pp)";
}

TEST(SamplingProfiler, DrainWhileTimerArmedElsewhereIsSafe) {
  // drain() after guards die, immediately re-attach, drain again: the
  // second profile must only contain the second attachment's rings.
  if (!SamplingProfiler::probe()) {
    GTEST_SKIP() << "profiler unavailable: "
                 << SamplingProfiler::probe_reason();
  }
  SamplingProfiler profiler(1997);
  {
    ProfiledThread guard(&profiler);
    (void)marcopolo_profiler_test_hotspot(20'000'000);
  }
  const RawProfile first = profiler.drain();
  {
    ProfiledThread guard(&profiler);
    (void)marcopolo_profiler_test_hotspot(20'000'000);
  }
  const RawProfile second = profiler.drain();
  EXPECT_TRUE(first.available);
  EXPECT_TRUE(second.available);
  ASSERT_LE(second.threads.size(), 1u)
      << "drain must reset the ring set";
}

}  // namespace
}  // namespace marcopolo::obs
