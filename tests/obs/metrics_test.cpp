// Contract of the sharded metrics registry: null handles drop updates,
// bucket boundaries follow 2^k - 1, and the shard merge is a sum —
// totals must be identical for any worker count executing the same
// logical workload (the property the campaign's byte-determinism
// invariant extends to its telemetry).
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace marcopolo::obs {
namespace {

TEST(Metrics, CounterAccumulates) {
  MetricsRegistry reg;
  Counter c = reg.counter("test.counter");
  c.add();
  c.add(41);
  EXPECT_EQ(reg.snapshot().counter("test.counter"), 42u);
}

TEST(Metrics, InterningIsIdempotent) {
  MetricsRegistry reg;
  Counter a = reg.counter("same.name");
  Counter b = reg.counter("same.name");
  a.add(1);
  b.add(2);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("same.name"), 3u);
  EXPECT_EQ(snap.counters.size(), 1u);
}

TEST(Metrics, NullHandlesDropUpdates) {
  Counter null_counter;
  Histogram null_histogram;
  EXPECT_FALSE(static_cast<bool>(null_counter));
  EXPECT_FALSE(static_cast<bool>(null_histogram));
  // Must not crash or touch any registry.
  null_counter.add(7);
  null_histogram.observe(7);

  // The null-safe static helpers produce null handles for null registries.
  Counter c = MetricsRegistry::counter(nullptr, "x");
  Histogram h = MetricsRegistry::histogram(nullptr, "y");
  EXPECT_FALSE(static_cast<bool>(c));
  EXPECT_FALSE(static_cast<bool>(h));
  c.add();
  h.observe(1);
}

TEST(Metrics, SnapshotOfUnknownNameIsZero) {
  MetricsRegistry reg;
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("never.registered"), 0u);
  EXPECT_EQ(snap.histogram("never.registered"), nullptr);
}

TEST(Metrics, HistogramBucketBoundaries) {
  // Bucket upper bounds are 2^bit_width(v) - 1: observing v puts it in
  // the bucket with the smallest le >= v from {0, 1, 3, 7, 15, ...}.
  MetricsRegistry reg;
  Histogram h = reg.histogram("test.hist");
  h.observe(0);  // le = 0
  h.observe(1);  // le = 1
  h.observe(2);  // le = 3
  h.observe(3);  // le = 3
  h.observe(4);  // le = 7
  h.observe(7);  // le = 7
  h.observe(8);  // le = 15
  h.observe(1023);  // le = 1023
  h.observe(1024);  // le = 2047

  const MetricsSnapshot snap = reg.snapshot();
  const HistogramSnapshot* s = snap.histogram("test.hist");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 9u);
  EXPECT_EQ(s->sum, 0u + 1 + 2 + 3 + 4 + 7 + 8 + 1023 + 1024);
  EXPECT_EQ(s->min, 0u);
  EXPECT_EQ(s->max, 1024u);

  const std::vector<std::pair<std::uint64_t, std::uint64_t>> expected = {
      {0, 1}, {1, 1}, {3, 2}, {7, 2}, {15, 1}, {1023, 1}, {2047, 1}};
  EXPECT_EQ(s->buckets, expected);
}

TEST(Metrics, HistogramExtremeValues) {
  MetricsRegistry reg;
  Histogram h = reg.histogram("test.extreme");
  const std::uint64_t huge = ~std::uint64_t{0};
  h.observe(huge);
  const MetricsSnapshot snap = reg.snapshot();
  const HistogramSnapshot* s = snap.histogram("test.extreme");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->buckets.size(), 1u);
  EXPECT_EQ(s->buckets[0].first, huge);  // top bucket le saturates at 2^64-1
  EXPECT_EQ(s->min, huge);
  EXPECT_EQ(s->max, huge);
}

TEST(Metrics, EmptyHistogramHasZeroMin) {
  MetricsRegistry reg;
  (void)reg.histogram("test.empty");
  const MetricsSnapshot snap = reg.snapshot();
  const HistogramSnapshot* s = snap.histogram("test.empty");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 0u);
  EXPECT_EQ(s->min, 0u);
  EXPECT_EQ(s->max, 0u);
  EXPECT_TRUE(s->buckets.empty());
}

TEST(Metrics, SnapshotIsSortedByName) {
  MetricsRegistry reg;
  reg.counter("zebra").add(1);
  reg.counter("alpha").add(1);
  reg.counter("mid").add(1);
  reg.histogram("z.hist").observe(1);
  reg.histogram("a.hist").observe(1);
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].first, "alpha");
  EXPECT_EQ(snap.counters[1].first, "mid");
  EXPECT_EQ(snap.counters[2].first, "zebra");
  ASSERT_EQ(snap.histograms.size(), 2u);
  EXPECT_EQ(snap.histograms[0].name, "a.hist");
  EXPECT_EQ(snap.histograms[1].name, "z.hist");
}

/// Run `total_updates` counter increments and histogram observations
/// split across `n_threads` workers, and return the merged snapshot.
/// The logical workload is identical for every thread count.
MetricsSnapshot run_sharded_workload(std::size_t n_threads) {
  MetricsRegistry reg;
  Counter c = reg.counter("work.items");
  Histogram h = reg.histogram("work.latency");
  constexpr std::size_t kTotal = 4096;

  std::vector<std::thread> pool;
  pool.reserve(n_threads);
  for (std::size_t t = 0; t < n_threads; ++t) {
    pool.emplace_back([&, t] {
      // Static partition of the same global iteration space.
      for (std::size_t i = t; i < kTotal; i += n_threads) {
        c.add(1);
        h.observe(i % 1000);
      }
    });
  }
  for (auto& th : pool) th.join();
  return reg.snapshot();
}

TEST(Metrics, ShardMergeIsThreadCountInvariant) {
  // The acceptance property: merged totals are a pure function of the
  // logical workload, not of how many shards it was spread over. Threads
  // join before snapshot(), and shards outlive their threads.
  const MetricsSnapshot serial = run_sharded_workload(1);
  for (const std::size_t threads : {4u, 64u}) {
    const MetricsSnapshot parallel = run_sharded_workload(threads);
    EXPECT_EQ(parallel.counter("work.items"), serial.counter("work.items"))
        << "threads=" << threads;
    const HistogramSnapshot* a = serial.histogram("work.latency");
    const HistogramSnapshot* b = parallel.histogram("work.latency");
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->count, a->count) << "threads=" << threads;
    EXPECT_EQ(b->sum, a->sum) << "threads=" << threads;
    EXPECT_EQ(b->min, a->min) << "threads=" << threads;
    EXPECT_EQ(b->max, a->max) << "threads=" << threads;
    EXPECT_EQ(b->buckets, a->buckets) << "threads=" << threads;
  }
}

TEST(Metrics, ShardsSurviveThreadExit) {
  // Counts written by a thread that has already joined must appear in a
  // later snapshot (the registry owns the shards, not the threads).
  MetricsRegistry reg;
  Counter c = reg.counter("ephemeral.thread");
  std::thread worker([&] { c.add(123); });
  worker.join();
  EXPECT_EQ(reg.snapshot().counter("ephemeral.thread"), 123u);
}

TEST(Metrics, DistinctRegistriesAreIsolated) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.counter("shared.name").add(1);
  b.counter("shared.name").add(10);
  EXPECT_EQ(a.snapshot().counter("shared.name"), 1u);
  EXPECT_EQ(b.snapshot().counter("shared.name"), 10u);
}

TEST(Metrics, SnapshotUnderInterningChurnIsMonotone) {
  // The telemetry hub scrapes mid-run: snapshot() must stay race-free
  // (TSan runs this in CI) and every counter must read as a monotone sum
  // while worker threads intern new series and bump existing ones. A
  // scrape racing an add() may land on either tick — but a value must
  // never decrease between successive scrapes.
  MetricsRegistry reg;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&reg, &stop, t] {
      Counter mine = reg.counter("churn.fixed." + std::to_string(t));
      for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        mine.add(1);
        // Interning churn: new names force shard growth under the
        // scraper's feet.
        reg.counter("churn.fresh." + std::to_string(t) + "." +
                     std::to_string(i % 257))
            .add(1);
        reg.histogram("churn.hist." + std::to_string(t)).observe(
            static_cast<std::uint64_t>(i % 1024));
      }
    });
  }

  std::uint64_t prev_total = 0;
  std::size_t prev_series = 0;
  for (int scrape = 0; scrape < 50; ++scrape) {
    const MetricsSnapshot snap = reg.snapshot();
    std::uint64_t total = 0;
    for (const auto& [name, value] : snap.counters) total += value;
    EXPECT_GE(total, prev_total) << "counter sum went backwards";
    EXPECT_GE(snap.counters.size(), prev_series) << "series vanished";
    prev_total = total;
    prev_series = snap.counters.size();
  }
  stop.store(true);
  for (std::thread& w : writers) w.join();

  // Quiesced: the fixed counters hold exactly what their writers added.
  const MetricsSnapshot final_snap = reg.snapshot();
  std::uint64_t fixed = 0;
  for (int t = 0; t < 4; ++t) {
    fixed += final_snap.counter("churn.fixed." + std::to_string(t));
  }
  std::uint64_t fresh = 0;
  for (const auto& [name, value] : final_snap.counters) {
    if (name.rfind("churn.fresh.", 0) == 0) fresh += value;
  }
  EXPECT_EQ(fixed, fresh) << "one fixed and one fresh bump per iteration";
}

}  // namespace
}  // namespace marcopolo::obs
