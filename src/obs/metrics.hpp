// Sharded metrics: named counters and log-bucketed histograms whose hot
// path is a relaxed atomic add into a per-thread shard.
//
// Design (BIRD-style uniform counters, adapted for lock-free writers):
//   - A MetricsRegistry interns metric names to dense ids. Handles
//     (Counter, Histogram) are {registry, id} pairs, cheap to copy and
//     null-safe: a default-constructed handle drops every update, so
//     instrumented code needs no "is observability on?" branches beyond
//     the one inside the handle.
//   - Every writer thread gets its own shard per registry. An update
//     touches only the calling thread's shard — no lock, no shared cache
//     line — which is what keeps the parallel campaign's workers
//     independent and the ResultStore byte-identical across thread
//     counts with metrics on or off.
//   - snapshot() merges all shards under the registry mutex. Shards
//     outlive their threads (the registry owns them), so counts from
//     joined campaign workers are never lost.
//
// Totals are therefore exact and deterministic for deterministic
// workloads: the merge is a sum, and addition commutes across any
// worker-to-shard assignment.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace marcopolo::obs {

class MetricsRegistry;

/// Monotonic named counter handle. Null (default-constructed) handles
/// discard updates.
class Counter {
 public:
  Counter() = default;

  void add(std::uint64_t delta = 1) const;
  explicit operator bool() const { return registry_ != nullptr; }

 private:
  friend class MetricsRegistry;
  Counter(MetricsRegistry* registry, std::size_t id)
      : registry_(registry), id_(id) {}

  MetricsRegistry* registry_ = nullptr;
  std::size_t id_ = 0;
};

/// Log2-bucketed histogram handle over non-negative integer samples
/// (typically nanoseconds or sizes). Sample v lands in the bucket whose
/// upper bound is the smallest 2^k - 1 >= v; bucket boundaries are thus
/// {0, 1, 3, 7, 15, ...}. Null handles discard updates.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;  // bit_width(v) in [0, 64]

  Histogram() = default;

  void observe(std::uint64_t value) const;
  explicit operator bool() const { return registry_ != nullptr; }

 private:
  friend class MetricsRegistry;
  Histogram(MetricsRegistry* registry, std::size_t id)
      : registry_(registry), id_(id) {}

  MetricsRegistry* registry_ = nullptr;
  std::size_t id_ = 0;
};

/// Merged view of one histogram.
struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  ///< Meaningful only when count > 0.
  std::uint64_t max = 0;
  /// Non-empty buckets only, ascending: {inclusive upper bound, count}.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;

  /// Estimated q-quantile by linear interpolation inside the log2
  /// bucket holding the target rank: bucket with upper bound `le` covers
  /// (le >> 1, le]. Documented edge behavior (locked by tests, relied on
  /// by `mpinspect diff`): empty histogram -> 0; q outside [0, 1] is
  /// clamped (so q<=0 -> min, q>=1 -> max); NaN q -> 0; every estimate
  /// is clamped to the observed [min, max].
  [[nodiscard]] double quantile(double q) const;
};

/// Merged view of a whole registry, sorted by name (deterministic output
/// order for manifests and tests).
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<HistogramSnapshot> histograms;

  /// Counter value by name; 0 if absent.
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
  /// Histogram by name; nullptr if absent. The pointer aims into this
  /// snapshot, so calling it on a temporary would dangle at the end of the
  /// full-expression: bind the snapshot to a local first.
  [[nodiscard]] const HistogramSnapshot* histogram(
      std::string_view name) const&;
  const HistogramSnapshot* histogram(std::string_view name) && = delete;
};

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Intern `name` (idempotent) and return a live handle.
  [[nodiscard]] Counter counter(std::string_view name);
  [[nodiscard]] Histogram histogram(std::string_view name);

  /// Convenience for null-safe call sites: handles from a null registry
  /// pointer are null handles.
  [[nodiscard]] static Counter counter(MetricsRegistry* registry,
                                       std::string_view name) {
    return registry == nullptr ? Counter{} : registry->counter(name);
  }
  [[nodiscard]] static Histogram histogram(MetricsRegistry* registry,
                                           std::string_view name) {
    return registry == nullptr ? Histogram{} : registry->histogram(name);
  }

  /// Merge every shard (including those of joined threads) into one view.
  /// Safe to call while writer threads register metrics, spawn shards,
  /// and update concurrently (the telemetry hub scrapes mid-run on every
  /// tick): totals are sums of monotone per-shard values, so a live
  /// scrape is tick-consistent — it may lag in-flight updates but never
  /// loses or invents counts. Exact cross-metric consistency holds once
  /// writers have quiesced.
  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  friend class Counter;
  friend class Histogram;

  struct HistogramShard {
    std::array<std::atomic<std::uint64_t>, Histogram::kBuckets> buckets{};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{~std::uint64_t{0}};
    std::atomic<std::uint64_t> max{0};
  };

  /// One writer thread's slice of every metric. Deques: growth when a new
  /// metric is interned never moves existing atomics, so the owning
  /// thread's lock-free updates stay valid across registration.
  struct Shard {
    std::mutex grow_mutex;  ///< Held to resize; update paths never take it.
    std::deque<std::atomic<std::uint64_t>> counters;
    std::deque<HistogramShard> histograms;
  };

  void counter_add(std::size_t id, std::uint64_t delta);
  void histogram_observe(std::size_t id, std::uint64_t value);
  [[nodiscard]] Shard& local_shard();

  const std::uint64_t uid_;  ///< Never-reused key for thread-local lookup.

  mutable std::shared_mutex names_mutex_;
  std::unordered_map<std::string, std::size_t> counter_ids_;
  std::vector<std::string> counter_names_;
  std::unordered_map<std::string, std::size_t> histogram_ids_;
  std::vector<std::string> histogram_names_;

  mutable std::mutex shards_mutex_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

inline void Counter::add(std::uint64_t delta) const {
  if (registry_ != nullptr) registry_->counter_add(id_, delta);
}

inline void Histogram::observe(std::uint64_t value) const {
  if (registry_ != nullptr) registry_->histogram_observe(id_, value);
}

}  // namespace marcopolo::obs
