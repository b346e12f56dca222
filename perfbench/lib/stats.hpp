// Summary statistics, digests and result formatting for the benchmark
// driver. Everything here is pure and unit-tested (tests/perfbench_tests.cpp).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Median with the even-count rule (mean of the two middle values).
/// Returns 0 for an empty input.
[[nodiscard]] double median(std::vector<double> values);

/// A tail latency: the value at the highest percentile that still has
/// `kTailBeyond` samples above it, with that percentile and the sample
/// count it was taken from.
struct TailStat {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};

inline constexpr std::size_t kTailBeyond = 10;
/// Below this many samples no tail is reported at all.
inline constexpr std::size_t kMinTailSamples = 20;

/// Percentile rank (0-100) of the value that has exactly `kTailBeyond`
/// samples beyond it in a sorted list of `samples` values.
[[nodiscard]] double tail_percentile(std::size_t samples);

/// Tail of `values` by the rule above; nullopt below kMinTailSamples.
[[nodiscard]] std::optional<TailStat> tail_stat(std::vector<double> values);

/// Log-linear histogram of nanosecond durations: exact below 64 ns, then
/// 64 buckets per power of two (under 1.6% relative error). Used where
/// the benchmark times millions of short calls and cannot keep samples.
class LogHistogram {
 public:
  void add(std::uint64_t ns) { ++buckets_[bucket_of(ns)]; ++count_; }
  void merge(const LogHistogram& other);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// Representative value (bucket midpoint) of the sample at 0-based
  /// rank `rank` in ascending order; requires rank < count().
  [[nodiscard]] double value_at_rank(std::uint64_t rank) const;
  /// Median (lower middle rank); 0 when empty.
  [[nodiscard]] double median() const;
  /// Same rule as tail_stat(); nullopt below kMinTailSamples.
  [[nodiscard]] std::optional<TailStat> tail() const;

  [[nodiscard]] static std::size_t bucket_of(std::uint64_t ns);
  [[nodiscard]] static double bucket_mid(std::size_t bucket);

 private:
  static constexpr std::size_t kSubBits = 6;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = kSub + (64 - kSubBits) * kSub;
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
};

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// 64-bit FNV-1a over `bytes`, continuing from `hash`.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes,
                                  std::uint64_t hash = kFnvOffset);

/// Metric names are `[A-Za-z0-9_.-]+`, start with a letter or digit and
/// are at most 64 characters long.
[[nodiscard]] bool valid_metric_name(std::string_view name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Shortest decimal text that reads back as exactly `value`; non-finite
/// values (which JSON cannot carry) print as 0.
[[nodiscard]] std::string format_number(double value);

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
[[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const std::vector<Metric>& metrics);

}  // namespace perfbench
