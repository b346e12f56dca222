#include "stats.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <sstream>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n % 2 == 1) return values[n / 2];
  return (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double tail_percentile(std::size_t samples) {
  if (samples <= kTailBeyond) return 0.0;
  return 100.0 * static_cast<double>(samples - kTailBeyond) /
         static_cast<double>(samples);
}

std::optional<TailStat> tail_stat(std::vector<double> values) {
  const std::size_t n = values.size();
  if (n < kMinTailSamples) return std::nullopt;
  std::sort(values.begin(), values.end());
  return TailStat{values[n - 1 - kTailBeyond], tail_percentile(n), n};
}

std::size_t LogHistogram::bucket_of(std::uint64_t ns) {
  if (ns < kSub) return static_cast<std::size_t>(ns);
  const auto octave = static_cast<std::size_t>(std::bit_width(ns) - 1);
  const auto sub =
      static_cast<std::size_t>((ns >> (octave - kSubBits)) & (kSub - 1));
  return kSub + (octave - kSubBits) * kSub + sub;
}

double LogHistogram::bucket_mid(std::size_t bucket) {
  if (bucket < kSub) return static_cast<double>(bucket);
  const std::size_t octave = (bucket - kSub) / kSub + kSubBits;
  const std::size_t sub = (bucket - kSub) % kSub;
  const double width = std::ldexp(1.0, static_cast<int>(octave - kSubBits));
  const double lo = std::ldexp(1.0, static_cast<int>(octave)) +
                    static_cast<double>(sub) * width;
  return lo + width / 2.0;
}

void LogHistogram::merge(const LogHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LogHistogram::value_at_rank(std::uint64_t rank) const {
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen > rank) return bucket_mid(i);
  }
  return 0.0;
}

double LogHistogram::median() const {
  if (count_ == 0) return 0.0;
  return value_at_rank((count_ - 1) / 2);
}

std::optional<TailStat> LogHistogram::tail() const {
  if (count_ < kMinTailSamples) return std::nullopt;
  return TailStat{value_at_rank(count_ - 1 - kTailBeyond),
                  tail_percentile(static_cast<std::size_t>(count_)),
                  static_cast<std::size_t>(count_)};
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

std::string format_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
        << format_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
