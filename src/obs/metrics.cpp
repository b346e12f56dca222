#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace marcopolo::obs {

namespace {

std::uint64_t next_registry_uid() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// Thread-local cache mapping registry uid -> this thread's shard. The
/// registry owns the shard; the cache only holds a borrowed pointer keyed
/// by a never-reused uid, so entries for destroyed registries are inert.
struct TlsShardCache {
  std::vector<std::pair<std::uint64_t, void*>> entries;

  [[nodiscard]] void* find(std::uint64_t uid) const {
    for (const auto& [key, shard] : entries) {
      if (key == uid) return shard;
    }
    return nullptr;
  }
};

TlsShardCache& tls_cache() {
  thread_local TlsShardCache cache;
  return cache;
}

/// Relaxed atomic max/min (no CAS loop precision needed beyond this).
void atomic_max(std::atomic<std::uint64_t>& slot, std::uint64_t v) {
  std::uint64_t cur = slot.load(std::memory_order_relaxed);
  while (cur < v &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<std::uint64_t>& slot, std::uint64_t v) {
  std::uint64_t cur = slot.load(std::memory_order_relaxed);
  while (cur > v &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

std::uint64_t MetricsSnapshot::counter(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  if (std::isnan(q)) return 0.0;  // NaN never selects a rank.
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target sample (1-based, midpoint convention).
  const double rank = q * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (const auto& [le, bucket_count] : buckets) {
    const std::uint64_t after = seen + bucket_count;
    if (static_cast<double>(after) >= rank) {
      // Bucket with inclusive upper bound `le` covers (le >> 1, le].
      const double lo = static_cast<double>(le >> 1);
      const double hi = static_cast<double>(le);
      const double frac =
          bucket_count == 0
              ? 1.0
              : (rank - static_cast<double>(seen)) /
                    static_cast<double>(bucket_count);
      const double est = lo + frac * (hi - lo);
      return std::clamp(est, static_cast<double>(min),
                        static_cast<double>(max));
    }
    seen = after;
  }
  return static_cast<double>(max);
}

const HistogramSnapshot* MetricsSnapshot::histogram(
    std::string_view name) const& {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

MetricsRegistry::MetricsRegistry() : uid_(next_registry_uid()) {}

MetricsRegistry::~MetricsRegistry() = default;

Counter MetricsRegistry::counter(std::string_view name) {
  {
    std::shared_lock lock(names_mutex_);
    if (const auto it = counter_ids_.find(std::string(name));
        it != counter_ids_.end()) {
      return Counter(this, it->second);
    }
  }
  std::unique_lock lock(names_mutex_);
  const auto [it, inserted] =
      counter_ids_.try_emplace(std::string(name), counter_names_.size());
  if (inserted) counter_names_.emplace_back(name);
  return Counter(this, it->second);
}

Histogram MetricsRegistry::histogram(std::string_view name) {
  {
    std::shared_lock lock(names_mutex_);
    if (const auto it = histogram_ids_.find(std::string(name));
        it != histogram_ids_.end()) {
      return Histogram(this, it->second);
    }
  }
  std::unique_lock lock(names_mutex_);
  const auto [it, inserted] =
      histogram_ids_.try_emplace(std::string(name), histogram_names_.size());
  if (inserted) histogram_names_.emplace_back(name);
  return Histogram(this, it->second);
}

MetricsRegistry::Shard& MetricsRegistry::local_shard() {
  TlsShardCache& cache = tls_cache();
  if (void* hit = cache.find(uid_)) return *static_cast<Shard*>(hit);
  auto owned = std::make_unique<Shard>();
  Shard* shard = owned.get();
  {
    std::scoped_lock lock(shards_mutex_);
    shards_.push_back(std::move(owned));
  }
  cache.entries.emplace_back(uid_, shard);
  return *shard;
}

void MetricsRegistry::counter_add(std::size_t id, std::uint64_t delta) {
  Shard& shard = local_shard();
  if (id >= shard.counters.size()) {
    // Growth is owner-only and guarded against concurrent snapshot reads;
    // deque growth never moves the atomics already being updated.
    std::scoped_lock lock(shard.grow_mutex);
    while (shard.counters.size() <= id) shard.counters.emplace_back(0);
  }
  shard.counters[id].fetch_add(delta, std::memory_order_relaxed);
}

void MetricsRegistry::histogram_observe(std::size_t id, std::uint64_t value) {
  Shard& shard = local_shard();
  if (id >= shard.histograms.size()) {
    std::scoped_lock lock(shard.grow_mutex);
    while (shard.histograms.size() <= id) shard.histograms.emplace_back();
  }
  HistogramShard& h = shard.histograms[id];
  const auto bucket = static_cast<std::size_t>(std::bit_width(value));
  h.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  h.sum.fetch_add(value, std::memory_order_relaxed);
  atomic_min(h.min, value);
  atomic_max(h.max, value);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  std::vector<std::string> counter_names;
  std::vector<std::string> histogram_names;
  {
    std::shared_lock lock(names_mutex_);
    counter_names = counter_names_;
    histogram_names = histogram_names_;
  }
  std::vector<std::uint64_t> counter_totals(counter_names.size(), 0);
  struct HistTotal {
    std::array<std::uint64_t, Histogram::kBuckets> buckets{};
    std::uint64_t sum = 0;
    std::uint64_t min = ~std::uint64_t{0};
    std::uint64_t max = 0;
  };
  std::vector<HistTotal> hist_totals(histogram_names.size());

  {
    std::scoped_lock shards_lock(shards_mutex_);
    for (const auto& shard : shards_) {
      // Excludes concurrent owner-side growth; concurrent relaxed updates
      // to existing slots are fine. Live scrapes (the telemetry hub ticks
      // while workers run) therefore race-free: every value read is one
      // some writer actually stored, and since all series are monotone
      // sums, a mid-update read only shifts work between adjacent ticks —
      // never loses or invents it. Cross-metric consistency (counter A
      // seen with counter B's matching value) is only guaranteed once
      // writers have quiesced, which end-of-run callers ensure.
      std::scoped_lock grow_lock(shard->grow_mutex);
      const std::size_t nc =
          std::min(counter_totals.size(), shard->counters.size());
      for (std::size_t i = 0; i < nc; ++i) {
        counter_totals[i] +=
            shard->counters[i].load(std::memory_order_relaxed);
      }
      const std::size_t nh =
          std::min(hist_totals.size(), shard->histograms.size());
      for (std::size_t i = 0; i < nh; ++i) {
        const HistogramShard& hs = shard->histograms[i];
        HistTotal& total = hist_totals[i];
        for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
          total.buckets[b] += hs.buckets[b].load(std::memory_order_relaxed);
        }
        total.sum += hs.sum.load(std::memory_order_relaxed);
        total.min = std::min(total.min, hs.min.load(std::memory_order_relaxed));
        total.max = std::max(total.max, hs.max.load(std::memory_order_relaxed));
      }
    }
  }

  snap.counters.reserve(counter_names.size());
  for (std::size_t i = 0; i < counter_names.size(); ++i) {
    snap.counters.emplace_back(counter_names[i], counter_totals[i]);
  }
  std::sort(snap.counters.begin(), snap.counters.end());

  snap.histograms.reserve(histogram_names.size());
  for (std::size_t i = 0; i < histogram_names.size(); ++i) {
    HistogramSnapshot h;
    h.name = histogram_names[i];
    const HistTotal& total = hist_totals[i];
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      if (total.buckets[b] == 0) continue;
      h.count += total.buckets[b];
      // Inclusive upper bound of bucket b: 2^b - 1 (b = bit_width).
      const std::uint64_t le =
          b >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << b) - 1;
      h.buckets.emplace_back(le, total.buckets[b]);
    }
    h.sum = total.sum;
    h.min = h.count > 0 ? total.min : 0;
    h.max = total.max;
    snap.histograms.push_back(std::move(h));
  }
  std::sort(snap.histograms.begin(), snap.histograms.end(),
            [](const HistogramSnapshot& a, const HistogramSnapshot& b) {
              return a.name < b.name;
            });
  return snap;
}

}  // namespace marcopolo::obs
