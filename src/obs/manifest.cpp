#include "obs/manifest.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>

namespace marcopolo::obs {

namespace {

/// Shortest round-trippable decimal for a double, with a guaranteed
/// fraction or exponent so JSON consumers keep the number floating.
std::string format_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  std::string text(buf);
  if (text.find_first_of(".eE") == std::string::npos) text += ".0";
  return text;
}

/// One MetricsSnapshot as a JSON object:
///   {"counters": {...}, "histograms": {name: {count, sum, min, max,
///    p50, p95, p99, buckets: [{"le": ..., "count": ...}]}}}
/// The pNN fields are log2-bucket interpolation estimates
/// (HistogramSnapshot::quantile). `indent` is prepended to every line
/// after the first.
void write_metrics_json(std::ostream& out, const MetricsSnapshot& snapshot,
                        std::string_view indent) {
  out << "{\n" << indent << "  \"counters\": {";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    const auto& [name, value] = snapshot.counters[i];
    out << (i == 0 ? "\n" : ",\n") << indent << "    \""
        << json_escape(name) << "\": " << value;
  }
  if (!snapshot.counters.empty()) out << "\n" << indent << "  ";
  out << "},\n" << indent << "  \"histograms\": {";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const HistogramSnapshot& h = snapshot.histograms[i];
    out << (i == 0 ? "\n" : ",\n") << indent << "    \""
        << json_escape(h.name) << "\": {\"count\": " << h.count
        << ", \"sum\": " << h.sum << ", \"min\": " << h.min
        << ", \"max\": " << h.max
        << ", \"p50\": " << format_double(h.quantile(0.50))
        << ", \"p95\": " << format_double(h.quantile(0.95))
        << ", \"p99\": " << format_double(h.quantile(0.99))
        << ", \"buckets\": [";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (b > 0) out << ", ";
      out << "{\"le\": " << h.buckets[b].first
          << ", \"count\": " << h.buckets[b].second << "}";
    }
    out << "]}";
  }
  if (!snapshot.histograms.empty()) out << "\n" << indent << "  ";
  out << "}\n" << indent << "}";
}

/// A CpuProfile's summary as a JSON object: sampling rate, sample
/// accounting, and the top-`top_n` hot symbols by self samples
/// ({"name", "self", "total"} each).
void write_profile_json(std::ostream& out, const CpuProfile& profile,
                        std::string_view indent, std::size_t top_n = 20) {
  out << "{\n"
      << indent << "  \"hz\": " << profile.hz << ",\n"
      << indent << "  \"samples\": " << profile.samples << ",\n"
      << indent << "  \"dropped\": " << profile.dropped << ",\n"
      << indent << "  \"truncated\": " << profile.truncated << ",\n"
      << indent << "  \"symbols\": [";
  const std::size_t n = std::min(top_n, profile.symbols.size());
  for (std::size_t i = 0; i < n; ++i) {
    const HotSymbol& s = profile.symbols[i];
    out << (i == 0 ? "\n" : ",\n") << indent << "    {\"name\": \""
        << json_escape(s.name) << "\", \"self\": " << s.self
        << ", \"total\": " << s.total << "}";
  }
  if (n > 0) out << "\n" << indent << "  ";
  out << "]\n" << indent << "}";
}

}  // namespace

void RunManifest::set(std::string_view key, std::string_view value) {
  for (auto& [k, v] : config_) {
    if (k == key) {
      v = std::string(value);
      return;
    }
  }
  config_.emplace_back(std::string(key), std::string(value));
}

void RunManifest::set(std::string_view key, std::int64_t value) {
  for (auto& [k, v] : config_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  config_.emplace_back(std::string(key), value);
}

void RunManifest::set(std::string_view key, double value) {
  for (auto& [k, v] : config_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  config_.emplace_back(std::string(key), value);
}

void RunManifest::set(std::string_view key, bool value) {
  for (auto& [k, v] : config_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  config_.emplace_back(std::string(key), value);
}

void RunManifest::set_profile(const CpuProfile& profile) {
  profile_ = profile;
}

void RunManifest::write_json(std::ostream& out,
                             const MetricsSnapshot& snapshot) const {
  out << "{\n"
      << "  \"manifest_schema\": 1,\n"
      << "  \"tool\": \"" << json_escape(tool_) << "\",\n"
      << "  \"config\": {";
  for (std::size_t i = 0; i < config_.size(); ++i) {
    const auto& [key, value] = config_[i];
    out << (i == 0 ? "\n" : ",\n") << "    \"" << json_escape(key) << "\": ";
    std::visit(
        [&out](const auto& v) {
          using T = std::decay_t<decltype(v)>;
          if constexpr (std::is_same_v<T, std::string>) {
            out << '"' << json_escape(v) << '"';
          } else if constexpr (std::is_same_v<T, bool>) {
            out << (v ? "true" : "false");
          } else if constexpr (std::is_same_v<T, double>) {
            out << format_double(v);
          } else {
            out << v;
          }
        },
        value);
  }
  if (!config_.empty()) out << "\n  ";
  out << "},\n"
      << "  \"phases\": [";
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    const PhaseRow& phase = phases_[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"name\": \""
        << json_escape(phase.name)
        << "\", \"seconds\": " << format_double(phase.seconds);
    if (phase.has_mem) {
      out << ", \"peak_rss_kb\": " << phase.peak_rss_kb
          << ", \"rss_delta_kb\": " << phase.rss_delta_kb;
    }
    out << "}";
  }
  if (!phases_.empty()) out << "\n  ";
  out << "],\n";
  if (profile_.available && profile_.samples > 0) {
    out << "  \"profile\": ";
    write_profile_json(out, profile_, "  ");
    out << ",\n";
  }
  out << "  \"metrics\": ";
  write_metrics_json(out, snapshot, "  ");
  out << "\n}\n";
}

bool RunManifest::write_file(const std::string& path,
                             const MetricsSnapshot& snapshot) const {
  // Same crash-safety discipline as write_trace_dir: no truncated
  // manifest ever appears at the final name.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    if (!out) return false;
    write_json(out, snapshot);
    if (!out) return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  return !ec;
}

}  // namespace marcopolo::obs
