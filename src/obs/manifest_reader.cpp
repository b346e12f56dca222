#include "obs/manifest_reader.hpp"

#include <cstdio>
#include <fstream>
#include <istream>
#include <sstream>

#include "obs/json.hpp"

namespace marcopolo::obs {

namespace {

/// Config-echo value rendered for display (the reader does not need the
/// original variant type back, only a faithful string).
std::string display_string(const json::Value& value) {
  if (value.is_string()) return value.str();
  if (value.is_bool()) return value.boolean() ? "true" : "false";
  if (value.is_number()) {
    if (std::holds_alternative<std::uint64_t>(value.v) ||
        std::holds_alternative<std::int64_t>(value.v)) {
      return std::to_string(value.i64());
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%g", value.number());
    return buf;
  }
  return value.is_null() ? "null" : "<composite>";
}

void read_metrics(const json::Value& metrics, MetricsSnapshot& out) {
  if (const json::Value* counters = metrics.find("counters");
      counters != nullptr && counters->is_object()) {
    // json::Object is an ordered map, so this matches snapshot()'s
    // sorted-by-name contract.
    for (const auto& [name, value] : counters->object()) {
      if (value.is_number()) out.counters.emplace_back(name, value.u64());
    }
  }
  if (const json::Value* histograms = metrics.find("histograms");
      histograms != nullptr && histograms->is_object()) {
    for (const auto& [name, h] : histograms->object()) {
      if (!h.is_object()) continue;
      HistogramSnapshot snap;
      snap.name = name;
      snap.count = h.u64_or("count", 0);
      snap.sum = h.u64_or("sum", 0);
      snap.min = h.u64_or("min", 0);
      snap.max = h.u64_or("max", 0);
      if (const json::Value* buckets = h.find("buckets");
          buckets != nullptr && buckets->is_array()) {
        for (const json::Value& bucket : buckets->array()) {
          if (!bucket.is_object()) continue;
          snap.buckets.emplace_back(bucket.u64_or("le", 0),
                                    bucket.u64_or("count", 0));
        }
      }
      out.histograms.push_back(std::move(snap));
    }
  }
}

}  // namespace

ReadManifest ManifestReader::read_string(const std::string& text) {
  ReadManifest out;
  json::Value doc;
  try {
    doc = json::parse(text);
  } catch (const json::ParseError& error) {
    out.errors.emplace_back(error.what());
    return out;
  }
  if (!doc.is_object()) {
    out.errors.emplace_back("document is not a JSON object");
    return out;
  }

  out.schema = static_cast<int>(doc.u64_or("manifest_schema", 0));
  out.tool = doc.string_or("tool", doc.string_or("benchmark", ""));
  out.version = doc.string_or("version", "");
  if (out.tool.empty()) {
    out.errors.emplace_back(
        "document has neither \"tool\" nor \"benchmark\" — not a run "
        "manifest or campaign_wallclock output");
    return out;
  }

  if (const json::Value* config = doc.find("config");
      config != nullptr && config->is_object()) {
    for (const auto& [key, value] : config->object()) {
      out.config.emplace_back(key, display_string(value));
    }
  }
  if (const json::Value* phases = doc.find("phases");
      phases != nullptr && phases->is_array()) {
    for (const json::Value& phase : phases->array()) {
      if (!phase.is_object()) continue;
      ReadPhase row;
      row.name = phase.string_or("name", "?");
      row.seconds = phase.number_or("seconds", 0.0);
      if (phase.find("peak_rss_kb") != nullptr) {
        row.has_mem = true;
        row.peak_rss_kb = phase.u64_or("peak_rss_kb", 0);
        row.rss_delta_kb =
            static_cast<std::int64_t>(phase.number_or("rss_delta_kb", 0.0));
      }
      out.phases.push_back(std::move(row));
    }
  }
  if (const json::Value* metrics = doc.find("metrics");
      metrics != nullptr && metrics->is_object()) {
    read_metrics(*metrics, out.metrics);
  }
  if (const json::Value* runs = doc.find("runs");
      runs != nullptr && runs->is_array()) {
    for (const json::Value& run : runs->array()) {
      if (!run.is_object()) continue;
      BenchRunRow row;
      row.threads = run.u64_or("threads", 0);
      row.seconds = run.number_or("seconds", 0.0);
      row.tasks = run.u64_or("tasks", 0);
      row.propagations = run.u64_or("propagations", 0);
      row.store_identical = run.bool_or("store_identical", true);
      out.runs.push_back(row);
    }
  }
  if (const json::Value* profile = doc.find("profile");
      profile != nullptr && profile->is_object()) {
    out.has_profile = true;
    out.profile.hz = static_cast<std::uint32_t>(profile->u64_or("hz", 0));
    out.profile.samples = profile->u64_or("samples", 0);
    out.profile.dropped = profile->u64_or("dropped", 0);
    out.profile.truncated = profile->u64_or("truncated", 0);
    if (const json::Value* symbols = profile->find("symbols");
        symbols != nullptr && symbols->is_array()) {
      for (const json::Value& symbol : symbols->array()) {
        if (!symbol.is_object()) continue;
        ReadHotSymbol row;
        row.name = symbol.string_or("name", "?");
        row.self = symbol.u64_or("self", 0);
        row.total = symbol.u64_or("total", 0);
        out.profile.symbols.push_back(std::move(row));
      }
    }
  }
  return out;
}

ReadManifest ManifestReader::read(std::istream& in) {
  std::ostringstream text;
  text << in.rdbuf();
  return read_string(text.str());
}

ReadManifest ManifestReader::read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    ReadManifest out;
    out.errors.emplace_back("cannot open " + path);
    return out;
  }
  return read(in);
}

}  // namespace marcopolo::obs
