#include "obs/timeseries_reader.hpp"

#include <fstream>
#include <istream>

#include "obs/json.hpp"

namespace marcopolo::obs {

namespace {

constexpr int kSupportedSchema = 1;

void fail(ReadTimeseries* out, std::size_t line, std::string message) {
  out->errors.push_back({line, std::move(message)});
}

void decode_meta(const json::Value& value, std::size_t line,
                 ReadTimeseries* out) {
  const std::uint64_t schema = value.u64_or("timeseries_schema", 0);
  if (schema != kSupportedSchema) {
    fail(out, line,
         "unsupported timeseries_schema " + std::to_string(schema) +
             " (reader supports " + std::to_string(kSupportedSchema) + ")");
    return;
  }
  out->schema = static_cast<int>(schema);
  out->has_meta = true;
  out->tick_ms = value.u64_or("tick_ms", 0);
  out->start_ns = value.u64_or("start_ns", 0);
}

void decode_tick(const json::Value& value, std::size_t line,
                 ReadTimeseries* out) {
  TimeseriesTick tick;
  tick.tick = value.u64_or("tick", 0);
  tick.t_ns = value.u64_or("t_ns", 0);
  tick.tasks_done = value.u64_or("tasks_done", 0);
  tick.tasks_total = value.u64_or("tasks_total", 0);
  tick.tasks_per_s = value.number_or("tasks_per_s", 0.0);
  tick.workers_live = value.u64_or("workers_live", 0);
  tick.stalls = value.u64_or("stalls", 0);
  tick.verdicts = value.u64_or("verdicts", 0);
  tick.adversary_verdicts = value.u64_or("adversary_verdicts", 0);
  if (const json::Value* rss = value.find("rss_kb"); rss != nullptr) {
    tick.has_mem = true;
    tick.rss_kb = rss->is_number() ? rss->u64() : 0;
    tick.peak_rss_kb = value.u64_or("peak_rss_kb", 0);
  }
  tick.hot_phase = value.string_or("hot_phase", "");
  if (const json::Value* eta = value.find("eta_s");
      eta != nullptr && eta->is_number()) {
    tick.has_eta = true;
    tick.eta_s = eta->number();
  }
  tick.final_tick = value.bool_or("final", false);
  if (const json::Value* counters = value.find("counters");
      counters != nullptr && counters->is_object()) {
    for (const auto& [name, v] : counters->object()) {
      tick.counters.emplace_back(name, v.is_number() ? v.u64() : 0);
    }
  }

  // Tick ids must strictly increase — the invariant check_trace_bundle
  // leans on to reject tampered or interleaved-writer files.
  if (!out->ticks.empty() && tick.tick <= out->ticks.back().tick) {
    fail(out, line,
         "non-monotone tick id " + std::to_string(tick.tick) +
             " (previous was " + std::to_string(out->ticks.back().tick) +
             ")");
    return;
  }
  out->ticks.push_back(std::move(tick));
}

}  // namespace

std::uint64_t TimeseriesTick::counter(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

ReadTimeseries TimeseriesReader::read(std::istream& in) {
  ReadTimeseries out;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    ++out.lines;
    json::Value value;
    try {
      value = json::parse(line);
    } catch (const json::ParseError& err) {
      fail(&out, line_number, err.what());
      continue;
    }
    if (!value.is_object()) {
      fail(&out, line_number, "record is not a JSON object");
      continue;
    }
    const json::Value* type = value.find("type");
    if (type == nullptr || !type->is_string()) {
      fail(&out, line_number, "record has no string \"type\" field");
      continue;
    }
    if (type->str() == "meta") {
      decode_meta(value, line_number, &out);
    } else if (type->str() == "tick") {
      decode_tick(value, line_number, &out);
    } else {
      ++out.skipped_records;  // a newer writer's record type
    }
  }
  return out;
}

ReadTimeseries TimeseriesReader::read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    ReadTimeseries out;
    fail(&out, 0, "cannot open " + path);
    return out;
  }
  return read(in);
}

}  // namespace marcopolo::obs
