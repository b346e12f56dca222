#include "analysis/attack_matrix.hpp"

#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "analysis/report.hpp"
#include "marcopolo/fast_campaign.hpp"
#include "obs/json.hpp"

namespace marcopolo::analysis {

namespace {

/// All perspective indices of a store, the universal deployment set.
std::vector<PerspectiveIndex> all_perspectives(const ResultStore& store) {
  std::vector<PerspectiveIndex> out(store.num_perspectives());
  for (std::size_t p = 0; p < out.size(); ++p) {
    out[p] = static_cast<PerspectiveIndex>(p);
  }
  return out;
}

double hijack_rate_of(const ResultStore& store, std::size_t attack,
                      std::span<const PerspectiveIndex> set) {
  std::size_t hijacked = 0;
  std::size_t total = 0;
  const auto n = static_cast<core::SiteIndex>(store.num_sites());
  for (core::SiteIndex v = 0; v < n; ++v) {
    for (core::SiteIndex a = 0; a < n; ++a) {
      if (v == a) continue;
      total += set.size();
      hijacked += store.hijacked_count(attack, v, a, set);
    }
  }
  return total == 0 ? 0.0
                    : static_cast<double>(hijacked) /
                          static_cast<double>(total);
}

}  // namespace

AttackMatrixReport build_attack_matrix(const AttackMatrixConfig& config) {
  if (config.rov_levels.empty() || config.otc_levels.empty()) {
    throw std::invalid_argument("attack matrix needs at least one defense "
                                "level per axis");
  }
  AttackMatrixReport report;
  report.quorum_required = config.quorum_required;
  report.rov_levels = config.rov_levels;
  report.otc_levels = config.otc_levels;
  report.attacks = config.attacks;
  if (report.attacks.empty()) {
    const auto all = bgp::all_attack_types();
    report.attacks.assign(all.begin(), all.end());
  }

  // Cells are produced grid-point-major (one campaign per deployment)
  // but reported attack-major; index into the final layout directly.
  const std::size_t grid =
      config.rov_levels.size() * config.otc_levels.size();
  report.cells.resize(report.attacks.size() * grid);

  core::TestbedConfig tb;
  tb.internet = config.internet;
  core::Testbed testbed(tb);

  core::FastCampaignConfig run;
  run.attacks = report.attacks;
  run.tie_break = config.tie_break;
  run.tie_break_seed = config.tie_break_seed;
  run.threads = config.threads;
  // Per-victim prefixes + one ROA per victim: without real ROAs a ROV
  // fraction is a no-op (everything is NotFound), and MAX_LEN absence is
  // what makes sub-prefix announcements ROV-invalid.
  run.per_victim_prefix = true;
  // The matrix's ROV axis is *transit* deployment; with edge ROV on, the
  // cloud perspectives would drop invalid origins at every grid point and
  // flatten the axis to a constant.
  run.cloud_edge_rov = false;
  bgp::RoaRegistry roas;
  for (std::size_t v = 0; v < testbed.sites().size(); ++v) {
    roas.add(bgp::Roa{
        run.victim_prefix(v),
        testbed.internet().graph().asn_of(testbed.sites()[v].node),
        std::nullopt});
  }
  run.roas = &roas;

  for (std::size_t ri = 0; ri < config.rov_levels.size(); ++ri) {
    for (std::size_t oi = 0; oi < config.otc_levels.size(); ++oi) {
      testbed.internet().deploy_rov(config.rov_levels[ri], config.rov_seed);
      testbed.internet().deploy_otc(config.otc_levels[oi], config.otc_seed);
      const ResultStore store = core::run_fast_campaign(testbed, run);

      report.sites = store.num_sites();
      report.perspectives = store.num_perspectives();
      const std::vector<PerspectiveIndex> everyone = all_perspectives(store);

      for (std::size_t ai = 0; ai < report.attacks.size(); ++ai) {
        // Plane-at-a-time scoring: the analyzer's kernels see a
        // single-attack store, so nothing downstream of extract_attack
        // knows the campaign was multi-attack.
        const ResultStore plane = store.extract_attack(ai);
        const ResilienceAnalyzer analyzer(plane);
        AttackMatrixCell& cell =
            report.cells[ai * grid + ri * config.otc_levels.size() + oi];
        cell.attack = report.attacks[ai];
        cell.rov_fraction = config.rov_levels[ri];
        cell.otc_fraction = config.otc_levels[oi];
        cell.hijack_rate = hijack_rate_of(store, ai, everyone);
        const ResilienceSummary single = summarize(
            analyzer.per_victim_resilience(everyone, 1, std::nullopt));
        cell.single_median = single.median;
        cell.single_average = single.average;
        const ResilienceSummary quorum =
            summarize(analyzer.per_victim_resilience(
                everyone, config.quorum_required, std::nullopt));
        cell.quorum_median = quorum.median;
        cell.quorum_average = quorum.average;
      }
    }
  }
  return report;
}

void write_attack_matrix_json(std::ostream& out,
                              const AttackMatrixReport& report) {
  out << "{\n  \"matrix_schema\": 1,\n"
      << "  \"sites\": " << report.sites << ",\n"
      << "  \"perspectives\": " << report.perspectives << ",\n"
      << "  \"quorum_required\": " << report.quorum_required << ",\n"
      << "  \"attacks\": [";
  for (std::size_t i = 0; i < report.attacks.size(); ++i) {
    out << (i ? ", " : "") << '"' << bgp::to_cstring(report.attacks[i])
        << '"';
  }
  out << "],\n  \"rov_levels\": [";
  for (std::size_t i = 0; i < report.rov_levels.size(); ++i) {
    out << (i ? ", " : "") << report.rov_levels[i];
  }
  out << "],\n  \"otc_levels\": [";
  for (std::size_t i = 0; i < report.otc_levels.size(); ++i) {
    out << (i ? ", " : "") << report.otc_levels[i];
  }
  out << "],\n  \"cells\": [\n";
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const AttackMatrixCell& c = report.cells[i];
    out << "    {\"attack\": \"" << bgp::to_cstring(c.attack)
        << "\", \"rov\": " << c.rov_fraction
        << ", \"otc\": " << c.otc_fraction
        << ", \"hijack_rate\": " << c.hijack_rate
        << ", \"single_median\": " << c.single_median
        << ", \"single_average\": " << c.single_average
        << ", \"quorum_median\": " << c.quorum_median
        << ", \"quorum_average\": " << c.quorum_average << "}"
        << (i + 1 < report.cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

ReadAttackMatrix read_attack_matrix_json(std::istream& in) {
  ReadAttackMatrix out;
  std::ostringstream buf;
  buf << in.rdbuf();
  obs::json::Value doc;
  try {
    doc = obs::json::parse(buf.str());
  } catch (const obs::json::ParseError& e) {
    out.error = e.what();
    return out;
  }
  if (!doc.is_object()) {
    out.error = "matrix document is not a JSON object";
    return out;
  }
  if (doc.u64_or("matrix_schema", 0) != 1) {
    out.error = "unsupported matrix_schema";
    return out;
  }
  AttackMatrixReport& r = out.report;
  r.sites = doc.u64_or("sites", 0);
  r.perspectives = doc.u64_or("perspectives", 0);
  r.quorum_required = doc.u64_or("quorum_required", 0);
  const auto read_levels = [&doc](const char* key,
                                  std::vector<double>& levels) {
    if (const obs::json::Value* arr = doc.find(key);
        arr != nullptr && arr->is_array()) {
      for (const obs::json::Value& v : arr->array()) {
        if (v.is_number()) levels.push_back(v.number());
      }
    }
  };
  read_levels("rov_levels", r.rov_levels);
  read_levels("otc_levels", r.otc_levels);
  if (const obs::json::Value* arr = doc.find("attacks");
      arr != nullptr && arr->is_array()) {
    for (const obs::json::Value& v : arr->array()) {
      if (!v.is_string()) continue;
      const auto type = bgp::attack_type_from_string(v.str());
      if (!type.has_value()) {
        out.error = "unknown attack type \"" + v.str() + "\"";
        return out;
      }
      r.attacks.push_back(*type);
    }
  }
  if (const obs::json::Value* arr = doc.find("cells");
      arr != nullptr && arr->is_array()) {
    for (const obs::json::Value& v : arr->array()) {
      if (!v.is_object()) continue;
      AttackMatrixCell cell;
      const auto type =
          bgp::attack_type_from_string(v.string_or("attack", ""));
      if (!type.has_value()) {
        out.error = "cell with unknown attack type";
        return out;
      }
      cell.attack = *type;
      cell.rov_fraction = v.number_or("rov", 0.0);
      cell.otc_fraction = v.number_or("otc", 0.0);
      cell.hijack_rate = v.number_or("hijack_rate", 0.0);
      cell.single_median = v.number_or("single_median", 0.0);
      cell.single_average = v.number_or("single_average", 0.0);
      cell.quorum_median = v.number_or("quorum_median", 0.0);
      cell.quorum_average = v.number_or("quorum_average", 0.0);
      r.cells.push_back(cell);
    }
  }
  if (r.cells.size() !=
      r.attacks.size() * r.rov_levels.size() * r.otc_levels.size()) {
    out.error = "cell count does not match attacks x rov x otc grid";
    return out;
  }
  out.ok = true;
  return out;
}

std::string render_attack_matrix(const AttackMatrixReport& report) {
  std::ostringstream out;
  out << "attack x defense resilience matrix (" << report.sites
      << " sites, " << report.perspectives << " perspectives; quorum "
      << report.quorum_required << ")\n"
      << "cells: median resilience single/quorum (0-100, higher = harder "
         "to attack), capture = raw hijacked verdict share\n";
  const std::size_t grid =
      report.rov_levels.size() * report.otc_levels.size();
  const auto level_name = [](double f) -> std::string {
    if (f <= 0.0) return "off";
    if (f >= 1.0) return "full";
    char buf[16];
    std::snprintf(buf, sizeof buf, "%.0f%%", f * 100.0);
    return buf;
  };
  for (std::size_t ai = 0; ai < report.attacks.size(); ++ai) {
    std::vector<std::string> headers = {"ROV \\ OTC"};
    for (const double otc : report.otc_levels) {
      headers.push_back("otc " + level_name(otc));
    }
    TextTable table(std::move(headers));
    for (std::size_t ri = 0; ri < report.rov_levels.size(); ++ri) {
      std::vector<std::string> row = {"rov " +
                                      level_name(report.rov_levels[ri])};
      for (std::size_t oi = 0; oi < report.otc_levels.size(); ++oi) {
        const AttackMatrixCell& c =
            report.cells[ai * grid + ri * report.otc_levels.size() + oi];
        row.push_back(format_resilience(c.single_median) + "/" +
                      format_resilience(c.quorum_median) + " cap " +
                      format_share(c.hijack_rate));
      }
      table.add_row(std::move(row));
    }
    out << "\n[" << bgp::to_cstring(report.attacks[ai]) << "]\n"
        << table.to_string();
  }
  return out.str();
}

}  // namespace marcopolo::analysis
