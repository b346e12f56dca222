// Golden digests: today's output bytes, pinned in a committed file.
//
// The other oracles compare a fast path with a slow path inside one build,
// so they cannot see a change that moves both at once (the topology
// generator, the RNG, the decision process). This test recomputes the
// FNV-1a digest of each artifact below and compares it with
// tests/golden/digests.txt:
//   - the MPRS bytes of run_fast_campaign with all four attack types on
//     the default testbed, across the 3 tie-break modes x transit ROV
//     {0, 0.5} x strict and MAX_LEN-25 ROAs x OTC {0, 0.5} (24 campaigns);
//   - the write_attack_matrix_json bytes for all attack types;
//   - the sorted verdict lines of one recorded campaign's journal, with
//     the worker id dropped;
//   - the topology of the default testbed and of a 50k-AS testbed: every
//     node's ASN, tier, continent and location, and its neighbor list in
//     order.
// A mismatch prints the committed and the recomputed value of every
// entry. The file is edited by hand, in a change that says why a digest
// moved; nothing here rewrites it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/attack_matrix.hpp"
#include "marcopolo/fast_campaign.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace_export.hpp"

namespace marcopolo::core {
namespace {

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

const char* tie_name(bgp::TieBreakMode mode) {
  switch (mode) {
    case bgp::TieBreakMode::VictimFirst: return "victim-first";
    case bgp::TieBreakMode::AdversaryFirst: return "adversary-first";
    case bgp::TieBreakMode::Hashed: return "hashed";
  }
  return "?";
}

FastCampaignConfig all_attacks_config() {
  FastCampaignConfig cfg;
  const auto all = bgp::all_attack_types();
  cfg.attacks.assign(all.begin(), all.end());
  cfg.threads = 2;
  return cfg;
}

/// The 24 seeded default-testbed campaigns.
void campaign_digests(std::vector<std::pair<std::string, std::uint64_t>>& out) {
  for (const double rov : {0.0, 0.5}) {
    for (const double otc : {0.0, 0.5}) {
      Testbed testbed;
      testbed.internet().deploy_rov(rov, topo::kDefaultRovSeed);
      testbed.internet().deploy_otc(otc, topo::kDefaultOtcSeed);
      for (const bool max_len_25 : {false, true}) {
        FastCampaignConfig cfg = all_attacks_config();
        cfg.per_victim_prefix = true;
        bgp::RoaRegistry roas;
        for (std::size_t v = 0; v < testbed.sites().size(); ++v) {
          roas.add(bgp::Roa{
              cfg.victim_prefix(v),
              testbed.internet().graph().asn_of(testbed.sites()[v].node),
              max_len_25 ? std::optional<std::uint8_t>{25} : std::nullopt});
        }
        cfg.roas = &roas;
        for (const bgp::TieBreakMode tie :
             {bgp::TieBreakMode::VictimFirst, bgp::TieBreakMode::AdversaryFirst,
              bgp::TieBreakMode::Hashed}) {
          cfg.tie_break = tie;
          std::ostringstream mprs;
          run_fast_campaign(testbed, cfg).save_binary(mprs);
          std::ostringstream name;
          name << "campaign/" << tie_name(tie) << "/rov" << rov
               << (max_len_25 ? "/maxlen25" : "/strict") << "/otc" << otc;
          out.emplace_back(name.str(), fnv1a(mprs.str()));
        }
      }
    }
  }
}

std::uint64_t matrix_digest() {
  analysis::AttackMatrixConfig cfg;  // every attack type, 3x3 defense grid
  cfg.threads = 2;
  std::ostringstream json;
  analysis::write_attack_matrix_json(json, analysis::build_attack_matrix(cfg));
  return fnv1a(json.str());
}

std::uint64_t verdicts_digest() {
  const Testbed testbed;
  obs::FlightRecorder recorder;
  FastCampaignConfig cfg = all_attacks_config();
  cfg.observers.recorder = &recorder;
  (void)run_fast_campaign(testbed, cfg);
  std::ostringstream journal;
  obs::write_journal_ndjson(journal, recorder.drain());

  // Which worker ran a task depends on scheduling; the verdict does not.
  const std::regex worker(R"("worker": [0-9]+, )");
  std::vector<std::string> verdicts;
  std::istringstream lines(journal.str());
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"type\": \"verdict\"") == std::string::npos) continue;
    verdicts.push_back(std::regex_replace(line, worker, ""));
  }
  std::sort(verdicts.begin(), verdicts.end());
  std::string joined;
  for (const std::string& v : verdicts) joined += v + '\n';
  return fnv1a(joined);
}

/// Every node in NodeId order: ASN, tier, continent, location, then each
/// neighbor entry (id, relationship, local POP, remote POP).
std::uint64_t topology_digest(const TestbedConfig& tb_cfg) {
  const Testbed testbed(tb_cfg);
  const topo::Internet& net = testbed.internet();
  const bgp::AsGraph& graph = net.graph();
  std::string bytes;
  const auto put = [&bytes](const auto& v) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  for (std::uint32_t i = 0; i < graph.size(); ++i) {
    const bgp::NodeId n{i};
    put(graph.asn_of(n).value);
    put(net.tier(n));
    put(net.continent(n));
    put(net.location(n).lat);
    put(net.location(n).lon);
    for (const bgp::Neighbor& nb : graph.neighbors(n)) {
      put(nb.id.value);
      put(nb.rel);
      put(nb.local_pop.value);
      put(nb.remote_pop.value);
    }
  }
  return fnv1a(bytes);
}

std::map<std::string, std::string> read_committed(const char* path) {
  std::map<std::string, std::string> committed;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line.front() == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::string digest;
    fields >> name >> digest;
    committed[name] = digest;
  }
  return committed;
}

TEST(GoldenDigests, MatchTheCommittedFile) {
  std::vector<std::pair<std::string, std::uint64_t>> actual;
  campaign_digests(actual);
  actual.emplace_back("matrix/all", matrix_digest());
  actual.emplace_back("journal/verdicts-sorted", verdicts_digest());
  actual.emplace_back("topology/default", topology_digest({}));
  TestbedConfig scaled;
  scaled.internet = topo::scaled_internet_config(50000);
  actual.emplace_back("topology/internet-50k", topology_digest(scaled));

  const std::map<std::string, std::string> committed =
      read_committed(MARCOPOLO_GOLDEN_DIGESTS);
  std::ostringstream report;
  bool same = committed.size() == actual.size();
  for (const auto& [name, digest] : actual) {
    const auto it = committed.find(name);
    const std::string old = it == committed.end() ? "(missing)" : it->second;
    if (old != hex(digest)) same = false;
    report << name << " committed " << old << " recomputed " << hex(digest)
           << '\n';
  }
  EXPECT_TRUE(same) << MARCOPOLO_GOLDEN_DIGESTS << " does not match ("
                    << committed.size() << " committed, " << actual.size()
                    << " recomputed):\n"
                    << report.str();
}

}  // namespace
}  // namespace marcopolo::core
