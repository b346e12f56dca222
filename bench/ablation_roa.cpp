// Ablation for paper §4.4.1 (future work, implemented here): create real
// ROAs for every victim prefix and measure how ROV deployment interacts
// with each attack type — instead of only *mimicking* the RPKI case by
// path prepending.
//
// Every victim announces its own /24 with a ROA authorizing only its
// origin ASN; the hijacker's announcement of that prefix is therefore
// RPKI-Invalid (plain) or Valid-but-longer (forged-origin). Two deployment
// knobs are swept independently:
//   - the fraction of transit ASes enforcing ROV (route filtering), and
//   - whether cloud backbones filter invalid routes at their edges
//     (all three providers do in production today).
#include "analysis/resilience.hpp"
#include "analysis/report.hpp"
#include "marcopolo/fast_campaign.hpp"
#include "marcopolo/production_systems.hpp"

using namespace marcopolo;

namespace {

double mean_capture(const core::ResultStore& store) {
  std::size_t hijacked = 0;
  std::size_t total = 0;
  const auto n = static_cast<core::SiteIndex>(store.num_sites());
  for (core::SiteIndex v = 0; v < n; ++v) {
    for (core::SiteIndex a = 0; a < n; ++a) {
      if (v == a) continue;
      for (core::PerspectiveIndex p = 0; p < store.num_perspectives(); ++p) {
        ++total;
        if (store.hijacked(v, a, p)) ++hijacked;
      }
    }
  }
  return static_cast<double>(hijacked) / static_cast<double>(total);
}

}  // namespace

int main() {
  analysis::TextTable table({"Transit ROV", "Cloud-edge ROV", "Attack",
                             "ROA", "LE median", "CF median",
                             "Capture (mean)"});

  // One topology for the whole sweep; each ROV level redeploys on it.
  core::Testbed testbed;

  // Per-victim ROAs: victim v's /24 authorizes only v's ASN. The strict
  // registry allows no more-specifics; the MAX_LEN registry allows /25
  // (the RFC 9319 anti-pattern).
  core::FastCampaignConfig proto;
  proto.per_victim_prefix = true;
  bgp::RoaRegistry strict;
  bgp::RoaRegistry maxlen;
  for (std::size_t v = 0; v < testbed.sites().size(); ++v) {
    const auto asn =
        testbed.internet().graph().asn_of(testbed.sites()[v].node);
    strict.add(bgp::Roa{proto.victim_prefix(v), asn, std::nullopt});
    maxlen.add(bgp::Roa{proto.victim_prefix(v), asn, std::uint8_t{25}});
  }

  const auto le = core::lets_encrypt_spec(testbed);
  const auto cf = core::cloudflare_spec(testbed);

  const struct {
    const char* attack;
    const char* roa;
    bgp::AttackType type;
    const bgp::RoaRegistry* roas;
    bool cloud_edge;
  } rows[] = {
      {"equally-specific", "strict", bgp::AttackType::EquallySpecific,
       &strict, false},
      {"equally-specific", "strict", bgp::AttackType::EquallySpecific,
       &strict, true},
      {"forged-origin", "strict", bgp::AttackType::ForgedOriginPrepend,
       &strict, true},
      {"sub-prefix", "strict", bgp::AttackType::SubPrefix, &strict, false},
      {"sub-prefix", "strict", bgp::AttackType::SubPrefix, &strict, true},
      {"sub-prefix", "MAX_LEN /25", bgp::AttackType::SubPrefix, &maxlen,
       true},
  };

  for (const double rov : {0.0, 0.3, 0.6, 1.0}) {
    testbed.internet().deploy_rov(rov, topo::kDefaultRovSeed);
    for (const auto& row : rows) {
      core::FastCampaignConfig cfg = proto;
      cfg.type = row.type;
      cfg.roas = row.roas;
      cfg.cloud_edge_rov = row.cloud_edge;
      const auto store = core::run_fast_campaign(testbed, cfg);
      analysis::ResilienceAnalyzer analyzer(store);
      char rov_label[16];
      std::snprintf(rov_label, sizeof rov_label, "%.0f%%", rov * 100.0);
      table.add_row(
          {rov_label, row.cloud_edge ? "on" : "off", row.attack, row.roa,
           analysis::format_resilience(analyzer.evaluate(le).median),
           analysis::format_resilience(analyzer.evaluate(cf).median),
           analysis::format_share(mean_capture(store))});
    }
  }

  std::printf("\nROA + ROV ablation (implements §4.4.1's proposed future "
              "iteration):\n%s",
              table.to_string().c_str());
  std::printf(
      "Expected shape: plain hijacks fade as transit ROV grows and vanish "
      "once cloud edges filter; forged-origin is immune to ROV (only the "
      "extra hop costs it); strict ROAs let ROV blunt sub-prefix hijacks "
      "while MAX_LEN re-enables them globally (RFC 9319).\n");
  return 0;
}
