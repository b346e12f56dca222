// Fast campaign runner: the hijack matrix without network simulation.
//
// Post-hoc analysis only needs the hijacked(P, v, a) relation, which is
// fully determined by BGP propagation — the DCV/HTTP machinery adds
// fidelity for the orchestration path but not information. This runner
// evaluates every ordered victim-adversary pair directly and fills a
// ResultStore; an integration test checks it agrees with the full
// orchestrator.
#pragma once

#include "bgp/scenario.hpp"
#include "marcopolo/result_store.hpp"
#include "marcopolo/testbed.hpp"
#include "obs/observers.hpp"

namespace marcopolo::core {

/// Which DCV dependency the adversary attacks (paper §6 flags the DNS
/// surface as future work; Akiwate et al. study the real-world incidents).
enum class AttackSurface : std::uint8_t {
  /// The web server's prefix: perspectives fetching the HTTP-01 challenge
  /// are split between victim and adversary by the hijack.
  Http,
  /// The authoritative nameserver's prefix: a perspective that resolves
  /// the domain through a captured nameserver receives the adversary's A
  /// record and validates against the adversary no matter how the web
  /// path routes.
  Dns,
};

struct FastCampaignConfig {
  bgp::AttackType type = bgp::AttackType::EquallySpecific;
  /// Attack types to sweep, one ResultStore plane each, in this order.
  /// Empty means {type} — the single-attack campaign everything predating
  /// the multi-attack sweep ran. A multi-entry list evaluates every
  /// attack per (victim, adversary) pair while reusing the pair's
  /// victim-only baseline across all of them (config.incremental), and
  /// each plane is byte-identical to the corresponding single-attack
  /// campaign (asserted by tests): the per-pair tie-break salt never
  /// depends on the attack type.
  std::vector<bgp::AttackType> attacks;
  AttackSurface surface = AttackSurface::Http;
  /// Dns surface only: site index hosting victim v's authoritative
  /// nameserver (empty = self-hosted at the victim, which makes the DNS
  /// surface equivalent to the HTTP surface). One entry per site.
  std::vector<SiteIndex> dns_host_of_victim;
  bgp::TieBreakMode tie_break = bgp::TieBreakMode::Hashed;
  std::uint64_t tie_break_seed = 0xCAFE;
  /// ROAs; ROV-enforcing ASes (and cloud edges when enabled) filter
  /// invalid announcements against this registry. May be null.
  const bgp::RoaRegistry* roas = nullptr;
  /// Whether cloud backbones drop RPKI-invalid candidates at their edges.
  /// All three providers enforce ROV in production today, so this defaults
  /// on; disable it to isolate the effect of transit-level ROV deployment.
  bool cloud_edge_rov = true;
  /// Victim prefix used for every attack (one lane is enough: virtual
  /// attacks do not interfere).
  netsim::Ipv4Prefix prefix =
      *netsim::Ipv4Prefix::parse("203.0.113.0/24");
  /// Give every victim its own /24 (prefix + victim_index * 256). Required
  /// for meaningful ROA experiments: a ROA authorizes one victim's origin
  /// for one prefix, so the hijacker's announcement of *that* prefix is
  /// Invalid while its own legitimate prefix stays Valid.
  bool per_victim_prefix = false;
  /// Worker threads for the campaign (0 = hardware concurrency, clamped
  /// to the task count). Every scenario is a pure function of
  /// (announcer, adversary, config) and workers write disjoint
  /// ResultStore cells, so the store is byte-identical for any thread
  /// count (asserted by tests).
  std::size_t threads = 0;
  /// Evaluate each announcer's attacks incrementally: propagate the
  /// victim-only baseline once per announcer, then replay every
  /// adversary's announcement as a delta over it (bgp::DeltaPropagation).
  /// A pure optimization — the store is byte-identical with this on or
  /// off (asserted by tests); off forces a full propagation per pair.
  bool incremental = true;
  /// Optional observers (obs/observers.hpp). Progress and telemetry count
  /// (announcer, adversary, attack) triples.
  obs::Observers observers;

  /// The attack types this campaign actually sweeps: `attacks`, or the
  /// single legacy `type` when the list is empty.
  [[nodiscard]] std::vector<bgp::AttackType> attack_list() const {
    if (!attacks.empty()) return attacks;
    return {type};
  }

  /// The prefix victim `v` announces under this config.
  [[nodiscard]] netsim::Ipv4Prefix victim_prefix(std::size_t v) const {
    if (!per_victim_prefix) return prefix;
    return netsim::Ipv4Prefix(
        netsim::Ipv4Addr(prefix.network().value() +
                         (static_cast<std::uint32_t>(v) << 8)),
        24);
  }
};

/// Run every ordered (victim, adversary) attack — |sites| x (|sites|-1)
/// result rows — and record every perspective's outcome. Distinct
/// (announcer, adversary) propagations run once each: under the HTTP
/// surface the announcer IS the victim, while under the DNS surface
/// victims sharing a nameserver host collapse into one propagation whose
/// outcome is recorded for each of them (and a victim whose nameserver
/// host is the adversary itself is a total capture, no propagation).
/// With a multi-entry attack list every (announcer, adversary) pair is
/// swept once per attack type into that type's store plane; the progress/
/// metrics/telemetry accounting unit is the (announcer, adversary,
/// attack) triple. The saved CSV carries a `# schema=2` version comment
/// (see ResultStore::save_csv).
[[nodiscard]] ResultStore run_fast_campaign(const Testbed& testbed,
                                            const FastCampaignConfig& config);

/// Convenience: the standard paper dataset pair — an EquallySpecific run
/// ("no RPKI") and a ForgedOriginPrepend run ("RPKI"), same tie-break.
struct CampaignDataset {
  ResultStore no_rpki;
  ResultStore rpki;
};
[[nodiscard]] CampaignDataset run_paper_campaigns(
    const Testbed& testbed, bgp::TieBreakMode tie_break,
    std::uint64_t tie_break_seed, std::size_t threads = 0,
    const obs::Observers& observers = {});

}  // namespace marcopolo::core
