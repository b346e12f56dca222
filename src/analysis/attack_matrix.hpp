// The attack × defense resilience matrix.
//
// ISSUE-10's headline artifact: for every registered attack type, how
// well does MPIC hold up as the two transit-level defenses are deployed —
// ROV (RPKI route-origin validation, the counter to origin hijacks) at
// {none, partial, full} and RFC 9234 OTC (route-leak rejection) at
// {off, partial, on}? The sweep builds one testbed (per-victim prefixes,
// one ROA per victim); each (rov, otc) grid point redeploys the two
// defenses on it and runs a single multi-attack campaign whose per-attack
// store planes are then scored with the Appendix-A resilience kernels.
//
// The report is a flat cell list (attack-major, then rov, then otc) and
// serializes to a small self-describing JSON artifact; `mpinspect matrix`
// renders it, and examples/attack_matrix.cpp produces it. The builder is
// deterministic: same config, same bytes.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "analysis/resilience.hpp"
#include "bgp/attack_model.hpp"
#include "topo/internet.hpp"

namespace marcopolo::analysis {

struct AttackMatrixConfig {
  /// Topology every grid point shares, so cells differ only in deployed
  /// defenses.
  topo::InternetConfig internet;
  /// Attack types to sweep; empty = every registered type.
  std::vector<bgp::AttackType> attacks;
  /// Fractions of transit ASes enforcing ROV / RFC 9234 OTC. The paper's
  /// qualitative story needs only {none, partial, full}.
  std::vector<double> rov_levels = {0.0, 0.5, 1.0};
  std::vector<double> otc_levels = {0.0, 0.5, 1.0};
  bgp::TieBreakMode tie_break = bgp::TieBreakMode::Hashed;
  std::uint64_t tie_break_seed = 0xCAFE;
  std::uint64_t rov_seed = topo::kDefaultRovSeed;
  std::uint64_t otc_seed = topo::kDefaultOtcSeed;
  /// Campaign worker threads (0 = hardware concurrency).
  std::size_t threads = 0;
  /// Quorum threshold for the "quorum" resilience column: the attack
  /// succeeds only if at least this many perspectives (of all of them)
  /// are hijacked. 2 is the paper's minimal multi-vantage corroboration;
  /// the "single" column is always quorum 1.
  std::size_t quorum_required = 2;
};

/// One grid cell: one attack type under one defense deployment.
struct AttackMatrixCell {
  bgp::AttackType attack = bgp::AttackType::EquallySpecific;
  double rov_fraction = 0.0;
  double otc_fraction = 0.0;
  /// Fraction of (attackable pair, perspective) verdicts that reached
  /// the adversary — the raw capture rate before any quorum logic.
  double hijack_rate = 0.0;
  /// Median/average victim resilience with quorum 1 (any hijacked
  /// perspective defeats validation) and with config.quorum_required.
  double single_median = 0.0;
  double single_average = 0.0;
  double quorum_median = 0.0;
  double quorum_average = 0.0;
};

struct AttackMatrixReport {
  std::size_t sites = 0;
  std::size_t perspectives = 0;
  std::size_t quorum_required = 0;
  std::vector<bgp::AttackType> attacks;
  std::vector<double> rov_levels;
  std::vector<double> otc_levels;
  /// attack-major, then rov level, then otc level.
  std::vector<AttackMatrixCell> cells;
};

/// Build the full matrix: one testbed, redeployed at each of the
/// |rov_levels| x |otc_levels| grid points, one multi-attack campaign
/// each. Throws std::invalid_argument on an empty level list or a
/// duplicate attack type.
[[nodiscard]] AttackMatrixReport build_attack_matrix(
    const AttackMatrixConfig& config = {});

/// Write the report as a self-describing JSON document (versioned with
/// "matrix_schema": 1; attack types by registry name).
void write_attack_matrix_json(std::ostream& out,
                              const AttackMatrixReport& report);

/// Parse write_attack_matrix_json() output.
struct ReadAttackMatrix {
  bool ok = false;
  std::string error;
  AttackMatrixReport report;
};
[[nodiscard]] ReadAttackMatrix read_attack_matrix_json(std::istream& in);

/// Render the report as fixed-width text tables (one per attack type,
/// ROV rows × OTC columns), the `mpinspect matrix` output.
[[nodiscard]] std::string render_attack_matrix(
    const AttackMatrixReport& report);

}  // namespace marcopolo::analysis
