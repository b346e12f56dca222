// Quorum policies for Multiple Perspective Issuance Corroboration.
//
// Paper notation (§5): (X, N-Y) means X remote perspectives of which at
// most Y may fail — issuance requires at least X-Y remote successes. A
// deployment may additionally have a *primary* perspective that must always
// succeed ("(primary + X, N-Y)").
//
// CA/Browser Forum ballot SC-067 requires q >= N-1 for 2-5 remote
// perspectives and q >= N-2 for 6 or more (§5.1).
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <string>

namespace marcopolo::mpic {

struct QuorumPolicy {
  std::size_t remote_count = 0;
  std::size_t max_failures = 0;  ///< Y in "N-Y".
  bool primary_required = false;

  QuorumPolicy() = default;
  QuorumPolicy(std::size_t remotes, std::size_t failures, bool primary = false)
      : remote_count(remotes), max_failures(failures),
        primary_required(primary) {
    if (failures >= remotes && remotes > 0) {
      throw std::invalid_argument("quorum would allow all remotes to fail");
    }
  }

  /// Minimum number of remote successes for issuance (q = X - Y).
  [[nodiscard]] std::size_t required() const {
    return remote_count - max_failures;
  }

  /// The CA/Browser Forum's minimum policy for a remote-perspective count.
  [[nodiscard]] static QuorumPolicy cab_minimum(std::size_t remotes,
                                                bool primary = false) {
    return QuorumPolicy(remotes, remotes >= 6 ? 2 : (remotes >= 2 ? 1 : 0),
                        primary);
  }

  /// Does this policy satisfy the ballot's quorum requirement?
  [[nodiscard]] bool cab_compliant() const {
    if (remote_count < 2) return false;
    return max_failures <= (remote_count >= 6 ? std::size_t{2}
                                              : std::size_t{1});
  }

  /// Issuance decision given per-remote successes and, when
  /// primary_required, the primary's success.
  [[nodiscard]] bool allows_issuance(std::span<const bool> remote_success,
                                     bool primary_success = true) const {
    if (remote_success.size() != remote_count) {
      throw std::invalid_argument("remote result count != policy size");
    }
    if (primary_required && !primary_success) return false;
    std::size_t ok = 0;
    for (const bool s : remote_success) {
      if (s) ++ok;
    }
    return ok >= required();
  }

  /// From the attacker's side: does capturing `hijacked_remotes` remote
  /// perspectives (and the primary iff `primary_hijacked`) yield a
  /// certificate? Captured perspectives validate the adversary's token
  /// successfully; the rest reach the real victim, whose server does not
  /// serve the adversary's challenge, and fail.
  [[nodiscard]] bool attack_succeeds(std::size_t hijacked_remotes,
                                     bool primary_hijacked = true) const {
    if (primary_required && !primary_hijacked) return false;
    return hijacked_remotes >= required();
  }

  /// "(5, N-1)" / "(primary + 6, N-2)" notation.
  [[nodiscard]] std::string to_string() const {
    std::string out = "(";
    if (primary_required) out += "primary + ";
    out += std::to_string(remote_count);
    out += ", N";
    if (max_failures > 0) {
      out += '-';
      out += std::to_string(max_failures);
    }
    out += ")";
    return out;
  }

  friend bool operator==(const QuorumPolicy&, const QuorumPolicy&) = default;
};

}  // namespace marcopolo::mpic
