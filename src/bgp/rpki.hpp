// RPKI: Route Origin Authorizations and Route Origin Validation (RFC 6811).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bgp/announcement.hpp"
#include "bgp/types.hpp"
#include "netsim/ip.hpp"
#include "netsim/prefix_trie.hpp"

namespace marcopolo::bgp {

/// A Route Origin Authorization: `asn` may originate `prefix` and any
/// more-specific prefix up to `max_len` bits. Per RFC 9319 the MAX_LEN
/// attribute is discouraged (it enables forged-origin sub-prefix hijacks);
/// when absent, only the exact prefix length is authorized.
struct Roa {
  netsim::Ipv4Prefix prefix;
  Asn asn;
  std::optional<std::uint8_t> max_len;

  [[nodiscard]] std::uint8_t effective_max_len() const {
    return max_len.value_or(prefix.length());
  }
};

enum class RpkiValidity : std::uint8_t { NotFound, Valid, Invalid };

[[nodiscard]] constexpr const char* to_cstring(RpkiValidity v) {
  switch (v) {
    case RpkiValidity::NotFound: return "not-found";
    case RpkiValidity::Valid: return "valid";
    case RpkiValidity::Invalid: return "invalid";
  }
  return "?";
}

/// Registry of ROAs with covering-ROA lookup.
class RoaRegistry {
 public:
  void add(const Roa& roa);
  bool remove(const netsim::Ipv4Prefix& prefix, Asn asn);

  /// RFC 6811 validation: Valid if some covering ROA authorizes (origin,
  /// length); Invalid if covering ROAs exist but none match; NotFound if no
  /// ROA covers the prefix.
  [[nodiscard]] RpkiValidity validate(const netsim::Ipv4Prefix& announced,
                                      Asn origin) const;

  [[nodiscard]] std::size_t size() const { return count_; }

 private:
  netsim::PrefixTrie<std::vector<Roa>> trie_;
  std::size_t count_ = 0;
};

/// Route Origin Validation as a filter: false iff `roas` is set and `ann`
/// validates Invalid. A locally originated route (empty path) has no origin
/// to validate and always passes. This is the per-candidate rule a cloud
/// edge applies to its Adj-RIB-In (cloud::CloudProviderModel::select_egress).
[[nodiscard]] inline bool passes_rov(const Announcement& ann,
                                     const RoaRegistry* roas) {
  return roas == nullptr || ann.as_path.empty() ||
         roas->validate(ann.prefix, ann.origin()) != RpkiValidity::Invalid;
}

}  // namespace marcopolo::bgp
