#include "marcopolo/result_store.hpp"

#include <algorithm>
#include <array>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "bgp/attack_model.hpp"

namespace marcopolo::core {

namespace {

/// `n` when the 16-bit index type can address it; the dims are checked
/// before any plane size is computed, since sites^2 * perspectives wraps.
std::size_t checked_dim(std::size_t n, std::size_t max, const char* what) {
  if (n > max) {
    throw std::invalid_argument("ResultStore " + std::string(what) + " " +
                                std::to_string(n) + " exceeds " +
                                std::to_string(max));
  }
  return n;
}

/// The reader's header check: dims the constructor would reject are a
/// bad file, not a bad argument.
void check_header_dims(std::size_t sites, std::size_t perspectives) {
  if (sites > ResultStore::kMaxSites ||
      perspectives > ResultStore::kMaxPerspectives) {
    throw std::runtime_error("results binary dims out of range: " +
                             std::to_string(sites) + " sites, " +
                             std::to_string(perspectives) + " perspectives");
  }
}

/// The reader's plane-tag check, made before `type` joins `seen`: a type
/// named twice is a bad file, not the constructor's bad argument.
void check_new_attack(const std::vector<bgp::AttackType>& seen,
                      bgp::AttackType type) {
  if (std::find(seen.begin(), seen.end(), type) != seen.end()) {
    throw std::runtime_error(std::string("results binary names attack type ") +
                             bgp::to_cstring(type) + " twice");
  }
}

}  // namespace

ResultStore::ResultStore(std::size_t num_sites, std::size_t num_perspectives)
    : ResultStore(num_sites, num_perspectives,
                  {bgp::AttackType::EquallySpecific}) {}

ResultStore::ResultStore(std::size_t num_sites, std::size_t num_perspectives,
                         std::vector<bgp::AttackType> attacks)
    : num_sites_(checked_dim(num_sites, kMaxSites, "sites")),
      num_perspectives_(
          checked_dim(num_perspectives, kMaxPerspectives, "perspectives")),
      attacks_(std::move(attacks)),
      outcomes_(num_sites * num_sites * num_perspectives * attacks_.size(),
                kUnrecorded) {
  if (attacks_.empty()) {
    throw std::invalid_argument("ResultStore needs at least one attack type");
  }
  for (std::size_t i = 0; i < attacks_.size(); ++i) {
    for (std::size_t j = i + 1; j < attacks_.size(); ++j) {
      if (attacks_[i] == attacks_[j]) {
        throw std::invalid_argument(
            std::string("duplicate attack type in ResultStore: ") +
            bgp::to_cstring(attacks_[i]));
      }
    }
  }
}

void ResultStore::record(std::size_t attack, SiteIndex victim,
                         SiteIndex adversary, PerspectiveIndex p,
                         bgp::OriginReached outcome) {
  if (attack >= attacks_.size() || victim >= num_sites_ ||
      adversary >= num_sites_ || p >= num_perspectives_) {
    throw std::out_of_range("record() index");
  }
  record_unsynchronized(attack, victim, adversary, p, outcome);
}

bgp::OriginReached ResultStore::outcome(std::size_t attack, SiteIndex victim,
                                        SiteIndex adversary,
                                        PerspectiveIndex p) const {
  if (attack >= attacks_.size()) throw std::out_of_range("attack index");
  const std::size_t idx = (attack * num_perspectives_ + p) * num_pairs() +
                          pair_index(victim, adversary);
  const std::uint8_t raw = outcomes_.at(idx);
  if (raw == kUnrecorded) return bgp::OriginReached::None;
  return static_cast<bgp::OriginReached>(raw);
}

std::size_t ResultStore::hijacked_count(
    std::size_t attack, SiteIndex victim, SiteIndex adversary,
    std::span<const PerspectiveIndex> set) const {
  if (attack >= attacks_.size()) throw std::out_of_range("attack index");
  const std::uint8_t* cell = outcomes_.data() +
                             attack * num_perspectives_ * num_pairs() +
                             pair_index(victim, adversary);
  std::size_t count = 0;
  for (const PerspectiveIndex p : set) {
    count += cell[p * num_pairs()] ==
             static_cast<std::uint8_t>(bgp::OriginReached::Adversary);
  }
  return count;
}

bool ResultStore::pair_complete(std::size_t attack, SiteIndex victim,
                                SiteIndex adversary) const {
  if (attack >= attacks_.size()) throw std::out_of_range("attack index");
  for (std::size_t p = 0; p < num_perspectives_; ++p) {
    if (outcomes_[(attack * num_perspectives_ + p) * num_pairs() +
                  pair_index(victim, adversary)] == kUnrecorded) {
      return false;
    }
  }
  return true;
}

void ResultStore::pack_hijacked_row(PerspectiveIndex p,
                                    std::span<std::uint64_t> words) const {
  if (p >= num_perspectives_) throw std::out_of_range("perspective index");
  const std::size_t pairs = num_pairs();
  const std::uint8_t* row = outcomes_.data() + p * pairs;
  constexpr auto kHijacked =
      static_cast<std::uint8_t>(bgp::OriginReached::Adversary);
  for (std::size_t w = 0; w < words.size(); ++w) {
    const std::size_t begin = w * 64;
    const std::size_t end = std::min(pairs, begin + 64);
    std::uint64_t bits = 0;
    for (std::size_t i = begin; i < end; ++i) {
      bits |= std::uint64_t{row[i] == kHijacked} << (i - begin);
    }
    words[w] = bits;
  }
}

ResultStore ResultStore::extract_attack(std::size_t attack) const {
  if (attack >= attacks_.size()) throw std::out_of_range("attack index");
  ResultStore plane(num_sites_, num_perspectives_, {attacks_[attack]});
  const std::size_t cells = num_perspectives_ * num_pairs();
  std::copy_n(outcomes_.begin() +
                  static_cast<std::ptrdiff_t>(attack * cells),
              cells, plane.outcomes_.begin());
  return plane;
}

void ResultStore::save_csv(std::ostream& out) const {
  // Version comment first, so a consumer can tell format revisions
  // apart. The attack_types comment names each plane so the numeric
  // attack column stays self-describing.
  out << "# schema=2\n";
  out << "# attack_types=";
  for (std::size_t i = 0; i < attacks_.size(); ++i) {
    out << (i ? "," : "") << bgp::to_cstring(attacks_[i]);
  }
  out << "\n";
  out << "sites," << num_sites_ << ",perspectives," << num_perspectives_
      << ",attacks," << attacks_.size() << "\n";
  out << "victim,adversary,perspective,attack,outcome\n";
  for (std::size_t v = 0; v < num_sites_; ++v) {
    for (std::size_t a = 0; a < num_sites_; ++a) {
      for (std::size_t p = 0; p < num_perspectives_; ++p) {
        for (std::size_t t = 0; t < attacks_.size(); ++t) {
          const std::size_t idx =
              (t * num_perspectives_ + p) * num_pairs() +
              pair_index(static_cast<SiteIndex>(v), static_cast<SiteIndex>(a));
          if (outcomes_[idx] == kUnrecorded) continue;
          out << v << ',' << a << ',' << p << ',' << t << ','
              << static_cast<int>(outcomes_[idx]) << "\n";
        }
      }
    }
  }
}

namespace {

constexpr std::array<char, 4> kBinaryMagic = {'M', 'P', 'R', 'S'};
// Schema 2, the only one read: u32 attack count + one attack-type byte
// per plane after the perspective count, planes concatenated in tag order.
constexpr std::uint8_t kBinarySchema = 2;
// In-file nibble for a cell nobody recorded (in-memory it is 0xff, which
// does not fit a nibble).
constexpr std::uint8_t kNibbleUnrecorded = 0xf;

void put_u32le(std::ostream& out, std::uint32_t v) {
  const std::array<char, 4> bytes = {
      static_cast<char>(v & 0xff), static_cast<char>((v >> 8) & 0xff),
      static_cast<char>((v >> 16) & 0xff), static_cast<char>((v >> 24) & 0xff)};
  out.write(bytes.data(), bytes.size());
}

std::uint32_t get_u32le(std::istream& in, const char* what) {
  std::array<char, 4> bytes = {};
  if (!in.read(bytes.data(), bytes.size())) {
    throw std::runtime_error(std::string("results binary truncated in ") +
                             what);
  }
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(bytes[i]))
         << (8 * i);
  }
  return v;
}

}  // namespace

void ResultStore::save_binary(std::ostream& out) const {
  out.write(kBinaryMagic.data(), kBinaryMagic.size());
  const std::array<char, 4> schema_and_reserved = {
      static_cast<char>(kBinarySchema), 0, 0, 0};
  out.write(schema_and_reserved.data(), schema_and_reserved.size());
  put_u32le(out, static_cast<std::uint32_t>(num_sites_));
  put_u32le(out, static_cast<std::uint32_t>(num_perspectives_));
  put_u32le(out, static_cast<std::uint32_t>(attacks_.size()));
  for (const bgp::AttackType t : attacks_) {
    out.put(static_cast<char>(static_cast<std::uint8_t>(t)));
  }
  const std::size_t cells = outcomes_.size();
  std::string plane;
  plane.reserve((cells + 1) / 2);
  for (std::size_t i = 0; i < cells; i += 2) {
    const auto nibble = [&](std::size_t idx) -> std::uint8_t {
      if (idx >= cells) return 0;  // pad nibble when cell count is odd
      const std::uint8_t raw = outcomes_[idx];
      return raw == kUnrecorded ? kNibbleUnrecorded : raw;
    };
    plane.push_back(static_cast<char>(
        static_cast<std::uint8_t>(nibble(i) | (nibble(i + 1) << 4))));
  }
  out.write(plane.data(), static_cast<std::streamsize>(plane.size()));
}

ResultStore ResultStore::load_binary(std::istream& in) {
  std::array<char, 4> magic = {};
  if (!in.read(magic.data(), magic.size()) || magic != kBinaryMagic) {
    throw std::runtime_error("bad results binary magic");
  }
  std::array<char, 4> schema_and_reserved = {};
  if (!in.read(schema_and_reserved.data(), schema_and_reserved.size())) {
    throw std::runtime_error("results binary truncated in header");
  }
  const auto schema = static_cast<std::uint8_t>(schema_and_reserved[0]);
  if (schema != kBinarySchema) {
    throw std::runtime_error("unsupported results binary schema " +
                             std::to_string(schema));
  }
  const std::uint32_t sites = get_u32le(in, "sites");
  const std::uint32_t perspectives = get_u32le(in, "perspectives");
  const std::uint32_t count = get_u32le(in, "attack count");
  if (count == 0) {
    throw std::runtime_error("results binary has zero attack planes");
  }
  std::vector<bgp::AttackType> attacks;
  for (std::uint32_t i = 0; i < count; ++i) {
    const int byte = in.get();
    if (byte == std::char_traits<char>::eof()) {
      throw std::runtime_error("results binary truncated in attack types");
    }
    if (static_cast<std::size_t>(byte) >= bgp::kAttackTypeCount) {
      throw std::runtime_error("results binary unknown attack type " +
                               std::to_string(byte));
    }
    const auto type = static_cast<bgp::AttackType>(byte);
    check_new_attack(attacks, type);
    attacks.push_back(type);
  }
  check_header_dims(sites, perspectives);
  // Dims that fit the 16-bit indices can still name gigabytes; read the
  // plane in bounded chunks first, so a file holds every byte its header
  // promises before anything that size is allocated.
  const std::size_t cells = std::size_t{sites} * sites * perspectives *
                            attacks.size();
  const std::size_t plane_bytes = (cells + 1) / 2;
  constexpr std::size_t kChunk = std::size_t{1} << 20;
  std::string plane;
  while (plane.size() < plane_bytes) {
    const std::size_t offset = plane.size();
    plane.resize(offset + std::min(kChunk, plane_bytes - offset));
    if (!in.read(plane.data() + offset,
                 static_cast<std::streamsize>(plane.size() - offset))) {
      throw std::runtime_error("results binary truncated in outcome plane");
    }
  }
  ResultStore store(sites, perspectives, std::move(attacks));
  const std::size_t cells_per_plane =
      store.num_perspectives_ * store.num_pairs();
  for (std::size_t i = 0; i < cells; ++i) {
    const auto byte = static_cast<std::uint8_t>(plane[i / 2]);
    const std::uint8_t nibble = (i % 2 == 0) ? (byte & 0xf) : (byte >> 4);
    if (nibble == kNibbleUnrecorded) continue;  // constructor default
    if (nibble > static_cast<std::uint8_t>(bgp::OriginReached::Adversary)) {
      throw std::runtime_error("results binary outcome out of range: " +
                               std::to_string(nibble));
    }
    const std::size_t pair = i % store.num_pairs();
    store.record_unsynchronized(
        i / cells_per_plane, static_cast<SiteIndex>(pair / store.num_sites_),
        static_cast<SiteIndex>(pair % store.num_sites_),
        static_cast<PerspectiveIndex>((i / store.num_pairs()) %
                                      store.num_perspectives_),
        static_cast<bgp::OriginReached>(nibble));
  }
  return store;
}

}  // namespace marcopolo::core
