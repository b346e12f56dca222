#include "marcopolo/result_store.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace marcopolo::core {
namespace {

using bgp::OriginReached;

TEST(ResultStore, RecordAndQuery) {
  ResultStore store(3, 2);
  EXPECT_EQ(store.num_sites(), 3u);
  EXPECT_EQ(store.num_perspectives(), 2u);
  EXPECT_EQ(store.num_pairs(), 9u);

  store.record(0, 1, 0, OriginReached::Adversary);
  store.record(0, 1, 1, OriginReached::Victim);
  EXPECT_TRUE(store.hijacked(0, 1, 0));
  EXPECT_FALSE(store.hijacked(0, 1, 1));
  EXPECT_EQ(store.outcome(0, 1, 0), OriginReached::Adversary);
  EXPECT_EQ(store.outcome(0, 1, 1), OriginReached::Victim);
  // Unrecorded reads as None / not hijacked.
  EXPECT_EQ(store.outcome(1, 0, 0), OriginReached::None);
  EXPECT_FALSE(store.hijacked(1, 0, 0));
}

TEST(ResultStore, HijackedCountOverSet) {
  ResultStore store(2, 4);
  store.record(0, 1, 0, OriginReached::Adversary);
  store.record(0, 1, 1, OriginReached::Victim);
  store.record(0, 1, 2, OriginReached::Adversary);
  store.record(0, 1, 3, OriginReached::None);
  const std::vector<PerspectiveIndex> all = {0, 1, 2, 3};
  const std::vector<PerspectiveIndex> clean = {1, 3};
  EXPECT_EQ(store.hijacked_count(0, 1, all), 2u);
  EXPECT_EQ(store.hijacked_count(0, 1, clean), 0u);
  EXPECT_EQ(store.hijacked_count(0, 1, std::span<const PerspectiveIndex>{}),
            0u);
}

TEST(ResultStore, PairCompleteness) {
  ResultStore store(2, 2);
  EXPECT_FALSE(store.pair_complete(0, 1));
  store.record(0, 1, 0, OriginReached::Victim);
  EXPECT_FALSE(store.pair_complete(0, 1));
  store.record(0, 1, 1, OriginReached::None);
  EXPECT_TRUE(store.pair_complete(0, 1))
      << "None is a recorded outcome, distinct from unrecorded";
}

TEST(ResultStore, RecordValidatesIndices) {
  ResultStore store(2, 2);
  EXPECT_THROW(store.record(2, 0, 0, OriginReached::Victim),
               std::out_of_range);
  EXPECT_THROW(store.record(0, 2, 0, OriginReached::Victim),
               std::out_of_range);
  EXPECT_THROW(store.record(0, 1, 2, OriginReached::Victim),
               std::out_of_range);
}

TEST(ResultStore, OverwriteOnRetry) {
  ResultStore store(2, 1);
  store.record(0, 1, 0, OriginReached::Adversary);
  store.record(0, 1, 0, OriginReached::Victim);  // retry overwrites
  EXPECT_FALSE(store.hijacked(0, 1, 0));
}

TEST(ResultStore, SaveEmitsSchemaCommentFirst) {
  ResultStore store(2, 1);
  std::stringstream buffer;
  store.save_csv(buffer);
  std::string line;
  ASSERT_TRUE(std::getline(buffer, line));
  EXPECT_EQ(line, "# schema=2");
  // The attack_types comment names every plane so the numeric attack
  // column in the rows below stays self-describing.
  ASSERT_TRUE(std::getline(buffer, line));
  EXPECT_EQ(line, "# attack_types=equally-specific");
  ASSERT_TRUE(std::getline(buffer, line));
  EXPECT_EQ(line, "sites,2,perspectives,1,attacks,1");
}

TEST(ResultStore, BinaryRoundTripPreservesEveryCellIncludingUnrecorded) {
  // Odd cell count (3*3*3 = 27) exercises the pad nibble too.
  ResultStore store(3, 3);
  store.record(0, 1, 0, OriginReached::Adversary);
  store.record(0, 1, 1, OriginReached::Victim);
  store.record(0, 1, 2, OriginReached::None);
  store.record(1, 0, 0, OriginReached::Victim);
  store.record(2, 0, 2, OriginReached::Adversary);
  // (1, 2) left fully unrecorded.

  std::stringstream buffer;
  store.save_binary(buffer);
  const ResultStore loaded = ResultStore::load_binary(buffer);

  ASSERT_EQ(loaded.num_sites(), store.num_sites());
  ASSERT_EQ(loaded.num_perspectives(), store.num_perspectives());
  for (SiteIndex v = 0; v < 3; ++v) {
    for (SiteIndex a = 0; a < 3; ++a) {
      EXPECT_EQ(loaded.pair_complete(v, a), store.pair_complete(v, a));
      for (PerspectiveIndex p = 0; p < 3; ++p) {
        EXPECT_EQ(loaded.outcome(v, a, p), store.outcome(v, a, p))
            << "cell " << v << "," << a << "," << p;
        EXPECT_EQ(loaded.hijacked(v, a, p), store.hijacked(v, a, p));
      }
    }
  }
}

TEST(ResultStore, BinaryIsSmallerThanCsv) {
  ResultStore store(8, 16);
  for (SiteIndex v = 0; v < 8; ++v) {
    for (SiteIndex a = 0; a < 8; ++a) {
      for (PerspectiveIndex p = 0; p < 16; ++p) {
        store.record(v, a, p,
                     (v + a + p) % 2 == 0 ? OriginReached::Adversary
                                          : OriginReached::Victim);
      }
    }
  }
  std::stringstream csv;
  store.save_csv(csv);
  std::stringstream bin;
  store.save_binary(bin);
  EXPECT_LT(bin.str().size(), csv.str().size() / 8);
}

TEST(ResultStore, BinaryRejectsBadMagic) {
  ResultStore store(2, 1);
  std::stringstream buffer;
  store.save_binary(buffer);
  std::string bytes = buffer.str();
  bytes[0] = 'X';
  std::stringstream corrupted(bytes);
  EXPECT_THROW((void)ResultStore::load_binary(corrupted), std::runtime_error);

  std::stringstream empty("");
  EXPECT_THROW((void)ResultStore::load_binary(empty), std::runtime_error);
}

TEST(ResultStore, BinaryRejectsUnknownSchema) {
  ResultStore store(2, 1);
  std::stringstream buffer;
  store.save_binary(buffer);
  std::string bytes = buffer.str();
  bytes[4] = 9;  // schema byte
  std::stringstream future(bytes);
  EXPECT_THROW((void)ResultStore::load_binary(future), std::runtime_error);

  // Schema 1 had no attack dimension: "MPRS", schema byte 1 + 3 reserved
  // zeros, u32le sites=2, u32le perspectives=1, then 4 cells packed in 2
  // bytes. It is no longer read.
  const unsigned char schema1[] = {
      'M', 'P', 'R', 'S', 1, 0, 0, 0,  // magic + schema
      2,   0,   0,   0,                // sites
      1,   0,   0,   0,                // perspectives
      0x2F, 0xF1,                      // outcome cells
  };
  std::stringstream legacy(std::string(
      reinterpret_cast<const char*>(schema1), sizeof schema1));
  EXPECT_THROW((void)ResultStore::load_binary(legacy), std::runtime_error);
}

TEST(ResultStore, BinaryRejectsTruncation) {
  ResultStore store(4, 4);
  store.record(0, 1, 0, OriginReached::Adversary);
  std::stringstream buffer;
  store.save_binary(buffer);
  const std::string bytes = buffer.str();
  // Every strictly shorter prefix must be rejected, wherever it cuts.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, std::size_t{6}, std::size_t{10},
        std::size_t{15}, bytes.size() - 1}) {
    std::stringstream truncated(bytes.substr(0, keep));
    EXPECT_THROW((void)ResultStore::load_binary(truncated),
                 std::runtime_error)
        << "prefix of " << keep << " bytes";
  }
  // A header alone that names 65535 sites and 65535 perspectives: the
  // plane it promises (~140 TB) is missing, which must be reported as a
  // truncation before a store that size is allocated.
  std::string huge = bytes.substr(0, 21);  // 20-byte header + 1 attack type
  for (const std::size_t field : {std::size_t{8}, std::size_t{12}}) {
    huge[field] = huge[field + 1] = static_cast<char>(0xff);
    huge[field + 2] = huge[field + 3] = 0;
  }
  std::stringstream header_only(huge);
  EXPECT_THROW((void)ResultStore::load_binary(header_only),
               std::runtime_error)
      << "65535 x 65535 header with no plane";
}

TEST(ResultStore, BinaryRejectsOutOfRangeNibble) {
  ResultStore store(2, 1);
  std::stringstream buffer;
  store.save_binary(buffer);
  std::string bytes = buffer.str();
  // First plane byte (after the 20-byte schema-2 header and 1 attack-type
  // byte): low nibble = cell 0. 0x7 is not an outcome (0xF is the
  // unrecorded sentinel, 0..2 the enumerators).
  bytes[21] = 0x07;
  std::stringstream corrupted(bytes);
  EXPECT_THROW((void)ResultStore::load_binary(corrupted), std::runtime_error);
}

// ----------------------------- attack planes and schema evolution

TEST(ResultStore, ConstructorValidatesAttackList) {
  EXPECT_THROW(ResultStore(2, 1, std::vector<bgp::AttackType>{}),
               std::invalid_argument);
  EXPECT_THROW(ResultStore(2, 1,
                           {bgp::AttackType::RouteLeak,
                            bgp::AttackType::RouteLeak}),
               std::invalid_argument);
}

TEST(ResultStore, PlanesAreIndependent) {
  ResultStore store(2, 2,
                    {bgp::AttackType::EquallySpecific,
                     bgp::AttackType::RouteLeak});
  store.record(0, 0, 1, 0, OriginReached::Adversary);
  store.record(1, 0, 1, 0, OriginReached::Victim);
  EXPECT_TRUE(store.hijacked(0, 0, 1, 0));
  EXPECT_FALSE(store.hijacked(1, 0, 1, 0));
  EXPECT_EQ(store.outcome(1, 0, 1, 0), OriginReached::Victim);
  // The attack-less accessors are plane 0.
  EXPECT_TRUE(store.hijacked(0, 1, 0));
  // Plane lookup by type.
  EXPECT_EQ(store.attack_index(bgp::AttackType::RouteLeak), 1u);
  EXPECT_FALSE(store.attack_index(bgp::AttackType::SubPrefix).has_value());
  EXPECT_THROW((void)store.outcome(2, 0, 1, 0), std::out_of_range);
  EXPECT_THROW(store.record(2, 0, 1, 0, OriginReached::None),
               std::out_of_range);
}

TEST(ResultStore, ExtractAttackCopiesOnePlaneWithItsTag) {
  ResultStore store(2, 2,
                    {bgp::AttackType::EquallySpecific,
                     bgp::AttackType::RouteLeak});
  store.record(0, 0, 1, 0, OriginReached::Adversary);
  store.record(1, 0, 1, 0, OriginReached::Victim);
  store.record(1, 1, 0, 1, OriginReached::Adversary);

  const ResultStore leak = store.extract_attack(1);
  EXPECT_EQ(leak.num_attacks(), 1u);
  EXPECT_EQ(leak.attack_types()[0], bgp::AttackType::RouteLeak);
  EXPECT_EQ(leak.num_sites(), store.num_sites());
  EXPECT_EQ(leak.num_perspectives(), store.num_perspectives());
  for (SiteIndex v = 0; v < 2; ++v) {
    for (SiteIndex a = 0; a < 2; ++a) {
      for (PerspectiveIndex p = 0; p < 2; ++p) {
        EXPECT_EQ(leak.outcome(v, a, p), store.outcome(1, v, a, p));
        EXPECT_EQ(leak.hijacked(v, a, p), store.hijacked(1, v, a, p));
        EXPECT_EQ(leak.pair_complete(v, a), store.pair_complete(1, v, a));
      }
    }
  }
  EXPECT_THROW((void)store.extract_attack(2), std::out_of_range);
}

TEST(ResultStore, MultiPlaneBinaryRoundTripPreservesPlanesAndTags) {
  // Odd total cell count (3 planes * 9 pairs * 3 perspectives = 81): the
  // single pad nibble sits at the very end of the last plane, not per
  // plane, and must round-trip away.
  ResultStore store(3, 3,
                    {bgp::AttackType::EquallySpecific,
                     bgp::AttackType::SubPrefix,
                     bgp::AttackType::RouteLeak});
  store.record(0, 0, 1, 0, OriginReached::Adversary);
  store.record(1, 1, 2, 1, OriginReached::Victim);
  store.record(2, 2, 0, 2, OriginReached::None);

  std::stringstream buffer;
  store.save_binary(buffer);
  const ResultStore loaded = ResultStore::load_binary(buffer);

  ASSERT_EQ(loaded.num_attacks(), 3u);
  EXPECT_EQ(loaded.attack_types()[2], bgp::AttackType::RouteLeak);
  for (std::size_t t = 0; t < 3; ++t) {
    for (SiteIndex v = 0; v < 3; ++v) {
      for (SiteIndex a = 0; a < 3; ++a) {
        for (PerspectiveIndex p = 0; p < 3; ++p) {
          EXPECT_EQ(loaded.outcome(t, v, a, p), store.outcome(t, v, a, p))
              << "plane " << t << " cell " << v << "," << a << "," << p;
        }
        EXPECT_EQ(loaded.pair_complete(t, v, a), store.pair_complete(t, v, a));
      }
    }
  }
}

TEST(ResultStore, BinaryRejectsBadAttackMetadata) {
  ResultStore store(2, 1);
  std::stringstream buffer;
  store.save_binary(buffer);
  const std::string bytes = buffer.str();

  // Zero planes (attack count u32 at offset 16).
  std::string zero = bytes;
  zero[16] = 0;
  std::stringstream zero_in(zero);
  EXPECT_THROW((void)ResultStore::load_binary(zero_in), std::runtime_error);

  // An attack-type byte no registry entry exists for (offset 20).
  std::string unknown = bytes;
  unknown[20] = static_cast<char>(200);
  std::stringstream unknown_in(unknown);
  EXPECT_THROW((void)ResultStore::load_binary(unknown_in),
               std::runtime_error);

  // Two planes both tagged 0 (EquallySpecific), with room for both
  // planes' cells: a bad file, not the constructor's
  // std::invalid_argument.
  std::string repeated = bytes;
  repeated[16] = 2;
  repeated.insert(21, 1, '\0');
  repeated.append(2, static_cast<char>(0xff));
  std::stringstream repeated_in(repeated);
  EXPECT_THROW((void)ResultStore::load_binary(repeated_in),
               std::runtime_error);
}

TEST(ResultStore, ReadersRejectDimsAndIndicesBeyondSixteenBits) {
  // Before the bound, a file with 2^27 sites and 2^16 perspectives loaded
  // as empty planes that the next hijacked_count read past.
  std::string mprs = {'M', 'P', 'R', 'S', 2, 0, 0, 0};
  for (const std::uint32_t dim : {1u << 27, 1u << 16, 1u}) {
    for (int shift = 0; shift < 32; shift += 8) {
      mprs.push_back(static_cast<char>((dim >> shift) & 0xff));
    }
  }
  mprs.push_back(0);  // one EquallySpecific plane
  std::istringstream in(mprs);
  EXPECT_THROW((void)ResultStore::load_binary(in), std::runtime_error);
  EXPECT_THROW(ResultStore(ResultStore::kMaxSites + 1, 0),
               std::invalid_argument);
  EXPECT_THROW(ResultStore(1, ResultStore::kMaxPerspectives + 1),
               std::invalid_argument);
}

TEST(ResultStore, RecordUnsynchronizedMatchesRecord) {
  ResultStore a(2, 2);
  ResultStore b(2, 2);
  a.record(0, 1, 0, OriginReached::Adversary);
  a.record(1, 0, 1, OriginReached::Victim);
  b.record_unsynchronized(0, 1, 0, OriginReached::Adversary);
  b.record_unsynchronized(1, 0, 1, OriginReached::Victim);
  for (SiteIndex v = 0; v < 2; ++v) {
    for (SiteIndex adv = 0; adv < 2; ++adv) {
      for (PerspectiveIndex p = 0; p < 2; ++p) {
        EXPECT_EQ(a.outcome(v, adv, p), b.outcome(v, adv, p));
        EXPECT_EQ(a.hijacked(v, adv, p), b.hijacked(v, adv, p));
      }
    }
  }
}

}  // namespace
}  // namespace marcopolo::core
