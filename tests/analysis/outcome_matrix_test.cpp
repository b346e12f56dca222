// Differential property tests: the packed OutcomeMatrix kernels versus the
// retained byte-per-pair ScalarReference (the seed implementation).
//
// The packed plane's contract is exact double equality — not tolerance —
// because both paths must produce identical integer defended-counts and
// accumulate them in the same order. Cases deliberately cover pair counts
// that are a multiple of 64 (8 sites), below one word (5 sites), and
// straddling a word boundary (9 sites), plus empty sets, the full
// perspective roster, the primary conjunct, and every quorum shape from
// the paper's Table 2.
#include "analysis/outcome_matrix.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/resilience.hpp"
#include "analysis/scalar_reference.hpp"
#include "mpic/quorum.hpp"
#include "netsim/random.hpp"
#include "testbed_fixture.hpp"

namespace marcopolo::analysis {
namespace {

using core::PerspectiveIndex;
using core::ResultStore;
using core::SiteIndex;
using testing_support::shared_dataset;

/// A fully-populated randomized store. Diagonal cells are written too —
/// the packed kernels must mask them out via the attackable mask exactly
/// where the scalar loops `continue` past a == v.
ResultStore random_store(std::size_t sites, std::size_t perspectives,
                         std::uint64_t seed, double hijack_rate = 0.4) {
  ResultStore store(sites, perspectives);
  netsim::Rng rng(seed);
  for (SiteIndex v = 0; v < sites; ++v) {
    for (SiteIndex a = 0; a < sites; ++a) {
      for (PerspectiveIndex p = 0; p < perspectives; ++p) {
        const auto outcome = rng.chance(hijack_rate)
                                 ? bgp::OriginReached::Adversary
                                 : bgp::OriginReached::Victim;
        store.record(v, a, p, outcome);
      }
    }
  }
  return store;
}

std::vector<PerspectiveIndex> random_set(netsim::Rng& rng, std::size_t size,
                                         std::size_t perspectives) {
  std::vector<PerspectiveIndex> set;
  while (set.size() < size) {
    const auto p = static_cast<PerspectiveIndex>(rng.index(perspectives));
    bool dup = false;
    for (const auto q : set) dup = dup || q == p;
    if (!dup) set.push_back(p);
  }
  return set;
}

void expect_scores_identical(const ResilienceAnalyzer& packed,
                             const ScalarReference& scalar,
                             std::span<const PerspectiveIndex> set,
                             std::size_t required,
                             std::optional<PerspectiveIndex> primary) {
  // Scalar path: count workspace + seed scoring loop.
  auto counts = scalar.make_counts();
  for (const auto p : set) scalar.add(counts, p);
  const auto expected = scalar.score(counts, required, primary);

  // Packed path (word reductions, no counters).
  auto scratch = packed.make_scratch();
  const auto direct = packed.score_set(set, required, primary, scratch);
  EXPECT_EQ(direct.median, expected.median);
  EXPECT_EQ(direct.average, expected.average);

  // Per-victim vectors agree element-for-element.
  const auto pv_packed = packed.per_victim_resilience(set, required, primary);
  const auto pv_scalar = scalar.per_victim(set, required, primary);
  ASSERT_EQ(pv_packed.size(), pv_scalar.size());
  for (std::size_t v = 0; v < pv_packed.size(); ++v) {
    EXPECT_EQ(pv_packed[v], pv_scalar[v]) << "victim " << v;
  }
}

TEST(OutcomeMatrix, PackedBitsMatchScalarBytes) {
  // Every cell holds one of the four states a store knows: Adversary,
  // Victim, None, or never recorded. Only Adversary may pack to 1.
  for (const std::size_t sites : {5u, 8u, 9u}) {
    ResultStore store(sites, 12);
    netsim::Rng rng(0xA0 + sites);
    std::vector<bool> hijacked(store.num_perspectives() * store.num_pairs());
    std::size_t none = 0;
    std::size_t unrecorded = 0;
    for (PerspectiveIndex p = 0; p < store.num_perspectives(); ++p) {
      for (SiteIndex v = 0; v < sites; ++v) {
        for (SiteIndex a = 0; a < sites; ++a) {
          const std::size_t state = rng.index(4);
          if (state == 3) {
            ++unrecorded;
            continue;
          }
          const auto outcome = static_cast<bgp::OriginReached>(state);
          none += outcome == bgp::OriginReached::None;
          store.record(v, a, p, outcome);
          hijacked[p * store.num_pairs() + store.pair_index(v, a)] =
              outcome == bgp::OriginReached::Adversary;
        }
      }
    }
    ASSERT_GT(none, 0u);
    ASSERT_GT(unrecorded, 0u);
    const OutcomeMatrix matrix(store);
    const ScalarReference scalar(store);
    for (PerspectiveIndex p = 0; p < store.num_perspectives(); ++p) {
      const std::uint8_t* bytes = scalar.hijack_bytes(p);
      for (std::size_t pair = 0; pair < matrix.num_pairs(); ++pair) {
        const bool expected = hijacked[p * matrix.num_pairs() + pair];
        EXPECT_EQ(matrix.bit(p, pair), expected)
            << "sites=" << sites << " p=" << p << " pair=" << pair;
        EXPECT_EQ(bytes[pair] != 0, expected) << "pair=" << pair;
      }
    }
  }
}

TEST(OutcomeMatrix, TailBitsBeyondNumPairsStayZero) {
  // 5 sites -> 25 pairs (partial word); 9 sites -> 81 pairs (one full word
  // plus a partial). 8 sites -> exactly 64, no tail bits at all.
  for (const std::size_t sites : {5u, 8u, 9u}) {
    const auto store = random_store(sites, 6, 0xB0 + sites, 1.0);
    const OutcomeMatrix matrix(store);
    const std::size_t pairs = matrix.num_pairs();
    for (PerspectiveIndex p = 0; p < store.num_perspectives(); ++p) {
      const auto row = matrix.row(p);
      for (std::size_t bit = pairs; bit < row.size() * 64; ++bit) {
        EXPECT_FALSE((row[bit / 64] >> (bit % 64)) & 1)
            << "sites=" << sites << " tail bit " << bit << " set";
      }
    }
    // The attackable mask shares the invariant.
    const auto attackable = matrix.attackable();
    for (std::size_t bit = pairs; bit < attackable.size() * 64; ++bit) {
      EXPECT_FALSE((attackable[bit / 64] >> (bit % 64)) & 1);
    }
  }
}

TEST(OutcomeMatrix, AttackableMaskExcludesExactlyTheDiagonal) {
  const auto store = random_store(9, 4, 0xD1);
  const OutcomeMatrix matrix(store);
  const auto attackable = matrix.attackable();
  for (std::size_t pair = 0; pair < matrix.num_pairs(); ++pair) {
    const bool diagonal = pair / 9 == pair % 9;
    const bool set = (attackable[pair / 64] >> (pair % 64)) & 1;
    EXPECT_EQ(set, !diagonal) << "pair " << pair;
  }
}

TEST(OutcomeMatrix, ScoresMatchScalarAcrossTable2Quorums) {
  // Every quorum shape from the paper's Table 2: the CAB minimum for each
  // remote count (Y=0 for 1, Y=1 for 2-5, Y=2 for >=6), plus the stricter
  // (N, N) unanimity variant at each size.
  netsim::Rng rng(0x7AB1E2);
  for (const std::size_t sites : {5u, 8u, 9u}) {
    const auto store = random_store(sites, 24, 0xC0 + sites);
    const ResilienceAnalyzer packed(store);
    const ScalarReference scalar(store);
    for (const std::size_t remotes : {1u, 2u, 3u, 5u, 6u, 9u, 14u}) {
      const auto set = random_set(rng, remotes, store.num_perspectives());
      const auto cab = mpic::QuorumPolicy::cab_minimum(remotes);
      expect_scores_identical(packed, scalar, set, cab.required(),
                              std::nullopt);
      expect_scores_identical(packed, scalar, set, remotes, std::nullopt);
      if (remotes >= 2) {
        // Intermediate thresholds exercise the bit-sliced general kernel
        // (neither the OR nor the AND fast path).
        expect_scores_identical(packed, scalar, set, remotes - 1,
                                std::nullopt);
      }
    }
  }
}

TEST(OutcomeMatrix, EmptySetMatchesScalar) {
  const auto store = random_store(9, 8, 0xE5);
  const ResilienceAnalyzer packed(store);
  const ScalarReference scalar(store);
  const std::vector<PerspectiveIndex> empty;
  // required = 0: every ordered pair is attackable (count 0 >= 0), so
  // resilience collapses to 0 everywhere. required = 1 > |set|: nothing
  // is attackable, resilience is 1 everywhere. Both must agree exactly.
  expect_scores_identical(packed, scalar, empty, 0, std::nullopt);
  expect_scores_identical(packed, scalar, empty, 1, std::nullopt);
  expect_scores_identical(packed, scalar, empty, 0, PerspectiveIndex{3});
}

TEST(OutcomeMatrix, RequiredBeyondSetSizeMatchesScalar) {
  const auto store = random_store(5, 10, 0xF7);
  const ResilienceAnalyzer packed(store);
  const ScalarReference scalar(store);
  const std::vector<PerspectiveIndex> set{1, 4, 7};
  expect_scores_identical(packed, scalar, set, 4, std::nullopt);
  expect_scores_identical(packed, scalar, set, 100, std::nullopt);
}

TEST(OutcomeMatrix, PrimaryConjunctMatchesScalar) {
  netsim::Rng rng(0x9121);
  const auto store = random_store(9, 20, 0x9122);
  const ResilienceAnalyzer packed(store);
  const ScalarReference scalar(store);
  for (int trial = 0; trial < 8; ++trial) {
    const auto set = random_set(rng, 5, store.num_perspectives());
    const auto primary =
        static_cast<PerspectiveIndex>(rng.index(store.num_perspectives()));
    const auto cab = mpic::QuorumPolicy::cab_minimum(set.size());
    expect_scores_identical(packed, scalar, set, cab.required(), primary);
    // A primary inside the remote set is legal for the kernels.
    expect_scores_identical(packed, scalar, set, cab.required(), set[0]);
  }
}

TEST(OutcomeMatrix, FullPerspectiveRosterMatchesScalarOnCampaignData) {
  // Real campaign data with the complete perspective roster deployed —
  // the largest set the kernels ever see, driving the bit-sliced counter
  // through its widest planes.
  const ResultStore& store = shared_dataset().no_rpki;
  const ResilienceAnalyzer packed(store);
  const ScalarReference scalar(store);
  std::vector<PerspectiveIndex> all(store.num_perspectives());
  for (std::size_t p = 0; p < all.size(); ++p) {
    all[p] = static_cast<PerspectiveIndex>(p);
  }
  const auto cab = mpic::QuorumPolicy::cab_minimum(all.size());
  expect_scores_identical(packed, scalar, all, cab.required(), std::nullopt);
  expect_scores_identical(packed, scalar, all, cab.required(),
                          PerspectiveIndex{0});
  expect_scores_identical(packed, scalar, all, all.size(), std::nullopt);
  expect_scores_identical(packed, scalar, all, 1, std::nullopt);
}

TEST(OutcomeMatrix, RandomSetsMatchScalarOnCampaignData) {
  const ResultStore& store = shared_dataset().no_rpki;
  const ResilienceAnalyzer packed(store);
  const ScalarReference scalar(store);
  netsim::Rng rng(0x5EED);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t size = 2 + rng.index(10);
    const auto set = random_set(rng, size, store.num_perspectives());
    const auto cab = mpic::QuorumPolicy::cab_minimum(size);
    expect_scores_identical(packed, scalar, set, cab.required(),
                            std::nullopt);
  }
}

}  // namespace
}  // namespace marcopolo::analysis
