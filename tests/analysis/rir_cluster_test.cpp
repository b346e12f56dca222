#include "analysis/rir_cluster.hpp"

#include <gtest/gtest.h>

namespace marcopolo::analysis {
namespace {

using topo::Rir;

mpic::DeploymentSpec spec_with(std::vector<PerspectiveIndex> remotes,
                               std::optional<PerspectiveIndex> primary =
                                   std::nullopt) {
  mpic::DeploymentSpec spec;
  spec.name = std::string("s");
  spec.remotes = std::move(remotes);
  spec.primary = primary;
  spec.policy = mpic::QuorumPolicy(spec.remotes.size(), 2,
                                   primary.has_value());
  return spec;
}

// Perspective RIRs: 0-2 ARIN, 3-5 RIPE, 6-7 APNIC, 8 LACNIC, 9 AFRINIC.
std::vector<Rir> rirs() {
  return {Rir::Arin,   Rir::Arin,   Rir::Arin,  Rir::Ripe,   Rir::Ripe,
          Rir::Ripe,   Rir::Apnic,  Rir::Apnic, Rir::Lacnic, Rir::Afrinic};
}

TEST(RirCluster, SignatureSortedDescending) {
  const auto sig =
      cluster_signature(spec_with({0, 1, 2, 3, 4, 6}), rirs());
  EXPECT_EQ(sig, (ClusterSignature{3, 2, 1, 0, 0}));
  const auto sig2 = cluster_signature(spec_with({0, 1, 2, 3, 4, 5}), rirs());
  EXPECT_EQ(sig2, (ClusterSignature{3, 3, 0, 0, 0}));
}

TEST(RirCluster, FormatMatchesPaperNotation) {
  EXPECT_EQ(format_signature({3, 3, 0, 0, 0}, false), "(3,3,0,0,0)");
  EXPECT_EQ(format_signature({3, 2, 1, 0, 0}, false), "(3,2,1,0,0)");
  EXPECT_EQ(format_signature({3, 3, 0, 0, 0}, true), "(3,3,1*,0,0)");
  EXPECT_EQ(format_signature({2, 2, 2, 0, 0}, true), "(2,2,2,1*,0)");
}

TEST(RirCluster, StatsCountTopSignature) {
  std::vector<RankedDeployment> deployments;
  // Three (3,3) deployments, one (3,2,1).
  for (int i = 0; i < 3; ++i) {
    deployments.push_back(
        RankedDeployment{spec_with({0, 1, 2, 3, 4, 5}), {}});
  }
  deployments.push_back(RankedDeployment{spec_with({0, 1, 2, 3, 4, 6}), {}});
  const auto stats = analyze_clusters(deployments, rirs(), 2);
  EXPECT_EQ(stats.analyzed, 4u);
  EXPECT_EQ(stats.top_signature, "(3,3,0,0,0)");
  EXPECT_DOUBLE_EQ(stats.top_share, 0.75);
  EXPECT_DOUBLE_EQ(stats.quorum_cluster_share, 0.75);
  EXPECT_DOUBLE_EQ(stats.frequency.at("(3,2,1,0,0)"), 0.25);
}

TEST(RirCluster, PrimarySeparateRirDetected) {
  std::vector<RankedDeployment> deployments;
  // Remotes all in ARIN+RIPE; primary in APNIC (separate).
  deployments.push_back(
      RankedDeployment{spec_with({0, 1, 2, 3, 4, 5}, 6), {}});
  // Primary inside ARIN (not separate).
  deployments.push_back(
      RankedDeployment{spec_with({0, 1, 3, 4, 6, 7}, 2), {}});
  const auto stats = analyze_clusters(deployments, rirs(), 2);
  EXPECT_DOUBLE_EQ(stats.primary_separate_share, 0.5);
  EXPECT_DOUBLE_EQ(stats.frequency.at("(3,3,1*,0,0)"), 0.5);
  EXPECT_DOUBLE_EQ(stats.frequency.at("(2,2,2,0,0)"), 0.5);
}

TEST(RirCluster, EmptyInputYieldsEmptyStats) {
  const auto stats = analyze_clusters({}, rirs(), 2);
  EXPECT_EQ(stats.analyzed, 0u);
  EXPECT_TRUE(stats.frequency.empty());
}

}  // namespace
}  // namespace marcopolo::analysis
