// Cross-protocol property sweep (TEST_P over workload shapes × split
// parameters): invariants that must hold for EVERY workload, not just the
// crafted unit-test geometries.
//
//  P1  Core-point agreement: a party's core flags equal centralized
//      DBSCAN's core flags on its own records — core-ness depends only on
//      the joint neighbourhood count, which the protocols compute exactly.
//  P2  Clustered-implies-clustered: any point the horizontal protocol
//      assigns to a cluster is clustered by centralized DBSCAN too
//      (own-party reachability chains are a subset of joint chains).
//  P3  Vertical and arbitrary protocols reproduce centralized DBSCAN
//      exactly, and both parties end with identical labels.
//  P4  Enhanced mode (either selection algorithm) equals basic mode.
//  P5  Vertical local pruning changes nothing but the traffic.

#include <gtest/gtest.h>

#include <string>

#include "core/run.h"
#include "data/fixed_point.h"
#include "data/generators.h"
#include "data/partitioners.h"
#include "dbscan/dbscan.h"
#include "eval/metrics.h"

namespace ppdbscan {
namespace {

struct SweepCase {
  std::string shape;
  uint64_t seed;
  double split_fraction;  // horizontal/arbitrary split
  double eps;
  size_t min_pts;
};

std::string CaseName(const ::testing::TestParamInfo<SweepCase>& info) {
  std::string frac = std::to_string(
      static_cast<int>(info.param.split_fraction * 100));
  return info.param.shape + "_seed" + std::to_string(info.param.seed) +
         "_split" + frac;
}

class ProtocolPropertyTest : public ::testing::TestWithParam<SweepCase> {
 protected:
  void SetUp() override {
    const SweepCase& param = GetParam();
    SecureRng rng(param.seed);
    RawDataset raw;
    if (param.shape == "blobs") {
      raw = MakeBlobs(rng, 3, 9, 2, 0.5, 5.0);
      AddUniformNoise(raw, rng, 4, 7.0);
    } else if (param.shape == "moons") {
      raw = MakeTwoMoons(rng, 14, 0.05);
    } else if (param.shape == "rings") {
      raw = MakeRings(rng, 16, {1.5, 4.0}, 0.05);
    } else {
      raw = MakeDumbbell(rng, 10, 6, 6.0, 0.45);
      AddUniformNoise(raw, rng, 3, 6.0);
    }
    FixedPointEncoder enc(8.0);
    full_ = *enc.Encode(raw);
    params_ = {.eps_squared = *enc.EncodeEpsSquared(param.eps),
               .min_pts = param.min_pts};
    central_ = RunDbscan(full_, params_);

    smc_.paillier_bits = 256;
    smc_.rsa_bits = 128;
    options_.params = params_;
    options_.comparator.kind = ComparatorKind::kIdeal;
    options_.comparator.magnitude_bound =
        RecommendedComparatorBound(2, 1 << 12);
  }

  /// Runs Alice's and Bob's jobs in-process through ExecuteLocal and
  /// returns the per-party outcomes {alice, bob}.
  Result<std::vector<RunOutcome>> RunPair(ClusteringJob alice,
                                          ClusteringJob bob) const {
    return ExecuteLocal(
        {{std::move(alice), 0x0a11ce}, {std::move(bob), 0x0b0b}}, smc_);
  }
  Result<std::vector<RunOutcome>> RunHorizontal(
      const HorizontalPartition& hp, const ProtocolOptions& options) const {
    return RunPair(ClusteringJob::Horizontal(hp.alice, PartyRole::kAlice,
                                             options),
                   ClusteringJob::Horizontal(hp.bob, PartyRole::kBob, options));
  }
  Result<std::vector<RunOutcome>> RunVertical(
      const VerticalPartition& vp, const ProtocolOptions& options) const {
    return RunPair(
        ClusteringJob::Vertical(vp.alice, PartyRole::kAlice, options),
        ClusteringJob::Vertical(vp.bob, PartyRole::kBob, options));
  }

  Dataset full_{2};
  DbscanParams params_;
  DbscanResult central_;
  SmcOptions smc_;
  ProtocolOptions options_;
};

TEST_P(ProtocolPropertyTest, HorizontalCoreAndClusterInvariants) {
  SecureRng split_rng(GetParam().seed + 1);
  HorizontalPartition hp =
      *PartitionHorizontal(full_, split_rng, GetParam().split_fraction);
  Result<std::vector<RunOutcome>> out = RunHorizontal(hp, options_);
  ASSERT_TRUE(out.ok()) << out.status();

  auto check_party = [&](const PartyClusteringResult& result,
                         const std::vector<size_t>& ids, const char* who) {
    for (size_t i = 0; i < ids.size(); ++i) {
      // P1: core flags match centralized exactly.
      EXPECT_EQ(result.is_core[i], central_.is_core[ids[i]])
          << who << " point " << i;
      // P2: protocol-clustered implies centrally clustered.
      if (result.labels[i] >= 0) {
        EXPECT_GE(central_.labels[ids[i]], 0) << who << " point " << i;
      }
    }
  };
  check_party((*out)[0].clustering, hp.alice_ids, "alice");
  check_party((*out)[1].clustering, hp.bob_ids, "bob");
}

TEST_P(ProtocolPropertyTest, VerticalMatchesCentralizedExactly) {
  size_t split_dim = 1;
  VerticalPartition vp = *PartitionVertical(full_, split_dim);
  Result<std::vector<RunOutcome>> out = RunVertical(vp, options_);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_TRUE(SameClustering((*out)[0].clustering.labels, central_.labels));
  EXPECT_EQ((*out)[0].clustering.labels, (*out)[1].clustering.labels);
  EXPECT_EQ((*out)[0].clustering.is_core, central_.is_core);
}

TEST_P(ProtocolPropertyTest, ArbitraryMatchesCentralizedExactly) {
  SecureRng split_rng(GetParam().seed + 2);
  ArbitraryPartition ap =
      *PartitionArbitrary(full_, split_rng, GetParam().split_fraction);
  Result<std::vector<RunOutcome>> out = RunPair(
      ClusteringJob::Arbitrary(ap.alice, PartyRole::kAlice, options_),
      ClusteringJob::Arbitrary(ap.bob, PartyRole::kBob, options_));
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_TRUE(SameClustering((*out)[0].clustering.labels, central_.labels));
  EXPECT_EQ((*out)[0].clustering.labels, (*out)[1].clustering.labels);
}

TEST_P(ProtocolPropertyTest, EnhancedModesMatchBasic) {
  SecureRng split_rng(GetParam().seed + 1);
  HorizontalPartition hp =
      *PartitionHorizontal(full_, split_rng, GetParam().split_fraction);
  Result<std::vector<RunOutcome>> basic = RunHorizontal(hp, options_);
  ASSERT_TRUE(basic.ok()) << basic.status();

  for (SelectionAlgorithm selection :
       {SelectionAlgorithm::kKPass, SelectionAlgorithm::kQuickSelect}) {
    ProtocolOptions enhanced_options = options_;
    enhanced_options.mode = HorizontalMode::kEnhanced;
    enhanced_options.selection = selection;
    Result<std::vector<RunOutcome>> enhanced =
        RunHorizontal(hp, enhanced_options);
    ASSERT_TRUE(enhanced.ok()) << enhanced.status();
    EXPECT_EQ((*basic)[0].clustering.labels,
              (*enhanced)[0].clustering.labels);
    EXPECT_EQ((*basic)[1].clustering.labels,
              (*enhanced)[1].clustering.labels);
    EXPECT_EQ((*basic)[0].clustering.is_core,
              (*enhanced)[0].clustering.is_core);
  }
}

TEST_P(ProtocolPropertyTest, VerticalPruningOnlyChangesTraffic) {
  VerticalPartition vp = *PartitionVertical(full_, 1);
  Result<std::vector<RunOutcome>> plain = RunVertical(vp, options_);
  ASSERT_TRUE(plain.ok());
  ProtocolOptions pruned_options = options_;
  pruned_options.vdp_local_pruning = true;
  Result<std::vector<RunOutcome>> pruned = RunVertical(vp, pruned_options);
  ASSERT_TRUE(pruned.ok()) << pruned.status();
  EXPECT_EQ((*plain)[0].clustering.labels, (*pruned)[0].clustering.labels);
  EXPECT_EQ((*plain)[0].clustering.is_core, (*pruned)[0].clustering.is_core);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ProtocolPropertyTest,
    ::testing::Values(
        SweepCase{"blobs", 101, 0.5, 1.3, 4},
        SweepCase{"blobs", 102, 0.3, 1.3, 4},
        SweepCase{"blobs", 103, 0.7, 1.1, 3},
        SweepCase{"moons", 201, 0.5, 0.35, 3},
        SweepCase{"moons", 202, 0.3, 0.4, 4},
        SweepCase{"rings", 301, 0.5, 0.8, 3},
        SweepCase{"rings", 302, 0.7, 0.8, 4},
        SweepCase{"dumbbell", 401, 0.5, 1.2, 4},
        SweepCase{"dumbbell", 402, 0.3, 1.2, 3}),
    CaseName);

}  // namespace
}  // namespace ppdbscan
