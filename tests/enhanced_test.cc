#include "core/enhanced.h"

#include <gtest/gtest.h>

#include "core/run.h"
#include "data/fixed_point.h"
#include "data/generators.h"
#include "data/partitioners.h"

namespace ppdbscan {
namespace {

ProtocolOptions EnhancedOptions(int64_t eps_squared, size_t min_pts,
                                SelectionAlgorithm selection) {
  ProtocolOptions options;
  options.params = {eps_squared, min_pts};
  options.mode = HorizontalMode::kEnhanced;
  options.selection = selection;
  options.comparator.kind = ComparatorKind::kIdeal;
  options.comparator.magnitude_bound = RecommendedComparatorBound(2, 1 << 12);
  return options;
}

/// Runs Alice's and Bob's horizontal jobs in-process through ExecuteLocal
/// and returns the per-party outcomes {alice, bob}.
Result<std::vector<RunOutcome>> RunHorizontal(const Dataset& alice,
                                              const Dataset& bob,
                                              const ProtocolOptions& options) {
  SmcOptions smc;
  smc.paillier_bits = 256;
  smc.rsa_bits = 128;
  return ExecuteLocal(
      {{ClusteringJob::Horizontal(alice, PartyRole::kAlice, options),
        0x0a11ce},
       {ClusteringJob::Horizontal(bob, PartyRole::kBob, options), 0x0b0b}},
      smc);
}

struct TestData {
  Dataset alice{2};
  Dataset bob{2};
  int64_t eps_squared = 0;
  size_t min_pts = 0;
};

TestData MakeData(uint64_t seed, size_t min_pts) {
  SecureRng rng(seed);
  RawDataset raw = MakeBlobs(rng, 3, 9, 2, 0.5, 6.0);
  AddUniformNoise(raw, rng, 4, 8.0);
  FixedPointEncoder enc(4.0);
  Dataset full = *enc.Encode(raw);
  HorizontalPartition hp = *PartitionHorizontal(full, rng, 0.5);
  return TestData{std::move(hp.alice), std::move(hp.bob),
                  *enc.EncodeEpsSquared(1.2), min_pts};
}

TEST(EnhancedSelectionTest, KPassAndQuickSelectAgree) {
  TestData data = MakeData(21, 4);
  Result<std::vector<RunOutcome>> kpass = RunHorizontal(
      data.alice, data.bob,
      EnhancedOptions(data.eps_squared, data.min_pts,
                      SelectionAlgorithm::kKPass));
  Result<std::vector<RunOutcome>> quick = RunHorizontal(
      data.alice, data.bob,
      EnhancedOptions(data.eps_squared, data.min_pts,
                      SelectionAlgorithm::kQuickSelect));
  ASSERT_TRUE(kpass.ok()) << kpass.status();
  ASSERT_TRUE(quick.ok()) << quick.status();
  EXPECT_EQ((*kpass)[0].clustering.labels, (*quick)[0].clustering.labels);
  EXPECT_EQ((*kpass)[1].clustering.labels, (*quick)[1].clustering.labels);
}

TEST(EnhancedSelectionTest, ComparisonCountsArePositiveAndBounded) {
  TestData data = MakeData(22, 4);
  Result<std::vector<RunOutcome>> kpass = RunHorizontal(
      data.alice, data.bob,
      EnhancedOptions(data.eps_squared, data.min_pts,
                      SelectionAlgorithm::kKPass));
  ASSERT_TRUE(kpass.ok());
  // Upper bound: each of Alice's core tests uses at most
  // k*·n_bob comparisons + 1 final.
  uint64_t n_bob = data.bob.size();
  uint64_t bound =
      data.alice.size() * (data.min_pts * n_bob + 1);
  EXPECT_GT((*kpass)[0].selection_comparisons, 0u);
  EXPECT_LE((*kpass)[0].selection_comparisons, bound);
}

TEST(EnhancedSelectionTest, HigherMinPtsCostsMoreKPassComparisons) {
  TestData data = MakeData(23, 2);
  auto run = [&](size_t min_pts) {
    Result<std::vector<RunOutcome>> out = RunHorizontal(
        data.alice, data.bob,
        EnhancedOptions(data.eps_squared, min_pts,
                        SelectionAlgorithm::kKPass));
    PPD_CHECK(out.ok());
    return (*out)[0].selection_comparisons + (*out)[1].selection_comparisons;
  };
  // k-pass comparisons grow with k* = MinPts − |own neighbours|.
  EXPECT_LT(run(2), run(6));
}

TEST(EnhancedSelectionTest, MaskedSharesWithBoundedMasksAgree) {
  // Small statistical masks (for the YMPP comparator regime) must not
  // change the output.
  TestData data = MakeData(24, 3);
  ProtocolOptions uniform =
      EnhancedOptions(data.eps_squared, 3, SelectionAlgorithm::kKPass);
  ProtocolOptions masked = uniform;
  masked.share_mask_bits = 12;
  Result<std::vector<RunOutcome>> a =
      RunHorizontal(data.alice, data.bob, uniform);
  Result<std::vector<RunOutcome>> b =
      RunHorizontal(data.alice, data.bob, masked);
  ASSERT_TRUE(a.ok() && b.ok()) << b.status();
  EXPECT_EQ((*a)[0].clustering.labels, (*b)[0].clustering.labels);
  EXPECT_EQ((*a)[1].clustering.labels, (*b)[1].clustering.labels);
}

TEST(EnhancedSelectionTest, BlindedComparatorWithUniformMasks) {
  // The production regime: uniform mod-n masks + blinded comparator.
  TestData data = MakeData(25, 3);
  ProtocolOptions ideal =
      EnhancedOptions(data.eps_squared, 3, SelectionAlgorithm::kQuickSelect);
  ProtocolOptions blinded = ideal;
  blinded.comparator.kind = ComparatorKind::kBlindedPaillier;
  blinded.comparator.blinding_bits = 40;
  Result<std::vector<RunOutcome>> a =
      RunHorizontal(data.alice, data.bob, ideal);
  Result<std::vector<RunOutcome>> b =
      RunHorizontal(data.alice, data.bob, blinded);
  ASSERT_TRUE(a.ok() && b.ok()) << b.status();
  EXPECT_EQ((*a)[0].clustering.labels, (*b)[0].clustering.labels);
  EXPECT_EQ((*a)[1].clustering.labels, (*b)[1].clustering.labels);
}

TEST(EnhancedSelectionTest, PeerWithSinglePoint) {
  // k-th smallest selection with n_bob = 1 must not degenerate.
  Dataset alice(2), bob(2);
  PPD_CHECK(alice.Add({0, 0}).ok());
  PPD_CHECK(alice.Add({1, 0}).ok());
  PPD_CHECK(bob.Add({0, 1}).ok());
  Result<std::vector<RunOutcome>> out = RunHorizontal(
      alice, bob, EnhancedOptions(2, 3, SelectionAlgorithm::kKPass));
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ((*out)[0].clustering.labels[0], 0);  // 2 own + 1 peer >= 3
}

TEST(EnhancedSelectionTest, KStarAbovePeerCountMeansNotCore) {
  Dataset alice(2), bob(2);
  PPD_CHECK(alice.Add({0, 0}).ok());
  PPD_CHECK(bob.Add({0, 1}).ok());
  // MinPts 5: own neighbourhood 1, k* = 4 > n_bob = 1 → noise.
  Result<std::vector<RunOutcome>> out = RunHorizontal(
      alice, bob, EnhancedOptions(2, 5, SelectionAlgorithm::kKPass));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)[0].clustering.labels[0], kNoise);
}

}  // namespace
}  // namespace ppdbscan
