#include "core/horizontal.h"

#include <gtest/gtest.h>

#include "core/run.h"
#include "core/wire.h"
#include "data/fixed_point.h"
#include "data/generators.h"
#include "data/partitioners.h"
#include "dbscan/dbscan.h"
#include "eval/metrics.h"
#include "net/message.h"
#include "test_util.h"

namespace ppdbscan {
namespace {

Dataset MakePoints(const std::vector<std::vector<int64_t>>& points) {
  Dataset ds(points.empty() ? 1 : points[0].size());
  for (const auto& p : points) PPD_CHECK(ds.Add(p).ok());
  return ds;
}

/// Shared configuration of one two-party test run under the job facade.
struct FastConfig {
  SmcOptions smc;
  ProtocolOptions protocol;

  explicit FastConfig(int64_t eps_squared, size_t min_pts) {
    smc.paillier_bits = 256;
    smc.rsa_bits = 128;
    protocol.params = {eps_squared, min_pts};
    protocol.comparator.kind = ComparatorKind::kIdeal;
    protocol.comparator.magnitude_bound = RecommendedComparatorBound(2, 1 << 12);
  }
};

/// Runs Alice's and Bob's horizontal jobs in-process through ExecuteLocal
/// and returns the per-party outcomes {alice, bob}.
Result<std::vector<RunOutcome>> RunHorizontal(const Dataset& alice,
                                              const Dataset& bob,
                                              const FastConfig& config) {
  return ExecuteLocal(
      {{ClusteringJob::Horizontal(alice, PartyRole::kAlice, config.protocol),
        0x0a11ce},
       {ClusteringJob::Horizontal(bob, PartyRole::kBob, config.protocol),
        0x0b0b}},
      config.smc);
}

/// Combines per-party labels back into the original record order, keeping
/// the two parties' cluster id spaces disjoint (unless merged).
Labels CombineLabels(const HorizontalPartition& hp,
                     const std::vector<RunOutcome>& outcome, bool merged) {
  size_t n = hp.alice_ids.size() + hp.bob_ids.size();
  Labels combined(n, kUnclassified);
  int32_t offset =
      merged ? 0 : static_cast<int32_t>(outcome[0].clustering.num_clusters);
  for (size_t i = 0; i < hp.alice_ids.size(); ++i) {
    combined[hp.alice_ids[i]] = outcome[0].clustering.labels[i];
  }
  for (size_t i = 0; i < hp.bob_ids.size(); ++i) {
    int32_t l = outcome[1].clustering.labels[i];
    combined[hp.bob_ids[i]] = l >= 0 ? l + offset : l;
  }
  return combined;
}

TEST(HorizontalTest, PartySeparatedClustersMatchCentralized) {
  // Each cluster is wholly owned by one party and dense on its own, so the
  // protocol's own-party-only expansion is not a limitation and the
  // combined output must match centralized DBSCAN exactly.
  Dataset alice = MakePoints({{0, 0}, {1, 0}, {0, 1}, {1, 1}});
  Dataset bob = MakePoints({{50, 50}, {51, 50}, {50, 51}, {51, 51}});
  FastConfig config(2, 3);
  Result<std::vector<RunOutcome>> out = RunHorizontal(alice, bob, config);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ((*out)[0].clustering.num_clusters, 1u);
  EXPECT_EQ((*out)[1].clustering.num_clusters, 1u);
  for (int32_t l : (*out)[0].clustering.labels) EXPECT_EQ(l, 0);
  for (int32_t l : (*out)[1].clustering.labels) EXPECT_EQ(l, 0);
}

TEST(HorizontalTest, PeerDensityCountsTowardCoreStatus) {
  // Alice's lone point is core ONLY because Bob's points raise the count:
  // the protocol must include cross-party density (|seedsA| + |seedsB|).
  Dataset alice = MakePoints({{0, 0}});
  Dataset bob = MakePoints({{1, 0}, {0, 1}});
  FastConfig config(2, 3);
  Result<std::vector<RunOutcome>> out = RunHorizontal(alice, bob, config);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ((*out)[0].clustering.labels[0], 0);  // clustered, not noise
  EXPECT_TRUE((*out)[0].clustering.is_core[0]);
}

TEST(HorizontalTest, WithoutPeerDensityPointIsNoise) {
  Dataset alice = MakePoints({{0, 0}});
  Dataset bob = MakePoints({{100, 100}, {101, 100}});
  FastConfig config(2, 3);
  Result<std::vector<RunOutcome>> out = RunHorizontal(alice, bob, config);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)[0].clustering.labels[0], kNoise);
}

TEST(HorizontalTest, CrossPartyBridgeSplitsWithoutMerge) {
  // Two Alice blobs connected only through Bob's bridge points: the paper's
  // protocol (correctly) yields two Alice clusters, diverging from
  // centralized DBSCAN — the E4 behaviour.
  Dataset alice = MakePoints(
      {{0, 0}, {1, 0}, {0, 1}, {20, 0}, {21, 0}, {20, 1}});
  Dataset bob = MakePoints(
      {{3, 0}, {6, 0}, {9, 0}, {12, 0}, {15, 0}, {18, 0}});
  FastConfig config(10, 2);
  Result<std::vector<RunOutcome>> out = RunHorizontal(alice, bob, config);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)[0].clustering.num_clusters, 2u);
  EXPECT_NE((*out)[0].clustering.labels[0], (*out)[0].clustering.labels[3]);

  // Centralized DBSCAN on the union finds ONE cluster.
  Dataset all = MakePoints({{0, 0}, {1, 0}, {0, 1}, {20, 0}, {21, 0}, {20, 1},
                            {3, 0}, {6, 0}, {9, 0}, {12, 0}, {15, 0}, {18, 0}});
  DbscanResult central = RunDbscan(all, {.eps_squared = 10, .min_pts = 2});
  EXPECT_EQ(central.num_clusters, 1u);
}

TEST(HorizontalTest, MergeExtensionReconnectsBridge) {
  Dataset alice = MakePoints(
      {{0, 0}, {1, 0}, {0, 1}, {20, 0}, {21, 0}, {20, 1}});
  Dataset bob = MakePoints(
      {{3, 0}, {6, 0}, {9, 0}, {12, 0}, {15, 0}, {18, 0}});
  FastConfig config(10, 2);
  config.protocol.cross_party_merge = true;
  Result<std::vector<RunOutcome>> out = RunHorizontal(alice, bob, config);
  ASSERT_TRUE(out.ok()) << out.status();
  // After merging, both Alice blobs and Bob's bridge share one id space
  // with a single component.
  const PartyClusteringResult& a = (*out)[0].clustering;
  const PartyClusteringResult& b = (*out)[1].clustering;
  EXPECT_EQ(a.num_clusters, 1u);
  EXPECT_EQ(b.num_clusters, 1u);
  EXPECT_EQ(a.labels[0], a.labels[3]);
  EXPECT_EQ(a.labels[0], b.labels[0]);
  // The E7 extension's documented extra disclosure: the set of
  // cross-party cluster-adjacency links (2 here — each Alice blob touches
  // Bob's bridge), recorded once per party.
  ASSERT_EQ((*out)[0].disclosures.Count("merge_links"), 1u);
  EXPECT_EQ((*out)[0].disclosures.values("merge_links")[0], 2);
  EXPECT_EQ((*out)[1].disclosures.values("merge_links")[0], 2);
}

TEST(HorizontalTest, BasicAndEnhancedProduceIdenticalClusterings) {
  SecureRng rng(11);
  RawDataset raw = MakeBlobs(rng, 3, 10, 2, 0.5, 6.0);
  AddUniformNoise(raw, rng, 5, 8.0);
  FixedPointEncoder enc(4.0);
  Dataset full = *enc.Encode(raw);
  HorizontalPartition hp = *PartitionHorizontal(full, rng, 0.5);
  FastConfig config(*enc.EncodeEpsSquared(1.2), 4);

  Result<std::vector<RunOutcome>> basic = RunHorizontal(hp.alice, hp.bob,
                                                        config);
  ASSERT_TRUE(basic.ok()) << basic.status();
  config.protocol.mode = HorizontalMode::kEnhanced;
  Result<std::vector<RunOutcome>> enhanced = RunHorizontal(hp.alice, hp.bob,
                                                           config);
  ASSERT_TRUE(enhanced.ok()) << enhanced.status();
  EXPECT_EQ((*basic)[0].clustering.labels, (*enhanced)[0].clustering.labels);
  EXPECT_EQ((*basic)[1].clustering.labels, (*enhanced)[1].clustering.labels);
  EXPECT_EQ((*basic)[0].clustering.is_core,
            (*enhanced)[0].clustering.is_core);
}

TEST(HorizontalTest, CombinedLabelsVsCentralizedOnBridgeWorkload) {
  // E4/E7 in one picture: on a dumbbell whose bridge belongs entirely to
  // Bob, the combined distributed labels disagree with centralized DBSCAN
  // (the two Alice blobs split) unless the merge extension is enabled.
  Dataset alice = MakePoints(
      {{0, 0}, {1, 0}, {0, 1}, {20, 0}, {21, 0}, {20, 1}});
  Dataset bob = MakePoints(
      {{3, 0}, {6, 0}, {9, 0}, {12, 0}, {15, 0}, {18, 0}});
  HorizontalPartition hp{alice, bob, {}, {}};
  for (size_t i = 0; i < alice.size(); ++i) hp.alice_ids.push_back(i);
  for (size_t i = 0; i < bob.size(); ++i) {
    hp.bob_ids.push_back(alice.size() + i);
  }
  Dataset all = MakePoints({{0, 0}, {1, 0}, {0, 1}, {20, 0}, {21, 0}, {20, 1},
                            {3, 0}, {6, 0}, {9, 0}, {12, 0}, {15, 0}, {18, 0}});
  DbscanResult central = RunDbscan(all, {.eps_squared = 10, .min_pts = 2});

  FastConfig config(10, 2);
  Result<std::vector<RunOutcome>> split = RunHorizontal(alice, bob, config);
  ASSERT_TRUE(split.ok());
  Labels split_combined = CombineLabels(hp, *split, /*merged=*/false);
  EXPECT_LT(AdjustedRandIndex(split_combined, central.labels), 1.0);

  config.protocol.cross_party_merge = true;
  Result<std::vector<RunOutcome>> merged = RunHorizontal(alice, bob, config);
  ASSERT_TRUE(merged.ok());
  Labels merged_combined = CombineLabels(hp, *merged, /*merged=*/true);
  EXPECT_DOUBLE_EQ(AdjustedRandIndex(merged_combined, central.labels), 1.0);
}

TEST(HorizontalTest, DisclosureAccountingMatchesTheorem9) {
  // Basic mode: exactly one peer-neighbour-count disclosure per own point
  // (every point is core-tested exactly once).
  Dataset alice = MakePoints({{0, 0}, {1, 0}, {30, 30}});
  Dataset bob = MakePoints({{0, 1}, {40, 40}});
  FastConfig config(2, 2);
  Result<std::vector<RunOutcome>> out = RunHorizontal(alice, bob, config);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)[0].disclosures.Count("peer_neighbor_count"), alice.size());
  EXPECT_EQ((*out)[1].disclosures.Count("peer_neighbor_count"), bob.size());
  EXPECT_EQ((*out)[0].disclosures.Count("peer_core_bit"), 0u);
}

TEST(HorizontalTest, EnhancedDisclosesOnlyBits) {
  Dataset alice = MakePoints({{0, 0}, {1, 0}, {30, 30}});
  Dataset bob = MakePoints({{0, 1}, {40, 40}});
  FastConfig config(2, 2);
  config.protocol.mode = HorizontalMode::kEnhanced;
  Result<std::vector<RunOutcome>> out = RunHorizontal(alice, bob, config);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)[0].disclosures.Count("peer_core_bit"), alice.size());
  EXPECT_EQ((*out)[0].disclosures.Count("peer_neighbor_count"), 0u);
  // A bit discloses at most 1 bit of entropy; a count can disclose more.
  EXPECT_LE((*out)[0].disclosures.EntropyBits("peer_core_bit"), 1.0);
}

TEST(HorizontalTest, DeterministicUnderSeeds) {
  SecureRng rng(12);
  RawDataset raw = MakeBlobs(rng, 2, 8, 2, 0.5, 5.0);
  FixedPointEncoder enc(4.0);
  Dataset full = *enc.Encode(raw);
  HorizontalPartition hp = *PartitionHorizontal(full, rng, 0.5);
  FastConfig config(*enc.EncodeEpsSquared(1.0), 3);
  Result<std::vector<RunOutcome>> a = RunHorizontal(hp.alice, hp.bob, config);
  Result<std::vector<RunOutcome>> b = RunHorizontal(hp.alice, hp.bob, config);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ((*a)[0].clustering.labels, (*b)[0].clustering.labels);
  EXPECT_EQ((*a)[1].clustering.labels, (*b)[1].clustering.labels);
  EXPECT_EQ((*a)[0].stats.bytes_sent, (*b)[0].stats.bytes_sent);
}

TEST(HorizontalTest, BlindedComparatorMatchesIdeal) {
  SecureRng rng(13);
  RawDataset raw = MakeBlobs(rng, 2, 8, 2, 0.5, 5.0);
  FixedPointEncoder enc(4.0);
  Dataset full = *enc.Encode(raw);
  HorizontalPartition hp = *PartitionHorizontal(full, rng, 0.5);
  FastConfig config(*enc.EncodeEpsSquared(1.0), 3);
  Result<std::vector<RunOutcome>> ideal = RunHorizontal(hp.alice, hp.bob,
                                                        config);
  config.protocol.comparator.kind = ComparatorKind::kBlindedPaillier;
  config.protocol.comparator.blinding_bits = 40;
  Result<std::vector<RunOutcome>> blinded = RunHorizontal(hp.alice, hp.bob,
                                                          config);
  ASSERT_TRUE(ideal.ok() && blinded.ok()) << blinded.status();
  EXPECT_EQ((*ideal)[0].clustering.labels, (*blinded)[0].clustering.labels);
  EXPECT_EQ((*ideal)[1].clustering.labels, (*blinded)[1].clustering.labels);
}

TEST(HorizontalTest, MinPtsOneIsolatesLonePoints) {
  Dataset alice = MakePoints({{0, 0}});
  Dataset bob = MakePoints({{100, 100}});
  FastConfig config(1, 1);
  Result<std::vector<RunOutcome>> out = RunHorizontal(alice, bob, config);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)[0].clustering.labels[0], 0);
  EXPECT_EQ((*out)[1].clustering.labels[0], 0);
}

TEST(HorizontalTest, AllNoise) {
  Dataset alice = MakePoints({{0, 0}, {50, 0}});
  Dataset bob = MakePoints({{0, 50}, {50, 50}});
  FastConfig config(1, 3);
  Result<std::vector<RunOutcome>> out = RunHorizontal(alice, bob, config);
  ASSERT_TRUE(out.ok());
  for (int32_t l : (*out)[0].clustering.labels) EXPECT_EQ(l, kNoise);
  for (int32_t l : (*out)[1].clustering.labels) EXPECT_EQ(l, kNoise);
  EXPECT_EQ((*out)[0].clustering.num_clusters, 0u);
}

TEST(HorizontalTest, CommunicationIsSymmetricallyAccounted) {
  Dataset alice = MakePoints({{0, 0}, {1, 1}});
  Dataset bob = MakePoints({{2, 2}, {3, 3}});
  FastConfig config(4, 2);
  Result<std::vector<RunOutcome>> out = RunHorizontal(alice, bob, config);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)[0].stats.bytes_sent, (*out)[1].stats.bytes_received);
  EXPECT_EQ((*out)[1].stats.bytes_sent, (*out)[0].stats.bytes_received);
  EXPECT_GT((*out)[0].stats.bytes_sent, 0u);
}

/// Runs the driver at `index` with no points and the merge extension on,
/// against a scripted peer that ends its (empty) scan and then sends
/// `merge_cores` as its kMergeCores frame. Both scans are empty, so that
/// frame is the first payload the driver decodes from the peer.
Status RunAgainstScriptedMerge(size_t index, const ByteWriter& merge_cores) {
  testing_util::SessionPair pair = testing_util::MakeSessionPair(256, 128);
  Channel& peer = *pair.bob_channel;
  PPD_CHECK(SendMessage(peer, wire::kHzScanDone, std::vector<uint8_t>()).ok());
  PPD_CHECK(SendMessage(peer, wire::kMergeCores, merge_cores).ok());
  ProtocolOptions options = FastConfig(2, 3).protocol;
  options.cross_party_merge = true;
  std::vector<Channel*> links(2, nullptr);
  std::vector<const SmcSession*> sessions(2, nullptr);
  links[1 - index] = pair.alice_channel.get();
  sessions[1 - index] = pair.alice.get();
  return RunHorizontalDbscan(links, sessions, Dataset(2), index, options,
                             *pair.alice_rng)
      .status();
}

TEST(HorizontalTest, MergeRejectsCoreCountBeyondPayload) {
  // An 8-byte frame claiming 2^28 cores (one u32 cluster id each): Alice
  // must fail before sizing anything from the claim.
  ByteWriter frame;
  frame.PutU32(uint32_t{1} << 28);
  frame.PutU32(1);
  EXPECT_EQ(RunAgainstScriptedMerge(0, frame).code(), StatusCode::kDataLoss);
}

TEST(HorizontalTest, MergeRejectsMoreClustersThanCores) {
  // Every cluster is opened by a core point: 0 cores and 2^26 clusters is
  // a lie that would otherwise size the relabeling's union-find.
  ByteWriter frame;
  frame.PutU32(0);
  frame.PutU32(uint32_t{1} << 26);
  EXPECT_EQ(RunAgainstScriptedMerge(0, frame).code(), StatusCode::kDataLoss);
  // Bob applies the same rule to Alice's hello.
  EXPECT_EQ(RunAgainstScriptedMerge(1, frame).code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace ppdbscan
