#include <gtest/gtest.h>

#include "core/horizontal.h"
#include "core/run.h"
#include "data/fixed_point.h"
#include "data/generators.h"
#include "data/partitioners.h"
#include "dbscan/dbscan.h"
#include "eval/metrics.h"
#include "test_util.h"

namespace ppdbscan {
namespace {

using testing_util::MakeSessionRing;
using testing_util::RunParties;
using testing_util::SessionRing;

Dataset MakePoints(const std::vector<std::vector<int64_t>>& points) {
  Dataset ds(points.empty() ? 1 : points[0].size());
  for (const auto& p : points) PPD_CHECK(ds.Add(p).ok());
  return ds;
}

SmcOptions FastSmc() {
  SmcOptions smc;
  smc.paillier_bits = 256;
  smc.rsa_bits = 128;
  return smc;
}

ProtocolOptions FastOptions(int64_t eps_squared, size_t min_pts) {
  ProtocolOptions options;
  options.params = {eps_squared, min_pts};
  options.comparator.kind = ComparatorKind::kIdeal;
  options.comparator.magnitude_bound = RecommendedComparatorBound(2, 1 << 12);
  return options;
}

/// Runs one kMultiparty job per party in-process through ExecuteLocal;
/// party i's rng is seeded `seed_base + i`.
Result<std::vector<RunOutcome>> RunMultiparty(
    const std::vector<Dataset>& parties, const ProtocolOptions& options,
    uint64_t seed_base = 0x9bd1) {
  std::vector<LocalJob> jobs;
  for (size_t i = 0; i < parties.size(); ++i) {
    jobs.push_back({ClusteringJob::Multiparty(parties[i], i, parties.size(),
                                              options),
                    seed_base + i});
  }
  return ExecuteLocal(jobs, FastSmc());
}

TEST(MultipartyTest, RejectsFewerThanTwoParties) {
  std::vector<Dataset> parties;
  parties.push_back(MakePoints({{0, 0}}));
  Result<std::vector<RunOutcome>> out =
      RunMultiparty(parties, FastOptions(2, 2));
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

TEST(MultipartyTest, RejectsEnhancedMode) {
  std::vector<Dataset> parties{MakePoints({{0, 0}}), MakePoints({{1, 0}})};
  ProtocolOptions options = FastOptions(2, 2);
  options.mode = HorizontalMode::kEnhanced;
  Result<std::vector<RunOutcome>> out = RunMultiparty(parties, options);
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

TEST(MultipartyTest, RejectsCrossPartyMerge) {
  std::vector<Dataset> parties{MakePoints({{0, 0}}), MakePoints({{1, 0}})};
  ProtocolOptions options = FastOptions(2, 2);
  options.cross_party_merge = true;
  Result<std::vector<RunOutcome>> out = RunMultiparty(parties, options);
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

void ExpectSamePlanStats(const PlanStats& a, const PlanStats& b) {
  EXPECT_EQ(a.mode, b.mode);
  EXPECT_EQ(a.sieve_k, b.sieve_k);
  EXPECT_EQ(a.local_points, b.local_points);
  EXPECT_EQ(a.peer_points, b.peer_points);
  EXPECT_EQ(a.candidate_points, b.candidate_points);
  EXPECT_EQ(a.interior_points, b.interior_points);
  EXPECT_EQ(a.responder_points, b.responder_points);
  EXPECT_EQ(a.sieve_assigned_local, b.sieve_assigned_local);
  EXPECT_EQ(a.sieve_rescued, b.sieve_rescued);
  EXPECT_EQ(a.sieve_noise, b.sieve_noise);
  EXPECT_EQ(a.rescue_queries, b.rescue_queries);
  EXPECT_EQ(a.encrypted_comparisons, b.encrypted_comparisons);
  EXPECT_EQ(a.assisted_comparisons, b.assisted_comparisons);
  EXPECT_EQ(a.exact_comparisons, b.exact_comparisons);
  EXPECT_EQ(a.predicted_comparisons, b.predicted_comparisons);
}

TEST(MultipartyTest, TwoPartiesMatchTwoPartyProtocol) {
  // P = 2 is the two-party protocol on the wire, not merely in its labels:
  // per party, the traffic counters, the planner counters and every
  // disclosed value match a kHorizontal basic job under each plan. Both
  // runs use the same rng seeds, so even the variable-length ciphertext
  // encodings coincide.
  SecureRng rng(5);
  RawDataset raw = MakeBlobs(rng, 3, 8, 2, 0.5, 6.0);
  AddUniformNoise(raw, rng, 4, 9.0);
  FixedPointEncoder enc(4.0);
  Dataset full = *enc.Encode(raw);
  HorizontalPartition split = *PartitionHorizontalSpatial(full, 0, 0.5);
  ProtocolOptions options = FastOptions(*enc.EncodeEpsSquared(1.2), 4);
  options.comparator.kind = ComparatorKind::kBlindedPaillier;
  options.comparator.blinding_bits = 40;

  for (PlanMode plan : {PlanMode::kExact, PlanMode::kPrune, PlanMode::kSieve}) {
    SCOPED_TRACE(PlanModeToString(plan));
    options.plan.mode = plan;
    options.plan.sieve_k = 2;
    Result<std::vector<RunOutcome>> two = ExecuteLocal(
        {{ClusteringJob::Horizontal(split.alice, PartyRole::kAlice, options),
          0x0a11ce},
         {ClusteringJob::Horizontal(split.bob, PartyRole::kBob, options),
          0x0b0b}},
        FastSmc());
    ASSERT_TRUE(two.ok()) << two.status();
    Result<std::vector<RunOutcome>> multi = ExecuteLocal(
        {{ClusteringJob::Multiparty(split.alice, 0, 2, options), 0x0a11ce},
         {ClusteringJob::Multiparty(split.bob, 1, 2, options), 0x0b0b}},
        FastSmc());
    ASSERT_TRUE(multi.ok()) << multi.status();

    for (size_t p = 0; p < 2; ++p) {
      SCOPED_TRACE("party " + std::to_string(p));
      const RunOutcome& m = (*multi)[p];
      const RunOutcome& t = (*two)[p];
      EXPECT_EQ(m.clustering.labels, t.clustering.labels);
      EXPECT_EQ(m.clustering.is_core, t.clustering.is_core);
      EXPECT_EQ(m.clustering.num_clusters, t.clustering.num_clusters);
      EXPECT_EQ(m.stats.bytes_sent, t.stats.bytes_sent);
      EXPECT_EQ(m.stats.bytes_received, t.stats.bytes_received);
      EXPECT_EQ(m.stats.frames_sent, t.stats.frames_sent);
      EXPECT_EQ(m.stats.frames_received, t.stats.frames_received);
      EXPECT_EQ(m.stats.rounds, t.stats.rounds);
      ExpectSamePlanStats(m.plan, t.plan);
      EXPECT_EQ(m.disclosures.Categories(), t.disclosures.Categories());
      for (const std::string& category : t.disclosures.Categories()) {
        EXPECT_EQ(m.disclosures.values(category),
                  t.disclosures.values(category))
            << category;
      }
    }
    EXPECT_GT((*two)[0].plan.encrypted_comparisons, 0u);
  }
}

TEST(MultipartyTest, DensityAccumulatesAcrossAllPeers) {
  // The center point is core only because THREE parties each contribute
  // one neighbour; the satellites are pairwise farther than Eps apart, so
  // each satellite sees only itself and the center (2 < MinPts = 4).
  Dataset p0 = MakePoints({{0, 0}});          // the tested point
  Dataset p1 = MakePoints({{2, 0}, {50, 0}});
  Dataset p2 = MakePoints({{-2, 0}, {60, 0}});
  Dataset p3 = MakePoints({{0, 2}, {70, 0}});
  ProtocolOptions options = FastOptions(4, 4);
  Result<std::vector<RunOutcome>> out =
      RunMultiparty({p0, p1, p2, p3}, options);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_TRUE((*out)[0].clustering.is_core[0]);
  EXPECT_EQ((*out)[0].clustering.labels[0], 0);
  // Every other party's points are non-core (only 2 neighbours each).
  for (size_t p = 1; p <= 3; ++p) {
    EXPECT_FALSE((*out)[p].clustering.is_core[0]) << "party " << p;
  }
}

TEST(MultipartyTest, PartySeparatedClustersAreExact) {
  // Each party wholly owns one dense blob; per-party output must match
  // centralized DBSCAN restricted to that party (same guarantee the
  // two-party protocol gives).
  SecureRng rng(17);
  std::vector<Dataset> parties;
  Dataset full(2);
  const int64_t centers[3][2] = {{0, 0}, {40, 0}, {0, 40}};
  for (const auto& c : centers) {
    Dataset party(2);
    for (int64_t dx = -1; dx <= 1; ++dx) {
      for (int64_t dy = -1; dy <= 1; ++dy) {
        std::vector<int64_t> pt{c[0] + dx, c[1] + dy};
        PPD_CHECK(party.Add(pt).ok());
        PPD_CHECK(full.Add(pt).ok());
      }
    }
    parties.push_back(std::move(party));
  }
  ProtocolOptions options = FastOptions(2, 4);
  Result<std::vector<RunOutcome>> out = RunMultiparty(parties, options);
  ASSERT_TRUE(out.ok()) << out.status();

  DbscanResult central = RunDbscan(full, options.params);
  EXPECT_EQ(central.num_clusters, 3u);
  for (size_t p = 0; p < 3; ++p) {
    EXPECT_EQ((*out)[p].clustering.num_clusters, 1u) << "party " << p;
    Labels restricted(central.labels.begin() + 9 * p,
                      central.labels.begin() + 9 * (p + 1));
    EXPECT_DOUBLE_EQ(
        AdjustedRandIndex((*out)[p].clustering.labels, restricted), 1.0);
  }
}

TEST(MultipartyTest, DeterministicUnderSeeds) {
  SecureRng rng(21);
  RawDataset raw = MakeBlobs(rng, 2, 9, 2, 0.5, 5.0);
  FixedPointEncoder enc(4.0);
  Dataset full = *enc.Encode(raw);
  std::vector<Dataset> parties{Dataset(2), Dataset(2), Dataset(2)};
  for (size_t i = 0; i < full.size(); ++i) {
    PPD_CHECK(parties[i % 3].Add(full.point(i)).ok());
  }
  ProtocolOptions options = FastOptions(*enc.EncodeEpsSquared(1.4), 3);
  Result<std::vector<RunOutcome>> a = RunMultiparty(parties, options, 555);
  Result<std::vector<RunOutcome>> b = RunMultiparty(parties, options, 555);
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t p = 0; p < 3; ++p) {
    EXPECT_EQ((*a)[p].clustering.labels, (*b)[p].clustering.labels);
  }
}

TEST(MultipartyTest, DisclosureCountsOneRecordPerPeerPerCoreTest) {
  // Basic-mode Theorem 9 accounting generalizes per link: every core test
  // records exactly P-1 peer counts.
  Dataset p0 = MakePoints({{0, 0}, {30, 30}});
  Dataset p1 = MakePoints({{1, 0}});
  Dataset p2 = MakePoints({{0, 1}});
  ProtocolOptions options = FastOptions(2, 3);
  Result<std::vector<RunOutcome>> out = RunMultiparty({p0, p1, p2}, options);
  ASSERT_TRUE(out.ok()) << out.status();
  // Party 0 ran 2 core tests x 2 peers.
  EXPECT_EQ((*out)[0].disclosures.Count("peer_neighbor_count"), 4u);
  EXPECT_EQ((*out)[1].disclosures.Count("peer_neighbor_count"), 2u);
  EXPECT_EQ((*out)[2].disclosures.Count("peer_neighbor_count"), 2u);
}

TEST(MultipartySessionRingTest, LowLevelRingMatchesHarness) {
  // Driving RunHorizontalDbscan directly over a SessionRing must
  // reproduce the in-process harness exactly (same data, ideal comparator,
  // so the clustering is a deterministic function of the inputs).
  std::vector<Dataset> parties{
      MakePoints({{0, 0}, {1, 0}, {0, 1}, {9, 9}}),
      MakePoints({{1, 1}, {10, 9}, {9, 10}}),
      MakePoints({{0, 2}, {30, 30}})};
  ProtocolOptions options = FastOptions(2, 3);

  Result<std::vector<RunOutcome>> harness = RunMultiparty(parties, options);
  ASSERT_TRUE(harness.ok()) << harness.status();

  SessionRing ring = MakeSessionRing(parties.size(), 256, 128, 77);
  std::vector<Result<PartyClusteringResult>> ring_results =
      RunParties<Result<PartyClusteringResult>>(
          ring, [&](size_t i, SessionRing& r) {
            return RunHorizontalDbscan(r.LinksFor(i), r.SessionsFor(i),
                                       parties[i], i, options, *r.rngs[i]);
          });

  for (size_t i = 0; i < parties.size(); ++i) {
    ASSERT_TRUE(ring_results[i].ok()) << "party " << i << ": "
                                      << ring_results[i].status();
    EXPECT_EQ(ring_results[i]->labels, (*harness)[i].clustering.labels)
        << "party " << i;
    EXPECT_EQ(ring_results[i]->is_core, (*harness)[i].clustering.is_core)
        << "party " << i;
    EXPECT_EQ(ring_results[i]->num_clusters,
              (*harness)[i].clustering.num_clusters)
        << "party " << i;
  }
}

TEST(MultipartySessionRingTest, FourPartyDensityAccumulatesOverRing) {
  // N = 4 over the low-level API: the center point is core only because
  // three peers each contribute one neighbour (same scenario as the
  // harness-level DensityAccumulatesAcrossAllPeers).
  std::vector<Dataset> parties{
      MakePoints({{0, 0}}), MakePoints({{2, 0}, {50, 0}}),
      MakePoints({{-2, 0}, {60, 0}}), MakePoints({{0, 2}, {70, 0}})};
  ProtocolOptions options = FastOptions(4, 4);

  SessionRing ring = MakeSessionRing(parties.size(), 256, 128, 99);
  std::vector<Result<PartyClusteringResult>> results =
      RunParties<Result<PartyClusteringResult>>(
          ring, [&](size_t i, SessionRing& r) {
            return RunHorizontalDbscan(r.LinksFor(i), r.SessionsFor(i),
                                       parties[i], i, options, *r.rngs[i]);
          });

  for (size_t i = 0; i < parties.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << "party " << i << ": "
                                 << results[i].status();
  }
  EXPECT_TRUE(results[0]->is_core[0]);
  EXPECT_EQ(results[0]->labels[0], 0);
  for (size_t p = 1; p <= 3; ++p) {
    EXPECT_FALSE(results[p]->is_core[0]) << "party " << p;
  }
  // Every pairwise link carried protocol traffic (key exchange excluded by
  // MakeSessionRing's counter reset).
  for (size_t i = 0; i < ring.parties; ++i) {
    for (size_t j = 0; j < ring.parties; ++j) {
      if (i == j) continue;
      EXPECT_GT(ring.channels[i][j]->stats().bytes_sent, 0u)
          << "link " << i << "->" << j;
    }
  }
}

TEST(MultipartyTest, TrafficGrowsWithPartyCountAtFixedN) {
  // E8 shape: at fixed total n with equal shares, pairwise work is
  // n²·(1 − 1/P) — monotonically increasing in P.
  SecureRng rng(33);
  RawDataset raw = MakeBlobs(rng, 2, 12, 2, 0.5, 5.0);
  FixedPointEncoder enc(4.0);
  Dataset full = *enc.Encode(raw);
  ProtocolOptions options = FastOptions(*enc.EncodeEpsSquared(1.4), 3);

  uint64_t prev_bytes = 0;
  for (size_t p : {2, 3, 4}) {
    std::vector<Dataset> parties(p, Dataset(2));
    for (size_t i = 0; i < full.size(); ++i) {
      PPD_CHECK(parties[i % p].Add(full.point(i)).ok());
    }
    Result<std::vector<RunOutcome>> out = RunMultiparty(parties, options);
    ASSERT_TRUE(out.ok()) << out.status();
    uint64_t total = 0;
    for (const RunOutcome& party : *out) total += party.stats.bytes_sent;
    EXPECT_GT(total, prev_bytes) << "P=" << p;
    prev_bytes = total;
  }
}

}  // namespace
}  // namespace ppdbscan
