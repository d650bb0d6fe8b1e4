// E4 — clustering agreement of the three protocols vs centralized DBSCAN.
//
// Paper claims under test:
//  * Vertical (Alg. 5/6) and arbitrary (§4.4) protocols compute DBSCAN on
//    the joint records — agreement must be exact (ARI = 1).
//  * Horizontal (Alg. 3/4) clusters each party's points with cross-party
//    DENSITY but without cross-party REACHABILITY (seeds are own-party
//    only), so agreement degrades exactly when clusters span parties —
//    the structural property discussed in DESIGN.md §3.5.

#include "bench_util.h"
#include "dbscan/dbscan.h"
#include "dbscan/kmeans.h"
#include "eval/metrics.h"

namespace ppdbscan {
namespace {

struct Workload {
  std::string name;
  RawDataset raw;
  double eps;
  size_t min_pts;
};

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> out;
  {
    SecureRng rng(1);
    RawDataset raw = MakeBlobs(rng, 3, 20, 2, 0.5, 7.0);
    AddUniformNoise(raw, rng, 8, 9.0);
    out.push_back({"blobs+noise", std::move(raw), 1.2, 4});
  }
  {
    SecureRng rng(2);
    out.push_back({"two moons", MakeTwoMoons(rng, 40, 0.03), 0.2, 3});
  }
  {
    SecureRng rng(3);
    out.push_back({"rings", MakeRings(rng, 70, {2.0, 6.0}, 0.05), 0.9, 3});
  }
  {
    SecureRng rng(4);
    out.push_back({"dumbbell", MakeDumbbell(rng, 20, 8, 10.0, 0.6), 1.6, 3});
  }
  return out;
}

Labels CombineHorizontal(const HorizontalPartition& hp,
                         const std::vector<RunOutcome>& outcome) {
  Labels combined(hp.alice_ids.size() + hp.bob_ids.size(), kUnclassified);
  int32_t offset = static_cast<int32_t>(outcome[0].clustering.num_clusters);
  for (size_t i = 0; i < hp.alice_ids.size(); ++i) {
    combined[hp.alice_ids[i]] = outcome[0].clustering.labels[i];
  }
  for (size_t i = 0; i < hp.bob_ids.size(); ++i) {
    int32_t l = outcome[1].clustering.labels[i];
    combined[hp.bob_ids[i]] = l >= 0 ? l + offset : l;
  }
  return combined;
}

void Run(bool csv) {
  ResultTable table({"workload", "protocol", "ARI vs centralized",
                     "noise agreement", "clusters (protocol/centralized)"});
  for (const Workload& w : MakeWorkloads()) {
    FixedPointEncoder enc(8.0);
    Dataset full = *enc.Encode(w.raw);
    DbscanParams params{*enc.EncodeEpsSquared(w.eps), w.min_pts};
    DbscanResult central = RunDbscan(full, params);

    ProtocolOptions options;
    options.params = params;
    options.comparator.kind = ComparatorKind::kIdeal;
    options.comparator.magnitude_bound = RecommendedComparatorBound(2, 1 << 12);
    SecureRng rng(99);

    // Horizontal, even split.
    {
      HorizontalPartition hp = *PartitionHorizontal(full, rng, 0.5);
      std::vector<RunOutcome> out = bench_util::RunPair(
          PartitionScheme::kHorizontal, hp.alice, hp.bob, options);
      Labels combined = CombineHorizontal(hp, out);
      size_t clusters =
          out[0].clustering.num_clusters + out[1].clustering.num_clusters;
      table.AddRow({w.name, "horizontal (Alg. 3/4)",
                    ResultTable::Fmt(AdjustedRandIndex(combined,
                                                       central.labels)),
                    ResultTable::Fmt(NoiseAgreement(combined,
                                                    central.labels)),
                    ResultTable::Fmt(clusters) + "/" +
                        ResultTable::Fmt(central.num_clusters)});
    }
    // Vertical.
    {
      VerticalPartition vp = *PartitionVertical(full, 1);
      const PartyClusteringResult alice =
          bench_util::RunPair(PartitionScheme::kVertical, vp.alice, vp.bob,
                              options)[0]
              .clustering;
      table.AddRow({w.name, "vertical (Alg. 5/6)",
                    ResultTable::Fmt(AdjustedRandIndex(alice.labels,
                                                       central.labels)),
                    ResultTable::Fmt(NoiseAgreement(alice.labels,
                                                    central.labels)),
                    ResultTable::Fmt(alice.num_clusters) + "/" +
                        ResultTable::Fmt(central.num_clusters)});
    }
    // Arbitrary, even cell split.
    {
      ArbitraryPartition ap = *PartitionArbitrary(full, rng, 0.5);
      const PartyClusteringResult alice =
          bench_util::RunPair(PartitionScheme::kArbitrary, ap.alice, ap.bob,
                              options)[0]
              .clustering;
      table.AddRow({w.name, "arbitrary (§4.4)",
                    ResultTable::Fmt(AdjustedRandIndex(alice.labels,
                                                       central.labels)),
                    ResultTable::Fmt(NoiseAgreement(alice.labels,
                                                    central.labels)),
                    ResultTable::Fmt(alice.num_clusters) + "/" +
                        ResultTable::Fmt(central.num_clusters)});
    }
  }
  bench_util::Emit(table, csv, "E4 Protocol output vs centralized DBSCAN",
                   "vertical/arbitrary are exact (ARI 1.0); horizontal "
                   "degrades only where clusters span both parties");

  // Horizontal agreement vs partition skew: the more one-sided the
  // partition, the closer the protocol gets to centralized output.
  ResultTable skew({"alice fraction", "ARI vs centralized"});
  SecureRng rng(123);
  RawDataset raw = MakeBlobs(rng, 3, 20, 2, 0.5, 7.0);
  FixedPointEncoder enc(8.0);
  Dataset full = *enc.Encode(raw);
  DbscanParams params{*enc.EncodeEpsSquared(1.2), 4};
  DbscanResult central = RunDbscan(full, params);
  for (double frac : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    HorizontalPartition hp = *PartitionHorizontal(full, rng, frac);
    ProtocolOptions options;
    options.params = params;
    options.comparator.kind = ComparatorKind::kIdeal;
    options.comparator.magnitude_bound = RecommendedComparatorBound(2, 1 << 12);
    Labels combined = CombineHorizontal(
        hp, bench_util::RunPair(PartitionScheme::kHorizontal, hp.alice, hp.bob,
                                options));
    skew.AddRow({ResultTable::Fmt(frac, 2),
                 ResultTable::Fmt(AdjustedRandIndex(combined,
                                                    central.labels))});
  }
  bench_util::Emit(skew, csv, "E4.b Horizontal agreement vs partition skew",
                   "extreme skews approach centralized behaviour (one party "
                   "owns nearly every cluster)");

  // (c) The Â§1 motivation, quantified: DBSCAN vs the k-means baseline on
  // the same workloads (ARI against generator truth). Centroid
  // partitioning matches DBSCAN on blobs and collapses on the
  // arbitrary-shape and surrounded-cluster workloads.
  {
    ResultTable table({"workload", "true components", "DBSCAN ARI",
                       "k-means ARI (k=true)", "DBSCAN noise found"});
    for (const Workload& w : MakeWorkloads()) {
      FixedPointEncoder enc(8.0);
      Dataset full = *enc.Encode(w.raw);
      DbscanParams params{*enc.EncodeEpsSquared(w.eps), w.min_pts};
      DbscanResult dbscan = RunDbscan(full, params);
      Labels truth(w.raw.true_labels.begin(), w.raw.true_labels.end());
      size_t components = 0;
      for (int t : w.raw.true_labels) {
        components = std::max(components, static_cast<size_t>(t + 1));
      }
      SecureRng rng(99);
      KmeansResult kmeans =
          RunKmeans(full, {.k = components, .max_iterations = 200}, rng);
      size_t noise = 0;
      for (int32_t l : dbscan.labels) noise += l == kNoise ? 1 : 0;
      table.AddRow({w.name, ResultTable::Fmt(uint64_t{components}),
                    ResultTable::Fmt(AdjustedRandIndex(dbscan.labels, truth)),
                    ResultTable::Fmt(AdjustedRandIndex(kmeans.labels, truth)),
                    ResultTable::Fmt(uint64_t{noise})});
    }
    bench_util::Emit(table, csv,
                     "E4.c DBSCAN vs k-means baseline (Â§1 motivation)",
                     "density clustering wins on arbitrary shapes and "
                     "surrounded clusters even when k-means is GIVEN the "
                     "true k; k-means cannot mark noise at all");
  }
}

}  // namespace
}  // namespace ppdbscan

int main(int argc, char** argv) {
  ppdbscan::Run(ppdbscan::bench_util::WantCsv(argc, argv));
  return 0;
}
