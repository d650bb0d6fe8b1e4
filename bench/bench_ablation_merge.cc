// E7 — cross-party merge extension ablation (not part of the paper's
// protocols; DESIGN.md §3.5).
//
// The paper's horizontal protocol cannot chain density-reachability
// through the other party's points, so clusters bridged by peer points
// split. The merge extension links clusters whose core points are within
// Eps across parties, trading extra disclosure (core-pair adjacency,
// unpermuted cores) for centralized-equivalent connectivity.

#include "bench_util.h"
#include "dbscan/dbscan.h"
#include "eval/metrics.h"

namespace ppdbscan {
namespace {

Labels Combine(const HorizontalPartition& hp,
               const std::vector<RunOutcome>& out, bool merged) {
  Labels combined(hp.alice_ids.size() + hp.bob_ids.size(), kUnclassified);
  int32_t offset =
      merged ? 0 : static_cast<int32_t>(out[0].clustering.num_clusters);
  for (size_t i = 0; i < hp.alice_ids.size(); ++i) {
    combined[hp.alice_ids[i]] = out[0].clustering.labels[i];
  }
  for (size_t i = 0; i < hp.bob_ids.size(); ++i) {
    int32_t l = out[1].clustering.labels[i];
    combined[hp.bob_ids[i]] = l >= 0 ? l + offset : l;
  }
  return combined;
}

void Run(bool csv) {
  ResultTable table({"bridge points", "ARI no merge", "ARI with merge",
                     "merge links disclosed", "clusters no merge",
                     "clusters with merge", "centralized clusters"});
  for (size_t bridge : {0, 4, 8, 12}) {
    SecureRng rng(41);
    RawDataset raw = MakeDumbbell(rng, 16, bridge, 10.0, 0.6);
    FixedPointEncoder enc(8.0);
    Dataset full = *enc.Encode(raw);
    DbscanParams params{*enc.EncodeEpsSquared(1.6), 3};
    DbscanResult central = RunDbscan(full, params);

    // Adversarial split: Alice owns the blobs, Bob owns the bridge.
    Dataset alice(2), bob(2);
    std::vector<size_t> alice_ids, bob_ids;
    for (size_t i = 0; i < full.size(); ++i) {
      if (i < 32) {
        PPD_CHECK(alice.Add(full.point(i)).ok());
        alice_ids.push_back(i);
      } else {
        PPD_CHECK(bob.Add(full.point(i)).ok());
        bob_ids.push_back(i);
      }
    }
    if (bob_ids.empty()) {  // bridge == 0: give Bob one far-away point
      PPD_CHECK(bob.Add({1000, 1000}).ok());
      bob_ids.push_back(full.size());
      PPD_CHECK(full.Add({1000, 1000}).ok());
      central = RunDbscan(full, params);
    }
    HorizontalPartition hp{std::move(alice), std::move(bob),
                           std::move(alice_ids), std::move(bob_ids)};

    ProtocolOptions options;
    options.params = params;
    options.comparator.kind = ComparatorKind::kIdeal;
    options.comparator.magnitude_bound = RecommendedComparatorBound(2, 1 << 12);
    std::vector<RunOutcome> plain = bench_util::RunPair(
        PartitionScheme::kHorizontal, hp.alice, hp.bob, options);
    options.cross_party_merge = true;
    std::vector<RunOutcome> merged = bench_util::RunPair(
        PartitionScheme::kHorizontal, hp.alice, hp.bob, options);

    table.AddRow(
        {ResultTable::Fmt(static_cast<uint64_t>(bridge)),
         ResultTable::Fmt(AdjustedRandIndex(Combine(hp, plain, false),
                                            central.labels)),
         ResultTable::Fmt(AdjustedRandIndex(Combine(hp, merged, true),
                                            central.labels)),
         ResultTable::Fmt(merged[0].disclosures.Count("merge_links")),
         ResultTable::Fmt(plain[0].clustering.num_clusters +
                          plain[1].clustering.num_clusters),
         ResultTable::Fmt(merged[0].clustering.num_clusters),
         ResultTable::Fmt(central.num_clusters)});
  }
  bench_util::Emit(table, csv,
                   "E7 Cross-party merge ablation (dumbbell, Bob owns the "
                   "bridge)",
                   "without merge the dumbbell splits; the merge extension "
                   "restores centralized connectivity at the cost of "
                   "disclosing cross-party cluster adjacency");
}

}  // namespace
}  // namespace ppdbscan

int main(int argc, char** argv) {
  ppdbscan::Run(ppdbscan::bench_util::WantCsv(argc, argv));
  return 0;
}
