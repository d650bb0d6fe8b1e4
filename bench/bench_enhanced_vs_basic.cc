// E5 — basic (§4.2) vs enhanced (§5) horizontal protocol.
//
// Paper claims (Theorem 9 vs Theorem 11 + §5.1):
//  * identical clustering output;
//  * same asymptotic communication O(c1·m·l(n−l) + c2·n0·l(n−l)), with a
//    larger constant for the enhanced protocol (selection comparisons);
//  * strictly less disclosure: a neighbour COUNT per core test becomes a
//    single BIT.

#include "bench_util.h"
#include "eval/metrics.h"

namespace ppdbscan {
namespace {

void Run(bool csv) {
  ResultTable table({"n", "mode", "bytes total", "rounds",
                     "disclosure / core test", "distinct values",
                     "entropy (bits)", "output equal"});
  for (size_t n : {16, 24, 32}) {
    SecureRng rng(7);
    RawDataset raw = MakeBlobs(rng, 3, n / 3, 2, 0.5, 6.0);
    while (raw.size() < n) AddUniformNoise(raw, rng, 1, 8.0);
    FixedPointEncoder enc(4.0);
    Dataset full = *enc.Encode(raw);
    HorizontalPartition hp = *PartitionHorizontal(full, rng, 0.5);

    ProtocolOptions options;
    options.params = {.eps_squared = 23, .min_pts = 4};
    options.comparator.kind = ComparatorKind::kBlindedPaillier;
    options.comparator.magnitude_bound = RecommendedComparatorBound(2, 64);

    std::vector<RunOutcome> basic = bench_util::RunPair(
        PartitionScheme::kHorizontal, hp.alice, hp.bob, options);
    options.mode = HorizontalMode::kEnhanced;
    std::vector<RunOutcome> enhanced = bench_util::RunPair(
        PartitionScheme::kHorizontal, hp.alice, hp.bob, options);

    const bool equal =
        basic[0].clustering.labels == enhanced[0].clustering.labels &&
        basic[1].clustering.labels == enhanced[1].clustering.labels;
    table.AddRow(
        {ResultTable::Fmt(static_cast<uint64_t>(n)), "basic (Alg. 3/4)",
         ResultTable::Fmt(basic[0].stats.total_bytes()),
         ResultTable::Fmt(basic[0].stats.rounds),
         "neighbour count",
         ResultTable::Fmt(
             basic[0].disclosures.DistinctValues("peer_neighbor_count")),
         ResultTable::Fmt(
             basic[0].disclosures.EntropyBits("peer_neighbor_count")),
         equal ? "yes" : "NO"});
    table.AddRow(
        {ResultTable::Fmt(static_cast<uint64_t>(n)), "enhanced (Alg. 7/8)",
         ResultTable::Fmt(enhanced[0].stats.total_bytes()),
         ResultTable::Fmt(enhanced[0].stats.rounds),
         "1 bit",
         ResultTable::Fmt(
             enhanced[0].disclosures.DistinctValues("peer_core_bit")),
         ResultTable::Fmt(
             enhanced[0].disclosures.EntropyBits("peer_core_bit")),
         equal ? "yes" : "NO"});
  }
  bench_util::Emit(table, csv,
                   "E5 Basic vs enhanced horizontal protocol",
                   "same clustering; enhanced pays more bytes/rounds but "
                   "reveals <=1 bit of entropy per core test instead of a "
                   "neighbour count");
}

}  // namespace
}  // namespace ppdbscan

int main(int argc, char** argv) {
  ppdbscan::Run(ppdbscan::bench_util::WantCsv(argc, argv));
  return 0;
}
