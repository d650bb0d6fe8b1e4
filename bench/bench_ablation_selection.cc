// E6 — §5 selection-algorithm ablation.
//
// Paper claims: the k-pass scan costs O(k·n) comparisons ("a good time
// complexity for a small k"); the quickselect-based algorithm costs O(n)
// expected, "appropriate when the k is greater". Each secure comparison is
// a full YMPP/comparator round, so comparison counts translate directly to
// communication.

#include "bench_util.h"

namespace ppdbscan {
namespace {

uint64_t MeasureComparisons(const HorizontalPartition& hp, size_t min_pts,
                            SelectionAlgorithm selection) {
  ProtocolOptions options;
  options.params = {.eps_squared = 23, .min_pts = min_pts};
  options.mode = HorizontalMode::kEnhanced;
  options.selection = selection;
  options.comparator.kind = ComparatorKind::kIdeal;
  options.comparator.magnitude_bound = RecommendedComparatorBound(2, 64);
  std::vector<RunOutcome> out = bench_util::RunPair(
      PartitionScheme::kHorizontal, hp.alice, hp.bob, options);
  return out[0].selection_comparisons + out[1].selection_comparisons;
}

void Run(bool csv) {
  // (a) Comparisons vs MinPts (k* grows with MinPts).
  {
    SecureRng rng(31);
    RawDataset raw = MakeBlobs(rng, 2, 16, 2, 0.6, 6.0);
    FixedPointEncoder enc(4.0);
    Dataset full = *enc.Encode(raw);
    HorizontalPartition hp = *PartitionHorizontal(full, rng, 0.5);
    ResultTable table({"MinPts", "k-pass comparisons",
                       "quickselect comparisons"});
    for (size_t min_pts : {2, 4, 8, 12, 16}) {
      table.AddRow(
          {ResultTable::Fmt(static_cast<uint64_t>(min_pts)),
           ResultTable::Fmt(
               MeasureComparisons(hp, min_pts, SelectionAlgorithm::kKPass)),
           ResultTable::Fmt(MeasureComparisons(
               hp, min_pts, SelectionAlgorithm::kQuickSelect))});
    }
    bench_util::Emit(table, csv, "E6.a Secure comparisons vs MinPts (n=32)",
                     "k-pass grows ~linearly with k; quickselect stays flat "
                     "(its crossover justifies §5 offering both)");
  }

  // (b) Comparisons vs peer size n_B at fixed MinPts.
  {
    ResultTable table({"n", "k-pass comparisons", "quickselect comparisons"});
    for (size_t n : {16, 24, 32, 48}) {
      SecureRng rng(32);
      RawDataset raw = MakeBlobs(rng, 2, n / 2, 2, 0.6, 6.0);
      FixedPointEncoder enc(4.0);
      Dataset full = *enc.Encode(raw);
      HorizontalPartition hp = *PartitionHorizontal(full, rng, 0.5);
      table.AddRow(
          {ResultTable::Fmt(static_cast<uint64_t>(n)),
           ResultTable::Fmt(
               MeasureComparisons(hp, 6, SelectionAlgorithm::kKPass)),
           ResultTable::Fmt(
               MeasureComparisons(hp, 6, SelectionAlgorithm::kQuickSelect))});
    }
    bench_util::Emit(table, csv,
                     "E6.b Secure comparisons vs dataset size (MinPts=6)",
                     "both scale linearly in the peer point count per core "
                     "test; k-pass carries the k multiplier");
  }
}

}  // namespace
}  // namespace ppdbscan

int main(int argc, char** argv) {
  ppdbscan::Run(ppdbscan::bench_util::WantCsv(argc, argv));
  return 0;
}
