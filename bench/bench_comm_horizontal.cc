// E2 — communication of the horizontal protocol (§4.2.2).
//
// Paper claim: O(c1·m·l(n−l) + c2·n0·l(n−l)) bits, i.e. bilinear in the
// cross-party pair count l(n−l), linear in the dimension m (first term),
// and linear in the YMPP domain n0 (second term). This harness measures
// exact bytes on the instrumented channel for each sweep.

#include "bench_util.h"
#include "common/thread_pool.h"
#include "eval/cost_model.h"

namespace ppdbscan {
namespace {

/// Appends one machine-readable record (bytes on the wire for one
/// protocol configuration) when --json was requested.
void RecordBytes(std::vector<bench_util::BenchRecord>* records,
                 const std::string& op, uint64_t bytes) {
  if (records == nullptr) return;
  bench_util::BenchRecord rec;
  rec.op = op;
  rec.bytes = static_cast<double>(bytes);
  rec.threads = GlobalThreadPool().size();
  rec.modulus_bits = bench_util::FastCrypto().paillier_bits;
  records->push_back(std::move(rec));
}

uint64_t MeasureBytes(const Dataset& alice, const Dataset& bob,
                      const ProtocolOptions& options) {
  return bench_util::RunPair(PartitionScheme::kHorizontal, alice, bob,
                             options)[0]
      .stats.total_bytes();
}

HorizontalPartition MakeWorkload(size_t n, size_t dims, double alice_frac,
                                 uint64_t seed) {
  SecureRng rng(seed);
  RawDataset raw = MakeBlobs(rng, 3, n / 3, dims, 0.5, 6.0);
  while (raw.size() < n) AddUniformNoise(raw, rng, 1, 8.0);
  FixedPointEncoder enc(4.0);
  Dataset full = *enc.Encode(raw);
  return *PartitionHorizontal(full, rng, alice_frac);
}

ProtocolOptions BlindedOptions() {
  ProtocolOptions options;
  options.params = {.eps_squared = 23, .min_pts = 4};  // eps≈1.2·4
  options.comparator.kind = ComparatorKind::kBlindedPaillier;
  options.comparator.magnitude_bound = RecommendedComparatorBound(8, 64);
  return options;
}

void Run(bool csv, bool smoke, std::vector<bench_util::BenchRecord>* records) {
  // (a) Sweep n at fixed split 1/2: bytes should track l(n−l) = n²/4.
  {
    ResultTable table({"n", "l(n-l)", "bytes total", "bytes / l(n-l)"});
    std::vector<size_t> sweep = smoke ? std::vector<size_t>{12}
                                      : std::vector<size_t>{12, 18, 24, 36, 48};
    for (size_t n : sweep) {
      HorizontalPartition hp = MakeWorkload(n, 2, 0.5, 17);
      uint64_t pairs = hp.alice.size() * hp.bob.size();
      uint64_t bytes = MeasureBytes(hp.alice, hp.bob, BlindedOptions());
      RecordBytes(records, "E2.a_bytes_n" + std::to_string(n), bytes);
      table.AddRow({ResultTable::Fmt(static_cast<uint64_t>(n)),
                    ResultTable::Fmt(pairs), ResultTable::Fmt(bytes),
                    ResultTable::Fmt(static_cast<double>(bytes) /
                                         static_cast<double>(pairs),
                                     1)});
    }
    bench_util::Emit(table, csv, "E2.a Bytes vs n (split 1/2)",
                     "total bits scale with l(n-l); the per-pair cost "
                     "column should be ~constant");
  }
  // --smoke: one tiny end-to-end run is enough to exercise the protocol,
  // the thread pool underneath it, and the JSON path (CI's bench stage).
  if (smoke) return;

  // (b) Sweep dimension m at fixed n: the c1·m term.
  {
    ResultTable table({"m", "bytes total", "bytes / m"});
    for (size_t m : {2, 3, 4, 6, 8}) {
      HorizontalPartition hp = MakeWorkload(24, m, 0.5, 18);
      uint64_t bytes = MeasureBytes(hp.alice, hp.bob, BlindedOptions());
      RecordBytes(records, "E2.b_bytes_m" + std::to_string(m), bytes);
      table.AddRow({ResultTable::Fmt(static_cast<uint64_t>(m)),
                    ResultTable::Fmt(bytes),
                    ResultTable::Fmt(static_cast<double>(bytes) / m, 1)});
    }
    bench_util::Emit(table, csv, "E2.b Bytes vs dimension m (n=24)",
                     "the HDP term grows linearly in m (plus a per-pair "
                     "comparison term independent of m)");
  }

  // (c) Sweep the split ratio at fixed n: the l(n−l) profile.
  {
    ResultTable table({"alice fraction", "l(n-l)", "bytes total"});
    for (double frac : {0.125, 0.25, 0.5, 0.75}) {
      HorizontalPartition hp = MakeWorkload(32, 2, frac, 19);
      uint64_t pairs = hp.alice.size() * hp.bob.size();
      uint64_t bytes = MeasureBytes(hp.alice, hp.bob, BlindedOptions());
      RecordBytes(records,
                  "E2.c_bytes_frac" + std::to_string(frac).substr(0, 5),
                  bytes);
      table.AddRow({ResultTable::Fmt(frac, 3), ResultTable::Fmt(pairs),
                    ResultTable::Fmt(bytes)});
    }
    bench_util::Emit(table, csv, "E2.c Bytes vs split ratio (n=32)",
                     "cost peaks at the even split, following l(n-l)");
  }

  // (d) Sweep the YMPP domain n0: the c2·n0 term, measured with the real
  // Algorithm 1 comparator on a tiny fixed workload.
  {
    ResultTable table({"comparator bound B", "n0 = 2B+3", "bytes total",
                       "bytes / n0"});
    Dataset alice(2), bob(2);
    PPD_CHECK(alice.Add({0, 0}).ok());
    PPD_CHECK(alice.Add({1, 0}).ok());
    PPD_CHECK(alice.Add({4, 4}).ok());
    PPD_CHECK(bob.Add({0, 1}).ok());
    PPD_CHECK(bob.Add({4, 5}).ok());
    for (int64_t bound : {64, 128, 256, 512}) {
      ProtocolOptions options;
      options.params = {.eps_squared = 2, .min_pts = 2};
      options.comparator.kind = ComparatorKind::kYmpp;
      options.comparator.magnitude_bound = BigInt(bound);
      uint64_t bytes = MeasureBytes(alice, bob, options);
      RecordBytes(records, "E2.d_bytes_B" + std::to_string(bound), bytes);
      uint64_t n0 = 2 * static_cast<uint64_t>(bound) + 3;
      table.AddRow({ResultTable::Fmt(bound), ResultTable::Fmt(n0),
                    ResultTable::Fmt(bytes),
                    ResultTable::Fmt(static_cast<double>(bytes) /
                                         static_cast<double>(n0),
                                     1)});
    }
    bench_util::Emit(table, csv,
                     "E2.d Bytes vs YMPP domain n0 (Algorithm 1 backend)",
                     "the comparison term is linear in n0 (bytes/n0 "
                     "approaches the per-entry cost c2)");
  }

  // (e) Deployment projection: the exact counters pushed through the
  // alpha-beta link model (eval/cost_model.h). Shows where the round count
  // (not just the byte count) becomes the binding cost -- the paper's Â§2
  // argument against chatty generic protocols, made quantitative.
  {
    ResultTable table({"backend", "bytes", "rounds", "datacenter",
                       "metro WAN", "wide WAN"});
    SecureRng rng(77);
    RawDataset raw = MakeBlobs(rng, 2, 8, 2, 0.5, 5.0);
    FixedPointEncoder enc(4.0);
    Dataset full = *enc.Encode(raw);
    HorizontalPartition hp = *PartitionHorizontal(full, rng, 0.5);
    for (ComparatorKind kind :
         {ComparatorKind::kBlindedPaillier, ComparatorKind::kYmpp}) {
      ProtocolOptions options;
      options.params = {.eps_squared = *enc.EncodeEpsSquared(1.3),
                        .min_pts = 3};
      options.comparator.kind = kind;
      options.comparator.magnitude_bound = RecommendedComparatorBound(2, 64);
      const ChannelStats stats =
          bench_util::RunPair(PartitionScheme::kHorizontal, hp.alice, hp.bob,
                              options)[0]
              .stats;
      RecordBytes(records,
                  std::string("E2.e_bytes_") + ComparatorKindToString(kind),
                  stats.total_bytes());
      table.AddRow({ComparatorKindToString(kind),
                    ResultTable::Fmt(stats.total_bytes()),
                    ResultTable::Fmt(stats.rounds),
                    ResultTable::Fmt(ProjectedSeconds(stats,
                                                      DatacenterLink()),
                                     3) + " s",
                    ResultTable::Fmt(ProjectedSeconds(stats, MetroWanLink()),
                                     3) + " s",
                    ResultTable::Fmt(ProjectedSeconds(stats, WideWanLink()),
                                     3) + " s"});
    }
    bench_util::Emit(table, csv,
                     "E2.e Projected deployment time (alpha-beta link model)",
                     "on fast links compute dominates; on WANs the link term "
                     "does, and the Theta(n0)-entry YMPP messages blow up "
                     "the byte component -- Goldreich's argument for "
                     "special-purpose protocols, quantified");
  }
}

}  // namespace
}  // namespace ppdbscan

int main(int argc, char** argv) {
  std::string json_path = ppdbscan::bench_util::TakeJsonPath(&argc, argv);
  std::vector<ppdbscan::bench_util::BenchRecord> records;
  ppdbscan::Run(ppdbscan::bench_util::WantCsv(argc, argv),
                ppdbscan::bench_util::HasFlag(argc, argv, "--smoke"),
                json_path.empty() ? nullptr : &records);
  ppdbscan::bench_util::WriteBenchJson(json_path, records);
  return 0;
}
