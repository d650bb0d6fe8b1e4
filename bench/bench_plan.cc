// M6 — the clustering planner's accuracy/cost harness.
//
// For n ∈ {256, 1024, 4096} on a spatially split two-party horizontal job:
// exact mode's encrypted-comparison bill is the n_own·n_peer model (validated
// against a live run at n=256, where running it is cheap), the exact labels
// come from the plaintext simulator (eval/plan_eval.h, byte-identical to the
// protocol by construction and by test), and prune/sieve run LIVE — their
// measured comparator invocations and labels are checked against the model:
//
//   prune: labels byte-identical at every n; at n=4096 the measured bill
//          must be <= 25% of exact's.
//   sieve (k=4): combined-label ARI vs exact >= 0.99 at n=4096 and a
//          measured bill <= 10% of exact's.
//
// The harness ABORTS if any of those bounds fail — it is the acceptance
// gate, not just a reporter. --json records the comparison counts (in the
// generic magnitude column) for the committed baseline.

#include "bench_util.h"
#include "core/plan.h"
#include "eval/metrics.h"
#include "eval/plan_eval.h"

namespace ppdbscan {
namespace {

struct Workload {
  HorizontalPartition split{Dataset(2), Dataset(2), {}, {}};
  int64_t eps_squared = 0;
  size_t min_pts = 0;
};

Workload MakeWorkload(size_t n, uint64_t seed) {
  SecureRng rng(seed);
  RawDataset raw = MakeBlobs(rng, 4, n / 4, 2, 0.5, 6.0);
  while (raw.size() < n) AddUniformNoise(raw, rng, 1, 8.0);
  FixedPointEncoder enc(4.0);
  Dataset full = *enc.Encode(raw);
  Workload w;
  w.split = *PartitionHorizontalSpatial(full, 0, 0.5);
  w.eps_squared = *enc.EncodeEpsSquared(1.2);
  w.min_pts = 4;
  return w;
}

ProtocolOptions PlanOptionsFor(const Workload& w, PlanMode mode,
                               uint32_t sieve_k) {
  ProtocolOptions options;
  options.params = {w.eps_squared, w.min_pts};
  options.comparator.kind = ComparatorKind::kIdeal;
  options.comparator.magnitude_bound = RecommendedComparatorBound(2, 1 << 12);
  options.plan.mode = mode;
  options.plan.sieve_k = sieve_k;
  return options;
}

std::vector<RunOutcome> RunPlan(const Workload& w, PlanMode mode,
                                uint32_t sieve_k) {
  ProtocolOptions options = PlanOptionsFor(w, mode, sieve_k);
  Result<std::vector<RunOutcome>> out = ExecuteLocal(
      {{ClusteringJob::Horizontal(w.split.alice, PartyRole::kAlice, options),
        0xa},
       {ClusteringJob::Horizontal(w.split.bob, PartyRole::kBob, options),
        0xb}},
      bench_util::FastCrypto());
  PPD_CHECK_MSG(out.ok(), out.status().ToString().c_str());
  return std::move(*out);
}

Labels Combine(const HorizontalPartition& hp, const Labels& alice,
               const Labels& bob, size_t alice_clusters) {
  Labels combined(hp.alice_ids.size() + hp.bob_ids.size(), kUnclassified);
  const int32_t offset = static_cast<int32_t>(alice_clusters);
  for (size_t i = 0; i < hp.alice_ids.size(); ++i) {
    combined[hp.alice_ids[i]] = alice[i];
  }
  for (size_t i = 0; i < hp.bob_ids.size(); ++i) {
    combined[hp.bob_ids[i]] = bob[i] >= 0 ? bob[i] + offset : bob[i];
  }
  return combined;
}

void Record(std::vector<bench_util::BenchRecord>* records,
            const std::string& op, uint64_t comparisons) {
  if (records == nullptr) return;
  bench_util::BenchRecord rec;
  rec.op = op;
  rec.bytes = static_cast<double>(comparisons);  // unit: secure comparisons
  rec.modulus_bits = 256;
  records->push_back(std::move(rec));
}

void Run(bool csv, bool smoke, std::vector<bench_util::BenchRecord>* records) {
  ResultTable table({"n", "plan", "cmp measured", "cmp exact model",
                     "saved", "labels vs exact"});
  std::vector<size_t> sweep =
      smoke ? std::vector<size_t>{256} : std::vector<size_t>{256, 1024, 4096};
  for (size_t n : sweep) {
    Workload w = MakeWorkload(n, 29);
    const std::string ns = std::to_string(n);
    const uint64_t exact_model =
        static_cast<uint64_t>(w.split.alice.size()) * w.split.bob.size();
    Record(records, "plan_exact_model_comparisons_n" + ns, exact_model);

    // The exact-label oracle; validated live below at the cheap size.
    DbscanParams params{w.eps_squared, w.min_pts};
    DbscanResult alice_exact =
        SimulateHorizontalParty(w.split.alice, {&w.split.bob}, params);
    DbscanResult bob_exact =
        SimulateHorizontalParty(w.split.bob, {&w.split.alice}, params);
    Labels exact_combined = Combine(w.split, alice_exact.labels,
                                    bob_exact.labels,
                                    alice_exact.num_clusters);
    if (n == 256 && !smoke) {
      std::vector<RunOutcome> live = RunPlan(w, PlanMode::kExact, 4);
      PPD_CHECK_MSG(live[0].clustering.labels == alice_exact.labels &&
                        live[1].clustering.labels == bob_exact.labels,
                    "simulator diverged from the live exact protocol");
      PPD_CHECK_MSG(live[0].plan.encrypted_comparisons == exact_model,
                    "exact-mode measurement diverged from the n_a*n_b model");
      table.AddRow({ns, "exact (live)",
                    ResultTable::Fmt(live[0].plan.encrypted_comparisons),
                    ResultTable::Fmt(exact_model), "0.0%", "identical"});
    } else {
      table.AddRow({ns, "exact (model)", ResultTable::Fmt(exact_model),
                    ResultTable::Fmt(exact_model), "0.0%", "oracle"});
    }

    // Prune: lossless, so byte-identical labels at EVERY n.
    {
      std::vector<RunOutcome> out = RunPlan(w, PlanMode::kPrune, 4);
      const PlanStats& stats = out[0].plan;
      PPD_CHECK_MSG(out[0].clustering.labels == alice_exact.labels &&
                        out[1].clustering.labels == bob_exact.labels &&
                        out[0].clustering.is_core == alice_exact.is_core,
                    "prune labels are not byte-identical to exact");
      PPD_CHECK_MSG(stats.encrypted_comparisons ==
                        stats.predicted_comparisons,
                    "prune cost model missed the measured count");
      if (n == 4096) {
        PPD_CHECK_MSG(stats.encrypted_comparisons * 4 <= exact_model,
                      "prune must cost <= 25% of exact at n=4096");
      }
      Record(records, "plan_prune_comparisons_n" + ns,
             stats.encrypted_comparisons);
      table.AddRow({ns, "prune",
                    ResultTable::Fmt(stats.encrypted_comparisons),
                    ResultTable::Fmt(exact_model),
                    ResultTable::Fmt(stats.SavedFraction() * 100, 1) + "%",
                    "identical"});
      std::cout << "n=" << n << " " << stats.Summary() << "\n";
    }

    // Sieve k=4: approximate — measure the agreement it buys.
    {
      std::vector<RunOutcome> out = RunPlan(w, PlanMode::kSieve, 4);
      const PlanStats& stats = out[0].plan;
      Labels sieve_combined =
          Combine(w.split, out[0].clustering.labels, out[1].clustering.labels,
                  out[0].clustering.num_clusters);
      const double ari = AdjustedRandIndex(sieve_combined, exact_combined);
      if (n == 4096) {
        PPD_CHECK_MSG(stats.encrypted_comparisons * 10 <= exact_model,
                      "sieve k=4 must cost <= 10% of exact at n=4096");
        PPD_CHECK_MSG(ari >= 0.99, "sieve k=4 ARI vs exact below 0.99");
      }
      Record(records, "plan_sieve_k4_comparisons_n" + ns,
             stats.encrypted_comparisons);
      table.AddRow({ns, "sieve k=4",
                    ResultTable::Fmt(stats.encrypted_comparisons),
                    ResultTable::Fmt(exact_model),
                    ResultTable::Fmt(stats.SavedFraction() * 100, 1) + "%",
                    "ARI " + ResultTable::Fmt(ari, 4)});
      std::cout << "n=" << n << " " << stats.Summary() << "\n";
    }
  }
  bench_util::Emit(table, csv,
                   "M6 Planner cost vs accuracy (two-party horizontal)",
                   "prune is free of accuracy loss and <= 25% of exact's "
                   "encrypted comparisons at n=4096; sieve k=4 is <= 10% "
                   "at ARI >= 0.99");
}

}  // namespace
}  // namespace ppdbscan

int main(int argc, char** argv) {
  std::string json = ppdbscan::bench_util::TakeJsonPath(&argc, argv);
  std::vector<ppdbscan::bench_util::BenchRecord> records;
  ppdbscan::Run(ppdbscan::bench_util::WantCsv(argc, argv),
                ppdbscan::bench_util::HasFlag(argc, argv, "--smoke"),
                json.empty() ? nullptr : &records);
  ppdbscan::bench_util::WriteBenchJson(json, records);
  return 0;
}
