// Multi-party extension (§1: "the two-party algorithm can be extended to
// multi-party cases"): a consortium of FOUR hospitals jointly clusters
// patient phenotypes. Every pairwise link runs the unmodified two-party
// sub-protocols (HDP + secure comparison) over its own key exchange, and a
// scanning hospital's core test sums one private count per peer — so
// Theorem 9's disclosure bound applies per link and the composition
// theorem covers the whole run (core/horizontal.h).
//
// The demo shows a phenotype cluster that NO hospital can see alone: each
// holds too few of its patients for the density threshold, but the
// consortium's pooled density crosses it.

#include <cstdio>

#include "common/random.h"
#include "core/run.h"
#include "data/fixed_point.h"
#include "data/generators.h"
#include "dbscan/dbscan.h"
#include "eval/metrics.h"
#include "eval/table.h"

namespace {

using namespace ppdbscan;  // NOLINT: example brevity

int Run() {
  constexpr size_t kHospitals = 4;

  // One shared rare-phenotype cohort (12 patients scattered across all
  // hospitals) plus a hospital-specific common cohort each.
  SecureRng rng(314);
  RawDataset shared = MakeBlobs(rng, 1, 12, 3, 0.4, 1.0);
  FixedPointEncoder encoder(10.0);
  Dataset shared_enc = *encoder.Encode(shared);

  std::vector<Dataset> hospitals(kHospitals, Dataset(3));
  Dataset pooled(3);
  for (size_t i = 0; i < shared_enc.size(); ++i) {
    PPD_CHECK(hospitals[i % kHospitals].Add(shared_enc.point(i)).ok());
    PPD_CHECK(pooled.Add(shared_enc.point(i)).ok());
  }
  // Hospital-specific cohorts, far from the shared one and each dense on
  // its own.
  for (size_t h = 0; h < kHospitals; ++h) {
    const int64_t base = 200 + 100 * static_cast<int64_t>(h);
    for (int64_t dx = 0; dx < 2; ++dx) {
      for (int64_t dy = 0; dy < 3; ++dy) {
        std::vector<int64_t> p{base + dx, base + dy, 0};
        PPD_CHECK(hospitals[h].Add(p).ok());
        PPD_CHECK(pooled.Add(p).ok());
      }
    }
  }

  ProtocolOptions options;
  options.params.eps_squared = *encoder.EncodeEpsSquared(1.2);
  options.params.min_pts = 5;
  options.comparator.kind = ComparatorKind::kBlindedPaillier;
  options.comparator.magnitude_bound = RecommendedComparatorBound(3, 512);
  SmcOptions smc;
  smc.paillier_bits = 384;
  smc.rsa_bits = 384;

  // What each hospital finds WITHOUT the consortium.
  const size_t shared_per_hospital = shared_enc.size() / kHospitals;
  std::printf("Rare-phenotype patients per hospital (of %zu total):\n",
              shared_enc.size());
  for (size_t h = 0; h < kHospitals; ++h) {
    DbscanResult local = RunDbscan(hospitals[h], options.params);
    size_t rare_clustered = 0;  // rare members sit at indices 0..k-1
    for (size_t i = 0; i < shared_per_hospital; ++i) {
      rare_clustered += local.labels[i] >= 0 ? 1 : 0;
    }
    std::printf("  hospital %zu: %zu patients; local DBSCAN clusters %zu of "
                "its %zu rare-cohort members\n",
                h, hospitals[h].size(), rare_clustered,
                shared_per_hospital);
  }

  // The consortium run: one kMultiparty ClusteringJob per hospital, run
  // over the in-process mesh by the PartyRuntime facade. The negotiation
  // round on every pairwise link guarantees all four hospitals agree on
  // Eps/MinPts/comparator before any patient-derived ciphertext flows.
  std::vector<LocalJob> jobs;
  for (size_t h = 0; h < kHospitals; ++h) {
    jobs.push_back({ClusteringJob::Multiparty(hospitals[h], h, kHospitals,
                                              options),
                    /*seed=*/0x9bd1 + h});
  }
  Result<std::vector<RunOutcome>> outcome = ExecuteLocal(jobs, smc);
  if (!outcome.ok()) {
    std::fprintf(stderr, "protocol: %s\n",
                 outcome.status().ToString().c_str());
    return 1;
  }

  ResultTable table({"hospital", "patients", "clusters", "rare cohort "
                     "recovered", "bytes sent", "peer counts learned"});
  DbscanResult central = RunDbscan(pooled, options.params);
  bool all_recovered = true;
  for (size_t h = 0; h < kHospitals; ++h) {
    const PartyClusteringResult& r = (*outcome)[h].clustering;
    // This hospital's shared-cohort members sit at indices 0..k-1 (they
    // were added first); recovered = all of them clustered.
    bool recovered = true;
    for (size_t i = 0; i < shared_per_hospital; ++i) {
      recovered = recovered && r.labels[i] >= 0;
    }
    all_recovered = all_recovered && recovered;
    table.AddRow({ResultTable::Fmt(static_cast<uint64_t>(h)),
                  ResultTable::Fmt(uint64_t{hospitals[h].size()}),
                  ResultTable::Fmt(uint64_t{r.num_clusters}),
                  recovered ? "yes" : "NO",
                  ResultTable::Fmt((*outcome)[h].stats.bytes_sent),
                  ResultTable::Fmt((*outcome)[h].disclosures.Count(
                      "peer_neighbor_count"))});
  }
  std::printf("\n%s", table.ToMarkdown().c_str());
  std::printf("\nPooled (centralized) DBSCAN finds %zu clusters; the rare "
              "cohort exists only\nin the joint density — no hospital's "
              "local run clusters all of its members,\nbut every hospital "
              "recovers them through the consortium protocol.\n",
              central.num_clusters);
  return all_recovered ? 0 : 1;
}

}  // namespace

int main() { return Run(); }
