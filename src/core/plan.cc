#include "core/plan.h"

#include <algorithm>
#include <cstdio>

#include "core/expand.h"

namespace ppdbscan {

const char* PlanModeToString(PlanMode mode) {
  switch (mode) {
    case PlanMode::kExact:
      return "exact";
    case PlanMode::kPrune:
      return "prune";
    case PlanMode::kSieve:
      return "sieve";
  }
  return "unknown";
}

Result<PlanMode> PlanModeFromString(const std::string& name) {
  if (name == "exact") return PlanMode::kExact;
  if (name == "prune") return PlanMode::kPrune;
  if (name == "sieve") return PlanMode::kSieve;
  return Status::InvalidArgument("unknown plan mode '" + name +
                                 "' (want exact|prune|sieve)");
}

double PlanStats::SavedFraction() const {
  if (exact_comparisons == 0) return 0.0;
  if (encrypted_comparisons >= exact_comparisons) return 0.0;
  return 1.0 - static_cast<double>(encrypted_comparisons) /
                   static_cast<double>(exact_comparisons);
}

std::string PlanStats::Summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "plan[%s%s] cmp=%llu exact=%llu saved=%.1f%% cand=%llu/%llu",
                PlanModeToString(mode),
                mode == PlanMode::kSieve
                    ? (" k=" + std::to_string(sieve_k)).c_str()
                    : "",
                static_cast<unsigned long long>(encrypted_comparisons),
                static_cast<unsigned long long>(exact_comparisons),
                100.0 * SavedFraction(),
                static_cast<unsigned long long>(candidate_points),
                static_cast<unsigned long long>(local_points));
  std::string out(buf);
  if (mode == PlanMode::kSieve) {
    std::snprintf(buf, sizeof(buf),
                  " assigned=%llu rescued=%llu noise=%llu",
                  static_cast<unsigned long long>(sieve_assigned_local),
                  static_cast<unsigned long long>(sieve_rescued),
                  static_cast<unsigned long long>(sieve_noise));
    out += buf;
  }
  return out;
}

std::vector<size_t> SievedIndices(size_t n, uint32_t k) {
  std::vector<size_t> out;
  if (k == 0) k = 1;
  out.reserve(n / k + 1);
  for (size_t i = 0; i < n; i += k) out.push_back(i);
  return out;
}

std::vector<size_t> LeftoverIndices(size_t n, uint32_t k) {
  std::vector<size_t> out;
  if (k == 0) k = 1;
  out.reserve(n - n / k);
  for (size_t i = 0; i < n; ++i) {
    if (i % k != 0) out.push_back(i);
  }
  return out;
}

uint64_t SievedCount(uint64_t n, uint32_t k) {
  if (k == 0) k = 1;
  return (n + k - 1) / k;
}

Dataset SubsetDataset(const Dataset& ds, const std::vector<size_t>& indices) {
  Dataset out(ds.dims());
  for (size_t idx : indices) {
    // Coordinates already passed the source dataset's bounds checks.
    Status status = out.Add(ds.point(idx));
    PPD_CHECK_MSG(status.ok(), "subset of a valid dataset must be valid");
  }
  return out;
}

void WriteBoundingBox(ByteWriter& out, const BoundingBox& box) {
  out.PutU8(box.empty() ? 0 : 1);
  for (size_t t = 0; t < box.dims(); ++t) {
    out.PutU64(static_cast<uint64_t>(box.lo[t]));
    out.PutU64(static_cast<uint64_t>(box.hi[t]));
  }
}

Result<DbscanResult> RunSievePlan(const Dataset& own,
                                  const DbscanParams& params, uint32_t sieve_k,
                                  const SievePeerHooks& hooks,
                                  PlanStats* stats) {
  const int64_t eps2 = params.eps_squared;
  const uint32_t k = sieve_k == 0 ? 1 : sieve_k;

  DbscanResult result;
  result.labels.assign(own.size(), kUnclassified);
  result.is_core.assign(own.size(), false);
  if (own.empty()) return result;

  const std::vector<size_t> sieved = SievedIndices(own.size(), k);
  const Dataset sieved_view = SubsetDataset(own, sieved);
  const size_t m = sieved.size();

  GridRegionQuerier full(own, eps2);
  LinearRegionQuerier sub_querier(sieved_view);
  auto own_full_count = [&full, eps2](size_t original_idx) {
    return full.Query(original_idx, eps2).size();
  };

  // Phase 1: the shared expansion skeleton over the sieved subset, with
  // the hook as the core oracle.
  PPD_ASSIGN_OR_RETURN(
      DbscanResult sub,
      ExpandClusters(
          m,
          [&](size_t si) -> Result<std::vector<size_t>> {
            return sub_querier.Query(si, eps2);
          },
          [&](size_t si, size_t) {
            return hooks.core_test(own.point(sieved[si]),
                                   own_full_count(sieved[si]));
          }));
  int32_t cluster_id = static_cast<int32_t>(sub.num_clusters);
  for (size_t si = 0; si < m; ++si) {
    result.labels[sieved[si]] = sub.labels[si];
    result.is_core[sieved[si]] = sub.is_core[si];
  }

  // Phase 2: leftover assignment — first sieved local core within Eps, by
  // ascending subset index (QueryPoint's documented order), so the outcome
  // does not depend on hash-map iteration or rng state.
  GridRegionQuerier sieved_grid(sieved_view, eps2);
  std::vector<size_t> unresolved;
  for (size_t li : LeftoverIndices(own.size(), k)) {
    bool assigned = false;
    for (size_t si : sieved_grid.QueryPoint(own.point(li), eps2)) {
      if (sub.is_core[si]) {
        result.labels[li] = sub.labels[si];
        assigned = true;
        break;
      }
    }
    if (assigned) {
      if (stats != nullptr) ++stats->sieve_assigned_local;
    } else {
      unresolved.push_back(li);
    }
  }

  // Phase 3: rescue. Full local counts decide what they can for free; only
  // the still-ambiguous points enter the one batched encrypted round.
  std::vector<size_t> own_counts(unresolved.size());
  std::vector<bool> rescue_core(unresolved.size());
  std::vector<size_t> ask;  // positions into `unresolved`
  std::vector<std::vector<int64_t>> queries;
  for (size_t t = 0; t < unresolved.size(); ++t) {
    own_counts[t] = own_full_count(unresolved[t]);
    rescue_core[t] = own_counts[t] >= params.min_pts;
    if (!rescue_core[t]) {
      ask.push_back(t);
      queries.push_back(own.point(unresolved[t]));
    }
  }
  if (stats != nullptr) stats->rescue_queries = queries.size();
  if (!queries.empty()) {
    PPD_ASSIGN_OR_RETURN(std::vector<size_t> counts,
                         hooks.membership(queries));
    if (counts.size() != ask.size()) {
      return Status::Internal("membership hook returned wrong batch size");
    }
    for (size_t a = 0; a < ask.size(); ++a) {
      const size_t t = ask[a];
      rescue_core[t] =
          own_counts[t] + size_t{k} * counts[a] >= params.min_pts;
    }
  }
  for (size_t t = 0; t < unresolved.size(); ++t) {
    const size_t li = unresolved[t];
    if (rescue_core[t]) result.is_core[li] = true;
    if (result.labels[li] != kUnclassified) continue;  // claimed below
    if (!rescue_core[t]) continue;
    result.labels[li] = cluster_id;
    for (size_t q : full.Query(li, eps2)) {
      if (result.labels[q] == kUnclassified) result.labels[q] = cluster_id;
    }
    ++cluster_id;
  }
  for (size_t li : unresolved) {
    if (result.labels[li] == kUnclassified) {
      result.labels[li] = kNoise;
      if (stats != nullptr) ++stats->sieve_noise;
    } else if (stats != nullptr) {
      ++stats->sieve_rescued;
    }
  }
  result.num_clusters = static_cast<size_t>(cluster_id);
  return result;
}

Result<BoundingBox> ReadBoundingBox(ByteReader& reader, size_t dims) {
  PPD_ASSIGN_OR_RETURN(uint8_t present, reader.GetU8());
  BoundingBox box;
  if (present == 0) return box;
  box.lo.resize(dims);
  box.hi.resize(dims);
  for (size_t t = 0; t < dims; ++t) {
    PPD_ASSIGN_OR_RETURN(uint64_t lo, reader.GetU64());
    PPD_ASSIGN_OR_RETURN(uint64_t hi, reader.GetU64());
    box.lo[t] = static_cast<int64_t>(lo);
    box.hi[t] = static_cast<int64_t>(hi);
    if (box.lo[t] > box.hi[t]) {
      return Status::DataLoss("bounding box with lo > hi");
    }
  }
  return box;
}

}  // namespace ppdbscan
