#ifndef PPDBSCAN_CORE_EXPAND_H_
#define PPDBSCAN_CORE_EXPAND_H_

#include <deque>
#include <functional>
#include <vector>

#include "common/status.h"
#include "dbscan/dbscan.h"

namespace ppdbscan {

/// Eps-neighbourhood of point `idx`, as indices into the scanned point set
/// (the point itself included).
using RegionQueryFn = std::function<Result<std::vector<size_t>>(size_t idx)>;

/// Core-point decision for point `idx`, whose region query returned
/// `neighbours` points.
using CoreTestFn =
    std::function<Result<bool>(size_t idx, size_t neighbours)>;

/// The cluster-expansion loop every protocol shares (the ExpandCluster
/// structure of the paper's Algorithms 3-8): points are visited in index
/// order, an unclassified point that passes the core test opens a new
/// cluster, and the cluster grows breadth-first through the region query
/// of every member that passes the core test too. Each protocol swaps one
/// part:
///  - horizontal (Algorithms 3/4 and 7/8, and §1's multi-party extension):
///    a local region query over the party's own points, and a core test
///    that adds the peers' encrypted counts (or asks the §5 bit);
///  - vertical and arbitrary (Algorithms 5/6, §4.4): a joint region query
///    that runs the secure comparisons, with both parties in lockstep, and
///    the plain |N_Eps| >= MinPts core test;
///  - the sieve plan's first phase (core/plan.h): a region query over the
///    sieved subset and a core test on full local counts.
/// Every call is made in the same order for a given input, so a protocol's
/// conversation is a function of the data alone. Returns the first failing
/// callback's status.
inline Result<DbscanResult> ExpandClusters(size_t n,
                                           const RegionQueryFn& region_query,
                                           const CoreTestFn& core_test) {
  DbscanResult result;
  result.labels.assign(n, kUnclassified);
  result.is_core.assign(n, false);
  int32_t cluster_id = 0;

  for (size_t i = 0; i < n; ++i) {
    if (result.labels[i] != kUnclassified) continue;
    PPD_ASSIGN_OR_RETURN(std::vector<size_t> seeds, region_query(i));
    PPD_ASSIGN_OR_RETURN(bool core, core_test(i, seeds.size()));
    if (!core) {
      result.labels[i] = kNoise;
      continue;
    }
    result.is_core[i] = true;
    std::deque<size_t> queue;
    for (size_t s : seeds) {
      result.labels[s] = cluster_id;
      if (s != i) queue.push_back(s);
    }
    while (!queue.empty()) {
      size_t current = queue.front();
      queue.pop_front();
      PPD_ASSIGN_OR_RETURN(std::vector<size_t> neighbourhood,
                           region_query(current));
      PPD_ASSIGN_OR_RETURN(bool current_core,
                           core_test(current, neighbourhood.size()));
      if (!current_core) continue;
      result.is_core[current] = true;
      for (size_t q : neighbourhood) {
        if (result.labels[q] == kUnclassified || result.labels[q] == kNoise) {
          if (result.labels[q] == kUnclassified) queue.push_back(q);
          result.labels[q] = cluster_id;
        }
      }
    }
    ++cluster_id;
  }
  result.num_clusters = static_cast<size_t>(cluster_id);
  return result;
}

}  // namespace ppdbscan

#endif  // PPDBSCAN_CORE_EXPAND_H_
