#ifndef PPDBSCAN_DBSCAN_GRID_INDEX_H_
#define PPDBSCAN_DBSCAN_GRID_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dbscan/dbscan.h"
#include "dbscan/dataset.h"

namespace ppdbscan {

/// Axis-aligned integer bounding box. `lo`/`hi` are inclusive per-dimension
/// bounds; an empty box (no points) has empty lo/hi vectors. The planner
/// (core/plan.h) exchanges these between parties in the clear, so a box is
/// deliberately the coarsest useful summary of a party's data.
struct BoundingBox {
  std::vector<int64_t> lo;
  std::vector<int64_t> hi;

  bool empty() const { return lo.empty(); }
  size_t dims() const { return lo.size(); }
};

/// The tight bounding box of every point in `dataset` (empty box for an
/// empty dataset).
BoundingBox ComputeBoundingBox(const Dataset& dataset);

/// Exact squared Euclidean distance from `point` to the nearest point of
/// `box` (0 when `point` lies inside). An empty box is infinitely far away
/// (returns int64 max), so "within eps of an empty box" is always false.
int64_t DistanceSquaredToBox(const std::vector<int64_t>& point,
                             const BoundingBox& box);

/// Eps-boundary band: every index of `dataset` whose point lies within
/// sqrt(eps_squared) of `box` (inclusive — a point at exactly Eps from the
/// box face is IN the band), in ascending order; empty for an empty box.
/// A linear scan: O(n·d) plaintext arithmetic, noise next to the encrypted
/// rounds it gates. This is the pruning planner's primitive: points
/// OUTSIDE the band of the peer's bounding box provably have no
/// cross-party neighbours.
std::vector<size_t> PointsWithinEpsOfBox(const Dataset& dataset,
                                         const BoundingBox& box,
                                         int64_t eps_squared);

/// Uniform-grid spatial index with cell edge ceil(sqrt(eps_squared)):
/// an Eps-ball around any point is covered by the 3^d cells surrounding the
/// point's cell, so Query inspects only those cells and filters by exact
/// distance. Build is O(n); Query is O(3^d · points per cell) — the classic
/// R*-tree role in Ester et al., specialized to integer grids (bench M5
/// quantifies the speedup over the linear scan).
class GridRegionQuerier : public RegionQuerier {
 public:
  /// Builds the index for a fixed radius; `eps_squared` must match the
  /// value later passed to Query.
  GridRegionQuerier(const Dataset& dataset, int64_t eps_squared);

  std::vector<size_t> Query(size_t idx, int64_t eps_squared) const override;

  /// Like Query, but for an external point that need not be a dataset
  /// member: all dataset indices within sqrt(eps_squared) of `coords`, in
  /// ascending index order. The sieve planner's assignment step queries
  /// the sieved subset around leftover points with this.
  std::vector<size_t> QueryPoint(const std::vector<int64_t>& coords,
                                 int64_t eps_squared) const;

  /// Number of non-empty grid cells (exposed for tests).
  size_t CellCount() const { return cells_.size(); }

 private:
  uint64_t CellKey(const std::vector<int64_t>& cell) const;
  std::vector<int64_t> CellOf(size_t idx) const;
  std::vector<int64_t> CellOfPoint(const std::vector<int64_t>& coords) const;

  const Dataset& dataset_;
  int64_t eps_squared_;
  int64_t cell_edge_;
  std::unordered_map<uint64_t, std::vector<size_t>> cells_;
};

}  // namespace ppdbscan

#endif  // PPDBSCAN_DBSCAN_GRID_INDEX_H_
