#include "dbscan/grid_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ppdbscan {

namespace {

int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

}  // namespace

BoundingBox ComputeBoundingBox(const Dataset& dataset) {
  BoundingBox box;
  if (dataset.empty()) return box;
  box.lo = dataset.point(0);
  box.hi = dataset.point(0);
  for (size_t i = 1; i < dataset.size(); ++i) {
    const std::vector<int64_t>& p = dataset.point(i);
    for (size_t t = 0; t < p.size(); ++t) {
      box.lo[t] = std::min(box.lo[t], p[t]);
      box.hi[t] = std::max(box.hi[t], p[t]);
    }
  }
  return box;
}

int64_t DistanceSquaredToBox(const std::vector<int64_t>& point,
                             const BoundingBox& box) {
  if (box.empty()) return std::numeric_limits<int64_t>::max();
  PPD_CHECK_MSG(point.size() == box.dims(),
                "point/box dimension mismatch");
  // Coordinates are bounded by Dataset::kMaxAbsCoordinate, so per-dim gaps
  // and their squared sum fit int64 with the same headroom as
  // Dataset::DistanceSquared.
  int64_t sum = 0;
  for (size_t t = 0; t < point.size(); ++t) {
    int64_t gap = 0;
    if (point[t] < box.lo[t]) {
      gap = box.lo[t] - point[t];
    } else if (point[t] > box.hi[t]) {
      gap = point[t] - box.hi[t];
    }
    sum += gap * gap;
  }
  return sum;
}

std::vector<size_t> PointsWithinEpsOfBox(const Dataset& dataset,
                                         const BoundingBox& box,
                                         int64_t eps_squared) {
  std::vector<size_t> out;
  if (box.empty()) return out;
  for (size_t i = 0; i < dataset.size(); ++i) {
    if (DistanceSquaredToBox(dataset.point(i), box) <= eps_squared) {
      out.push_back(i);
    }
  }
  return out;
}

GridRegionQuerier::GridRegionQuerier(const Dataset& dataset,
                                     int64_t eps_squared)
    : dataset_(dataset), eps_squared_(eps_squared) {
  PPD_CHECK_MSG(eps_squared >= 0, "eps_squared must be non-negative");
  cell_edge_ =
      std::max<int64_t>(1, static_cast<int64_t>(
                               std::ceil(std::sqrt(
                                   static_cast<double>(eps_squared)))));
  for (size_t i = 0; i < dataset_.size(); ++i) {
    cells_[CellKey(CellOf(i))].push_back(i);
  }
}

std::vector<int64_t> GridRegionQuerier::CellOf(size_t idx) const {
  return CellOfPoint(dataset_.point(idx));
}

std::vector<int64_t> GridRegionQuerier::CellOfPoint(
    const std::vector<int64_t>& coords) const {
  std::vector<int64_t> cell(coords.size());
  for (size_t t = 0; t < coords.size(); ++t) {
    cell[t] = FloorDiv(coords[t], cell_edge_);
  }
  return cell;
}

uint64_t GridRegionQuerier::CellKey(const std::vector<int64_t>& cell) const {
  // FNV-1a over the cell coordinates.
  uint64_t h = 1469598103934665603ULL;
  for (int64_t c : cell) {
    uint64_t v = static_cast<uint64_t>(c);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

std::vector<size_t> GridRegionQuerier::Query(size_t idx,
                                             int64_t eps_squared) const {
  PPD_CHECK_MSG(eps_squared == eps_squared_,
                "grid index built for a different eps");
  const size_t dims = dataset_.dims();
  std::vector<int64_t> base = CellOf(idx);
  std::vector<size_t> out;
  // Enumerate the 3^d neighbouring cells with an odometer over offsets
  // in {-1, 0, +1}^d. Distinct cells can collide onto one hash bucket, so
  // remember which buckets were already scanned to avoid duplicates.
  std::vector<uint64_t> scanned;
  std::vector<int> offset(dims, -1);
  std::vector<int64_t> cell(dims);
  while (true) {
    for (size_t t = 0; t < dims; ++t) cell[t] = base[t] + offset[t];
    uint64_t key = CellKey(cell);
    bool seen = false;
    for (uint64_t k : scanned) {
      if (k == key) {
        seen = true;
        break;
      }
    }
    auto it = seen ? cells_.end() : cells_.find(key);
    if (!seen) scanned.push_back(key);
    if (it != cells_.end()) {
      for (size_t candidate : it->second) {
        // Hash collisions across distinct cells are possible; the exact
        // distance filter below also screens those out.
        if (dataset_.DistanceSquared(idx, candidate) <= eps_squared) {
          out.push_back(candidate);
        }
      }
    }
    size_t t = 0;
    while (t < dims && offset[t] == 1) {
      offset[t] = -1;
      ++t;
    }
    if (t == dims) break;
    ++offset[t];
  }
  return out;
}

std::vector<size_t> GridRegionQuerier::QueryPoint(
    const std::vector<int64_t>& coords, int64_t eps_squared) const {
  PPD_CHECK_MSG(eps_squared == eps_squared_,
                "grid index built for a different eps");
  PPD_CHECK_MSG(coords.size() == dataset_.dims(),
                "query point dimension mismatch");
  const size_t dims = dataset_.dims();
  std::vector<int64_t> base = CellOfPoint(coords);
  std::vector<size_t> out;
  // Same 3^d odometer as Query: the eps-ball around ANY point (member or
  // not) is covered by the 3^d cells surrounding its containing cell
  // because the cell edge is >= eps.
  std::vector<uint64_t> scanned;
  std::vector<int> offset(dims, -1);
  std::vector<int64_t> cell(dims);
  while (true) {
    for (size_t t = 0; t < dims; ++t) cell[t] = base[t] + offset[t];
    uint64_t key = CellKey(cell);
    bool seen = false;
    for (uint64_t k : scanned) {
      if (k == key) {
        seen = true;
        break;
      }
    }
    auto it = seen ? cells_.end() : cells_.find(key);
    if (!seen) scanned.push_back(key);
    if (it != cells_.end()) {
      for (size_t candidate : it->second) {
        if (dataset_.DistanceSquaredTo(candidate, coords) <= eps_squared) {
          out.push_back(candidate);
        }
      }
    }
    size_t t = 0;
    while (t < dims && offset[t] == 1) {
      offset[t] = -1;
      ++t;
    }
    if (t == dims) break;
    ++offset[t];
  }
  // Deterministic ascending order: callers (the sieve planner's assignment
  // step) pick the FIRST matching core, so the iteration order is part of
  // the protocol's determinism contract.
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace ppdbscan
