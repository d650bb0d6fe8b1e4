#include "dbscan/grid_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/random.h"

namespace ppdbscan {
namespace {

Dataset RandomDataset(SecureRng& rng, size_t n, size_t dims, int64_t range) {
  Dataset ds(dims);
  for (size_t i = 0; i < n; ++i) {
    std::vector<int64_t> p(dims);
    for (auto& c : p) {
      c = static_cast<int64_t>(rng.UniformU64(2 * range)) - range;
    }
    PPD_CHECK(ds.Add(p).ok());
  }
  return ds;
}

/// Property sweep: grid query == linear query for random data across
/// dimensions and radii.
class GridEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<size_t, int64_t>> {};

TEST_P(GridEquivalenceTest, MatchesLinearQuerier) {
  auto [dims, eps_squared] = GetParam();
  SecureRng rng(dims * 1000 + static_cast<uint64_t>(eps_squared));
  Dataset ds = RandomDataset(rng, 150, dims, 30);
  GridRegionQuerier grid(ds, eps_squared);
  LinearRegionQuerier linear(ds);
  for (size_t i = 0; i < ds.size(); i += 7) {
    std::vector<size_t> a = grid.Query(i, eps_squared);
    std::vector<size_t> b = linear.Query(i, eps_squared);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "point " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndRadii, GridEquivalenceTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(int64_t{1}, int64_t{16}, int64_t{100},
                                         int64_t{900})),
    [](const auto& info) {
      // Built via append rather than operator+ chains: gcc 12's -Wrestrict
      // false-positives on the inlined temporary-string concatenation.
      std::string name = "d";
      name += std::to_string(std::get<0>(info.param));
      name += "_eps";
      name += std::to_string(std::get<1>(info.param));
      return name;
    });

TEST(GridIndexTest, SelfAlwaysIncluded) {
  SecureRng rng(3);
  Dataset ds = RandomDataset(rng, 50, 2, 100);
  GridRegionQuerier grid(ds, 25);
  for (size_t i = 0; i < ds.size(); ++i) {
    std::vector<size_t> result = grid.Query(i, 25);
    EXPECT_NE(std::find(result.begin(), result.end(), i), result.end());
  }
}

TEST(GridIndexTest, EmptyDataset) {
  Dataset ds(2);
  GridRegionQuerier grid(ds, 10);
  EXPECT_EQ(grid.CellCount(), 0u);
}

TEST(GridIndexTest, AllPointsOneCell) {
  Dataset ds(2);
  for (int i = 0; i < 5; ++i) PPD_CHECK(ds.Add({i, 0}).ok());
  GridRegionQuerier grid(ds, 10000);
  EXPECT_EQ(grid.CellCount(), 1u);
  EXPECT_EQ(grid.Query(0, 10000).size(), 5u);
}

TEST(GridIndexTest, EpsZero) {
  Dataset ds(2);
  PPD_CHECK(ds.Add({0, 0}).ok());
  PPD_CHECK(ds.Add({0, 0}).ok());
  PPD_CHECK(ds.Add({1, 1}).ok());
  GridRegionQuerier grid(ds, 0);
  EXPECT_EQ(grid.Query(0, 0).size(), 2u);
}

TEST(GridIndexTest, NegativeCoordinatesCellAssignment) {
  // FloorDiv must round toward -inf so that -1 and +1 land in different
  // cells of edge 2.
  Dataset ds(1);
  PPD_CHECK(ds.Add({-1}).ok());
  PPD_CHECK(ds.Add({1}).ok());
  GridRegionQuerier grid(ds, 4);
  std::vector<size_t> r = grid.Query(0, 4);
  EXPECT_EQ(r.size(), 2u);  // still neighbours across the cell boundary
}

TEST(BoundingBoxTest, ComputeAndDistance) {
  Dataset ds(2);
  PPD_CHECK(ds.Add({-3, 2}).ok());
  PPD_CHECK(ds.Add({5, -1}).ok());
  PPD_CHECK(ds.Add({0, 7}).ok());
  BoundingBox box = ComputeBoundingBox(ds);
  ASSERT_EQ(box.dims(), 2u);
  EXPECT_EQ(box.lo, (std::vector<int64_t>{-3, -1}));
  EXPECT_EQ(box.hi, (std::vector<int64_t>{5, 7}));
  EXPECT_EQ(DistanceSquaredToBox({0, 0}, box), 0);    // inside
  EXPECT_EQ(DistanceSquaredToBox({5, 7}, box), 0);    // on a corner
  EXPECT_EQ(DistanceSquaredToBox({8, 0}, box), 9);    // 3 past one face
  EXPECT_EQ(DistanceSquaredToBox({8, 11}, box), 25);  // 3,4 past a corner
}

TEST(BoundingBoxTest, EmptyBoxIsInfinitelyFar) {
  Dataset empty(2);
  BoundingBox box = ComputeBoundingBox(empty);
  EXPECT_TRUE(box.empty());
  EXPECT_EQ(DistanceSquaredToBox({0, 0}, box),
            std::numeric_limits<int64_t>::max());
}

TEST(GridIndexTest, BandIncludesPointExactlyAtEps) {
  // The planner's losslessness argument needs the band to be INCLUSIVE:
  // a point at distance exactly eps from the peer box can have a peer
  // neighbour at distance exactly eps, so it must do protocol work.
  Dataset ds(2);
  PPD_CHECK(ds.Add({13, 0}).ok());  // dist to box face = 3, dist² = 9 == eps²
  PPD_CHECK(ds.Add({14, 0}).ok());  // dist² = 16 > 9 — outside the band
  BoundingBox box{{0, -5}, {10, 5}};
  std::vector<size_t> band = PointsWithinEpsOfBox(ds, box, 9);
  EXPECT_EQ(band, (std::vector<size_t>{0}));
}

TEST(GridIndexTest, BandOnDegenerateOneCellGrid) {
  // Huge eps makes the grid nearly one cell; the band is still the exact
  // per-point filter.
  Dataset ds(2);
  PPD_CHECK(ds.Add({0, 0}).ok());
  PPD_CHECK(ds.Add({30, 0}).ok());
  PPD_CHECK(ds.Add({200, 0}).ok());
  GridRegionQuerier grid(ds, 2500);  // eps = 50: all three in cell radius
  EXPECT_EQ(grid.CellCount(), 2u);   // 200 is still a second cell (edge 50)
  BoundingBox box{{-10, -10}, {-5, 10}};
  // Distances to box: 5² = 25, 35² = 1225, 205² = 42025.
  EXPECT_EQ(PointsWithinEpsOfBox(ds, box, 2500),
            (std::vector<size_t>{0, 1}));
}

TEST(GridIndexTest, BandOfEmptyBoxIsEmpty) {
  Dataset ds(2);
  PPD_CHECK(ds.Add({0, 0}).ok());
  EXPECT_TRUE(PointsWithinEpsOfBox(ds, BoundingBox{}, 4).empty());
}

TEST(GridIndexTest, BandMatchesBruteForceOnRandomData) {
  SecureRng rng(41);
  Dataset ds = RandomDataset(rng, 200, 2, 60);
  const int64_t eps2 = 49;
  BoundingBox box{{-60, -60}, {-20, 10}};
  std::vector<size_t> expected;
  for (size_t i = 0; i < ds.size(); ++i) {
    if (DistanceSquaredToBox(ds.point(i), box) <= eps2) expected.push_back(i);
  }
  EXPECT_EQ(PointsWithinEpsOfBox(ds, box, eps2), expected);  // ascending too
}

TEST(GridIndexTest, QueryPointMatchesLinearAndIsAscending) {
  SecureRng rng(42);
  Dataset ds = RandomDataset(rng, 120, 2, 40);
  const int64_t eps2 = 36;
  GridRegionQuerier grid(ds, eps2);
  for (int64_t x = -40; x <= 40; x += 13) {
    std::vector<int64_t> probe{x, -x / 2};  // external, need not be a member
    std::vector<size_t> got = grid.QueryPoint(probe, eps2);
    std::vector<size_t> expected;
    for (size_t i = 0; i < ds.size(); ++i) {
      if (ds.DistanceSquaredTo(i, probe) <= eps2) expected.push_back(i);
    }
    EXPECT_EQ(got, expected) << "probe x=" << x;
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
  }
}

TEST(GridIndexDeathTest, EpsMismatchAborts) {
  Dataset ds(2);
  PPD_CHECK(ds.Add({0, 0}).ok());
  GridRegionQuerier grid(ds, 10);
  EXPECT_DEATH(grid.Query(0, 20), "different eps");
}

}  // namespace
}  // namespace ppdbscan
