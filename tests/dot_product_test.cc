#include "smc/dot_product.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "net/memory_channel.h"
#include "net/message.h"
#include "test_util.h"

namespace ppdbscan {
namespace {

// Largest single operator-new request made while armed. The hostile-claim
// tests below arm it around one protocol call to show that no allocation
// is sized by a count the peer merely claims.
std::atomic<bool> g_track_allocs{false};
std::atomic<size_t> g_largest_alloc{0};

}  // namespace
}  // namespace ppdbscan

void* operator new(std::size_t size) {
  if (ppdbscan::g_track_allocs.load(std::memory_order_relaxed)) {
    size_t seen = ppdbscan::g_largest_alloc.load();
    while (size > seen &&
           !ppdbscan::g_largest_alloc.compare_exchange_weak(seen, size)) {
    }
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler never pairs an inlined free() with a
// new-expression at a call site (a -Wmismatched-new-delete false positive
// for replaced allocation functions).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace ppdbscan {
namespace {

using testing_util::MakeSessionPair;
using testing_util::RunTwoParty;
using testing_util::SessionPair;

class DotProductTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pair_ = new SessionPair(MakeSessionPair(256, 128));
  }
  static SessionPair* pair_;

  static std::vector<BigInt> ReconstructAll(
      const std::vector<BigInt>& alpha,
      const std::vector<std::vector<BigInt>>& rows,
      const DotProductOptions& options = {}) {
    auto [u, v] =
        RunTwoParty<Result<std::vector<BigInt>>, Result<std::vector<BigInt>>>(
            *pair_,
            [&](Channel& ch, const SmcSession& s, SecureRng& rng) {
              return RunDotProductReceiver(ch, s, alpha, rows.size(), rng);
            },
            [&](Channel& ch, const SmcSession& s, SecureRng& rng) {
              return RunDotProductHelper(ch, s, rows, options, rng);
            });
    PPD_CHECK_MSG(u.ok() && v.ok(), "protocol failed");
    const PaillierContext& ctx = pair_->alice->own_paillier_ctx();
    std::vector<BigInt> out;
    for (size_t i = 0; i < u->size(); ++i) {
      out.push_back(ctx.DecodeSigned(((*u)[i] - (*v)[i]).Mod(ctx.pub().n)));
    }
    return out;
  }
};
SessionPair* DotProductTest::pair_ = nullptr;

TEST_F(DotProductTest, SingleRow) {
  std::vector<BigInt> got = ReconstructAll(
      {BigInt(3), BigInt(-4), BigInt(1)},
      {{BigInt(1), BigInt(2), BigInt(5)}});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], BigInt(3 - 8 + 5));
}

TEST_F(DotProductTest, MultipleRows) {
  std::vector<BigInt> got = ReconstructAll(
      {BigInt(2), BigInt(3)},
      {{BigInt(1), BigInt(1)}, {BigInt(-5), BigInt(4)}, {BigInt(0), BigInt(0)}});
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], BigInt(5));
  EXPECT_EQ(got[1], BigInt(2));
  EXPECT_EQ(got[2], BigInt(0));
}

TEST_F(DotProductTest, SquaredDistanceForm) {
  // The §5 use: α = (Σx², −2x, 1)·(1, y, Σy²) = (x−y)².
  int64_t x = 13, y = -8;
  std::vector<BigInt> got = ReconstructAll(
      {BigInt(x * x), BigInt(-2 * x), BigInt(1)},
      {{BigInt(1), BigInt(y), BigInt(y * y)}});
  EXPECT_EQ(got[0], BigInt((x - y) * (x - y)));
}

TEST_F(DotProductTest, EmptyRowsList) {
  std::vector<BigInt> got = ReconstructAll({BigInt(1)}, {});
  EXPECT_TRUE(got.empty());
}

TEST_F(DotProductTest, BoundedMasksStaySmall) {
  DotProductOptions options;
  options.mask_bits = 16;
  auto [u, v] =
      RunTwoParty<Result<std::vector<BigInt>>, Result<std::vector<BigInt>>>(
          *pair_,
          [&](Channel& ch, const SmcSession& s, SecureRng& rng) {
            return RunDotProductReceiver(ch, s, {BigInt(7)}, 1, rng);
          },
          [&](Channel& ch, const SmcSession& s, SecureRng& rng) {
            return RunDotProductHelper(ch, s, {{BigInt(6)}}, options, rng);
          });
  ASSERT_TRUE(u.ok() && v.ok());
  EXPECT_LT((*v)[0], BigInt(1) << 16);
  // Unwrapped small-share arithmetic: u = 42 + v over the integers.
  EXPECT_EQ((*u)[0], BigInt(42) + (*v)[0]);
}

TEST_F(DotProductTest, RowCountMismatchDetected) {
  auto [u, v] =
      RunTwoParty<Result<std::vector<BigInt>>, Result<std::vector<BigInt>>>(
          *pair_,
          [&](Channel& ch, const SmcSession& s, SecureRng& rng) {
            return RunDotProductReceiver(ch, s, {BigInt(1)}, 5, rng);
          },
          [&](Channel& ch, const SmcSession& s, SecureRng& rng) {
            return RunDotProductHelper(ch, s, {{BigInt(1)}}, {}, rng);
          });
  EXPECT_EQ(u.status().code(), StatusCode::kDataLoss);
  EXPECT_TRUE(v.ok());  // helper completed before the receiver's check
}

TEST_F(DotProductTest, RowLengthMismatchAborts) {
  auto [u, v] =
      RunTwoParty<Result<std::vector<BigInt>>, Result<std::vector<BigInt>>>(
          *pair_,
          [&](Channel& ch, const SmcSession& s, SecureRng& rng) {
            return RunDotProductReceiver(ch, s, {BigInt(1), BigInt(2)}, 1,
                                         rng);
          },
          [&](Channel& ch, const SmcSession& s, SecureRng& rng) {
            return RunDotProductHelper(ch, s, {{BigInt(1)}}, {}, rng);
          });
  EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(u.status().code(), StatusCode::kAborted);
}

TEST_F(DotProductTest, EmptyAlphaAborts) {
  auto [u, v] =
      RunTwoParty<Result<std::vector<BigInt>>, Result<std::vector<BigInt>>>(
          *pair_,
          [&](Channel& ch, const SmcSession& s, SecureRng& rng) {
            return RunDotProductReceiver(ch, s, {}, 1, rng);
          },
          [&](Channel& ch, const SmcSession& s, SecureRng& rng) {
            return RunDotProductHelper(ch, s, {{BigInt(1)}}, {}, rng);
          });
  EXPECT_EQ(u.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(v.status().code(), StatusCode::kAborted);
}

/// A scripted enhanced-mode peer sends the Helper a bare 4-byte kDotAlpha
/// frame claiming `claim` ciphers with nothing behind them.
void ExpectAlphaClaimRejected(const SmcSession& helper_session,
                              SecureRng& rng, uint32_t claim) {
  constexpr uint16_t kDotAlphaTag = 0x0201;  // smc/dot_product.cc
  auto [peer_end, helper_end] = MemoryChannel::CreatePair();
  ByteWriter alpha;
  alpha.PutU32(claim);
  ASSERT_TRUE(SendMessage(*peer_end, kDotAlphaTag, alpha).ok());
  g_largest_alloc = 0;
  g_track_allocs = true;
  Result<std::vector<BigInt>> masks =
      RunDotProductHelper(*helper_end, helper_session, {{BigInt(1)}}, {}, rng);
  g_track_allocs = false;
  EXPECT_EQ(masks.status().code(), StatusCode::kDataLoss) << masks.status();
  EXPECT_LT(g_largest_alloc.load(), size_t{1} << 16);
}

TEST_F(DotProductTest, HelperRejectsAlphaClaimOf2Pow28) {
  ExpectAlphaClaimRejected(*pair_->bob, *pair_->bob_rng, uint32_t{1} << 28);
}

TEST_F(DotProductTest, HelperRejectsAlphaClaimOfU32Max) {
  ExpectAlphaClaimRejected(*pair_->bob, *pair_->bob_rng, 0xFFFFFFFFu);
}

}  // namespace
}  // namespace ppdbscan
