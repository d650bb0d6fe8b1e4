#include "bigint/montgomery.h"

#include <gtest/gtest.h>

#include <vector>

#include "bigint/bigint.h"
#include "bigint/ifma.h"
#include "common/random.h"
#include "common/thread_pool.h"

namespace ppdbscan {
namespace {

TEST(MontgomeryTest, RejectsEvenModulus) {
  EXPECT_FALSE(MontgomeryCtx::Create(BigInt(100)).ok());
}

TEST(MontgomeryTest, RejectsTrivialModulus) {
  EXPECT_FALSE(MontgomeryCtx::Create(BigInt(1)).ok());
  EXPECT_FALSE(MontgomeryCtx::Create(BigInt(0)).ok());
  EXPECT_FALSE(MontgomeryCtx::Create(BigInt(-7)).ok());
}

TEST(MontgomeryTest, ToFromMontRoundTrip) {
  SecureRng rng(1);
  BigInt mod = BigInt::RandomBits(rng, 256) + BigInt(3);
  if (mod.IsEven()) mod += BigInt(1);
  Result<MontgomeryCtx> ctx = MontgomeryCtx::Create(mod);
  ASSERT_TRUE(ctx.ok());
  for (int i = 0; i < 50; ++i) {
    BigInt x = BigInt::RandomBelow(rng, mod);
    EXPECT_EQ(ctx->FromMont(ctx->ToMont(x)), x);
  }
}

TEST(MontgomeryTest, MulMatchesPlainModularProduct) {
  SecureRng rng(2);
  for (size_t bits : {33u, 64u, 128u, 521u}) {
    BigInt mod = BigInt::RandomBits(rng, bits) + BigInt(3);
    if (mod.IsEven()) mod += BigInt(1);
    Result<MontgomeryCtx> ctx = MontgomeryCtx::Create(mod);
    ASSERT_TRUE(ctx.ok());
    for (int i = 0; i < 25; ++i) {
      BigInt a = BigInt::RandomBelow(rng, mod);
      BigInt b = BigInt::RandomBelow(rng, mod);
      BigInt got = ctx->FromMont(ctx->MulMont(ctx->ToMont(a), ctx->ToMont(b)));
      EXPECT_EQ(got, (a * b).Mod(mod));
    }
  }
}

TEST(MontgomeryTest, ExpMatchesSquareAndMultiply) {
  SecureRng rng(3);
  BigInt mod = BigInt::RandomBits(rng, 192) + BigInt(3);
  if (mod.IsEven()) mod += BigInt(1);
  Result<MontgomeryCtx> ctx = MontgomeryCtx::Create(mod);
  ASSERT_TRUE(ctx.ok());
  for (int i = 0; i < 25; ++i) {
    BigInt base = BigInt::RandomBelow(rng, mod);
    BigInt exp = BigInt::RandomBits(rng, 96);
    // Reference: naive square-and-multiply on BigInt.
    BigInt expect(1);
    for (size_t bit = exp.BitLength(); bit-- > 0;) {
      expect = (expect * expect).Mod(mod);
      if (exp.TestBit(bit)) expect = (expect * base).Mod(mod);
    }
    EXPECT_EQ(ctx->Exp(base, exp), expect);
  }
}

TEST(MontgomeryTest, ExpEdgeExponents) {
  Result<MontgomeryCtx> ctx = MontgomeryCtx::Create(BigInt(1000003));
  ASSERT_TRUE(ctx.ok());
  EXPECT_EQ(ctx->Exp(BigInt(12345), BigInt(0)), BigInt(1));
  EXPECT_EQ(ctx->Exp(BigInt(12345), BigInt(1)), BigInt(12345));
  EXPECT_EQ(ctx->Exp(BigInt(0), BigInt(5)), BigInt(0));
  EXPECT_EQ(ctx->Exp(BigInt(1), BigInt(1) << 40), BigInt(1));
}

TEST(MontgomeryTest, SingleLimbModulus) {
  Result<MontgomeryCtx> ctx = MontgomeryCtx::Create(BigInt(97));
  ASSERT_TRUE(ctx.ok());
  for (int a = 0; a < 97; a += 13) {
    for (int e = 0; e < 10; ++e) {
      int64_t expect = 1;
      for (int k = 0; k < e; ++k) expect = expect * a % 97;
      EXPECT_EQ(ctx->Exp(BigInt(a), BigInt(e)), BigInt(expect));
    }
  }
}

TEST(MontgomeryTest, ModulusAccessor) {
  Result<MontgomeryCtx> ctx = MontgomeryCtx::Create(BigInt(12345677));
  ASSERT_TRUE(ctx.ok());
  EXPECT_EQ(ctx->modulus(), BigInt(12345677));
}

TEST(MontgomeryTest, SqrMontMatchesMulMont) {
  SecureRng rng(31);
  for (size_t bits : {33u, 64u, 128u, 521u, 1024u}) {
    BigInt mod = BigInt::RandomBits(rng, bits) + BigInt(3);
    if (mod.IsEven()) mod += BigInt(1);
    Result<MontgomeryCtx> ctx = MontgomeryCtx::Create(mod);
    ASSERT_TRUE(ctx.ok());
    for (int i = 0; i < 25; ++i) {
      BigInt a = ctx->ToMont(BigInt::RandomBelow(rng, mod));
      EXPECT_EQ(ctx->SqrMont(a), ctx->MulMont(a, a)) << "bits=" << bits;
    }
  }
  // Degenerate inputs.
  Result<MontgomeryCtx> small = MontgomeryCtx::Create(BigInt(97));
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small->SqrMont(BigInt(0)), BigInt(0));
}

TEST(MontgomeryTest, WindowWidthGrowsWithExponentSize) {
  EXPECT_EQ(MontgomeryCtx::WindowBitsForExponent(1), 1);
  EXPECT_EQ(MontgomeryCtx::WindowBitsForExponent(6), 1);
  EXPECT_EQ(MontgomeryCtx::WindowBitsForExponent(7), 2);
  EXPECT_EQ(MontgomeryCtx::WindowBitsForExponent(24), 2);
  EXPECT_EQ(MontgomeryCtx::WindowBitsForExponent(25), 3);
  EXPECT_EQ(MontgomeryCtx::WindowBitsForExponent(80), 3);
  EXPECT_EQ(MontgomeryCtx::WindowBitsForExponent(81), 4);
  EXPECT_EQ(MontgomeryCtx::WindowBitsForExponent(240), 4);
  EXPECT_EQ(MontgomeryCtx::WindowBitsForExponent(241), 5);
  EXPECT_EQ(MontgomeryCtx::WindowBitsForExponent(2048), 5);
}

// Regression for the sliding-window rewrite: exponents whose bit lengths
// sit exactly on and around the window-selection boundaries, including the
// short exponents that used to pay for a full 16-entry table.
TEST(MontgomeryTest, ExpCorrectAtWindowBoundaryBitLengths) {
  SecureRng rng(32);
  BigInt mod = BigInt::RandomBits(rng, 256) + BigInt(3);
  if (mod.IsEven()) mod += BigInt(1);
  Result<MontgomeryCtx> ctx = MontgomeryCtx::Create(mod);
  ASSERT_TRUE(ctx.ok());
  for (size_t exp_bits : {1u, 2u, 6u, 7u, 15u, 16u, 17u, 24u, 25u, 80u, 81u,
                          240u, 241u}) {
    for (int rep = 0; rep < 5; ++rep) {
      // Force the exact bit length by setting the top bit.
      BigInt exp = BigInt::RandomBits(rng, exp_bits - 1) +
                   (BigInt(1) << (exp_bits - 1));
      ASSERT_EQ(exp.BitLength(), exp_bits);
      BigInt base = BigInt::RandomBelow(rng, mod);
      BigInt expect(1);
      for (size_t bit = exp.BitLength(); bit-- > 0;) {
        expect = (expect * expect).Mod(mod);
        if (exp.TestBit(bit)) expect = (expect * base).Mod(mod);
      }
      EXPECT_EQ(ctx->Exp(base, exp), expect) << "exp_bits=" << exp_bits;
    }
  }
}

// MulMont/SqrMont clamp over-wide operands to their low k limbs
// (k = limb count of the modulus): MulMont(a, b) == MulMont(a mod B^k,
// b mod B^k). Until now this contract was only exercised implicitly
// through ModExp; pin it explicitly, against both the equivalent
// truncated call and the plain modular product of the truncated values.
TEST(MontgomeryTest, OverWideOperandsClampToModulusWidth) {
  SecureRng rng(34);
  for (size_t bits : {64u, 96u, 192u, 521u}) {
    BigInt mod = BigInt::RandomBits(rng, bits) + BigInt(3);
    if (mod.IsEven()) mod += BigInt(1);
    Result<MontgomeryCtx> ctx = MontgomeryCtx::Create(mod);
    ASSERT_TRUE(ctx.ok());
    const size_t k = mod.limbs().size();
    const BigInt b_pow_k = BigInt(1) << (k * kLimbBits);
    for (int i = 0; i < 10; ++i) {
      // Operands up to 3x wider than the modulus, biased to have set bits
      // above the clamp boundary.
      BigInt wide_a = BigInt::RandomBits(rng, 3 * k * kLimbBits);
      BigInt wide_b = BigInt::RandomBits(rng, 2 * k * kLimbBits + 1);
      BigInt low_a = wide_a.Mod(b_pow_k);
      BigInt low_b = wide_b.Mod(b_pow_k);
      EXPECT_EQ(ctx->MulMont(wide_a, wide_b), ctx->MulMont(low_a, low_b))
          << "bits=" << bits << " i=" << i;
      EXPECT_EQ(ctx->SqrMont(wide_a), ctx->SqrMont(low_a))
          << "bits=" << bits << " i=" << i;
      // And the clamped product is a genuine Montgomery product of the
      // truncated values.
      BigInt got = ctx->FromMont(
          ctx->MulMont(ctx->ToMont(low_a.Mod(mod)), ctx->ToMont(low_b.Mod(mod))));
      EXPECT_EQ(got, (low_a * low_b).Mod(mod));
    }
  }
}

// ExpBatch must be bit-identical to per-element Exp whichever path the
// dispatcher picks: the AVX-512 IFMA engine on hosts that have it, or
// scalar Exp per element. The 5120-bit modulus lies above the IFMA
// engine's digit cap, so IFMA hosts exercise the fallback too (with a
// short exponent to keep it quick).
TEST(MontgomeryTest, ExpBatchMatchesScalarExp) {
  SecureRng rng(40);
  for (size_t bits : {64u, 256u, 1024u, 5120u}) {
    BigInt mod = BigInt::RandomBits(rng, bits) + BigInt(3);
    if (mod.IsEven()) mod += BigInt(1);
    Result<MontgomeryCtx> ctx = MontgomeryCtx::Create(mod);
    ASSERT_TRUE(ctx.ok());
    // 11 bases: one full 8-lane IFMA group plus a 3-element tail, so both
    // full and partial groups are exercised (the tail of one falls back to
    // scalar Exp inside the dispatcher).
    std::vector<BigInt> bases;
    for (int i = 0; i < 11; ++i) bases.push_back(BigInt::RandomBelow(rng, mod));
    const BigInt exp = BigInt::RandomBits(rng, bits > 1024 ? 20 : bits);
    const std::vector<BigInt> out = ctx->ExpBatch(bases, exp);
    ASSERT_EQ(out.size(), bases.size());
    for (size_t i = 0; i < bases.size(); ++i) {
      EXPECT_EQ(out[i], ctx->Exp(bases[i], exp)) << "bits=" << bits
                                                 << " i=" << i;
    }
  }
}

#if defined(PPDBSCAN_REQUIRE_IFMA_ENGINE)
TEST(MontgomeryTest, IfmaEngineAvailableOnThisHost) {
  // The configure-time probe ran AVX-512 IFMA on the build host, so ExpBatch
  // must dispatch to the engine — if it silently vanished from the build,
  // this fails rather than letting the scalar fallback mask it.
  EXPECT_TRUE(ifma::Available());
}
#endif

TEST(MontgomeryTest, ExpBatchWithThreadPoolMatchesScalarExp) {
  SecureRng rng(41);
  BigInt mod = BigInt::RandomBits(rng, 512) + BigInt(3);
  if (mod.IsEven()) mod += BigInt(1);
  Result<MontgomeryCtx> ctx = MontgomeryCtx::Create(mod);
  ASSERT_TRUE(ctx.ok());
  std::vector<BigInt> bases;
  for (int i = 0; i < 20; ++i) bases.push_back(BigInt::RandomBelow(rng, mod));
  const BigInt exp = BigInt::RandomBits(rng, 512);
  ThreadPool pool(3);
  const std::vector<BigInt> out = ctx->ExpBatch(bases, exp, &pool);
  for (size_t i = 0; i < bases.size(); ++i) {
    EXPECT_EQ(out[i], ctx->Exp(bases[i], exp)) << "i=" << i;
  }
}

TEST(MontgomeryTest, ExpBatchEdgeShapes) {
  SecureRng rng(42);
  BigInt mod = BigInt::RandomBits(rng, 256) + BigInt(3);
  if (mod.IsEven()) mod += BigInt(1);
  Result<MontgomeryCtx> ctx = MontgomeryCtx::Create(mod);
  ASSERT_TRUE(ctx.ok());

  EXPECT_TRUE(ctx->ExpBatch({}, BigInt(65537)).empty());

  const BigInt single = BigInt::RandomBelow(rng, mod);
  EXPECT_EQ(ctx->ExpBatch({single}, BigInt(65537))[0],
            ctx->Exp(single, BigInt(65537)));

  // Zero exponent: every lane is 1, including the zero base (0^0 == 1 by
  // the Exp convention).
  std::vector<BigInt> bases = {BigInt(0), BigInt(1), single,
                               BigInt::RandomBelow(rng, mod)};
  for (const BigInt& r : ctx->ExpBatch(bases, BigInt(0))) {
    EXPECT_EQ(r, BigInt(1));
  }
  // Exponent 1 returns the base reduced mod n; zero and one bases stay
  // fixed under any exponent.
  const std::vector<BigInt> identity = ctx->ExpBatch(bases, BigInt(1));
  for (size_t i = 0; i < bases.size(); ++i) {
    EXPECT_EQ(identity[i], bases[i].Mod(mod));
  }
  const std::vector<BigInt> cubed = ctx->ExpBatch(bases, BigInt(3));
  EXPECT_EQ(cubed[0], BigInt(0));
  EXPECT_EQ(cubed[1], BigInt(1));

  // Bases at or above the modulus are reduced, matching scalar Exp.
  std::vector<BigInt> wide;
  for (int i = 0; i < 9; ++i) wide.push_back(mod * BigInt(i + 1) + BigInt(i));
  const BigInt exp = BigInt::RandomBits(rng, 200);
  const std::vector<BigInt> out = ctx->ExpBatch(wide, exp);
  for (size_t i = 0; i < wide.size(); ++i) {
    EXPECT_EQ(out[i], ctx->Exp(wide[i], exp)) << "i=" << i;
  }
}

TEST(MontgomeryTest, ExpExhaustiveSmallExponents) {
  SecureRng rng(33);
  BigInt mod = BigInt::RandomBits(rng, 128) + BigInt(3);
  if (mod.IsEven()) mod += BigInt(1);
  Result<MontgomeryCtx> ctx = MontgomeryCtx::Create(mod);
  ASSERT_TRUE(ctx.ok());
  BigInt base = BigInt::RandomBelow(rng, mod);
  BigInt expect(1);
  for (int64_t e = 0; e <= 70; ++e) {
    EXPECT_EQ(ctx->Exp(base, BigInt(e)), expect) << "e=" << e;
    expect = (expect * base).Mod(mod);
  }
}

}  // namespace
}  // namespace ppdbscan
