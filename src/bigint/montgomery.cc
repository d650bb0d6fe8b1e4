#include "bigint/montgomery.h"

#include <algorithm>
#include <cstring>

#include "bigint/bigint.h"
#include "bigint/ifma.h"
#include "bigint/kernels.h"
#include "common/thread_pool.h"

namespace ppdbscan {

namespace {

// Compares little-endian limb vectors of equal logical value domain.
int CmpLimbs(const std::vector<Limb>& a, const std::vector<Limb>& b) {
  size_t n = std::max(a.size(), b.size());
  for (size_t i = n; i-- > 0;) {
    Limb av = i < a.size() ? a[i] : 0;
    Limb bv = i < b.size() ? b[i] : 0;
    if (av != bv) return av < bv ? -1 : 1;
  }
  return 0;
}

// a -= b in place; requires a >= b. Both little-endian, a.size() >= b size.
void SubInPlace(std::vector<Limb>& a, const std::vector<Limb>& b,
                const LimbKernels& kern) {
  PPD_CHECK(a.size() >= b.size());
  Limb borrow = kern.sub_n(a.data(), a.data(), b.data(), b.size());
  borrow = PropagateBorrow(a.data() + b.size(), a.size() - b.size(), borrow);
  PPD_CHECK(borrow == 0);
}

// Adds `carry` into t[idx..]. The REDC accumulators below are sized so
// the ripple is always absorbed in bounds; the check guards that
// invariant.
void AddCarryAt(std::vector<Limb>& t, size_t idx, Limb carry) {
  PPD_CHECK(PropagateCarry(t.data() + idx, t.size() - idx, carry) == 0);
}

}  // namespace

Result<MontgomeryCtx> MontgomeryCtx::Create(const BigInt& modulus) {
  if (modulus.sign() <= 0 || !modulus.IsOdd() || modulus == BigInt(1)) {
    return Status::InvalidArgument(
        "Montgomery modulus must be odd and greater than 1");
  }
  MontgomeryCtx ctx;
  ctx.modulus_ = modulus;
  ctx.n_ = modulus.limbs();
  ctx.k_ = ctx.n_.size();
  // n0_inv = -n^{-1} mod 2^kLimbBits via Newton iteration (6 steps suffice
  // for 64 bits: precision doubles each step starting from 1 correct bit,
  // 1 -> 2 -> 4 -> 8 -> 16 -> 32 -> 64).
  Limb n0 = ctx.n_[0];
  Limb inv = 1;
  for (int i = 0; i < 6; ++i) inv *= Limb{2} - n0 * inv;
  ctx.n0_inv_ = ~inv + 1u;  // negate mod 2^kLimbBits

  // R^2 mod n with R = 2^(kLimbBits·k).
  BigInt r2 = (BigInt(1) << (2 * kLimbBits * ctx.k_)).Mod(modulus);
  ctx.r2_ = r2.limbs();
  BigInt r1 = (BigInt(1) << (kLimbBits * ctx.k_)).Mod(modulus);
  ctx.one_ = r1.limbs();
  return ctx;
}

std::vector<Limb> MontgomeryCtx::MulLimbs(const std::vector<Limb>& a,
                                          const std::vector<Limb>& b) const {
  const LimbKernels& kern = ActiveLimbKernels();
  // Clamp: operands wider than the modulus contribute only their low k_
  // limbs (header contract; covered by the OverWideOperands tests). Short
  // operands need no padding: the a_i·b rows simply span bn limbs, which
  // keeps MulLimbs(x, {1u}) — every FromMont — allocation-free and cheap.
  const size_t an = std::min(a.size(), k_);
  const size_t bn = std::min(b.size(), k_);

  // Operand-scanning Montgomery product over the kernel's addmul_1 spans:
  // round i adds a_i·b and then m_i·n at offset i, zeroing t[i]; after k
  // rounds the REDC result sits at t+k. The running total stays below
  // 2n·B^k < B^(2k+1), so 2k+2 limbs bound every carry ripple. The final
  // integer is identical to the fused CIOS form this replaced: both
  // compute (a·b + m·n)/B^k for the same per-round m.
  std::vector<Limb> t(2 * k_ + 2, 0);
  for (size_t i = 0; i < k_; ++i) {
    Limb* ti = t.data() + i;
    Limb ai = i < an ? a[i] : 0;
    AddCarryAt(t, i + bn, kern.addmul_1(ti, b.data(), bn, ai));
    Limb m = static_cast<Limb>(ti[0] * n0_inv_);
    AddCarryAt(t, i + k_, kern.addmul_1(ti, n_.data(), k_, m));
  }
  std::vector<Limb> result(t.begin() + static_cast<long>(k_), t.end());
  while (!result.empty() && result.back() == 0) result.pop_back();
  if (CmpLimbs(result, n_) >= 0) {
    result.resize(std::max(result.size(), n_.size()), 0);
    SubInPlace(result, n_, kern);
    while (!result.empty() && result.back() == 0) result.pop_back();
  }
  return result;
}

BigInt MontgomeryCtx::ToMont(const BigInt& x) const {
  PPD_CHECK_MSG(!x.IsNegative(), "ToMont requires non-negative input");
  std::vector<Limb> out = MulLimbs(x.limbs(), r2_);
  return BigInt::FromLimbs(std::move(out), 1);
}

BigInt MontgomeryCtx::FromMont(const BigInt& x) const {
  std::vector<Limb> one = {1u};
  std::vector<Limb> out = MulLimbs(x.limbs(), one);
  return BigInt::FromLimbs(std::move(out), 1);
}

std::vector<Limb> MontgomeryCtx::SqrLimbs(const std::vector<Limb>& a) const {
  const LimbKernels& kern = ActiveLimbKernels();
  // Clamp like MulLimbs: operands wider than the modulus contribute only
  // their low k_ limbs (t is sized for a k_-limb square).
  const size_t len = std::min(a.size(), k_);
  // t = a² (2k limbs + 1 doubling bit), then k REDC rounds shift it down by
  // k limbs; one spare limb absorbs the final carry.
  std::vector<Limb> t(2 * k_ + 2, 0);

  // Cross terms a_i·a_j for j > i, each computed once — one kernel span
  // per row, rooted at t[2i+1].
  for (size_t i = 0; i + 1 < len; ++i) {
    Limb c = kern.addmul_1(t.data() + 2 * i + 1, a.data() + i + 1,
                           len - i - 1, a[i]);
    AddCarryAt(t, i + len, c);
  }

  // Single pass: double the cross terms and fold in the a_i² diagonal.
  // Per limb pair the sum 2·t + sq_limb + carry stays below 2^(kLimbBits+2),
  // so a DoubleLimb accumulator absorbs it.
  DoubleLimb carry = 0;
  for (size_t i = 0; i < k_ + 1; ++i) {
    DoubleLimb sq = i < len ? static_cast<DoubleLimb>(a[i]) * a[i] : 0;
    DoubleLimb s0 = (static_cast<DoubleLimb>(t[2 * i]) << 1) +
                    static_cast<Limb>(sq) + carry;
    t[2 * i] = static_cast<Limb>(s0);
    DoubleLimb s1 = (static_cast<DoubleLimb>(t[2 * i + 1]) << 1) +
                    (sq >> kLimbBits) + (s0 >> kLimbBits);
    t[2 * i + 1] = static_cast<Limb>(s1);
    carry = s1 >> kLimbBits;
  }

  // REDC: clear the low k limbs one at a time.
  for (size_t i = 0; i < k_; ++i) {
    Limb m = static_cast<Limb>(t[i] * n0_inv_);
    AddCarryAt(t, i + k_, kern.addmul_1(t.data() + i, n_.data(), k_, m));
  }

  std::vector<Limb> result(t.begin() + static_cast<long>(k_), t.end());
  while (!result.empty() && result.back() == 0) result.pop_back();
  if (CmpLimbs(result, n_) >= 0) {
    result.resize(std::max(result.size(), n_.size()), 0);
    SubInPlace(result, n_, kern);
    while (!result.empty() && result.back() == 0) result.pop_back();
  }
  return result;
}

BigInt MontgomeryCtx::MulMont(const BigInt& a, const BigInt& b) const {
  return BigInt::FromLimbs(MulLimbs(a.limbs(), b.limbs()), 1);
}

BigInt MontgomeryCtx::SqrMont(const BigInt& a) const {
  return BigInt::FromLimbs(SqrLimbs(a.limbs()), 1);
}

int MontgomeryCtx::WindowBitsForExponent(size_t exp_bits) {
  // Crossovers equate table build cost (2^(w-1)-1 muls + 1 sqr) with the
  // ~bits/(w+1) window multiplies saved; tiny exponents get no table at
  // all beyond the base itself.
  if (exp_bits <= 6) return 1;
  if (exp_bits <= 24) return 2;
  if (exp_bits <= 80) return 3;
  if (exp_bits <= 240) return 4;
  return 5;
}

BigInt MontgomeryCtx::Exp(const BigInt& base, const BigInt& exponent) const {
  PPD_CHECK_MSG(!exponent.IsNegative(), "negative exponent");
  if (exponent.IsZero()) {
    return BigInt::FromLimbs(MulLimbs(one_, {1u}), 1);
  }
  std::vector<Limb> b = MulLimbs(base.limbs(), r2_);  // to Montgomery

  const size_t bits = exponent.BitLength();
  const int w = WindowBitsForExponent(bits);

  // Odd-power table: table[i] = base^(2i+1) in Montgomery form.
  std::vector<std::vector<Limb>> table(size_t{1} << (w - 1));
  table[0] = b;
  if (table.size() > 1) {
    std::vector<Limb> b2 = SqrLimbs(b);
    for (size_t i = 1; i < table.size(); ++i) {
      table[i] = MulLimbs(table[i - 1], b2);
    }
  }

  // Left-to-right sliding window: runs of zeros cost one squaring per bit;
  // each window of <= w bits (ending in a set bit) costs one table multiply.
  // The first window seeds the accumulator directly, skipping the leading
  // squarings of 1.
  std::vector<Limb> result;
  bool started = false;
  ptrdiff_t i = static_cast<ptrdiff_t>(bits) - 1;
  while (i >= 0) {
    if (!exponent.TestBit(static_cast<size_t>(i))) {
      if (started) result = SqrLimbs(result);
      --i;
      continue;
    }
    ptrdiff_t low = i - w + 1;
    if (low < 0) low = 0;
    while (!exponent.TestBit(static_cast<size_t>(low))) ++low;
    uint32_t idx = 0;
    for (ptrdiff_t s = i; s >= low; --s) {
      idx = (idx << 1) | (exponent.TestBit(static_cast<size_t>(s)) ? 1u : 0u);
    }
    if (started) {
      for (ptrdiff_t s = 0; s <= i - low; ++s) result = SqrLimbs(result);
      result = MulLimbs(result, table[(idx - 1) / 2]);
    } else {
      result = table[(idx - 1) / 2];
      started = true;
    }
    i = low - 1;
  }
  // Convert out of the Montgomery domain.
  return BigInt::FromLimbs(MulLimbs(result, {1u}), 1);
}

// --- shared-exponent batch (ExpBatch) ---------------------------------------

namespace {

/// Builds the sliding-window schedule Exp walks implicitly: identical
/// window boundaries and table indices, shared by every lane of an IFMA
/// group (the exponent is common, so the schedule is too). The first op
/// always seeds the accumulator (squarings == 0).
std::vector<MontgomeryCtx::WindowOp> BuildWindowSchedule(
    const BigInt& exponent, int w) {
  std::vector<MontgomeryCtx::WindowOp> ops;
  const size_t bits = exponent.BitLength();
  uint32_t pending = 0;
  bool started = false;
  ptrdiff_t i = static_cast<ptrdiff_t>(bits) - 1;
  while (i >= 0) {
    if (!exponent.TestBit(static_cast<size_t>(i))) {
      if (started) ++pending;
      --i;
      continue;
    }
    ptrdiff_t low = i - w + 1;
    if (low < 0) low = 0;
    while (!exponent.TestBit(static_cast<size_t>(low))) ++low;
    uint32_t idx = 0;
    for (ptrdiff_t s = i; s >= low; --s) {
      idx = (idx << 1) | (exponent.TestBit(static_cast<size_t>(s)) ? 1u : 0u);
    }
    if (started) {
      ops.push_back({pending + static_cast<uint32_t>(i - low + 1),
                     (idx - 1) / 2});
    } else {
      ops.push_back({0, (idx - 1) / 2});
      started = true;
    }
    pending = 0;
    i = low - 1;
  }
  if (pending > 0) {
    ops.push_back({pending, MontgomeryCtx::WindowOp::kNoMultiply});
  }
  return ops;
}

}  // namespace

std::vector<BigInt> MontgomeryCtx::ExpBatch(const std::vector<BigInt>& bases,
                                            const BigInt& exponent,
                                            ThreadPool* pool) const {
  PPD_CHECK_MSG(!exponent.IsNegative(), "negative exponent");
  std::vector<BigInt> out(bases.size());
  if (bases.size() > 1 && !exponent.IsZero() && ifma::Available()) {
    // 8-wide AVX-512 IFMA engine: one exponentiation per vpmadd52 lane.
    // Bit-identical to Exp, so the engine choice is unobservable beyond
    // speed. A tail group of one falls back to scalar Exp (a single lane
    // would waste the other seven).
    const ifma::Ctx52 c52(modulus_, r2_);
    if (c52.ok()) {
      const int w = WindowBitsForExponent(exponent.BitLength());
      const std::vector<WindowOp> ops = BuildWindowSchedule(exponent, w);
      const size_t groups =
          (bases.size() + ifma::kIfmaLanes - 1) / ifma::kIfmaLanes;
      ParallelFor(
          groups,
          [&](size_t g) {
            const size_t begin = g * ifma::kIfmaLanes;
            const size_t nb = std::min(ifma::kIfmaLanes,
                                       bases.size() - begin);
            if (nb == 1) {
              out[begin] = Exp(bases[begin], exponent);
              return;
            }
            c52.ExpGroup(bases.data() + begin, nb, ops, w,
                         out.data() + begin);
          },
          pool);
      return out;
    }
  }
  // The IFMA engine is absent or the modulus exceeds its digit cap: one
  // scalar Exp per element, fanned across the pool.
  ParallelFor(
      bases.size(), [&](size_t i) { out[i] = Exp(bases[i], exponent); },
      pool);
  return out;
}

}  // namespace ppdbscan
