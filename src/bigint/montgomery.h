#ifndef PPDBSCAN_BIGINT_MONTGOMERY_H_
#define PPDBSCAN_BIGINT_MONTGOMERY_H_

#include <cstdint>
#include <vector>

#include "bigint/bigint.h"
#include "bigint/limb.h"
#include "common/status.h"

namespace ppdbscan {

class ThreadPool;

/// Precomputed Montgomery reduction context for a fixed odd modulus n > 1.
///
/// Values in the Montgomery domain are represented as x·R mod n where
/// R = 2^(kLimbBits·k) and k is the limb count of n. Multiplication runs
/// an operand-scanning Montgomery product (product rows interleaved with
/// REDC rounds); squaring uses a dedicated path that halves the
/// cross-product work; exponentiation uses a sliding window sized by the
/// exponent bit length. This is the hot path for every Paillier/RSA
/// operation in the library. Every inner loop is a span primitive from the
/// pluggable kernel layer (bigint/kernels.h): the portable scalar kernel
/// with `unsigned __int128` products under 64-bit limbs (PPDBSCAN_LIMB64),
/// or the x86-64 mulx/ADX kernel when the CPU supports BMI2+ADX —
/// runtime-dispatched once, bit-identical results either way.
///
/// Thread-compatible: all methods are const and touch only immutable
/// precomputed state, so one context may serve many threads concurrently.
class MontgomeryCtx {
 public:
  /// Builds a context; fails with kInvalidArgument unless modulus is odd
  /// and > 1.
  static Result<MontgomeryCtx> Create(const BigInt& modulus);

  /// x·R mod n. Requires 0 <= x < n.
  BigInt ToMont(const BigInt& x) const;
  /// x·R⁻¹ mod n for x in the Montgomery domain.
  BigInt FromMont(const BigInt& x) const;
  /// Montgomery product a·b·R⁻¹ mod n (inputs/outputs in the domain).
  /// Operands wider than the modulus are clamped: only the low k limbs of
  /// each input contribute, i.e. MulMont(a, b) == MulMont(a mod B^k,
  /// b mod B^k) for B = 2^kLimbBits (asserted by the OverWideOperands
  /// tests). Callers are expected to pass reduced values.
  BigInt MulMont(const BigInt& a, const BigInt& b) const;
  /// Montgomery square a²·R⁻¹ mod n; same contract (clamping included) as
  /// MulMont(a, a) but ~1.15–1.35× faster, growing with the modulus size
  /// (the a_i·a_j cross terms are computed once and doubled).
  BigInt SqrMont(const BigInt& a) const;

  /// (base^exponent) mod n for plain-domain base in [0, n) and
  /// exponent >= 0; returns a plain-domain value.
  BigInt Exp(const BigInt& base, const BigInt& exponent) const;

  /// bases[i]^exponent mod n for every i — the shared-exponent batch
  /// analogue of Exp, bit-identical to calling Exp per element (the result
  /// representation is canonical, so equality is exact).
  ///
  /// On hosts with AVX-512 IFMA (ifma::Available()) and moduli within the
  /// engine's digit cap, groups of ifma::kIfmaLanes bases walk one shared
  /// window schedule in the vector lanes; elsewhere each base runs scalar
  /// Exp. Either way the work is fanned across `pool` (the global pool when
  /// null; on a single-worker pool the calling thread runs it serially).
  ///
  /// This is the Paillier encryption hot path: every randomizer factor in
  /// a job is r_i^n mod n² for the same public exponent n.
  std::vector<BigInt> ExpBatch(const std::vector<BigInt>& bases,
                               const BigInt& exponent,
                               ThreadPool* pool = nullptr) const;

  /// Sliding-window width used by Exp for an exponent of `exp_bits` bits.
  /// Exposed so tests can pin behaviour at the width boundaries; the
  /// thresholds balance the 2^(w-1)-entry odd-power table against the
  /// multiplies saved per window.
  static int WindowBitsForExponent(size_t exp_bits);

  const BigInt& modulus() const { return modulus_; }

  /// One entry of the left-to-right sliding-window schedule ExpBatch hands
  /// the AVX-512 IFMA engine (bigint/ifma.h): `squarings` squarings
  /// followed by a multiply with odd-power table entry `table_index`
  /// (kNoMultiply for the trailing zero-run entry). Public only so that
  /// engine can walk it — not a supported API surface.
  struct WindowOp {
    uint32_t squarings;
    uint32_t table_index;
    static constexpr uint32_t kNoMultiply = 0xFFFFFFFFu;
  };

 private:
  MontgomeryCtx() = default;

  // Raw-limb Montgomery product (kernel addmul_1 rows interleaved with
  // REDC rounds); a and b little-endian, clamped to their low k_ limbs.
  std::vector<Limb> MulLimbs(const std::vector<Limb>& a,
                             const std::vector<Limb>& b) const;
  // Raw-limb Montgomery squaring (schoolbook square with doubled cross
  // terms, then k REDC rounds); a little-endian, clamped to its low k_
  // limbs.
  std::vector<Limb> SqrLimbs(const std::vector<Limb>& a) const;

  BigInt modulus_;
  std::vector<Limb> n_;   // modulus limbs (little-endian)
  Limb n0_inv_ = 0;       // -n^{-1} mod 2^kLimbBits
  size_t k_ = 0;          // limb count of n
  std::vector<Limb> r2_;  // R^2 mod n
  std::vector<Limb> one_; // R mod n (Montgomery form of 1)
};

}  // namespace ppdbscan

#endif  // PPDBSCAN_BIGINT_MONTGOMERY_H_
