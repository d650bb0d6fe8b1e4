#include "bigint/ifma.h"

#include <algorithm>
#include <cstring>

#include "bigint/limb.h"
#include "common/status.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define PPDBSCAN_HAVE_IFMA_ENGINE 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace ppdbscan {
namespace ifma {

namespace {

constexpr int kDigitBits = 52;
constexpr uint64_t kDigitMask = (uint64_t{1} << kDigitBits) - 1;
// Digit cap: 96 digits cover moduli up to ~4990 bits (Paillier n² for
// 2048-bit keys needs 79). Larger moduli fall back to the portable path.
constexpr size_t kMaxDigits = 96;

// Little-endian 64-bit word view of a limb vector (identity under 64-bit
// limbs, pairs under 32-bit limbs) — keeps the digit codec limb-width
// agnostic so both builds produce identical radix-2^52 digits.
std::vector<uint64_t> PackWords(const std::vector<Limb>& limbs) {
  std::vector<uint64_t> w((limbs.size() * kLimbBits + 63) / 64, 0);
  for (size_t i = 0; i < limbs.size(); ++i) {
    const size_t bit = i * kLimbBits;
    w[bit / 64] |= static_cast<uint64_t>(limbs[i]) << (bit % 64);
  }
  return w;
}

// Writes the radix-2^52 digits of `w` into dst[d·kIfmaLanes + lane].
void ToDigitsLane(const std::vector<uint64_t>& w, size_t digits,
                  uint64_t* dst, size_t lane) {
  for (size_t d = 0; d < digits; ++d) {
    const size_t lo = d * kDigitBits;
    const size_t word = lo / 64, sh = lo % 64;
    uint64_t v = word < w.size() ? w[word] >> sh : 0;
    if (sh + kDigitBits > 64 && word + 1 < w.size()) {
      v |= w[word + 1] << (64 - sh);
    }
    dst[d * kIfmaLanes + lane] = v & kDigitMask;
  }
}

BigInt FromDigitsLane(const uint64_t* src, size_t digits, size_t lane) {
  std::vector<uint64_t> w((digits * kDigitBits + 63) / 64 + 1, 0);
  for (size_t d = 0; d < digits; ++d) {
    const uint64_t v = src[d * kIfmaLanes + lane];
    const size_t lo = d * kDigitBits;
    const size_t word = lo / 64, sh = lo % 64;
    w[word] |= v << sh;
    if (sh + kDigitBits > 64) w[word + 1] |= v >> (64 - sh);
  }
  std::vector<Limb> limbs(w.size() * (64 / kLimbBits));
  for (size_t i = 0; i < limbs.size(); ++i) {
    const size_t bit = i * kLimbBits;
    limbs[i] = static_cast<Limb>(w[bit / 64] >> (bit % 64));
  }
  return BigInt::FromLimbs(std::move(limbs), 1);
}

#if defined(PPDBSCAN_HAVE_IFMA_ENGINE)

bool DetectHostIfma() {
  if (!__builtin_cpu_supports("avx512f") ||
      !__builtin_cpu_supports("avx512ifma")) {
    return false;
  }
  // The OS must have enabled ZMM state (XCR0 bits for SSE/AVX/opmask/
  // ZMM_Hi256/Hi16_ZMM), or every 512-bit instruction faults.
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  constexpr unsigned int kOsxsaveBit = 1u << 27;
  if ((ecx & kOsxsaveBit) == 0) return false;
  uint32_t xlo = 0, xhi = 0;
  __asm__("xgetbv" : "=a"(xlo), "=d"(xhi) : "c"(0));
  constexpr uint32_t kZmmState = 0xE6;
  return (xlo & kZmmState) == kZmmState;
}

/// One 8-lane almost-Montgomery multiplication in radix 2^52:
/// out = A·B·2^(-52K) (+ a multiple of n), digit-normalized, < 2n per
/// lane. A, B, n52 and out are [digit][lane] arrays of K×8 u64; digits
/// must be < 2^52 (the normalized-input invariant). out may alias A or B.
///
/// The accumulator t holds one 64-bit lane per digit with the products'
/// low/high 52-bit halves simply added in — at most 4 additions of < 2^52
/// per digit per round plus a sub-2^12 ripple, so a digit accumulates
/// < 4·K·2^52 + K·2^12 < 2^61 over the K rounds it stays live and never
/// carries inside the loop. One linear normalization pass at the end
/// replaces every per-limb carry chain of the scalar kernels.
__attribute__((target("avx512f,avx512ifma")))
void Amm(size_t K, const uint64_t* n52, uint64_t k0, const uint64_t* A,
         const uint64_t* B, uint64_t* out) {
  const __m512i zero = _mm512_setzero_si512();
  const __m512i k0v = _mm512_set1_epi64(static_cast<long long>(k0));
  __m512i t[kMaxDigits + 1];
  for (size_t j = 0; j <= K; ++j) t[j] = zero;
  const __m512i vb0 = _mm512_loadu_si512(B);
  const __m512i vn0 = _mm512_loadu_si512(n52);
  for (size_t i = 0; i < K; ++i) {
    const __m512i va = _mm512_loadu_si512(A + i * kIfmaLanes);
    // Digit 0: fold in lo(a_i·b_0), derive m = -t/n mod 2^52, then add
    // lo(m·n_0); the surviving bits 52.. of x ripple into digit 1.
    __m512i x = _mm512_madd52lo_epu64(t[0], va, vb0);
    const __m512i vm = _mm512_madd52lo_epu64(zero, x, k0v);
    x = _mm512_madd52lo_epu64(x, vm, vn0);
    // Shifts use the full-mask maskz form: the same lanes as
    // _mm512_srli_epi64, without its undefined passthrough operand, which
    // GCC 12 flags as maybe-uninitialized.
    const __m512i carry = _mm512_maskz_srli_epi64(0xFF, x, kDigitBits);
    // Remaining digits, shifted down one slot as they complete (the /2^52
    // of the round). Each new t[j-1] = old t[j] + hi halves of digit j-1's
    // products + lo halves of digit j's.
    __m512i vbp = vb0, vnp = vn0;
    for (size_t j = 1; j < K; ++j) {
      const __m512i vbj = _mm512_loadu_si512(B + j * kIfmaLanes);
      const __m512i vnj = _mm512_loadu_si512(n52 + j * kIfmaLanes);
      __m512i y = t[j];
      y = _mm512_madd52hi_epu64(y, va, vbp);
      y = _mm512_madd52hi_epu64(y, vm, vnp);
      y = _mm512_madd52lo_epu64(y, va, vbj);
      y = _mm512_madd52lo_epu64(y, vm, vnj);
      if (j == 1) y = _mm512_add_epi64(y, carry);
      t[j - 1] = y;
      vbp = vbj;
      vnp = vnj;
    }
    __m512i top = t[K];
    top = _mm512_madd52hi_epu64(top, va, vbp);
    top = _mm512_madd52hi_epu64(top, vm, vnp);
    if (K == 1) top = _mm512_add_epi64(top, carry);
    t[K - 1] = top;
    t[K] = zero;
  }
  // Normalize to < 2^52 digits. The value is < 2n < 2^(52K), so the final
  // carry out of the top digit is zero.
  const __m512i mask = _mm512_set1_epi64(static_cast<long long>(kDigitMask));
  __m512i c = zero;
  for (size_t j = 0; j < K; ++j) {
    const __m512i v = _mm512_add_epi64(t[j], c);
    c = _mm512_maskz_srli_epi64(0xFF, v, kDigitBits);
    _mm512_storeu_si512(out + j * kIfmaLanes, _mm512_and_epi64(v, mask));
  }
  PPD_CHECK(_mm512_cmpneq_epu64_mask(c, zero) == 0);
}

#else  // !PPDBSCAN_HAVE_IFMA_ENGINE

bool DetectHostIfma() { return false; }

void Amm(size_t, const uint64_t*, uint64_t, const uint64_t*,
         const uint64_t*, uint64_t*) {
  PPD_CHECK_MSG(false, "IFMA engine not compiled in");
}

#endif  // PPDBSCAN_HAVE_IFMA_ENGINE

}  // namespace

bool Available() {
  static const bool available = DetectHostIfma();
  return available;
}

Ctx52::Ctx52(const BigInt& modulus, const std::vector<Limb>& r2_limbs) {
  const size_t bits = modulus.BitLength();
  // R = 2^(52K) must exceed 4n for the < 2n AMM closure bound.
  k52_ = (bits + 2 + kDigitBits - 1) / kDigitBits;
  if (k52_ > kMaxDigits) return;
  modulus_ = modulus;

  n52_.assign(k52_ * kIfmaLanes, 0);
  const std::vector<uint64_t> nw = PackWords(modulus.limbs());
  for (size_t lane = 0; lane < kIfmaLanes; ++lane) {
    ToDigitsLane(nw, k52_, n52_.data(), lane);
  }

  // -n^{-1} mod 2^52 by Newton iteration on the low word (n odd).
  uint64_t inv = 1;
  for (int i = 0; i < 6; ++i) inv *= uint64_t{2} - nw[0] * inv;
  n0inv52_ = (~inv + 1) & kDigitMask;

  // R52² mod n from the scalar context's R² mod n (R = 2^(kLimbBits·k))
  // by modular doublings/halvings — no wide division needed.
  BigInt x = BigInt::FromLimbs(std::vector<Limb>(r2_limbs), 1);
  const long scalar_bits =
      2 * static_cast<long>(kLimbBits) * static_cast<long>(
          modulus.limbs().size());
  long delta = 2 * static_cast<long>(kDigitBits * k52_) - scalar_bits;
  for (; delta > 0; --delta) {
    x = x + x;
    if (x >= modulus) x = x - modulus;
  }
  for (; delta < 0; ++delta) {
    if (x.IsOdd()) x = x + modulus;
    x = x >> 1;
  }
  r2_52_.assign(k52_ * kIfmaLanes, 0);
  const std::vector<uint64_t> r2w = PackWords(x.limbs());
  for (size_t lane = 0; lane < kIfmaLanes; ++lane) {
    ToDigitsLane(r2w, k52_, r2_52_.data(), lane);
  }
  ok_ = true;
}

void Ctx52::ExpGroup(const BigInt* bases, size_t nb,
                     const std::vector<MontgomeryCtx::WindowOp>& ops,
                     int window_bits, BigInt* out) const {
  PPD_CHECK(ok_ && nb >= 1 && nb <= kIfmaLanes && !ops.empty());
  const size_t K = k52_;
  const size_t vec = K * kIfmaLanes;
  const size_t table_size = size_t{1} << (window_bits - 1);
  // Arena: odd-power table + accumulator + base² + the FromMont "1".
  std::vector<uint64_t> arena((table_size + 3) * vec, 0);
  uint64_t* tables = arena.data();
  uint64_t* acc = tables + table_size * vec;
  uint64_t* b2 = acc + vec;
  uint64_t* one = b2 + vec;
  one[0 * kIfmaLanes + 0] = 0;  // re-zeroed below per lane
  auto table_entry = [&](size_t idx) { return tables + idx * vec; };

  // Stage bases into acc (padding idle lanes with 1) and enter the
  // Montgomery domain: table[0] = base·R52 mod n.
  for (size_t lane = 0; lane < kIfmaLanes; ++lane) {
    BigInt b = lane < nb ? bases[lane] : BigInt(1);
    PPD_CHECK_MSG(!b.IsNegative(), "ExpBatch requires non-negative bases");
    if (b.limbs().size() > modulus_.limbs().size()) {
      // Match MontgomeryCtx::Exp's operand contract exactly: bases wider
      // than the modulus are clamped to its low k limbs (the MulMont
      // clamp), NOT reduced mod n — the results differ for base >= B^k
      // and the engines must stay bit-identical.
      std::vector<Limb> low(b.limbs().begin(),
                            b.limbs().begin() + modulus_.limbs().size());
      b = BigInt::FromLimbs(std::move(low), 1);
    }
    if (b >= modulus_) b = b % modulus_;
    ToDigitsLane(PackWords(b.limbs()), K, acc, lane);
    one[0 * kIfmaLanes + lane] = 1;
  }
  Amm(K, n52_.data(), n0inv52_, acc, r2_52_.data(), table_entry(0));

  if (table_size > 1) {
    Amm(K, n52_.data(), n0inv52_, table_entry(0), table_entry(0), b2);
    for (size_t idx = 1; idx < table_size; ++idx) {
      Amm(K, n52_.data(), n0inv52_, table_entry(idx - 1), b2,
          table_entry(idx));
    }
  }

  // Shared window schedule (identical for every lane: the exponent is
  // common). First op seeds; kNoMultiply marks the trailing zero run.
  std::memcpy(acc, table_entry(ops[0].table_index), vec * sizeof(uint64_t));
  for (size_t op_i = 1; op_i < ops.size(); ++op_i) {
    const MontgomeryCtx::WindowOp& op = ops[op_i];
    for (uint32_t q = 0; q < op.squarings; ++q) {
      Amm(K, n52_.data(), n0inv52_, acc, acc, acc);
    }
    if (op.table_index != MontgomeryCtx::WindowOp::kNoMultiply) {
      Amm(K, n52_.data(), n0inv52_, acc, table_entry(op.table_index), acc);
    }
  }

  // Leave the domain (·1·R⁻¹) and reduce exactly: the AMM output is ≤ n
  // here, so at most one subtraction reaches the canonical residue that
  // MontgomeryCtx::Exp returns.
  Amm(K, n52_.data(), n0inv52_, acc, one, acc);
  for (size_t lane = 0; lane < nb; ++lane) {
    BigInt v = FromDigitsLane(acc, K, lane);
    while (v >= modulus_) v = v - modulus_;
    out[lane] = v;
  }
}

}  // namespace ifma
}  // namespace ppdbscan
