#ifndef PPDBSCAN_BIGINT_IFMA_H_
#define PPDBSCAN_BIGINT_IFMA_H_

#include <cstdint>
#include <vector>

#include "bigint/bigint.h"
#include "bigint/montgomery.h"

namespace ppdbscan {
namespace ifma {

/// AVX-512 IFMA multi-buffer exponentiation engine.
///
/// Eight independent modular exponentiations run in lockstep, one per
/// 64-bit lane of the 512-bit vpmadd52 pipes, over a radix-2^52 "almost
/// Montgomery" representation (Gueron's AMM): every digit lives in a
/// 64-bit lane with 12 bits of headroom, so the thousands of
/// multiply-accumulates of a full Montgomery product need **no carry
/// propagation at all** — one vector normalization pass per product
/// replaces every per-limb carry chain of the scalar kernels. The final
/// conversion back to canonical residues is exact, so results are
/// bit-identical to MontgomeryCtx::Exp (asserted by the ExpBatch
/// differential suites).
///
/// This is the batch ModExp backend for Paillier: all randomizer factors
/// of a job share the public exponent n, so ExpBatch feeds groups of
/// kIfmaLanes bases through one shared window schedule here whenever the
/// host supports AVX-512 IFMA.
constexpr size_t kIfmaLanes = 8;

/// True when the engine is compiled in and the CPU+OS support AVX-512
/// F/IFMA with ZMM state enabled: host detection only, made once per
/// process. Without it, MontgomeryCtx::ExpBatch runs scalar Exp per
/// element.
bool Available();

/// Per-modulus radix-2^52 context: modulus digits (lane-replicated),
/// -n^{-1} mod 2^52, and R² mod n for R = 2^(52·digits). Construction is
/// a few modular doublings on top of an existing MontgomeryCtx — cheap
/// enough to build per ExpBatch call.
class Ctx52 {
 public:
  /// `modulus` must be odd and > 1 (the MontgomeryCtx contract).
  /// `r2_limbs` is the scalar context's R² mod n (R = 2^(64·k)), reused
  /// to derive the radix-52 domain constant without a wide division.
  Ctx52(const BigInt& modulus, const std::vector<Limb>& r2_limbs);

  /// True when this modulus fits the engine (digit count within the
  /// compiled cap). Combined with Available() by callers.
  bool ok() const { return ok_; }

  /// out[i] = bases[i]^exponent mod n for i in [0, nb), nb <= kIfmaLanes,
  /// walking the shared sliding-window schedule `ops` (built from the
  /// exponent by MontgomeryCtx::ExpBatch). Unused lanes are padded
  /// internally. Results are canonical (< n) and bit-identical to
  /// MontgomeryCtx::Exp.
  void ExpGroup(const BigInt* bases, size_t nb,
                const std::vector<MontgomeryCtx::WindowOp>& ops,
                int window_bits, BigInt* out) const;

  size_t digits() const { return k52_; }

 private:
  bool ok_ = false;
  BigInt modulus_;
  size_t k52_ = 0;                  // radix-2^52 digit count
  uint64_t n0inv52_ = 0;            // -n^{-1} mod 2^52
  std::vector<uint64_t> n52_;       // k52 × kIfmaLanes, lane-replicated
  std::vector<uint64_t> r2_52_;     // R52² mod n, lane-replicated
};

}  // namespace ifma
}  // namespace ppdbscan

#endif  // PPDBSCAN_BIGINT_IFMA_H_
