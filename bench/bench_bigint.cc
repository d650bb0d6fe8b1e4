// M4 — bigint substrate micro-benchmarks (google-benchmark).
//
// These calibrate the arithmetic floor under every protocol cost in this
// repository: Paillier/RSA operations are sequences of the modexps and
// mulmods measured here.

#include <benchmark/benchmark.h>

#include "bigint/bigint.h"
#include "bigint/kernels.h"
#include "bigint/montgomery.h"
#include "bigint/prime.h"
#include "common/random.h"
#include "microbench_main.h"

namespace ppdbscan {
namespace {

void BM_Add(benchmark::State& state) {
  SecureRng rng(1);
  const size_t bits = static_cast<size_t>(state.range(0));
  BigInt a = BigInt::RandomBits(rng, bits);
  BigInt b = BigInt::RandomBits(rng, bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a + b);
  }
}
BENCHMARK(BM_Add)->Arg(256)->Arg(1024)->Arg(4096);

void BM_Mul(benchmark::State& state) {
  SecureRng rng(2);
  const size_t bits = static_cast<size_t>(state.range(0));
  BigInt a = BigInt::RandomBits(rng, bits);
  BigInt b = BigInt::RandomBits(rng, bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
// 4096 bits crosses the Karatsuba threshold (24 limbs = 768 bits).
BENCHMARK(BM_Mul)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096);

void BM_DivMod(benchmark::State& state) {
  SecureRng rng(3);
  const size_t bits = static_cast<size_t>(state.range(0));
  BigInt a = BigInt::RandomBits(rng, 2 * bits);
  BigInt b = BigInt::RandomBits(rng, bits) + BigInt(1);
  for (auto _ : state) {
    BigInt q, r;
    a.DivMod(b, &q, &r);
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_DivMod)->Arg(256)->Arg(1024)->Arg(2048);

void BM_ModExp(benchmark::State& state) {
  SecureRng rng(4);
  const size_t bits = static_cast<size_t>(state.range(0));
  BigInt mod = BigInt::RandomBits(rng, bits) + BigInt(3);
  if (mod.IsEven()) mod += BigInt(1);
  BigInt base = BigInt::RandomBelow(rng, mod);
  BigInt exp = BigInt::RandomBits(rng, bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BigInt::ModExp(base, exp, mod));
  }
}
BENCHMARK(BM_ModExp)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);

void BM_MontgomeryMul(benchmark::State& state) {
  SecureRng rng(5);
  const size_t bits = static_cast<size_t>(state.range(0));
  BigInt mod = BigInt::RandomBits(rng, bits) + BigInt(3);
  if (mod.IsEven()) mod += BigInt(1);
  MontgomeryCtx ctx = *MontgomeryCtx::Create(mod);
  BigInt a = ctx.ToMont(BigInt::RandomBelow(rng, mod));
  BigInt b = ctx.ToMont(BigInt::RandomBelow(rng, mod));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.MulMont(a, b));
  }
}
BENCHMARK(BM_MontgomeryMul)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);

// Dedicated squaring path: the Exp inner loop is almost all squarings, so
// the Sqr/Mul ratio here bounds the exponentiation gain.
void BM_MontgomerySqr(benchmark::State& state) {
  SecureRng rng(5);
  const size_t bits = static_cast<size_t>(state.range(0));
  BigInt mod = BigInt::RandomBits(rng, bits) + BigInt(3);
  if (mod.IsEven()) mod += BigInt(1);
  MontgomeryCtx ctx = *MontgomeryCtx::Create(mod);
  BigInt a = ctx.ToMont(BigInt::RandomBelow(rng, mod));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.SqrMont(a));
  }
}
BENCHMARK(BM_MontgomerySqr)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);

// Short exponents (the MulPlain-with-tiny-scalar shape): the sliding
// window must not pay full-table precomputation here.
void BM_ModExpSmallExponent(benchmark::State& state) {
  SecureRng rng(9);
  const size_t bits = static_cast<size_t>(state.range(0));
  BigInt mod = BigInt::RandomBits(rng, bits) + BigInt(3);
  if (mod.IsEven()) mod += BigInt(1);
  MontgomeryCtx ctx = *MontgomeryCtx::Create(mod);
  BigInt base = BigInt::RandomBelow(rng, mod);
  BigInt exp(131071);  // 17 bits, a protocol-realistic plaintext scalar
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.Exp(base, exp));
  }
}
BENCHMARK(BM_ModExpSmallExponent)->Arg(512)->Arg(1024)->Arg(2048);

// Shared-base batch exponentiation: 8 bases, one shared full-width
// exponent — the r^n shape in Paillier Encrypt. ns_per_op is for the
// whole batch; divide by 8 for the per-element cost to compare with
// BM_ModExp. Routed to the AVX-512 IFMA engine where the host supports
// it, else one scalar Exp per element across the thread pool.
void BM_ExpBatch(benchmark::State& state) {
  SecureRng rng(13);
  const size_t bits = static_cast<size_t>(state.range(0));
  BigInt mod = BigInt::RandomBits(rng, bits) + BigInt(3);
  if (mod.IsEven()) mod += BigInt(1);
  MontgomeryCtx ctx = *MontgomeryCtx::Create(mod);
  std::vector<BigInt> bases;
  for (int i = 0; i < 8; ++i) bases.push_back(BigInt::RandomBelow(rng, mod));
  BigInt exp = BigInt::RandomBits(rng, bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.ExpBatch(bases, exp));
  }
}
BENCHMARK(BM_ExpBatch)->Arg(512)->Arg(1024)->Arg(2048);

// addmul_1 span throughput: the one primitive under every Montgomery
// round and schoolbook row, measured per kernel. Arg = span limb count
// (32 limbs = one 2048-bit row in the 64-bit build).
void KernelAddmulSpan(benchmark::State& state, const LimbKernels& kern) {
  SecureRng rng(10);
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<Limb> a(n);
  std::vector<Limb> r(n + 1, 0);
  for (Limb& l : a) l = static_cast<Limb>(rng.NextU64());
  const Limb m = static_cast<Limb>(rng.NextU64()) | 1u;
  for (auto _ : state) {
    r[n] += kern.addmul_1(r.data(), a.data(), n, m);
    benchmark::DoNotOptimize(r.data());
  }
  state.SetLabel(kern.name);
}
void BM_MulLimbsKernel_Scalar(benchmark::State& state) {
  KernelAddmulSpan(state, ScalarLimbKernels());
}
BENCHMARK(BM_MulLimbsKernel_Scalar)->Arg(8)->Arg(32)->Arg(64);
// Whatever startup dispatch picked (CPUID, or the PPDBSCAN_KERNEL
// override): mulx on BMI2+ADX x86-64, scalar elsewhere.
void BM_MulLimbsKernel_Dispatched(benchmark::State& state) {
  KernelAddmulSpan(state, ActiveLimbKernels());
}
BENCHMARK(BM_MulLimbsKernel_Dispatched)->Arg(8)->Arg(32)->Arg(64);

// Per-call cost of going through the dispatch layer (atomic load +
// indirect call) on a minimal one-limb span — the upper bound on what the
// pluggable kernel layer adds to each primitive invocation.
void BM_KernelDispatchOverhead(benchmark::State& state) {
  std::vector<Limb> a = {42u};
  std::vector<Limb> r = {0u, 0u};
  for (auto _ : state) {
    r[1] += ActiveLimbKernels().addmul_1(r.data(), a.data(), 1, 3);
    benchmark::DoNotOptimize(r.data());
  }
}
BENCHMARK(BM_KernelDispatchOverhead);

void BM_MillerRabin(benchmark::State& state) {
  SecureRng rng(6);
  const size_t bits = static_cast<size_t>(state.range(0));
  BigInt prime = GeneratePrime(rng, bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsProbablePrime(prime, rng, 16));
  }
}
BENCHMARK(BM_MillerRabin)->Arg(128)->Arg(256)->Arg(512)->Iterations(10);

void BM_GeneratePrime(benchmark::State& state) {
  SecureRng rng(7);
  const size_t bits = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(GeneratePrime(rng, bits));
  }
}
BENCHMARK(BM_GeneratePrime)->Arg(128)->Arg(256)->Iterations(5);

void BM_DecimalRoundTrip(benchmark::State& state) {
  SecureRng rng(8);
  BigInt v = BigInt::RandomBits(rng, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BigInt::FromDecimal(v.ToDecimal()));
  }
}
BENCHMARK(BM_DecimalRoundTrip)->Arg(256)->Arg(2048);

}  // namespace
}  // namespace ppdbscan

int main(int argc, char** argv) {
  return ppdbscan::bench_util::RunMicrobenchMain(argc, argv);
}
