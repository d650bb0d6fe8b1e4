// Configure-time probe: exits 0 when the build host can execute the
// AVX-512 IFMA batch-exponentiation engine (CPUID reports AVX-512F and
// AVX-512 IFMA, the OS has enabled XSAVE, and XCR0 exposes the opmask/ZMM
// register state). Mirrors ifma::Available()'s runtime detection exactly.
// Used only to compile montgomery_test with PPDBSCAN_REQUIRE_IFMA_ENGINE
// on such hosts, so the test fails if the engine silently drops out.
#include <cpuid.h>

int main() {
  if (!__builtin_cpu_supports("avx512f")) return 1;
  if (!__builtin_cpu_supports("avx512ifma")) return 1;
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return 1;
  const unsigned int kOsxsaveBit = 1u << 27;
  if ((ecx & kOsxsaveBit) == 0) return 1;
  unsigned int xlo = 0, xhi = 0;
  __asm__ volatile("xgetbv" : "=a"(xlo), "=d"(xhi) : "c"(0));
  // SSE (1) + AVX (2) + opmask (5) + ZMM_Hi256 (6) + Hi16_ZMM (7).
  return (xlo & 0xE6u) == 0xE6u ? 0 : 1;
}
