#ifndef PPDBSCAN_CRYPTO_PAILLIER_H_
#define PPDBSCAN_CRYPTO_PAILLIER_H_

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bigint/bigint.h"
#include "bigint/montgomery.h"
#include "common/random.h"
#include "common/serialize.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace ppdbscan {

/// Paillier public key, exactly as in §3.7 of the paper: modulus n = p·q and
/// generator g ∈ Z*_{n²}. The default generator is g = n + 1 (a valid choice
/// that makes g^m computable without exponentiation); key generation can
/// also sample a random g to exercise the general path.
struct PaillierPublicKey {
  BigInt n;
  BigInt n_squared;
  BigInt g;
  size_t modulus_bits = 0;

  void Serialize(ByteWriter& out) const;
  static Result<PaillierPublicKey> Deserialize(ByteReader& in);
};

/// Full key pair: λ = lcm(p−1, q−1) and µ = (L(g^λ mod n²))⁻¹ mod n, with
/// the primes retained for CRT-accelerated decryption.
struct PaillierKeyPair {
  PaillierPublicKey pub;
  BigInt lambda;
  BigInt mu;
  BigInt p;
  BigInt q;
};

/// Generates a Paillier key pair with an n of exactly `modulus_bits` bits.
/// Enforces the paper's gcd(pq, (p−1)(q−1)) = 1 condition. When `random_g`
/// is true, samples a random valid generator instead of n + 1.
Result<PaillierKeyPair> GeneratePaillierKeyPair(SecureRng& rng,
                                                size_t modulus_bits,
                                                bool random_g = false);

/// Public-key operations (encrypt + homomorphic arithmetic). Holds a cached
/// Montgomery context for n², so one instance should be reused across many
/// operations. Thread-compatible (const methods are safe to call
/// concurrently).
class PaillierContext {
 public:
  /// Fails with kInvalidArgument if the key is malformed.
  static Result<PaillierContext> Create(PaillierPublicKey pub);

  const PaillierPublicKey& pub() const { return pub_; }

  /// Encrypts m ∈ [0, n): c = g^m · r^n mod n² with fresh random r ∈ Z*_n.
  Result<BigInt> Encrypt(const BigInt& m, SecureRng& rng) const;

  /// Encrypts a signed value |v| < n/2 using the standard wraparound
  /// encoding (negative v maps to n − |v|).
  Result<BigInt> EncryptSigned(const BigInt& v, SecureRng& rng) const;

  /// Homomorphic addition: D(Add(E(m1), E(m2))) = m1 + m2 mod n.
  BigInt Add(const BigInt& c1, const BigInt& c2) const;

  /// Homomorphic plaintext multiplication: D(MulPlain(E(m), k)) = m·k mod n.
  /// k may be negative (reduced mod n first).
  BigInt MulPlain(const BigInt& c, const BigInt& k) const;

  // --- Offline/online encryption split -------------------------------------
  // Encrypt(m) factors as g^m · (r^n mod n²); the second term is independent
  // of m and dominates the cost. These pieces let callers (and
  // PaillierRandomizerPool) precompute it off the critical path.

  /// Samples the encryption randomizer r ∈ Z*_n (the same rejection loop
  /// Encrypt runs internally).
  BigInt SampleRandomizer(SecureRng& rng) const;
  /// The precomputable factor r^n mod n² for a randomizer r.
  BigInt RandomizerFactor(const BigInt& r) const;
  /// Element-wise RandomizerFactor: out[i] = rs[i]^n mod n². All factors
  /// share the public exponent n, so this routes through
  /// MontgomeryCtx::ExpBatch — groups of exponentiations walk one shared
  /// window schedule (8 per AVX-512 IFMA vector on capable hosts), which is
  /// where the batch encryption speedup comes from. Bit-identical to
  /// calling RandomizerFactor per element.
  std::vector<BigInt> RandomizerFactorBatch(const std::vector<BigInt>& rs,
                                            ThreadPool* pool = nullptr) const;
  /// Encrypts m with a precomputed factor: g^m · factor mod n². With the
  /// default g = n+1 this is two modular multiplications — no
  /// exponentiation. The factor must be RandomizerFactor(r) for a fresh,
  /// never-reused r, or the ciphertext leaks.
  Result<BigInt> EncryptWithFactor(const BigInt& m, const BigInt& factor) const;

  // --- Batch operations ----------------------------------------------------
  // Fan the per-element modular exponentiations across `pool` (the global
  // pool when null). Randomness is drawn from `rng` serially in element
  // order *before* any parallel work, so for a fixed rng stream the outputs
  // are bit-identical to calling the serial method in a loop, regardless of
  // thread count.

  /// Element-wise Encrypt. Fails (consuming no randomness) if any plaintext
  /// is out of range.
  Result<std::vector<BigInt>> EncryptBatch(const std::vector<BigInt>& ms,
                                           SecureRng& rng,
                                           ThreadPool* pool = nullptr) const;
  /// Element-wise EncryptSigned.
  Result<std::vector<BigInt>> EncryptSignedBatch(
      const std::vector<BigInt>& vs, SecureRng& rng,
      ThreadPool* pool = nullptr) const;
  /// Element-wise EncryptWithFactor: out[i] = g^{ms[i]} · factors[i] mod n².
  /// Each factor must be RandomizerFactor(r) for a fresh, never-reused r
  /// (PaillierRandomizerPool::TakeFactors provides exactly that). With the
  /// default g = n+1 this is the all-multiplication online phase — no
  /// exponentiation at all.
  Result<std::vector<BigInt>> EncryptBatchWithFactors(
      const std::vector<BigInt>& ms, const std::vector<BigInt>& factors,
      ThreadPool* pool = nullptr) const;
  /// Element-wise MulPlain: out[i] = MulPlain(cs[i], ks[i]).
  std::vector<BigInt> MulPlainBatch(const std::vector<BigInt>& cs,
                                    const std::vector<BigInt>& ks,
                                    ThreadPool* pool = nullptr) const;
  /// Element-wise Add: out[i] = Add(c1s[i], c2s[i]).
  std::vector<BigInt> AddBatch(const std::vector<BigInt>& c1s,
                               const std::vector<BigInt>& c2s,
                               ThreadPool* pool = nullptr) const;

  /// Fresh re-randomization: multiplies by an encryption of zero.
  Result<BigInt> Rerandomize(const BigInt& c, SecureRng& rng) const;

  /// Signed wraparound encoding into [0, n); fails unless |v| < n/2.
  Result<BigInt> EncodeSigned(const BigInt& v) const;
  /// Inverse of EncodeSigned: values above n/2 decode as negative.
  BigInt DecodeSigned(const BigInt& m) const;

  /// True iff c is in the ciphertext range [1, n²).
  bool IsValidCiphertext(const BigInt& c) const;

 private:
  friend class PaillierDecryptor;  // embeds a default-constructed context

  PaillierContext() = default;

  PaillierPublicKey pub_;
  BigInt half_n_;
  std::shared_ptr<const MontgomeryCtx> ctx_n2_;
  bool g_is_n_plus_1_ = false;
};

/// Private-key operations. Decryption uses the CRT over p and q.
/// Thread-compatible (const methods are safe to call concurrently).
class PaillierDecryptor {
 public:
  static Result<PaillierDecryptor> Create(PaillierKeyPair key_pair);

  const PaillierContext& context() const { return context_; }

  /// Decrypts to m ∈ [0, n).
  Result<BigInt> Decrypt(const BigInt& c) const;
  /// Decrypts and applies the signed decoding.
  Result<BigInt> DecryptSigned(const BigInt& c) const;

  /// Element-wise Decrypt, fanned across `pool` (global pool when null).
  /// Validation happens up front; the result order matches `cs`.
  Result<std::vector<BigInt>> DecryptBatch(const std::vector<BigInt>& cs,
                                           ThreadPool* pool = nullptr) const;
  /// Element-wise DecryptSigned, fanned across `pool`.
  Result<std::vector<BigInt>> DecryptSignedBatch(
      const std::vector<BigInt>& cs, ThreadPool* pool = nullptr) const;

 private:
  PaillierDecryptor() = default;

  PaillierKeyPair kp_;
  PaillierContext context_;
  // CRT components: m = L_p(c^{p-1} mod p²)·h_p mod p recombined with q part.
  BigInt p_squared_, q_squared_;
  BigInt p_minus_1_, q_minus_1_;  // CRT exponents, cached at Create time
  BigInt hp_, hq_;       // precomputed L(g^{p-1} mod p²)^{-1} mod p etc.
  BigInt q_inv_mod_p_;
  std::shared_ptr<const MontgomeryCtx> ctx_p2_, ctx_q2_;
};

/// Background precomputation of Paillier encryption randomizer factors
/// (r^n mod n²), the offline half of the offline/online split: a producer
/// thread keeps up to `target` factors buffered, and the online
/// Encrypt()/EncryptSigned() reduce to g^m · factor mod n² — two modular
/// multiplications with the default g = n+1.
///
/// Factors are strictly single-use: every Take/Encrypt pops one, and the
/// producer refills in the background. When the buffer is empty the
/// calling thread computes a fresh factor inline (correct, just not
/// accelerated).
///
/// Consumption is deterministic: randomizers are drawn from the pool rng
/// under the lock with a strictly increasing sequence number, and Take*
/// always consumes factors in draw order (waiting out a factor the
/// producer has in flight rather than skipping past it). For a seeded rng
/// the k-th pooled encryption therefore uses the k-th sampled randomizer
/// no matter how producer and consumers interleave — fixed-seed protocol
/// runs produce byte-identical transcripts.
///
/// Thread-safe. The pool owns a copy of the context and its own rng; pass
/// a seeded rng for reproducible tests.
class PaillierRandomizerPool {
 public:
  PaillierRandomizerPool(PaillierContext ctx, SecureRng rng,
                         size_t target = 64);
  ~PaillierRandomizerPool();

  PaillierRandomizerPool(const PaillierRandomizerPool&) = delete;
  PaillierRandomizerPool& operator=(const PaillierRandomizerPool&) = delete;

  const PaillierContext& context() const { return ctx_; }

  /// Pops one precomputed r^n mod n² factor (computing inline on an empty
  /// buffer). Never returns the same factor twice.
  BigInt TakeFactor();

  /// Pops `count` factors: buffered ones first, then inline-computed
  /// fills (fanned across `pool`, global pool when null) for the rest.
  /// Every returned factor is single-use, as with TakeFactor.
  std::vector<BigInt> TakeFactors(size_t count, ThreadPool* pool = nullptr);

  /// One-multiplication online encryption using a pooled factor.
  Result<BigInt> Encrypt(const BigInt& m);
  /// Signed-encoding variant.
  Result<BigInt> EncryptSigned(const BigInt& v);

  /// Element-wise Encrypt drawing all randomizer factors from the pool:
  /// the batch analogue of Encrypt(m). This is the session-layer fast
  /// path — factors precomputed during network waits make the whole batch
  /// run at online (multiplication-only) cost.
  Result<std::vector<BigInt>> EncryptBatch(const std::vector<BigInt>& ms,
                                           ThreadPool* pool = nullptr);
  /// Element-wise EncryptSigned via pooled factors.
  Result<std::vector<BigInt>> EncryptSignedBatch(const std::vector<BigInt>& vs,
                                                 ThreadPool* pool = nullptr);

  /// Blocks until min(count, target) factors are buffered. Benchmarks use
  /// this to measure the online phase in isolation.
  void Prefill(size_t count);

  /// Non-blocking demand hint: asks the producer to keep building factors
  /// until `count` beyond the current consumption point exist, even past
  /// the steady-state buffer target. Callers that know a job's total
  /// encryption demand up front (e.g. a count × dims cipher matrix) use
  /// this so the first query does not pay the inline-fill tail. Factors are
  /// still consumed strictly in draw order, so reserving never changes
  /// which factor the k-th encryption uses — fixed-seed transcripts stay
  /// byte-identical.
  void Reserve(size_t count);

  /// Currently buffered factors.
  size_t available() const;
  /// Total factors ever produced (buffered + inline).
  uint64_t produced() const;

  /// Largest single TakeFactor(s) demand seen since the last AdaptTarget()
  /// (0 if nothing was drawn).
  size_t peak_demand() const;
  /// The current steady-state buffer target.
  size_t steady_target() const;

  /// Adaptive sizing for reused sessions: resizes the steady-state buffer
  /// target to the peak single-call demand observed since the previous
  /// AdaptTarget(), clamped to [floor, cap], then resets the peak. A serve
  /// daemon calls this between jobs so the pool grows toward a big job's
  /// batch size (no inline-fill tail on the next run) and shrinks back
  /// after a burst of small jobs (no idle factor hoard). If nothing was
  /// drawn since the last call the target is left unchanged. Returns the
  /// new target. Never affects which factor the k-th encryption uses —
  /// consumption order is sequence-driven, so fixed-seed transcripts stay
  /// byte-identical across any resize schedule.
  size_t AdaptTarget(size_t floor, size_t cap);

 private:
  void ProducerLoop();
  // Appends `count` factors to `out`, consuming sequence numbers in order.
  // Factors the producer has in flight are waited for; the rest are drawn
  // inline and computed outside the lock (fanned across `pool`).
  void TakeFactorsInto(size_t count, std::vector<BigInt>& out,
                       ThreadPool* pool);

  PaillierContext ctx_;
  size_t target_;  // guarded by mu_ (AdaptTarget resizes it between jobs)
  mutable std::mutex mu_;
  std::condition_variable refill_cv_;   // producer waits: buffer full
  std::condition_variable filled_cv_;   // consumers wait: factor landed
  SecureRng rng_;                       // guarded by mu_
  std::map<uint64_t, BigInt> ready_;    // seq -> factor, guarded by mu_
  uint64_t next_draw_seq_ = 0;          // guarded by mu_
  uint64_t next_consume_seq_ = 0;       // guarded by mu_
  uint64_t reserve_target_seq_ = 0;     // guarded by mu_; Reserve() demand
  size_t peak_demand_ = 0;              // guarded by mu_; largest Take count
  size_t pending_consumers_ = 0;        // guarded by mu_; pauses new draws
  uint64_t produced_ = 0;               // guarded by mu_
  bool stop_ = false;                   // guarded by mu_
  std::thread producer_;
};

}  // namespace ppdbscan

#endif  // PPDBSCAN_CRYPTO_PAILLIER_H_
