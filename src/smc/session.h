#ifndef PPDBSCAN_SMC_SESSION_H_
#define PPDBSCAN_SMC_SESSION_H_

#include <memory>

#include "common/random.h"
#include "common/status.h"
#include "crypto/paillier.h"
#include "crypto/rsa.h"
#include "net/channel.h"

namespace ppdbscan {

/// Cryptographic parameters for a two-party SMC session. The defaults are
/// sized for interactive experiments; production deployments of the paper's
/// setting would use 1024- or 2048-bit keys (bench_paillier / bench_ymp
/// report the cost curve).
struct SmcOptions {
  size_t paillier_bits = 512;
  size_t rsa_bits = 512;
  /// Target depth of the per-session randomizer pool: a background thread
  /// keeps this many r^n mod n² encryption factors precomputed under this
  /// party's own key, so responder-side batch encryptions run at online
  /// (multiplication-only) cost — the factors are built during network
  /// waits. 0 disables the pool (cold randomness on every encryption).
  size_t randomizer_pool_target = 32;
};

/// Per-party cryptographic state for one two-party protocol session: this
/// party's own Paillier and RSA key pairs plus the peer's public keys,
/// exchanged once by Establish(). Every sub-protocol (Multiplication, dot
/// product, YMPP, comparators) draws its keys from here, so key material is
/// transferred exactly once per session — matching the paper's accounting,
/// which excludes key setup from per-invocation communication costs.
class SmcSession {
 public:
  /// Generates this party's key pairs and swaps public keys with the peer.
  /// Symmetric: both parties call Establish concurrently.
  static Result<SmcSession> Establish(Channel& channel, SecureRng& rng,
                                      const SmcOptions& options = {});

  const SmcOptions& options() const { return options_; }

  /// This party's Paillier decryptor (own key).
  const PaillierDecryptor& own_paillier() const { return *own_paillier_; }
  /// Homomorphic operations under this party's own public key.
  const PaillierContext& own_paillier_ctx() const {
    return own_paillier_->context();
  }
  /// Homomorphic operations under the peer's public key.
  const PaillierContext& peer_paillier() const { return *peer_paillier_; }

  /// This party's RSA trapdoor (the Da of YMPP when this party is the key
  /// owner).
  const RsaPrivateOps& own_rsa() const { return *own_rsa_; }
  /// The peer's RSA public permutation (the Ea of YMPP when the peer is the
  /// key owner).
  const RsaPublicOps& peer_rsa() const { return *peer_rsa_; }

  /// Background randomizer pool for this party's own Paillier key, or null
  /// when SmcOptions::randomizer_pool_target is 0. Protocol responders use
  /// it to encrypt with factors precomputed during network waits instead of
  /// cold randomness. Thread-safe; drawing a factor consumes it forever.
  PaillierRandomizerPool* own_randomizer_pool() const {
    return own_pool_.get();
  }

  /// Job-metadata pre-warm hook: asks the randomizer pool (when present) to
  /// build `count` encryption factors in the background, beyond the fixed
  /// steady-state target. PartyRuntime calls this with the job's expected
  /// cipher-matrix size (count × dims) at job start so the first protocol
  /// round does not pay the inline-fill tail. No-op without a pool; never
  /// blocks; never changes which factor the k-th encryption consumes.
  void PrewarmRandomizers(size_t count) const;

  /// Adaptive pool sizing for reused sessions: resizes the randomizer
  /// pool's steady-state target to the peak demand seen since the last
  /// call (clamped to [1, kMaxAdaptivePoolTarget]). A serve daemon calls
  /// this between jobs so the pool tracks the workload instead of the
  /// configured default. Returns the new target (0 without a pool).
  size_t AdaptRandomizerPool() const;

  /// Upper clamp for AdaptRandomizerPool — matches the pre-warm cap, so an
  /// enormous job cannot make the producer hoard unbounded factor state.
  static constexpr size_t kMaxAdaptivePoolTarget = 1024;

 private:
  SmcSession() = default;

  SmcOptions options_;
  std::shared_ptr<const PaillierDecryptor> own_paillier_;
  std::shared_ptr<const PaillierContext> peer_paillier_;
  std::shared_ptr<const RsaPrivateOps> own_rsa_;
  std::shared_ptr<const RsaPublicOps> peer_rsa_;
  std::shared_ptr<PaillierRandomizerPool> own_pool_;
};

}  // namespace ppdbscan

#endif  // PPDBSCAN_SMC_SESSION_H_
