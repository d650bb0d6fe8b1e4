#ifndef PPDBSCAN_SMC_MULTIPLICATION_H_
#define PPDBSCAN_SMC_MULTIPLICATION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "bigint/bigint.h"
#include "common/random.h"
#include "common/serialize.h"
#include "common/status.h"
#include "net/channel.h"
#include "smc/session.h"

namespace ppdbscan {

/// Multiplication Protocol (Algorithm 2 of the paper).
///
/// The Receiver holds x and the Paillier key pair; the Helper holds y. At
/// the end the Receiver knows u = x·y + v (mod n) and the Helper knows v,
/// i.e. the parties hold additive shares of x·y over Z_n. Inputs may be
/// negative (signed wraparound encoding); reconstruction is
/// DecodeSigned(u − v mod n), valid while |x·y| < n/2.
///
/// Faithfulness note: Algorithm 2 as printed has Alice transmit the
/// encryption randomness r to Bob and has Bob reuse it for E_A(v). With the
/// g = n+1 generator that would let Bob recover x from E_A(x), so — as in
/// any correct Paillier deployment — each encryption here uses fresh
/// private randomness and r is never transmitted. Message flow and outputs
/// are otherwise exactly Algorithm 2.
///
/// Wire cost per invocation: one ciphertext each way (O(c1) in the paper's
/// accounting, with c1 the ciphertext size).

/// Receiver side: contributes x, returns u = x·y + v (mod n).
Result<BigInt> RunMultiplicationReceiver(Channel& channel,
                                         const SmcSession& session,
                                         const BigInt& x, SecureRng& rng);

/// Helper side: contributes y, returns its share v (uniform in Z_n).
Result<BigInt> RunMultiplicationHelper(Channel& channel,
                                       const SmcSession& session,
                                       const BigInt& y, SecureRng& rng);

/// Helper side with a caller-chosen mask v, for one standalone product.
/// v must lie in [0, n). The distance protocols use the batched form
/// below instead.
Result<BigInt> RunMultiplicationHelperWithMask(Channel& channel,
                                               const SmcSession& session,
                                               const BigInt& y,
                                               const BigInt& v,
                                               SecureRng& rng);

// --- Batched Algorithm 2 with zero-sum masks --------------------------------
//
// HDP (§4.2), the §4.4 pair distance and the sieve's membership round all
// reduce a squared distance to shares this way. The Receiver (key holder)
// encrypts a count × dims matrix of its coordinates y_k once. For each of
// its qn query vectors x_q the Helper answers E(x_qj·y_kj + r_qkj), where
// the masks r_qk· sum to zero over j. The Receiver decrypts and keeps
// S_B = Σ_j y_kj² − 2·Σ_j u_qkj; the Helper keeps S_A = Σ_j x_qj². Then
// S_A + S_B = ‖x_q − y_k‖², ready for one secure comparison against Eps².
// Each protocol frames these pieces with its own tags and header layout.

/// Σ_j x_j²: the Helper's share S_A for a query vector x.
BigInt SquaredNorm(const std::vector<int64_t>& x);

/// Receiver step: encrypts the flattened coordinate matrix `coords`
/// (signed encoding) under this party's own key via
/// SmcSession::EncryptOwnBatch.
Result<std::vector<BigInt>> EncryptCoordinates(
    const SmcSession& session, const std::vector<int64_t>& coords,
    SecureRng& rng);

/// Helper step: `ciphers` is the Receiver's count × dims matrix
/// (row-major, under the peer key `peer`), reused for every query vector
/// in `queries` (each `dims` long). Returns E(x_qj·y_kj + r_qkj) for every
/// (q, k, j), query-major then point-major. rng order: all masks (query-
/// major, then point-major), then their encryption randomizers.
Result<std::vector<BigInt>> MaskedProducts(
    const PaillierContext& peer, const std::vector<BigInt>& ciphers,
    size_t dims, std::span<const std::vector<int64_t>> queries,
    SecureRng& rng);

/// Receiver step: decrypts `response` (qn × count × dims, as
/// MaskedProducts returns it) and assembles the qn × count shares
/// S_B = Σ_j y_kj² − 2·Σ_j u_qkj, decoded signed, where `coords` is the
/// count × dims matrix of y the Receiver encrypted.
Result<std::vector<BigInt>> DistanceShares(
    const SmcSession& session, const std::vector<BigInt>& response,
    const std::vector<int64_t>& coords, size_t dims);

/// The one decoder for wire cipher vectors: reads exactly `count`
/// ciphertexts under `ctx` and requires the payload to end there. The
/// count is bounded by the bytes left before anything is reserved, so a
/// peer's claimed length cannot size an allocation. kDataLoss on a short
/// payload, an out-of-range ciphertext or trailing bytes.
Result<std::vector<BigInt>> ReadCiphers(ByteReader& reader, size_t count,
                                        const PaillierContext& ctx);

}  // namespace ppdbscan

#endif  // PPDBSCAN_SMC_MULTIPLICATION_H_
