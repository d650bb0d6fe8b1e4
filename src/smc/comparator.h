#ifndef PPDBSCAN_SMC_COMPARATOR_H_
#define PPDBSCAN_SMC_COMPARATOR_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "bigint/bigint.h"
#include "common/random.h"
#include "common/status.h"
#include "net/channel.h"
#include "smc/session.h"

namespace ppdbscan {

/// Two-party secure threshold test: the Querier holds x_q, the Peer holds
/// x_p, and the Querier learns the single bit
///
///     x_q + x_p <= threshold        (threshold is public)
///
/// while the Peer learns nothing (up to the backend's documented leakage).
/// This is the exact primitive every distance protocol in the paper reduces
/// to: HDP/VDP test S_A + S_B <= Eps², and the §5 share comparisons test
/// (u_i − u_j) + (v_j − v_i) <= 0.
///
/// Backends (selected via ComparatorOptions::kind, see DESIGN.md §3.2):
///  * kYmpp            — Algorithm 1, exact, Θ(domain) cost. The paper's
///                       protocol.
///  * kBlindedPaillier — multiplicative blinding under the Querier's
///                       Paillier key; exact bit, O(1) ciphertexts,
///                       statistical magnitude leakage (out-of-paper
///                       engineering backend).
///  * kIdeal           — plaintext exchange; the trusted-third-party
///                       functionality of §3.3. TEST/REFERENCE ONLY.
class SecureComparator {
 public:
  virtual ~SecureComparator() = default;

  /// Querier role: returns the bit x_q + x_p <= threshold.
  Result<bool> QuerierCompare(Channel& channel, const BigInt& x_q,
                              const BigInt& threshold) {
    ++invocations_;
    return QuerierCompareImpl(channel, x_q, threshold);
  }

  /// Peer role: contributes x_p; learns nothing.
  Status PeerAssist(Channel& channel, const BigInt& x_p) {
    ++invocations_;
    return PeerAssistImpl(channel, x_p);
  }

  /// Batched querier role: element-wise QuerierCompare of xqs[i] against a
  /// shared threshold. The per-comparison wire format and leakage are those
  /// of the backend; backends with non-interactive rounds (blinded
  /// Paillier) override to run the cryptography through the Paillier batch
  /// APIs. Both parties must use the batched entry points together, with
  /// equal counts.
  ///
  /// Batches larger than max_batch_in_flight are split into chunks so the
  /// all-queries-then-all-answers rounds of non-interactive backends cannot
  /// fill both TCP buffers on the socket path (the querier drains each
  /// chunk's answers before sending the next chunk's queries). Both parties
  /// split identically — the limit is part of the negotiated
  /// ComparatorOptions. Batches at or below the limit are byte-identical
  /// to the unchunked rounds; above it the per-message wire format and the
  /// results are unchanged, but the peer's blinding randomness is grouped
  /// per flight, so those transcript bytes can differ from an unchunked
  /// run of the same seed.
  Result<std::vector<bool>> QuerierCompareBatch(Channel& channel,
                                                const std::vector<BigInt>& xqs,
                                                const BigInt& threshold) {
    invocations_ += xqs.size();
    const size_t chunk = ChunkSize(xqs.size());
    if (xqs.size() <= chunk) {
      return QuerierCompareBatchImpl(channel, xqs, threshold);
    }
    std::vector<bool> bits;
    bits.reserve(xqs.size());
    for (size_t base = 0; base < xqs.size(); base += chunk) {
      const size_t len = std::min(chunk, xqs.size() - base);
      std::vector<BigInt> part(xqs.begin() + static_cast<ptrdiff_t>(base),
                               xqs.begin() + static_cast<ptrdiff_t>(base + len));
      PPD_ASSIGN_OR_RETURN(std::vector<bool> part_bits,
                           QuerierCompareBatchImpl(channel, part, threshold));
      bits.insert(bits.end(), part_bits.begin(), part_bits.end());
    }
    return bits;
  }

  /// Batched peer role, pairing with QuerierCompareBatch (same chunking).
  Status PeerAssistBatch(Channel& channel, const std::vector<BigInt>& xps) {
    invocations_ += xps.size();
    const size_t chunk = ChunkSize(xps.size());
    if (xps.size() <= chunk) return PeerAssistBatchImpl(channel, xps);
    for (size_t base = 0; base < xps.size(); base += chunk) {
      const size_t len = std::min(chunk, xps.size() - base);
      std::vector<BigInt> part(xps.begin() + static_cast<ptrdiff_t>(base),
                               xps.begin() + static_cast<ptrdiff_t>(base + len));
      PPD_RETURN_IF_ERROR(PeerAssistBatchImpl(channel, part));
    }
    return Status::Ok();
  }

  /// Installs the per-flight comparison cap (0 = unlimited). Set by
  /// CreateComparator from ComparatorOptions::max_batch_in_flight; both
  /// parties must agree (enforced by the job negotiation round).
  void set_max_batch_in_flight(size_t limit) { max_batch_in_flight_ = limit; }
  size_t max_batch_in_flight() const { return max_batch_in_flight_; }

  virtual std::string name() const = 0;

  /// Number of comparisons this instance has participated in (either
  /// role); used by the selection-ablation benchmark (E6).
  uint64_t invocations() const { return invocations_; }
  void ResetInvocations() { invocations_ = 0; }

 protected:
  virtual Result<bool> QuerierCompareImpl(Channel& channel, const BigInt& x_q,
                                          const BigInt& threshold) = 0;
  virtual Status PeerAssistImpl(Channel& channel, const BigInt& x_p) = 0;

  // Default batched rounds: the serial loop. Interactive backends (YMPP)
  // inherit these; both sides then interleave exactly as the unbatched
  // calls would.
  virtual Result<std::vector<bool>> QuerierCompareBatchImpl(
      Channel& channel, const std::vector<BigInt>& xqs,
      const BigInt& threshold) {
    std::vector<bool> bits(xqs.size());
    for (size_t i = 0; i < xqs.size(); ++i) {
      PPD_ASSIGN_OR_RETURN(bool bit,
                           QuerierCompareImpl(channel, xqs[i], threshold));
      bits[i] = bit;
    }
    return bits;
  }
  virtual Status PeerAssistBatchImpl(Channel& channel,
                                     const std::vector<BigInt>& xps) {
    for (const BigInt& x_p : xps) {
      PPD_RETURN_IF_ERROR(PeerAssistImpl(channel, x_p));
    }
    return Status::Ok();
  }

 private:
  size_t ChunkSize(size_t total) const {
    return max_batch_in_flight_ == 0 ? total : max_batch_in_flight_;
  }

  uint64_t invocations_ = 0;
  size_t max_batch_in_flight_ = 0;
};

enum class ComparatorKind {
  kYmpp,
  kBlindedPaillier,
  kIdeal,
};

const char* ComparatorKindToString(ComparatorKind kind);

struct ComparatorOptions {
  ComparatorKind kind = ComparatorKind::kBlindedPaillier;
  /// Public bound B with |x_p| <= B and |threshold − x_q| <= B. The YMPP
  /// backend maps inputs into [1, 2B+3]; the blinded backend uses B to
  /// verify that blinding cannot wrap mod n.
  BigInt magnitude_bound = BigInt(1) << 20;
  /// Bit width of the multiplier ρ in the blinded backend.
  size_t blinding_bits = 40;
  /// Cap on comparisons in flight per batched round (0 = unlimited). The
  /// batched blinded backend sends all queries before reading any answer;
  /// on SocketChannel an unbounded batch could fill both TCP buffers and
  /// deadlock. Chunks of this size bound the in-flight frames; batches at
  /// or below the limit stay byte-identical to the unchunked rounds (the
  /// default preserves every pre-existing test transcript). Part of the
  /// negotiated protocol configuration — both parties must agree.
  size_t max_batch_in_flight = 256;
};

/// Builds a comparator bound to `session` (which must outlive it). `rng`
/// must also outlive the comparator and is not shared across threads.
Result<std::unique_ptr<SecureComparator>> CreateComparator(
    const ComparatorOptions& options, const SmcSession& session,
    SecureRng& rng);

}  // namespace ppdbscan

#endif  // PPDBSCAN_SMC_COMPARATOR_H_
