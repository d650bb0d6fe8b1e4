#ifndef PPDBSCAN_SMC_MEMBERSHIP_H_
#define PPDBSCAN_SMC_MEMBERSHIP_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "net/channel.h"
#include "smc/comparator.h"
#include "smc/session.h"

namespace ppdbscan {

/// Batched encrypted eps-membership round — the sieve planner's rescue
/// primitive (core/plan.h). The driver holds Q query points, the responder
/// holds P points; the driver learns, PER QUERY, how many responder points
/// lie within sqrt(eps_squared), and nothing else about their values. The
/// responder learns Q and P (sizes only).
///
/// Cryptographically this is the paper's HDP: the batched Multiplication
/// Protocol with zero-sum masks of smc/multiplication.h, then one secure
/// comparison per pair. The responder encrypts its P × dims coordinate
/// matrix ONCE and the driver's helper step reuses it for every query of
/// a flight — Paillier is semantically secure, so ciphertext reuse toward
/// the non-key-holder leaks nothing, and the encryption bill drops from
/// Q·P·dims to P·dims. Large batches are split into flights of
/// at most kMshMaxCiphersPerFlight masked products per message (both sides
/// derive the same split from the public sizes), keeping frames bounded.
///
/// Linkage: instead of HDP's fresh presentation permutation per query, the
/// responder applies a fresh permutation to its comparison SHARES per
/// query. The driver's per-pair bits therefore arrive in an order it
/// cannot map to stable responder points, so results cannot be correlated
/// across queries; only the per-query counts survive.
inline constexpr size_t kMshMaxCiphersPerFlight = size_t{1} << 14;

/// Driver side: returns counts[q] = |{k : dist(queries[q], point_k) <=
/// sqrt(eps_squared)}|. All queries must share one dimensionality (which
/// must match the responder's points — public job metadata).
Result<std::vector<size_t>> MembershipBatchDriver(
    Channel& channel, const SmcSession& session, SecureComparator& comparator,
    const std::vector<std::vector<int64_t>>& queries, int64_t eps_squared,
    SecureRng& rng);

/// Responder side: serves its `points` (the plan-subset view, NOT the full
/// dataset) until every query of the batch is answered.
Status MembershipBatchResponder(Channel& channel, const SmcSession& session,
                                SecureComparator& comparator,
                                const std::vector<std::vector<int64_t>>& points,
                                SecureRng& rng);

}  // namespace ppdbscan

#endif  // PPDBSCAN_SMC_MEMBERSHIP_H_
