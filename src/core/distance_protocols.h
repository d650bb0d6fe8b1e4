#ifndef PPDBSCAN_CORE_DISTANCE_PROTOCOLS_H_
#define PPDBSCAN_CORE_DISTANCE_PROTOCOLS_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "dbscan/dataset.h"
#include "net/channel.h"
#include "smc/comparator.h"
#include "smc/session.h"

namespace ppdbscan {

/// HDP (§4.2), batched over all of the responder's points for one query
/// point: the batched Multiplication Protocol with zero-sum masks of
/// smc/multiplication.h (the responder is the Receiver and ends with
/// x_j·y_j + r_j per coordinate), followed by one secure comparison per
/// point. Framing batches the m coordinates and the responder's points
/// into single messages, which changes neither the ciphertext count nor
/// who-learns-what.
///
/// The responder fresh-encrypts its coordinates for every query and (by
/// default) presents its points in a fresh random order — the permutation
/// step of Algorithm 4 that defeats the Figure 1 linkage attack.

/// Driver side: learns how many responder points lie within
/// sqrt(eps_squared) of `x`. If `bits` is non-null it receives the
/// per-point results in the responder's presentation order (only
/// meaningful when the responder disables permutation, as the E7 merge
/// phase does).
Result<size_t> HdpBatchDriver(Channel& channel, const SmcSession& session,
                              SecureComparator& comparator,
                              const std::vector<int64_t>& x,
                              int64_t eps_squared, SecureRng& rng,
                              std::vector<bool>* bits = nullptr);

/// Responder side. `subset` restricts participation to the given point
/// indices (default: all points); `permute` controls the Algorithm 4
/// shuffle. Learns nothing about the driver's query point.
Status HdpBatchResponder(Channel& channel, const SmcSession& session,
                         SecureComparator& comparator, const Dataset& own,
                         SecureRng& rng,
                         const std::vector<size_t>* subset = nullptr,
                         bool permute = true);

/// Shared helper: a uniformly random permutation of 0..n-1.
std::vector<size_t> RandomPermutation(SecureRng& rng, size_t n);

}  // namespace ppdbscan

#endif  // PPDBSCAN_CORE_DISTANCE_PROTOCOLS_H_
