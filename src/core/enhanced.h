#ifndef PPDBSCAN_CORE_ENHANCED_H_
#define PPDBSCAN_CORE_ENHANCED_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/options.h"
#include "dbscan/dataset.h"
#include "net/channel.h"
#include "smc/comparator.h"
#include "smc/session.h"

namespace ppdbscan {

/// §5 core-point test (the heart of Algorithms 7/8): the driver learns only
/// whether at least k* of the responder's points lie within Eps of its
/// query point, where k* = MinPts − |own neighbours|. Implementation
/// follows the paper:
///
///  1. Secret-share Dist²(x, B_k) for every responder point via the
///     dot-product form of the Multiplication Protocol — the driver gets
///     u_k = Dist² + v_k, the responder keeps v_k.
///  2. Select the k*-th smallest shared distance with secure comparisons
///     on share differences ((u_i − u_j) + (v_j − v_i) <= 0), using either
///     the k-pass scan or quickselect (§5 describes both; E6 ablates them).
///  3. One final comparison of the selected share against Eps².
///
/// Statistics the responder can observe: the number and index pattern of
/// comparison requests (inherent to the paper's selection procedure) — but
/// not the neighbour count that the basic protocol reveals.
///
/// `selection_comparisons`, if non-null, receives the number of secure
/// comparisons used (for the E6 ablation).

/// Driver side. `k_star` may be <= 0 (core regardless of the peer: the
/// protocol short-circuits after the share exchange) or > peer count
/// (cannot be core). Returns the core bit. The driver's shares come back
/// already masked, so only the responder takes `share_mask_bits`.
Result<bool> EnhancedCoreTestDriver(Channel& channel,
                                    const SmcSession& session,
                                    SecureComparator& comparator,
                                    const std::vector<int64_t>& x,
                                    int64_t k_star, int64_t eps_squared,
                                    SelectionAlgorithm selection,
                                    SecureRng& rng,
                                    uint64_t* selection_comparisons = nullptr);

/// Responder side: supplies its (permuted) points as dot-product rows and
/// assists comparisons until the driver sends kSelDone.
Status EnhancedCoreTestResponder(Channel& channel, const SmcSession& session,
                                 SecureComparator& comparator,
                                 const Dataset& own, size_t share_mask_bits,
                                 SecureRng& rng);

}  // namespace ppdbscan

#endif  // PPDBSCAN_CORE_ENHANCED_H_
