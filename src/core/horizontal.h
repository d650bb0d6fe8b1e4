#ifndef PPDBSCAN_CORE_HORIZONTAL_H_
#define PPDBSCAN_CORE_HORIZONTAL_H_

#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/options.h"
#include "dbscan/dataset.h"
#include "eval/leakage.h"
#include "net/channel.h"
#include "smc/session.h"

namespace ppdbscan {

/// Privacy-preserving DBSCAN over horizontally partitioned data —
/// Algorithms 3/4 (basic mode) and 7/8 (enhanced mode) of the paper, and
/// the multi-party extension §1 anticipates ("the two-party algorithm can
/// be extended to multi-party cases"). Two-party runs are the P = 2 call.
///
/// P parties each hold a horizontal slice of the virtual database and call
/// this function concurrently. They take the driver role in the public
/// party order (Algorithm 3's "Party B DOES: repeats step 1 to 12"): the
/// scanning party clusters its own points while every other party serves
/// it. The scanning party's core test for a point sums its own neighbour
/// count with one HDP batch result per peer,
///
///     |N_eps(p)| = |own neighbours| + Σ_j  HDP-count against party j,
///
/// querying every peer for every test (no early exit — stopping once the
/// threshold is reached would reveal the partial sums to the later peers
/// through the access pattern). Each pairwise link runs the two-party
/// sub-protocols over its own SMC session, so Theorem 9's disclosure bound
/// applies per link and the composition theorem (Theorem 6) covers the
/// whole protocol. The peers' points enter core tests only; they are never
/// added to expansion seed lists — the structural property that keeps the
/// peers' records unlinkable and the reason the output can differ from
/// centralized DBSCAN on cross-party bridges (DESIGN.md §3.5, experiment
/// E4).
///
/// `links[j]` is the channel to party j and `sessions[j]` the established
/// SMC session for that link; the entries at `index` (this party's
/// position) are ignored and may be null.
///
/// Two-party only (kInvalidArgument for P > 2):
///  - HorizontalMode::kEnhanced, the §5 share-selection core test, which
///    needs the k-th smallest distance over ONE peer's points;
///  - options.cross_party_merge (E7 extension, off by default): after the
///    scans the parties link clusters whose core points are within Eps of
///    each other, producing a shared cluster-id space at a documented
///    extra disclosure (core-pair adjacency).
///
/// options.plan selects the clustering planner (core/plan.h), per link.
/// kExact runs no plan round. kPrune exchanges bounding boxes with every
/// peer, queries only the peers whose box is within Eps of the tested point
/// (box distances are public once the boxes are disclosed, so the skip
/// leaks nothing), and serves each peer only its boundary band against
/// that peer's box — labels stay byte-identical to exact mode. kSieve scans
/// the 1-in-k subset with peer counts scaled by k, assigns leftovers
/// locally, and rescues the remainder with one batched membership round
/// per peer.
///
/// `disclosures` (optional) records what this party LEARNS:
/// "peer_neighbor_count" per peer per core test in basic mode (Theorem 9),
/// "peer_core_bit" in enhanced mode (Theorem 11), "merge_links" if merging,
/// and the plan round's "plan_peer_points" / "plan_peer_box_coord" /
/// "plan_peer_band" / "membership_count" under a non-exact plan.
/// `selection_comparisons` (optional) accumulates the §5 selection's
/// comparisons; `plan_stats` (optional) receives the planner's counters,
/// including measured comparator invocations, across all links.
Result<PartyClusteringResult> RunHorizontalDbscan(
    const std::vector<Channel*>& links,
    const std::vector<const SmcSession*>& sessions, const Dataset& own_points,
    size_t index, const ProtocolOptions& options, SecureRng& rng,
    DisclosureLog* disclosures = nullptr,
    uint64_t* selection_comparisons = nullptr,
    PlanStats* plan_stats = nullptr);

}  // namespace ppdbscan

#endif  // PPDBSCAN_CORE_HORIZONTAL_H_
