#ifndef PPDBSCAN_CORE_VERTICAL_H_
#define PPDBSCAN_CORE_VERTICAL_H_

#include "common/random.h"
#include "common/status.h"
#include "core/options.h"
#include "dbscan/dataset.h"
#include "eval/leakage.h"
#include "net/channel.h"
#include "smc/session.h"

namespace ppdbscan {

/// Privacy-preserving DBSCAN over vertically partitioned data —
/// Algorithms 5/6 of the paper. Each party holds all n records but only
/// its own attribute columns (`own_columns`); the parties run the scan in
/// lockstep and both end with the full labelling (the prescribed output,
/// since every record is split between them).
///
/// Vertical data is the arbitrary partition of §4.4 with no cross-owned
/// attribute, so this runs core/arbitrary.h's scan over an all-owned view
/// of `own_columns`. Per record pair, each party's local
/// partial squared distance is its share, and protocol VDP reduces the
/// Eps test to one secure comparison (S_A + S_B <= Eps²). The driver
/// (Alice by convention) learns each bit and announces the neighbour set,
/// which both parties need to continue the joint expansion — precisely
/// Theorem 10's disclosure ("the number of points in the neighborhood").
/// With ProtocolOptions::vdp_local_pruning (E9) the scan first exchanges
/// per-query prune bitmaps.
///
/// Output is bit-for-bit identical to centralized DBSCAN on the joined
/// records (tested in tests/vertical_test.cc).
Result<PartyClusteringResult> RunVerticalDbscan(
    Channel& channel, const SmcSession& session, const Dataset& own_columns,
    PartyRole role, const ProtocolOptions& options, SecureRng& rng,
    DisclosureLog* disclosures = nullptr);

}  // namespace ppdbscan

#endif  // PPDBSCAN_CORE_VERTICAL_H_
