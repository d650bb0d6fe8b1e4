#ifndef PPDBSCAN_CORE_ARBITRARY_H_
#define PPDBSCAN_CORE_ARBITRARY_H_

#include "common/random.h"
#include "common/status.h"
#include "core/options.h"
#include "data/partitioners.h"
#include "eval/leakage.h"
#include "net/channel.h"
#include "smc/session.h"

namespace ppdbscan {

/// Privacy-preserving DBSCAN over arbitrarily partitioned data — §4.4 of
/// the paper. Each attribute cell of each record belongs to one party
/// (ownership masks are public, values private). Following the paper, the
/// squared distance of a record pair decomposes into a vertically
/// partitioned part (same-owner attributes, computed locally) and a
/// horizontally partitioned part (cross-owner attributes, handled with
/// the batched Multiplication Protocol of smc/multiplication.h, exactly as
/// in HDP), after which a single secure comparison against Eps² decides
/// neighbourhood membership.
///
/// This is the one scan over records both parties share by id: vertical
/// data is the case with no cross-owned attribute (core/vertical.h).
/// Record-count handshake; then per record the driver (Alice) announces
/// it, each pair runs the distance test, and the driver broadcasts the
/// neighbour set, which both parties need to continue the joint expansion
/// (Theorem 10's disclosure); then a done handshake. Both parties obtain
/// the full labelling, matching centralized DBSCAN on the joined records
/// exactly.
///
/// `local_pruning` is the E9 extension the vertical scheme enables with
/// ProtocolOptions::vdp_local_pruning (arbitrary jobs leave it off): each
/// query first exchanges bitmaps of the pairs whose local partial already
/// exceeds Eps², and both parties skip their union.
Result<PartyClusteringResult> RunArbitraryDbscan(
    Channel& channel, const SmcSession& session,
    const ArbitraryPartyView& own_view, PartyRole role,
    const ProtocolOptions& options, SecureRng& rng,
    DisclosureLog* disclosures = nullptr, bool local_pruning = false);

}  // namespace ppdbscan

#endif  // PPDBSCAN_CORE_ARBITRARY_H_
