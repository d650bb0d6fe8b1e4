#ifndef PPDBSCAN_CORE_RUN_H_
#define PPDBSCAN_CORE_RUN_H_

#include <vector>

#include "common/status.h"
#include "core/job.h"
#include "core/options.h"
#include "net/fault.h"
#include "smc/session.h"

namespace ppdbscan {

/// One party's slot in an in-process execution: its job plus the seed of
/// its deterministic rng (each party gets an independent stream).
struct LocalJob {
  ClusteringJob job;
  uint64_t seed = 0;
};

/// Transport used between the in-process parties.
enum class LocalTransport {
  kMemory,       ///< MemoryChannel pair/mesh — zero-overhead, exact counters
  kTcpLoopback,  ///< real TCP over 127.0.0.1 (two-party only)
};

/// N-party in-process harness over the ClusteringJob/PartyRuntime facade:
/// connects the parties (a two-party runtime pair for two-party schemes, a
/// full mesh for kMultiparty jobs — at P = 2 too), runs each party's job on
/// its own thread through a PartyRuntime (key exchange, negotiation round,
/// protocol), and returns the outcomes in party order. A two-party
/// kMultiparty run is the same wire conversation as a kHorizontal basic
/// run; only the job hello's scheme byte differs. The first failing
/// party's status is returned; every party closes its channels when it
/// returns, so no peer hangs. Each party's links carry its job's
/// round_deadline_ms during session establishment as well.
Result<std::vector<RunOutcome>> ExecuteLocal(
    const std::vector<LocalJob>& parties, const SmcOptions& smc = {},
    LocalTransport transport = LocalTransport::kMemory);

/// One scripted fault on one directed in-process link: party `party`'s
/// endpoint of its channel to `peer` is wrapped in a FaultInjectingChannel
/// carrying `schedule` (see net/fault.h for the fault semantics).
struct LocalLinkFault {
  size_t party = 0;
  size_t peer = 0;
  FaultSchedule schedule;
};

/// Chaos variant of ExecuteLocal (memory transport only): runs every party
/// to completion and returns PER-PARTY results instead of collapsing to
/// the first failure — under fault injection the interesting assertion is
/// what EACH party reports (clean labels, or a named error; never a hang).
/// The establishment deadline means a link that dies before the first Run
/// still surfaces as kDeadlineExceeded rather than wedging the harness.
/// Shares ExecuteLocal's body, so with an empty `faults` list the outcomes
/// match ExecuteLocal exactly.
std::vector<Result<RunOutcome>> ExecuteLocalOutcomes(
    const std::vector<LocalJob>& parties, const SmcOptions& smc = {},
    const std::vector<LocalLinkFault>& faults = {});

}  // namespace ppdbscan

#endif  // PPDBSCAN_CORE_RUN_H_
