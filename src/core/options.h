#ifndef PPDBSCAN_CORE_OPTIONS_H_
#define PPDBSCAN_CORE_OPTIONS_H_

#include <cstdint>

#include "core/plan.h"
#include "dbscan/dbscan.h"
#include "smc/comparator.h"

namespace ppdbscan {

/// The two protocol parties. Horizontal runs are symmetric (both parties
/// scan in turn); vertical/arbitrary runs are driven by Alice by
/// convention.
enum class PartyRole { kAlice, kBob };

const char* PartyRoleToString(PartyRole role);

/// Core-point testing strategy over horizontally partitioned data.
enum class HorizontalMode {
  /// §4.2 (Algorithms 3/4): per-pair HDP; reveals the peer neighbour count
  /// to the scanning party (Theorem 9).
  kBasic,
  /// §5 (Algorithms 7/8): secret-shared distances + k-th-smallest
  /// selection; reveals only one bit per core test (Theorem 11).
  kEnhanced,
};

/// k-th smallest selection algorithm for the enhanced protocol (§5
/// describes both).
enum class SelectionAlgorithm {
  kKPass,        // k passes of minimum finding, O(k·n) comparisons
  kQuickSelect,  // randomized partitioning, O(n) expected comparisons
};

/// How a failed job is retried by the serve layer. Negotiated like every
/// other protocol option (part of the digest): both sides must agree on
/// the retry budget so a submitter never re-announces a job to a follower
/// that already gave up on the fleet.
struct RetryPolicy {
  /// Total attempts per job, including the first. 1 disables retry.
  uint32_t max_attempts = 1;
  /// Base delay before the first retry; doubles per retry (exponential).
  uint32_t backoff_ms = 100;
  /// Ceiling for the exponential growth.
  uint32_t max_backoff_ms = 5000;
  /// Seed for the deterministic jitter that desynchronizes retries. The
  /// delay for retry i lands in [delay/2, delay] where delay is the capped
  /// exponential value.
  uint64_t jitter_seed = 0x9E3779B97F4A7C15ull;
};

/// Everything both parties must agree on before a protocol run. The
/// comparator bound and DBSCAN parameters are public protocol inputs;
/// mismatches between the parties surface as protocol errors.
struct ProtocolOptions {
  DbscanParams params;

  ComparatorOptions comparator;

  HorizontalMode mode = HorizontalMode::kBasic;
  SelectionAlgorithm selection = SelectionAlgorithm::kKPass;

  /// Mask width for the §5 distance shares. 0 draws masks uniformly from
  /// Z_n (perfect hiding; requires the blinded or ideal comparator). A
  /// positive width keeps shares small enough for the YMPP comparator at
  /// the cost of only statistical hiding (see DESIGN.md §3.2).
  size_t share_mask_bits = 0;

  /// E7 extension (not part of the paper's protocols): after both
  /// horizontal scans, link clusters across parties whose core points are
  /// within Eps, restoring centralized DBSCAN's cross-party connectivity at
  /// the cost of disclosing core-pair adjacency.
  bool cross_party_merge = false;

  /// Per-receive deadline, in milliseconds, applied to every protocol
  /// round while a job runs (and to session establishment). A peer that
  /// goes silent — crashed, stalled, or partitioned — surfaces as
  /// kDeadlineExceeded on the waiting party instead of hanging it forever.
  /// 0 or negative disables the deadline (block indefinitely). Negotiated:
  /// both parties must configure the same value or the job-hello round
  /// fails kFailedPrecondition.
  int32_t round_deadline_ms = 0;

  /// E9 extension (not part of the paper's protocols): in the vertical
  /// protocol, each party locally prunes candidate pairs whose OWN partial
  /// squared distance already exceeds Eps² — the total can only be larger,
  /// so the secure comparison is provably unnecessary. Both parties
  /// exchange prune bitmaps per query; each pruned pair therefore
  /// discloses one bit ("the other party's partial alone exceeds Eps²")
  /// in exchange for skipping that comparison entirely. Exact same
  /// clustering, measured in bench_comm_vertical E3.c.
  bool vdp_local_pruning = false;

  /// Job retry budget for serve-mode runs (ignored by one-shot runs).
  /// Negotiated: the digest covers it, so a fleet with divergent retry
  /// configuration fails the job hello instead of half-retrying.
  RetryPolicy retry;

  /// Clustering planner (core/plan.h): exact, eps-boundary pruning, or
  /// sieved rounds. Negotiated — the hello names the mode and sieve stride
  /// so divergent planners fail kFailedPrecondition before any protocol
  /// traffic, and the digest covers both fields.
  PlanOptions plan;
};

/// A safe comparator magnitude bound for datasets with coordinates in
/// [-max_abs_coord, max_abs_coord]^dims: covers |S_B| <= 3·m·C² for HDP
/// partial sums, squared distances, and their pairwise differences.
BigInt RecommendedComparatorBound(size_t dims, int64_t max_abs_coord);

const char* HorizontalModeToString(HorizontalMode mode);
const char* SelectionAlgorithmToString(SelectionAlgorithm selection);

/// Order-stable 64-bit FNV-1a digest over the canonical serialization of
/// EVERY field of `options` (DBSCAN parameters, comparator configuration
/// including the magnitude bound and batch limit, mode/selection flags,
/// deadline and retry policy).
/// The job negotiation round (core/job.h) exchanges this digest so parties
/// with any configuration divergence fail fast instead of desyncing
/// mid-protocol. Equal options always digest equally across platforms and
/// limb widths (the bound is serialized via its wire codec).
uint64_t ProtocolOptionsDigest(const ProtocolOptions& options);

/// Per-party clustering output: the same fields as centralized DBSCAN's.
/// For horizontal runs, `labels` covers the party's own points; for
/// vertical/arbitrary runs it covers all records.
using PartyClusteringResult = DbscanResult;

}  // namespace ppdbscan

#endif  // PPDBSCAN_CORE_OPTIONS_H_
