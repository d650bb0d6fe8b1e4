#ifndef PPDBSCAN_CORE_SERVE_H_
#define PPDBSCAN_CORE_SERVE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/serialize.h"
#include "common/status.h"
#include "core/job.h"
#include "net/fault.h"
#include "net/mux.h"
#include "net/party_mesh.h"

namespace ppdbscan {

/// True when `code` names a transient transport/timing failure a retry can
/// plausibly outlive: the peer vanished (kUnavailable), a round ran out
/// its deadline (kDeadlineExceeded), or a frame arrived mangled
/// (kDataLoss — one corrupted or truncated frame, not a config mismatch).
bool RetryableStatusCode(StatusCode code);

/// Job-outcome retry classification. Transient codes are retryable.
/// kAborted relays the ORIGINATING party's failure, whose class rides the
/// structured Status::origin_code() (threaded through the abort frame's
/// leading byte — never inferred from message text): terminal when the
/// origin is a configuration or logic error (kFailedPrecondition,
/// kInvalidArgument, kOutOfRange, kInternal — those fail identically on
/// every attempt), retryable otherwise (unknown origins included).
/// Everything else is terminal.
bool RetryableStatus(const Status& status);

/// Delay before retry `retry_index` (0-based): exponential backoff from
/// RetryPolicy::backoff_ms capped at max_backoff_ms, minus a deterministic
/// seeded jitter — the result lands in [delay/2, delay], so a fleet
/// retrying in lockstep still desynchronizes reproducibly. Never returns
/// 0: a zero-configured backoff is floored to 1ms so retry loops yield
/// rather than busy-spin.
uint32_t BackoffDelayMs(const RetryPolicy& policy, uint32_t retry_index);

/// Long-lived daemon endpoint over an established PartyMesh: accepts many
/// ClusteringJobs on one mesh, amortizing key generation, key exchange,
/// and randomizer-pool warmup across its whole lifetime.
///
/// Start() layers a job-id ChannelMux over every mesh link and establishes
/// the pairwise SMC sessions exactly once, over stream 0 of each mux (the
/// control stream). Each job then runs over freshly opened per-job streams
/// with an AdoptMesh runtime that shares those sessions — no per-job
/// keygen, no per-job TCP setup. A retried job runs on FRESH streams
/// (stream id == (job id << 8) | attempt), so frames from a failed attempt
/// can never leak into its retry.
///
/// Control plane (stream 0, party 0 is the submitter):
///   submitter -> follower  kServeJobAnnounce(id, attempt)   "run job <id> now"
///   follower  -> submitter kServeJobDone(id, attempt, ...)  per-job completion
///   submitter -> follower  kServeJobFailed(id, attempt, ..) cancel that job
///   submitter -> follower  kServeHealLink(peer)             re-link with peer
///   follower  -> submitter kServeLinkHealed(peer, ...)      heal finished
///   submitter -> follower  kServeShutdown                   drain and exit
/// Both follower replies end in one status report (PutStatusReport,
/// net/message.h), and the submitter reads them through one bounded reply
/// wait. Every control send, from either role and any thread, goes
/// through one locked helper.
///
/// Party 0 drives with SubmitJob()/AnnounceShutdown(); every other party
/// sits in Serve(), building its local view of each announced job from a
/// caller-supplied factory. Any party dying mid-job surfaces as
/// kUnavailable on the survivors (never SIGPIPE — see SocketChannel), and
/// a follower treats control-stream loss as its shutdown signal (or, with
/// retry enabled, as a link failure to heal).
///
/// Failure containment: a failed job does NOT take the daemon down. The
/// submitter broadcasts kServeJobFailed so followers cancel that job's
/// streams, still collects every follower's completion report (bounded by
/// `control_deadline_ms`), and — when the failure is retryable and the
/// retry policy allows — HEALS the sick links and re-announces the same
/// job id on the next attempt's streams. Healing re-runs the mesh
/// identification handshake and the SMC session establishment on ONLY the
/// failed link (PartyMesh::ReestablishLink + ReestablishSession), so a
/// follower restart never forces the rest of the fleet to restart or
/// re-key. The redial is bounded by the PartyMeshOptions the mesh was
/// established with, the session re-exchange by `control_deadline_ms`.
/// The heal model assumes a dead peer's TCP links actually fail (crash,
/// kill, close); a silent partition surfaces as the round deadline instead
/// and heals once the transport reports the loss.
class PartyServer {
 public:
  /// Chaos hook: wrap the mesh link to `peer` in a FaultInjectingChannel
  /// before muxing it, so one scripted fault exercises the daemon's whole
  /// containment path (used by chaos_test and serve_test). A healed link
  /// is NOT re-wrapped — the heal replaces the wrapped channel with the
  /// fresh raw socket.
  struct LinkFault {
    size_t peer = 0;
    FaultSchedule schedule;
  };

  struct Options {
    SmcOptions smc;
    /// Receive deadline for control-plane waits with a known bound: the
    /// Start-time and heal-time session establishment and the submitter's
    /// per-job completion collection. A heal reply may take this plus the
    /// mesh's larger link budget (the follower redials, then re-keys). A
    /// crashed or stalled peer then surfaces as kDeadlineExceeded instead
    /// of wedging the daemon. Followers' idle wait for the next announce
    /// is NOT bounded (legitimately indefinite). 0 or negative disables
    /// the bound.
    int control_deadline_ms = 10000;
    /// Server-level job retry budget, used when a submitted job's own
    /// options carry no policy (ProtocolOptions::retry.max_attempts <= 1).
    /// Followers consult max_attempts too: > 1 opts them into healing a
    /// lost control link instead of treating the loss as shutdown.
    RetryPolicy retry;
    /// Scripted link faults (normally empty).
    std::vector<LinkFault> link_faults;
  };

  /// Per-party outcome of a follower's Serve() loop.
  struct ServeReport {
    uint64_t jobs_ok = 0;
    uint64_t jobs_failed = 0;
    /// OK after a clean shutdown (kServeShutdown, RequestStop, or the
    /// submitter closing its links); the transport/protocol error that
    /// ended the loop otherwise.
    Status status;
  };

  /// Builds each follower's local job for one announced job id. Called on
  /// the follower's dedicated job-runner thread, one job at a time (a
  /// retried id is requested again — the factory must be repeatable).
  using JobFactory = std::function<Result<ClusteringJob>(uint32_t job_id)>;
  /// Completion hook, called after each job attempt with its id and
  /// outcome.
  using JobObserver =
      std::function<void(uint32_t job_id, const Result<RunOutcome>& outcome)>;

  /// Hard cap on attempts per job: the attempt number rides an 8-bit wire
  /// field and the low byte of the per-attempt stream id.
  static constexpr uint32_t kMaxAttempts = 256;

  /// The mux stream id job `job_id`'s attempt `attempt` runs on. Distinct
  /// per attempt and strictly increasing across a submitter's lifetime, so
  /// the mux watermark (ChannelMux's retired-id cap) stays valid.
  static uint32_t StreamId(uint32_t job_id, uint32_t attempt) {
    return (job_id << 8) | (attempt & 0xFFu);
  }

  /// Takes ownership of the established mesh, muxes every link, and runs
  /// the one-time pairwise session establishment (all parties call Start
  /// concurrently, like ConnectMesh).
  static Result<PartyServer> Start(PartyMesh mesh, SecureRng rng,
                                   const Options& options);
  // Defined out of line: a `= {}` default argument cannot value-initialize
  // Options here, since its member initializers are only parsed once the
  // enclosing class is complete.
  static Result<PartyServer> Start(PartyMesh mesh, SecureRng rng);

  PartyServer(PartyServer&&) = default;
  PartyServer& operator=(PartyServer&&) = default;
  PartyServer(const PartyServer&) = delete;
  PartyServer& operator=(const PartyServer&) = delete;

  ~PartyServer();

  size_t index() const { return mesh_.index(); }
  size_t parties() const { return mesh_.parties(); }
  /// Jobs completed on this server since Start (all sharing one keygen).
  uint64_t jobs_completed() const { return jobs_completed_->load(); }
  /// Retry attempts initiated since Start (submitter only; 0 means every
  /// job succeeded on its first attempt).
  uint64_t job_retries() const { return job_retries_->load(); }

  /// Point-in-time per-link health snapshot, indexed by peer (this
  /// party's own slot is present but empty). Counters are cumulative since
  /// Start; idle_seconds is measured to now.
  std::vector<LinkHealth> link_health() const;

  /// Submitter only (party 0): announces the next job id to every peer,
  /// runs `job` over per-attempt streams, then waits for every follower's
  /// completion report (each wait bounded by `control_deadline_ms`). `job`
  /// must be this party's multiparty view (party_index 0, party_count ==
  /// parties()). On a retryable failure, sleeps the policy backoff, heals
  /// every suspect link, and re-announces the SAME job id (fresh attempt
  /// number, fresh streams) until the attempt budget runs out — the
  /// effective policy is the job's own ProtocolOptions::retry when set,
  /// the server Options::retry otherwise. Terminal failures (config and
  /// logic errors) never retry. Either way the daemon stays usable for
  /// the next SubmitJob. Per-link health lives in link_health().
  Result<RunOutcome> SubmitJob(const ClusteringJob& job);

  /// Followers only: blocks serving announced jobs until the submitter
  /// sends kServeShutdown, closes its links, or RequestStop() is called.
  /// `make_job` builds this party's local view of each announced job;
  /// `on_done` (optional) observes each outcome.
  ServeReport Serve(const JobFactory& make_job,
                    const JobObserver& on_done = nullptr);

  /// Submitter only: tells every follower to drain and exit Serve().
  Status AnnounceShutdown();

  /// Async-signal-safe stop (safe from a SIGTERM handler): shuts down the
  /// underlying sockets, which fails every pending channel operation with
  /// kUnavailable, unwinding Serve() and any in-flight job. Other methods
  /// must not be called from signal context.
  void RequestStop();

  /// True once RequestStop ran — lets callers tell a requested shutdown's
  /// kUnavailable from a real transport failure.
  bool stop_requested() const { return stop_requested_->load(); }

 private:
  /// Cross-thread job bookkeeping shared between a follower's control loop
  /// and its job-runner thread, keyed by per-attempt STREAM id (so a
  /// cancellation of attempt N can never kill the same job's attempt
  /// N+1): which attempts' streams are live (a kServeJobFailed Close()s
  /// them, failing the attempt's blocked round), and which the submitter
  /// already cancelled (so an attempt that has not started yet aborts
  /// immediately).
  struct JobControl {
    std::mutex mu;
    std::map<uint32_t, std::vector<Channel*>> inflight;
    std::set<uint32_t> remote_failed;
  };

  /// Per-link health counters (guarded by `mu`), aggregated from each
  /// finished attempt's stream stats plus heal outcomes.
  struct HealthState {
    mutable std::mutex mu;
    std::vector<LinkHealth> links;
    std::vector<std::chrono::steady_clock::time_point> last_activity;
  };

  explicit PartyServer(PartyMesh mesh) : mesh_(std::move(mesh)) {}

  /// Opens stream `stream_id` on every peer link and runs `job` over an
  /// AdoptMesh runtime sharing the Start-time sessions. After every run
  /// (success or failure) the randomizer pools adapt their steady-state
  /// depth to the observed demand and the streams' traffic feeds the
  /// per-link health counters.
  Result<RunOutcome> RunJob(uint32_t stream_id, const ClusteringJob& job);

  /// Submitter: best-effort kServeJobFailed broadcast for one attempt.
  void BroadcastJobFailed(uint32_t job_id, uint32_t attempt,
                          const Status& status);

  /// Both roles: the one control-plane send. Serializes every sender on
  /// `control_send_mu_` (a follower's job runner and control loop share
  /// the submitter link); kUnavailable when the link to `peer` is down.
  Status SendControl(size_t peer, uint16_t type, const ByteWriter& payload);

  /// Submitter: the one bounded wait for a follower's reply. Reads
  /// `follower`'s control stream for at most `deadline_ms` (unbounded when
  /// <= 0) until a `type` reply arrives whose header `is_current` accepts,
  /// skipping late replies of the other kind and those `is_current`
  /// rejects as stale (an error from it ends the wait). Ok when the
  /// follower succeeded; its reported status, prefixed "party <follower>
  /// could not <what>", or the transport/deadline error otherwise.
  Status AwaitReply(size_t follower, uint16_t type, int deadline_ms,
                    const std::string& what,
                    const std::function<Result<bool>(ByteReader&)>& is_current);

  /// Both roles: attaches the mesh link to `peer` the one way Start and
  /// HealLink share — publish its fd for RequestStop, wrap it in the
  /// `faults` scripted for `peer`, layer a fresh mux over it, and open
  /// control stream 0.
  Status AttachLink(size_t peer, const std::vector<LinkFault>& faults);

  /// Both roles: tears this party's side of the link to `peer` fully down
  /// (control stream, mux, fault wrappers, socket) and rebuilds it —
  /// PartyMesh::ReestablishLink on the mesh's own budget, AttachLink, then
  /// ReestablishSession over the new control stream. The two endpoints of
  /// a healed link run this concurrently; a relaunched peer runs a full
  /// Start instead, which this side cannot distinguish (by design). On
  /// failure the slot stays down (muxes_[peer] == nullptr) and jobs fail
  /// kUnavailable until a later heal succeeds.
  Status HealLink(size_t peer);

  /// Submitter: heals every flagged link before a retry. First asks every
  /// healthy follower (kServeHealLink) to heal ITS side of the suspect's
  /// links — a relaunched peer re-runs a full Establish, which needs all
  /// P-1 counterparts answering — then heals this party's own link, then
  /// collects the followers' replies. Clears each suspect flag on success.
  Status HealSuspectLinks(std::vector<bool>* suspect);

  /// Records `status` as the link's last_error in the health state.
  void NoteLinkError(size_t peer, const Status& status);

  PartyMesh mesh_;
  /// Fault-wrapped links, per peer (empty vectors normally); cleared for a
  /// peer when its link heals.
  std::vector<std::vector<std::unique_ptr<Channel>>> wrapped_;
  std::vector<std::unique_ptr<ChannelMux>> muxes_;   // per peer; null at own
  std::vector<std::unique_ptr<Channel>> control_;    // stream 0 per peer
  int control_deadline_ms_ = 10000;
  RetryPolicy retry_;
  SmcOptions smc_;  // retained so a heal re-establishes like Start did
  std::shared_ptr<JobControl> job_control_ = std::make_shared<JobControl>();
  std::shared_ptr<HealthState> health_ = std::make_shared<HealthState>();
  /// Holds the Start-time sessions and this party's root rng; per-job
  /// runtimes adopt its shared_sessions() and fork its rng.
  std::unique_ptr<PartyRuntime> setup_;
  // Heap-held so PartyServer stays movable (Result<PartyServer> needs it).
  std::unique_ptr<std::mutex> control_send_mu_ = std::make_unique<std::mutex>();
  std::unique_ptr<std::mutex> rng_mu_ = std::make_unique<std::mutex>();
  std::shared_ptr<std::atomic<uint64_t>> jobs_completed_ =
      std::make_shared<std::atomic<uint64_t>>(0);
  std::shared_ptr<std::atomic<uint64_t>> job_retries_ =
      std::make_shared<std::atomic<uint64_t>>(0);
  uint32_t next_job_id_ = 1;  // stream 0 is the control stream
  /// Socket fd per peer (-1 at this party's own slot or while a link is
  /// down), atomics so RequestStop can ::shutdown() them from signal
  /// context while a heal swaps a link out. A heal stores -1 BEFORE
  /// closing the old socket, so the handler never touches a dying fd.
  std::unique_ptr<std::atomic<int>[]> link_fds_;
  size_t fd_count_ = 0;
  std::shared_ptr<std::atomic<bool>> stop_requested_ =
      std::make_shared<std::atomic<bool>>(false);
};

}  // namespace ppdbscan

#endif  // PPDBSCAN_CORE_SERVE_H_
