#include "core/serve.h"

#include <sys/socket.h>

#include <algorithm>
#include <future>
#include <string>
#include <thread>
#include <utility>

#include "common/serialize.h"
#include "common/thread_pool.h"
#include "core/wire.h"
#include "net/message.h"

namespace ppdbscan {

namespace {

/// Stream id of the control plane on every mux; job streams start above it
/// (job ids start at 1 and the attempt number occupies the low byte).
constexpr uint32_t kControlStream = 0;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

bool RetryableStatusCode(StatusCode code) {
  return code == StatusCode::kUnavailable ||
         code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kDataLoss;
}

bool RetryableStatus(const Status& status) {
  if (status.ok()) return false;
  if (RetryableStatusCode(status.code())) return true;
  if (status.code() != StatusCode::kAborted) return false;
  // An abort frame relays the originating party's failure; its class rides
  // the structured origin code (Status::origin_code, threaded through the
  // abort frame's leading byte). Inherit that class: a configuration or
  // logic error fails identically on every attempt, so retrying it only
  // burns the budget. Never classify on the message text — a transient
  // failure whose detail happens to mention "INTERNAL" (a hostname, a
  // quoted path) must still retry.
  switch (status.origin_code()) {
    case StatusCode::kFailedPrecondition:
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
    case StatusCode::kInternal:
      return false;  // deterministic at the origin
    default:
      return true;  // transient, nested-abort, or unknown origin
  }
}

uint32_t BackoffDelayMs(const RetryPolicy& policy, uint32_t retry_index) {
  // Floor of 1ms: a zero-configured backoff must still yield the CPU
  // between attempts instead of busy-spinning the retry budget away.
  const uint64_t base = std::max<uint64_t>(policy.backoff_ms, 1);
  uint64_t delay = base;
  const uint64_t cap = std::max<uint64_t>(policy.max_backoff_ms, base);
  for (uint32_t i = 0; i < retry_index && delay < cap; ++i) delay *= 2;
  delay = std::min(delay, cap);
  const uint64_t jitter =
      SplitMix64(policy.jitter_seed ^ retry_index) % (delay / 2 + 1);
  const uint64_t result = delay - jitter;
  return static_cast<uint32_t>(result == 0 ? 1 : result);
}

PartyServer::~PartyServer() = default;

Result<PartyServer> PartyServer::Start(PartyMesh mesh, SecureRng rng) {
  return Start(std::move(mesh), std::move(rng), Options());
}

Result<PartyServer> PartyServer::Start(PartyMesh mesh, SecureRng rng,
                                       const Options& options) {
  const size_t p = mesh.parties();
  const size_t index = mesh.index();
  if (p < 2) {
    return Status::InvalidArgument("a party server needs >= 2 mesh parties");
  }
  PartyServer server{std::move(mesh)};
  server.control_deadline_ms_ = options.control_deadline_ms;
  server.smc_ = options.smc;
  server.retry_ = options.retry;
  server.retry_.max_attempts =
      std::min(std::max<uint32_t>(server.retry_.max_attempts, 1),
               kMaxAttempts);
  server.wrapped_.resize(p);
  server.muxes_.resize(p);
  server.control_.resize(p);
  server.link_fds_ = std::make_unique<std::atomic<int>[]>(p);
  server.fd_count_ = p;
  for (size_t j = 0; j < p; ++j) server.link_fds_[j].store(-1);
  server.health_->links.resize(p);
  for (size_t j = 0; j < p; ++j) server.health_->links[j].peer = j;
  server.health_->last_activity.assign(p, std::chrono::steady_clock::now());
  for (size_t j = 0; j < p; ++j) {
    if (j == index) continue;
    if (server.mesh_.link(j) == nullptr) {
      return Status::InvalidArgument("mesh is missing the link to party " +
                                     std::to_string(j));
    }
    PPD_RETURN_IF_ERROR(server.AttachLink(j, options.link_faults));
  }
  // The daemon's one and only key generation + exchange, over the control
  // streams; every job of its lifetime adopts these sessions. Bounded: a
  // peer that dies during establishment must surface as a named error,
  // not hang Start forever. The deadline is cleared afterwards — a
  // follower's idle wait for the next announce is legitimately unbounded.
  const int establish_deadline_ms =
      options.control_deadline_ms > 0 ? options.control_deadline_ms : -1;
  std::vector<Channel*> control_links(p, nullptr);
  for (size_t j = 0; j < p; ++j) {
    if (j == index) continue;
    control_links[j] = server.control_[j].get();
    control_links[j]->set_recv_deadline_ms(establish_deadline_ms);
  }
  Result<PartyRuntime> setup = PartyRuntime::ConnectMesh(
      control_links, index, std::move(rng), options.smc);
  for (size_t j = 0; j < p; ++j) {
    if (j != index) control_links[j]->set_recv_deadline_ms(-1);
  }
  PPD_RETURN_IF_ERROR(setup.status());
  server.setup_ = std::make_unique<PartyRuntime>(std::move(*setup));
  return server;
}

std::vector<LinkHealth> PartyServer::link_health() const {
  std::lock_guard<std::mutex> lock(health_->mu);
  std::vector<LinkHealth> snapshot = health_->links;
  const auto now = std::chrono::steady_clock::now();
  for (size_t j = 0; j < snapshot.size(); ++j) {
    snapshot[j].idle_seconds =
        std::chrono::duration<double>(now - health_->last_activity[j]).count();
  }
  snapshot[mesh_.index()].idle_seconds = 0;  // own slot: not a link
  return snapshot;
}

Status PartyServer::AttachLink(size_t peer,
                               const std::vector<LinkFault>& faults) {
  SocketChannel* link = mesh_.link(peer);
  link_fds_[peer].store(link->native_handle());
  // Chaos hook: scripted faults wrap the raw link, underneath the mux, so
  // one misbehaving frame exercises every layer above.
  Channel* base = link;
  for (const LinkFault& fault : faults) {
    if (fault.peer != peer) continue;
    wrapped_[peer].push_back(
        std::make_unique<FaultInjectingChannel>(link, fault.schedule));
    base = wrapped_[peer].back().get();
  }
  muxes_[peer] = std::make_unique<ChannelMux>(*base);
  PPD_ASSIGN_OR_RETURN(control_[peer],
                       muxes_[peer]->OpenStream(kControlStream));
  return Status::Ok();
}

Status PartyServer::SendControl(size_t peer, uint16_t type,
                                const ByteWriter& payload) {
  std::lock_guard<std::mutex> lock(*control_send_mu_);
  if (control_[peer] == nullptr) {
    return Status::Unavailable("the link to party " + std::to_string(peer) +
                               " is down");
  }
  return SendMessage(*control_[peer], type, payload);
}

void PartyServer::NoteLinkError(size_t peer, const Status& status) {
  if (status.ok() || peer >= health_->links.size()) return;
  std::lock_guard<std::mutex> lock(health_->mu);
  health_->links[peer].last_error = status.ToString();
}

Result<RunOutcome> PartyServer::RunJob(uint32_t stream_id,
                                       const ClusteringJob& job) {
  const size_t p = parties();
  std::vector<std::unique_ptr<Channel>> streams(p);
  std::vector<Channel*> links(p, nullptr);
  for (size_t j = 0; j < p; ++j) {
    if (j == index()) continue;
    if (muxes_[j] == nullptr) {
      // A failed heal left this link down; only a later successful heal
      // brings it (and job running) back.
      return Status::Unavailable("the link to party " + std::to_string(j) +
                                 " is down");
    }
    PPD_ASSIGN_OR_RETURN(streams[j], muxes_[j]->OpenStream(stream_id));
    links[j] = streams[j].get();
  }
  // Register the live streams so the control loop can cancel this attempt
  // (kServeJobFailed closes them, failing any blocked round kUnavailable)
  // — and bail right away if the cancellation already arrived.
  {
    std::lock_guard<std::mutex> lock(job_control_->mu);
    if (job_control_->remote_failed.erase(stream_id) > 0) {
      return Status::Aborted("job " + std::to_string(stream_id >> 8) +
                             " was cancelled by the submitter's failure "
                             "broadcast before it started");
    }
    std::vector<Channel*>& registered = job_control_->inflight[stream_id];
    for (size_t j = 0; j < p; ++j) {
      if (links[j] != nullptr) registered.push_back(links[j]);
    }
  }
  Result<RunOutcome> outcome = [&]() -> Result<RunOutcome> {
    std::unique_ptr<SecureRng> rng;
    {
      std::lock_guard<std::mutex> lock(*rng_mu_);
      rng = std::make_unique<SecureRng>(setup_->rng().Fork());
    }
    PPD_ASSIGN_OR_RETURN(
        PartyRuntime runtime,
        PartyRuntime::AdoptMesh(links, index(), setup_->shared_sessions(),
                                std::move(*rng)));
    return runtime.Run(job);
  }();
  {
    // Deregister before `streams` destruct so the control loop can never
    // Close() a freed channel.
    std::lock_guard<std::mutex> lock(job_control_->mu);
    job_control_->inflight.erase(stream_id);
  }
  // Fold this attempt's per-stream traffic into the cumulative per-link
  // health counters (failures included — a deadline trip is exactly what
  // the health summary exists to surface).
  {
    std::lock_guard<std::mutex> lock(health_->mu);
    for (size_t j = 0; j < p; ++j) {
      if (links[j] == nullptr) continue;
      const ChannelStats& s = links[j]->stats();
      LinkHealth& h = health_->links[j];
      h.frames_sent += s.frames_sent;
      h.frames_received += s.frames_received;
      h.bytes_sent += s.bytes_sent;
      h.bytes_received += s.bytes_received;
      h.deadline_trips += s.deadline_trips;
      h.aborts_seen += s.aborts_seen;
      if (s.frames_sent + s.frames_received > 0) {
        health_->last_activity[j] = std::chrono::steady_clock::now();
      }
    }
  }
  // Adapt the reused sessions' randomizer-pool depth to this job's
  // observed factor demand (grow toward big batches, shrink after small
  // ones) — run even on failure, the demand data is just as real.
  for (const std::shared_ptr<SmcSession>& session :
       setup_->shared_sessions()) {
    if (session != nullptr) session->AdaptRandomizerPool();
  }
  if (!outcome.ok()) return outcome.status();
  jobs_completed_->fetch_add(1);
  return outcome;
  // `streams` retire their mux ids on destruction; a late frame for a
  // finished attempt is dropped instead of leaking into the next one.
}

Result<RunOutcome> PartyServer::SubmitJob(const ClusteringJob& job) {
  if (index() != 0) {
    return Status::FailedPrecondition(
        "only party 0 submits jobs; followers call Serve()");
  }
  const uint32_t id = next_job_id_++;
  // The job's own negotiated policy wins when it asks for retries; the
  // server-level policy is the fallback.
  RetryPolicy policy =
      job.options.retry.max_attempts > 1 ? job.options.retry : retry_;
  policy.max_attempts =
      std::min(std::max<uint32_t>(policy.max_attempts, 1), kMaxAttempts);
  std::vector<bool> suspect(parties(), false);
  Status last_error = Status::Internal("unreached");
  for (uint32_t attempt = 0; attempt < policy.max_attempts; ++attempt) {
    if (stop_requested_->load()) {
      return Status::Unavailable("job abandoned: stop requested");
    }
    if (attempt > 0) {
      job_retries_->fetch_add(1);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(BackoffDelayMs(policy, attempt - 1)));
      Status healed = HealSuspectLinks(&suspect);
      if (!healed.ok()) {
        last_error = healed;
        if (!RetryableStatus(healed)) break;
        continue;  // consumed an attempt; maybe the next heal succeeds
      }
    }
    ByteWriter announce;
    announce.PutU32(id);
    announce.PutU8(static_cast<uint8_t>(attempt));
    for (size_t j = 1; j < parties(); ++j) {
      if (!SendControl(j, wire::kServeJobAnnounce, announce).ok()) {
        suspect[j] = true;  // the attempt will fail; heal next
      }
    }
    Result<RunOutcome> outcome = RunJob(StreamId(id, attempt), job);
    if (!outcome.ok()) {
      // Containment: tell every follower this attempt is dead so they
      // cancel its streams and requeue for the next announce instead of
      // blocking in a wedged protocol round.
      BroadcastJobFailed(id, attempt, outcome.status());
    }
    // Always collect the completion reports — bounded per follower by the
    // control deadline — so the control stream stays in sync for the next
    // attempt (or job) even when this one failed, and so sick links can be
    // told apart from healthy ones.
    const uint32_t stream = StreamId(id, attempt);
    std::vector<Status> done(parties(), Status::Ok());
    for (size_t j = 1; j < parties(); ++j) {
      done[j] = AwaitReply(
          j, wire::kServeJobDone, control_deadline_ms_,
          "complete job " + std::to_string(id),
          [&](ByteReader& reader) -> Result<bool> {
            PPD_ASSIGN_OR_RETURN(uint32_t done_id, reader.GetU32());
            PPD_ASSIGN_OR_RETURN(uint8_t done_attempt, reader.GetU8());
            const uint32_t done_stream = StreamId(done_id, done_attempt);
            if (done_stream > stream) {
              return Status::DataLoss(
                  "party " + std::to_string(j) + " reported completion of "
                  "job " + std::to_string(done_id) + " attempt " +
                  std::to_string(done_attempt) + ", expected job " +
                  std::to_string(id) + " attempt " + std::to_string(attempt));
            }
            return done_stream == stream;  // earlier attempts' are stale
          });
    }
    Status round = outcome.status();
    for (size_t j = 1; j < parties(); ++j) {
      if (round.ok() && !done[j].ok()) round = done[j];
    }
    if (round.ok()) return outcome;
    last_error = round;
    // Flag the links the next attempt must heal: a dead mux is definitive;
    // a follower whose report never arrived (or arrived naming a transport
    // failure) sits behind a sick link too.
    for (size_t j = 1; j < parties(); ++j) {
      const Status link_status = muxes_[j] == nullptr
                                     ? Status::Unavailable("link is down")
                                     : muxes_[j]->status();
      if (!link_status.ok() || RetryableStatusCode(done[j].code())) {
        suspect[j] = true;
        NoteLinkError(j, !link_status.ok() ? link_status : done[j]);
      }
    }
    if (!RetryableStatus(round)) break;  // terminal: retrying cannot help
  }
  return last_error;
}

void PartyServer::BroadcastJobFailed(uint32_t job_id, uint32_t attempt,
                                     const Status& status) {
  ByteWriter failed;
  failed.PutU32(job_id);
  failed.PutU8(static_cast<uint8_t>(attempt));
  failed.PutU8(static_cast<uint8_t>(status.code()));
  const std::string& message = status.message();
  failed.PutBytes(std::vector<uint8_t>(message.begin(), message.end()));
  for (size_t j = 1; j < parties(); ++j) {
    // Best effort: a dead link already fails the follower's job on its own.
    (void)SendControl(j, wire::kServeJobFailed, failed);
  }
}

Status PartyServer::AwaitReply(
    size_t follower, uint16_t type, int deadline_ms, const std::string& what,
    const std::function<Result<bool>(ByteReader&)>& is_current) {
  if (control_[follower] == nullptr) {
    return Status::Unavailable("the link to party " +
                               std::to_string(follower) + " is down");
  }
  Channel& control = *control_[follower];
  control.set_recv_deadline_ms(deadline_ms > 0 ? deadline_ms : -1);
  const std::string party = "party " + std::to_string(follower);
  const Status result = [&]() -> Status {
    while (true) {
      PPD_ASSIGN_OR_RETURN(Message msg, RecvMessage(control));
      const bool reply = msg.type == wire::kServeJobDone ||
                         msg.type == wire::kServeLinkHealed;
      if (reply && msg.type != type) continue;  // late reply of the other kind
      if (msg.type != type) {
        return Status::DataLoss("unexpected control message type " +
                                std::to_string(msg.type) +
                                " while waiting for " + party + " to " + what);
      }
      ByteReader reader(msg.payload);
      PPD_ASSIGN_OR_RETURN(bool current, is_current(reader));
      if (!current) continue;
      Status report;
      PPD_RETURN_IF_ERROR(GetStatusReport(reader, &report));
      if (report.ok()) return report;
      // Keep the reported origin: retry classification reads it.
      return Status(report.code(), party + " could not " + what + ": " +
                                       report.message())
          .WithOrigin(report.origin_code());
    }
  }();
  control.set_recv_deadline_ms(-1);
  return result;
}

Status PartyServer::HealLink(size_t peer) {
  // Publish the fd as gone BEFORE closing anything, so a concurrent
  // RequestStop never shuts down a dying (possibly reused) descriptor.
  link_fds_[peer].store(-1);
  // Tear this side down fully: the control stream, then the mux (whose
  // Shutdown closes the base channel and joins the reader), then any chaos
  // wrappers — a healed link is the fresh raw socket, scripted faults do
  // not survive a heal. Closing our end also unblocks a peer still parked
  // in a Recv on the old link.
  control_[peer].reset();
  muxes_[peer].reset();
  wrapped_[peer].clear();
  Status healed = mesh_.ReestablishLink(peer);
  if (healed.ok()) healed = AttachLink(peer, {});
  if (healed.ok()) {
    // Re-run session establishment on ONLY this link, bounded like Start's.
    control_[peer]->set_recv_deadline_ms(
        control_deadline_ms_ > 0 ? control_deadline_ms_ : -1);
    {
      std::lock_guard<std::mutex> lock(*rng_mu_);
      healed = setup_->ReestablishSession(peer, *control_[peer], smc_);
    }
    control_[peer]->set_recv_deadline_ms(-1);
  }
  if (!healed.ok()) {
    NoteLinkError(peer, healed);
    return healed;
  }
  {
    std::lock_guard<std::mutex> lock(health_->mu);
    health_->links[peer].reconnects += 1;
    health_->links[peer].last_error.clear();
    health_->last_activity[peer] = std::chrono::steady_clock::now();
  }
  return Status::Ok();
}

Status PartyServer::HealSuspectLinks(std::vector<bool>* suspect) {
  // Refresh suspicion from transport state: a mux whose reader died is
  // sick even when the job's failure surfaced through another link first.
  for (size_t j = 1; j < parties(); ++j) {
    if (muxes_[j] == nullptr || !muxes_[j]->status().ok()) {
      (*suspect)[j] = true;
    }
  }
  // A follower's heal redials on the mesh budget (either side of the
  // link), then re-keys on the control deadline.
  const PartyMeshOptions& budget = mesh_.options();
  const int heal_reply_ms =
      std::max(control_deadline_ms_, 0) +
      std::max({budget.connect_timeout_ms, budget.accept_timeout_ms, 0});
  Status first_error;
  for (size_t peer = 1; peer < parties(); ++peer) {
    if (!(*suspect)[peer]) continue;
    // Ask every healthy follower to heal ITS side of the suspect's links
    // first: a relaunched peer re-runs a full Establish, which blocks
    // until all P-1 counterparts answer its handshakes — so they must be
    // answering before (not after) this party's own redial completes.
    // Followers whose link to the suspect is actually fine reply
    // immediately without touching it.
    std::vector<bool> asked(parties(), false);
    ByteWriter heal;
    heal.PutU32(static_cast<uint32_t>(peer));
    for (size_t s = 1; s < parties(); ++s) {
      if (s == peer || (*suspect)[s] || control_[s] == nullptr) continue;
      if (SendControl(s, wire::kServeHealLink, heal).ok()) {
        asked[s] = true;
      } else {
        (*suspect)[s] = true;  // handled later in this loop (s > peer) or
                               // on the next attempt's heal round
      }
    }
    const Status healed = HealLink(peer);
    Status collected;
    for (size_t s = 1; s < parties(); ++s) {
      if (!asked[s]) continue;
      const Status reply = AwaitReply(
          s, wire::kServeLinkHealed, heal_reply_ms,
          "heal its link to party " + std::to_string(peer),
          [peer](ByteReader& reader) -> Result<bool> {
            PPD_ASSIGN_OR_RETURN(uint32_t healed_peer, reader.GetU32());
            return healed_peer == peer;  // earlier heal rounds' are stale
          });
      if (!reply.ok()) {
        (*suspect)[s] = true;
        if (collected.ok()) collected = reply;
      }
    }
    if (!healed.ok()) {
      if (first_error.ok()) first_error = healed;
      continue;
    }
    if (!collected.ok()) {
      if (first_error.ok()) first_error = collected;
      continue;
    }
    (*suspect)[peer] = false;
  }
  return first_error;
}

PartyServer::ServeReport PartyServer::Serve(const JobFactory& make_job,
                                            const JobObserver& on_done) {
  ServeReport report;
  if (index() == 0) {
    report.status = Status::FailedPrecondition(
        "party 0 is the submitter; it calls SubmitJob, not Serve");
    return report;
  }
  if (make_job == nullptr) {
    report.status = Status::InvalidArgument("Serve needs a job factory");
    return report;
  }
  // Job tasks block on cross-party traffic, so they must NOT run on the
  // shared global pool (whose workers the protocol's ParallelFor needs,
  // and which has a single worker on a one-core host — two in-process
  // followers parked there would starve each other forever). A dedicated
  // one-worker runner keeps the control loop responsive and serializes
  // this follower's jobs, matching the submitter's one-at-a-time protocol.
  ThreadPool job_runner(1);
  std::vector<std::future<void>> inflight;
  // Waits out every submitted job. A heal drains first, so no runner
  // touches the links while they are rebuilt.
  const auto drain = [&inflight] {
    for (std::future<void>& f : inflight) {
      if (f.valid()) f.wait();
    }
    inflight.clear();
  };
  std::mutex counters_mu;
  while (true) {
    // Re-fetched every iteration: a heal swaps the control stream out.
    Channel* control = control_[0].get();
    if (control == nullptr) {
      report.status = Status::Unavailable("the submitter link is down");
      break;
    }
    Result<Message> msg = RecvMessage(*control);
    if (!msg.ok()) {
      const bool stopped = stop_requested_->load();
      if (!stopped && retry_.max_attempts > 1 &&
          RetryableStatusCode(msg.status().code())) {
        // Self-healing: with retry enabled, control loss means the
        // submitter link failed (either side's socket) and the submitter
        // will redial before re-announcing — so heal instead of exiting,
        // and a follower restart elsewhere in the fleet never cascades
        // into this one shutting down.
        drain();
        const Status healed = HealLink(0);
        if (healed.ok()) continue;
        report.status = healed;
        break;
      }
      // The submitter closing its end (or RequestStop shutting our sockets
      // down) is the daemon's normal exit, not an error.
      const bool graceful =
          stopped || msg.status().code() == StatusCode::kUnavailable;
      if (!graceful) report.status = msg.status();
      break;
    }
    if (msg->type == wire::kServeShutdown) break;
    if (msg->type == wire::kServeHealLink) {
      // The submitter is healing `peer`'s links fleet-wide before a retry.
      // If our side of that link is actually broken, rebuild it (the peer
      // is re-accepting/re-connecting right now); if it is healthy —
      // single-link failure elsewhere — leave it untouched. Either way
      // the reply tells the submitter when this side is ready.
      ByteReader reader(msg->payload);
      Result<uint32_t> peer = reader.GetU32();
      if (!peer.ok() || *peer >= parties() || *peer == index()) {
        report.status = peer.ok() ? Status::DataLoss(
                                        "heal request names party " +
                                        std::to_string(*peer))
                                  : peer.status();
        break;
      }
      drain();
      Status healed;
      if (muxes_[*peer] == nullptr || !muxes_[*peer]->status().ok()) {
        healed = HealLink(*peer);
      }
      ByteWriter reply;
      reply.PutU32(*peer);
      PutStatusReport(reply, healed);
      (void)SendControl(0, wire::kServeLinkHealed, reply);
      continue;
    }
    if (msg->type == wire::kServeJobFailed) {
      // Containment: the submitter declared an attempt dead. Close its
      // live streams so a runner blocked in one of that attempt's rounds
      // fails immediately, and remember the stream id in case the runner
      // has not even started it yet. The daemon itself keeps serving.
      ByteReader reader(msg->payload);
      Result<uint32_t> failed_id = reader.GetU32();
      Result<uint8_t> failed_attempt =
          failed_id.ok() ? reader.GetU8() : failed_id.status();
      if (!failed_attempt.ok()) {
        report.status = failed_attempt.status();
        break;
      }
      const uint32_t failed_stream = StreamId(*failed_id, *failed_attempt);
      std::lock_guard<std::mutex> lock(job_control_->mu);
      auto it = job_control_->inflight.find(failed_stream);
      if (it != job_control_->inflight.end()) {
        for (Channel* stream : it->second) stream->Close();
      } else {
        job_control_->remote_failed.insert(failed_stream);
      }
      continue;
    }
    if (msg->type != wire::kServeJobAnnounce) {
      report.status = Status::DataLoss(
          "unexpected control message type " + std::to_string(msg->type));
      break;
    }
    ByteReader reader(msg->payload);
    Result<uint32_t> job_id = reader.GetU32();
    Result<uint8_t> attempt = job_id.ok() ? reader.GetU8() : job_id.status();
    if (!attempt.ok()) {
      report.status = attempt.status();
      break;
    }
    const uint32_t id = *job_id;
    const uint32_t stream_id = StreamId(id, *attempt);
    {
      // Attempts are serial: a new announce means every earlier attempt
      // was fully collected, so stale cancellation marks can be dropped.
      std::lock_guard<std::mutex> lock(job_control_->mu);
      job_control_->remote_failed.erase(
          job_control_->remote_failed.begin(),
          job_control_->remote_failed.lower_bound(stream_id));
    }
    // Each job runs as a pool task over its own mux streams, so a slow job
    // never blocks the control loop from hearing the next announce (or the
    // shutdown). The done report is sent over whatever control stream is
    // current at completion (a heal may have swapped it mid-job — the
    // control loop drains runners before healing, so the read is ordered).
    inflight.push_back(job_runner.Submit([this, id, stream_id, &make_job,
                                          &on_done, &report, &counters_mu] {
      Result<RunOutcome> outcome = [&]() -> Result<RunOutcome> {
        PPD_ASSIGN_OR_RETURN(ClusteringJob job, make_job(id));
        return RunJob(stream_id, job);
      }();
      {
        std::lock_guard<std::mutex> lock(counters_mu);
        if (outcome.ok()) {
          ++report.jobs_ok;
        } else {
          ++report.jobs_failed;
        }
      }
      ByteWriter done;
      done.PutU32(id);
      done.PutU8(static_cast<uint8_t>(stream_id & 0xFFu));
      PutStatusReport(done, outcome.status());
      // Best effort: if the control stream died the loop above ends too.
      (void)SendControl(0, wire::kServeJobDone, done);
      if (on_done != nullptr) on_done(id, outcome);
    }));
  }
  drain();
  return report;
}

Status PartyServer::AnnounceShutdown() {
  if (index() != 0) {
    return Status::FailedPrecondition("only party 0 announces shutdown");
  }
  Status first_error;
  for (size_t j = 1; j < parties(); ++j) {
    const Status sent = SendControl(j, wire::kServeShutdown, ByteWriter());
    if (!sent.ok() && first_error.ok()) first_error = sent;
  }
  return first_error;
}

void PartyServer::RequestStop() {
  // Async-signal-safe by construction: atomic loads/stores plus
  // shutdown(2) (POSIX async-signal-safe). No locks, no allocation, no
  // Channel methods. Slots a heal took down read -1 and are skipped.
  stop_requested_->store(true);
  for (size_t j = 0; j < fd_count_; ++j) {
    const int fd = link_fds_[j].load();
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
}

}  // namespace ppdbscan
