// PartyServer daemon mode (core/serve.h): a three-party TCP mesh serving
// several ClusteringJobs over one set of sessions. Asserts the acceptance
// properties of the serve design: labels byte-identical to the in-process
// MemoryChannel harness, session reuse across jobs (no per-job keygen),
// graceful shutdown on announce and on peer-initiated close, and job
// traffic accounting that matches a dedicated channel.

#include "core/serve.h"

#include <gtest/gtest.h>

#include <optional>
#include <thread>
#include <vector>

#include "core/run.h"
#include "data/fixed_point.h"
#include "data/generators.h"
#include "dbscan/dbscan.h"

namespace ppdbscan {
namespace {

constexpr size_t kParties = 3;

SmcOptions FastSmc() {
  SmcOptions smc;
  smc.paillier_bits = 256;
  smc.rsa_bits = 128;
  return smc;
}

ProtocolOptions FastOptions(const DbscanParams& params) {
  ProtocolOptions options;
  options.params = params;
  options.comparator.kind = ComparatorKind::kIdeal;
  options.comparator.magnitude_bound = RecommendedComparatorBound(2, 1 << 12);
  return options;
}

/// The three parties' round-robin shares of one blob workload, as
/// ready-to-run kMultiparty jobs.
std::vector<ClusteringJob> MakeJobs() {
  SecureRng rng(2718);
  RawDataset raw = MakeBlobs(rng, 2, 8, 2, 0.5, 5.0);
  AddUniformNoise(raw, rng, 3, 7.0);
  FixedPointEncoder enc(4.0);
  Dataset full = *enc.Encode(raw);
  DbscanParams params{*enc.EncodeEpsSquared(1.2), 3};
  ProtocolOptions options = FastOptions(params);
  std::vector<ClusteringJob> jobs;
  for (size_t h = 0; h < kParties; ++h) {
    Dataset share(full.dims());
    for (size_t i = h; i < full.size(); i += kParties) {
      PPD_CHECK(share.Add(full.point(i)).ok());
    }
    jobs.push_back(ClusteringJob::Multiparty(std::move(share), h, kParties,
                                             options));
  }
  return jobs;
}

/// Establishes the three-party loopback mesh (ephemeral ports) and starts
/// a PartyServer per party, each on its own thread. `per_party` overrides
/// the Options of the parties it covers (used to script link faults).
std::vector<std::optional<PartyServer>> StartServers(
    const std::vector<PartyServer::Options>& per_party = {}) {
  std::vector<MeshEndpoint> endpoints(kParties);
  std::vector<std::optional<SocketListener>> listeners(kParties);
  for (size_t i = 1; i < kParties; ++i) {
    Result<SocketListener> bound =
        SocketListener::Bind(0, static_cast<int>(kParties));
    if (!bound.ok()) return {};
    endpoints[i].port = bound->port();
    listeners[i].emplace(std::move(*bound));
  }
  std::vector<std::optional<PartyServer>> servers(kParties);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kParties; ++i) {
    threads.emplace_back([&, i] {
      Result<PartyMesh> mesh = PartyMesh::EstablishWithListener(
          std::move(listeners[i]), endpoints, i);
      if (!mesh.ok()) return;
      PartyServer::Options options;
      if (i < per_party.size()) options = per_party[i];
      options.smc = FastSmc();
      Result<PartyServer> server = PartyServer::Start(
          std::move(*mesh), SecureRng(0x5e5e + i), options);
      if (server.ok()) servers[i].emplace(std::move(*server));
    });
  }
  for (std::thread& t : threads) t.join();
  return servers;
}

TEST(PartyServerTest, JobsOverTcpMatchExecuteLocalByteForByte) {
  std::vector<ClusteringJob> jobs = MakeJobs();

  // Reference: the same three jobs through the in-process MemoryChannel
  // mesh harness.
  std::vector<LocalJob> local;
  for (size_t h = 0; h < kParties; ++h) local.push_back({jobs[h], 0x70 + h});
  Result<std::vector<RunOutcome>> reference = ExecuteLocal(local, FastSmc());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  std::vector<std::optional<PartyServer>> servers = StartServers();
  ASSERT_EQ(servers.size(), kParties);
  for (size_t i = 0; i < kParties; ++i) {
    ASSERT_TRUE(servers[i].has_value()) << "party " << i;
  }

  constexpr uint32_t kJobRuns = 2;
  // Followers serve on their own threads; the submitter drives from here.
  std::vector<std::vector<Labels>> follower_labels(kParties);
  std::vector<PartyServer::ServeReport> reports(kParties);
  std::vector<std::thread> followers;
  for (size_t i = 1; i < kParties; ++i) {
    followers.emplace_back([&, i] {
      reports[i] = servers[i]->Serve(
          [&](uint32_t) -> Result<ClusteringJob> { return jobs[i]; },
          [&](uint32_t, const Result<RunOutcome>& outcome) {
            if (outcome.ok()) {
              follower_labels[i].push_back(outcome->clustering.labels);
            }
          });
    });
  }

  std::vector<RunOutcome> submitted;
  for (uint32_t k = 0; k < kJobRuns; ++k) {
    Result<RunOutcome> outcome = servers[0]->SubmitJob(jobs[0]);
    ASSERT_TRUE(outcome.ok()) << "job " << k << ": "
                              << outcome.status().ToString();
    submitted.push_back(std::move(*outcome));
  }
  ASSERT_TRUE(servers[0]->AnnounceShutdown().ok());
  for (std::thread& t : followers) t.join();

  // Clean shutdown, every job served exactly once per follower.
  for (size_t i = 1; i < kParties; ++i) {
    EXPECT_TRUE(reports[i].status.ok()) << reports[i].status.ToString();
    EXPECT_EQ(reports[i].jobs_ok, kJobRuns);
    EXPECT_EQ(reports[i].jobs_failed, 0u);
  }

  // Labels byte-identical to the MemoryChannel reference, on every party,
  // for every job on the shared mesh.
  for (uint32_t k = 0; k < kJobRuns; ++k) {
    EXPECT_EQ(submitted[k].clustering.labels,
              (*reference)[0].clustering.labels)
        << "submitter labels diverge on job " << k;
    for (size_t i = 1; i < kParties; ++i) {
      ASSERT_EQ(follower_labels[i].size(), kJobRuns);
      EXPECT_EQ(follower_labels[i][k], (*reference)[i].clustering.labels)
          << "party " << i << " labels diverge on job " << k;
    }
  }

  // Session reuse: both jobs completed on the one Start-time key exchange.
  EXPECT_EQ(servers[0]->jobs_completed(), uint64_t{kJobRuns});

  // Clean runs never retry, and the server's per-link health snapshot
  // shows real traffic on every peer link and no failure marks.
  EXPECT_EQ(servers[0]->job_retries(), 0u);
  const std::vector<LinkHealth> link_health = servers[0]->link_health();
  ASSERT_EQ(link_health.size(), kParties);
  for (size_t j = 1; j < kParties; ++j) {
    const LinkHealth& health = link_health[j];
    EXPECT_EQ(health.peer, j);
    EXPECT_GT(health.frames_sent, 0u) << "peer " << j;
    EXPECT_GT(health.frames_received, 0u) << "peer " << j;
    EXPECT_GT(health.bytes_sent, 0u) << "peer " << j;
    EXPECT_EQ(health.deadline_trips, 0u) << "peer " << j;
    EXPECT_EQ(health.aborts_seen, 0u) << "peer " << j;
    EXPECT_EQ(health.reconnects, 0u) << "peer " << j;
    EXPECT_TRUE(health.last_error.empty()) << health.last_error;
  }

  // Per-job traffic over the mux matches the dedicated-channel reference
  // to well under 1% (the 4-byte stream ids are transport overhead,
  // excluded from stats — leaking them would add several percent; the
  // residual wiggle is variable-length ciphertext serialization).
  const uint64_t ref_bytes = (*reference)[0].stats.total_bytes();
  const uint64_t serve_bytes = submitted[0].stats.total_bytes();
  const uint64_t delta = ref_bytes > serve_bytes ? ref_bytes - serve_bytes
                                                 : serve_bytes - ref_bytes;
  EXPECT_LT(delta, ref_bytes / 100)
      << "serve job traffic " << serve_bytes << " vs reference "
      << ref_bytes;
}

TEST(PartyServerTest, SubmitterCloseIsAGracefulShutdown) {
  std::vector<ClusteringJob> jobs = MakeJobs();
  std::vector<std::optional<PartyServer>> servers = StartServers();
  ASSERT_EQ(servers.size(), kParties);
  for (size_t i = 0; i < kParties; ++i) {
    ASSERT_TRUE(servers[i].has_value()) << "party " << i;
  }

  std::vector<PartyServer::ServeReport> reports(kParties);
  std::vector<std::thread> followers;
  for (size_t i = 1; i < kParties; ++i) {
    followers.emplace_back([&, i] {
      reports[i] = servers[i]->Serve(
          [&](uint32_t) -> Result<ClusteringJob> { return jobs[i]; });
    });
  }
  // The submitter vanishes without announcing shutdown (crash, kill -9 on
  // the box, ...). Followers treat losing the control stream as shutdown.
  servers[0].reset();
  for (std::thread& t : followers) t.join();
  for (size_t i = 1; i < kParties; ++i) {
    EXPECT_TRUE(reports[i].status.ok()) << reports[i].status.ToString();
    EXPECT_EQ(reports[i].jobs_ok, 0u);
  }
}

TEST(PartyServerTest, RequestStopUnblocksServe) {
  std::vector<ClusteringJob> jobs = MakeJobs();
  std::vector<std::optional<PartyServer>> servers = StartServers();
  ASSERT_EQ(servers.size(), kParties);
  for (size_t i = 0; i < kParties; ++i) {
    ASSERT_TRUE(servers[i].has_value()) << "party " << i;
  }
  std::vector<PartyServer::ServeReport> reports(kParties);
  std::vector<std::thread> followers;
  for (size_t i = 1; i < kParties; ++i) {
    followers.emplace_back([&, i] {
      reports[i] = servers[i]->Serve(
          [&](uint32_t) -> Result<ClusteringJob> { return jobs[i]; });
    });
  }
  // What the CLI's SIGTERM handler does — from another thread here, but
  // the call is async-signal-safe by construction.
  for (size_t i = 1; i < kParties; ++i) servers[i]->RequestStop();
  for (std::thread& t : followers) t.join();
  for (size_t i = 1; i < kParties; ++i) {
    EXPECT_TRUE(reports[i].status.ok()) << reports[i].status.ToString();
    EXPECT_TRUE(servers[i]->stop_requested());
  }
  // The submitter's next job now fails cleanly instead of hanging.
  EXPECT_FALSE(servers[0]->SubmitJob(jobs[0]).ok());
}

// THE acceptance property of failure containment: one corrupted frame
// fails exactly one job with a named status, and the NEXT job on the same
// daemon — same mesh, same sessions, no re-keygen — still produces labels
// byte-identical to the in-process reference.
TEST(PartyServerTest, DaemonSurvivesACorruptedFrameAndServesTheNextJob) {
  std::vector<ClusteringJob> jobs = MakeJobs();
  // Per-round deadline so the corruption-induced silence (a frame routed
  // to a nonexistent stream never reaches its waiter) resolves as
  // kDeadlineExceeded instead of a hang. Negotiated, so all parties set it.
  for (ClusteringJob& job : jobs) job.options.round_deadline_ms = 5000;

  std::vector<LocalJob> local;
  for (size_t h = 0; h < kParties; ++h) local.push_back({jobs[h], 0x70 + h});
  Result<std::vector<RunOutcome>> reference = ExecuteLocal(local, FastSmc());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  // Follower 2's link to the submitter corrupts one frame well after
  // session establishment (which only exchanges a handful of frames on
  // each link), i.e. in the middle of job 1.
  std::vector<PartyServer::Options> per_party(kParties);
  PartyServer::LinkFault fault;
  fault.peer = 0;
  fault.schedule.kind = FaultKind::kCorruptFrame;
  fault.schedule.after_frames = 100;
  per_party[2].link_faults.push_back(fault);
  std::vector<std::optional<PartyServer>> servers = StartServers(per_party);
  ASSERT_EQ(servers.size(), kParties);
  for (size_t i = 0; i < kParties; ++i) {
    ASSERT_TRUE(servers[i].has_value()) << "party " << i;
  }

  std::vector<std::vector<Labels>> follower_labels(kParties);
  std::vector<PartyServer::ServeReport> reports(kParties);
  std::vector<std::thread> followers;
  for (size_t i = 1; i < kParties; ++i) {
    followers.emplace_back([&, i] {
      reports[i] = servers[i]->Serve(
          [&](uint32_t) -> Result<ClusteringJob> { return jobs[i]; },
          [&](uint32_t, const Result<RunOutcome>& outcome) {
            if (outcome.ok()) {
              follower_labels[i].push_back(outcome->clustering.labels);
            }
          });
    });
  }

  // Job 1 fails — with a NAMED error, not a hang or a wrong answer.
  Result<RunOutcome> failed = servers[0]->SubmitJob(jobs[0]);
  ASSERT_FALSE(failed.ok()) << "the corrupted frame went unnoticed";
  EXPECT_FALSE(failed.status().message().empty());
  const StatusCode code = failed.status().code();
  EXPECT_TRUE(code == StatusCode::kDeadlineExceeded ||
              code == StatusCode::kUnavailable ||
              code == StatusCode::kAborted ||
              code == StatusCode::kDataLoss ||
              code == StatusCode::kFailedPrecondition)
      << failed.status().ToString();

  // Job 2 on the SAME daemon completes byte-identical to the reference.
  Result<RunOutcome> clean = servers[0]->SubmitJob(jobs[0]);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ(clean->clustering.labels, (*reference)[0].clustering.labels);

  ASSERT_TRUE(servers[0]->AnnounceShutdown().ok());
  for (std::thread& t : followers) t.join();
  for (size_t i = 1; i < kParties; ++i) {
    EXPECT_TRUE(reports[i].status.ok()) << reports[i].status.ToString();
    EXPECT_EQ(reports[i].jobs_ok, 1u) << "party " << i;
    EXPECT_EQ(reports[i].jobs_failed, 1u) << "party " << i;
    ASSERT_EQ(follower_labels[i].size(), 1u);
    EXPECT_EQ(follower_labels[i][0], (*reference)[i].clustering.labels)
        << "party " << i << " post-failure labels diverge";
  }
}

// A follower whose factory produces a mismatched job view (different eps
// here) fails that job's negotiation with kFailedPrecondition on every
// party — and the daemon still serves the next, matching job.
TEST(PartyServerTest, DaemonSurvivesANegotiationMismatch) {
  std::vector<ClusteringJob> jobs = MakeJobs();
  for (ClusteringJob& job : jobs) job.options.round_deadline_ms = 5000;
  std::vector<LocalJob> local;
  for (size_t h = 0; h < kParties; ++h) local.push_back({jobs[h], 0x70 + h});
  Result<std::vector<RunOutcome>> reference = ExecuteLocal(local, FastSmc());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  std::vector<std::optional<PartyServer>> servers = StartServers();
  ASSERT_EQ(servers.size(), kParties);
  for (size_t i = 0; i < kParties; ++i) {
    ASSERT_TRUE(servers[i].has_value()) << "party " << i;
  }

  ClusteringJob skewed = jobs[1];
  skewed.options.params.eps_squared = skewed.options.params.eps_squared + 1;

  std::vector<PartyServer::ServeReport> reports(kParties);
  std::vector<std::thread> followers;
  for (size_t i = 1; i < kParties; ++i) {
    followers.emplace_back([&, i] {
      bool first = true;
      reports[i] = servers[i]->Serve(
          [&](uint32_t) -> Result<ClusteringJob> {
            // Follower 1's first job disagrees on eps; later jobs match.
            if (i == 1 && first) {
              first = false;
              return skewed;
            }
            return jobs[i];
          });
    });
  }

  Result<RunOutcome> failed = servers[0]->SubmitJob(jobs[0]);
  ASSERT_FALSE(failed.ok()) << "mismatched negotiation went unnoticed";
  EXPECT_EQ(failed.status().code(), StatusCode::kFailedPrecondition)
      << failed.status().ToString();

  Result<RunOutcome> clean = servers[0]->SubmitJob(jobs[0]);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ(clean->clustering.labels, (*reference)[0].clustering.labels);

  ASSERT_TRUE(servers[0]->AnnounceShutdown().ok());
  for (std::thread& t : followers) t.join();
  for (size_t i = 1; i < kParties; ++i) {
    EXPECT_TRUE(reports[i].status.ok()) << reports[i].status.ToString();
    EXPECT_EQ(reports[i].jobs_ok, 1u) << "party " << i;
    EXPECT_EQ(reports[i].jobs_failed, 1u) << "party " << i;
  }
}

}  // namespace
}  // namespace ppdbscan
