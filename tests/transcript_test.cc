// Fixed-seed transcript goldens: every scheme's wire conversation, pinned.
//
// Each case runs one clustering job per party through PartyRuntime over
// in-process MemoryChannels, every endpoint wrapped in a RecordingChannel.
// Session setup is excluded (transcripts are cleared after Connect), so a
// digest covers the job hello plus every protocol frame. For each link
// endpoint the suite compares the frame count and a 64-bit FNV-1a digest
// over (direction byte, u32 frame length, frame bytes) per frame against
// recorded values. Ciphertexts are independent of limb width, limb kernel
// and thread count, so the same values hold on every build leg; a refactor
// that changes any byte, frame boundary or rng draw order fails here.

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "core/job.h"
#include "data/fixed_point.h"
#include "data/generators.h"
#include "data/partitioners.h"
#include "net/memory_channel.h"
#include "net/recording_channel.h"

namespace ppdbscan {
namespace {

struct EndpointGolden {
  size_t party;
  size_t peer;
  size_t frames;
  uint64_t digest;
};

uint64_t TranscriptDigest(const Transcript& transcript) {
  uint64_t hash = 0xcbf29ce484222325ull;
  auto mix = [&hash](uint8_t byte) {
    hash ^= byte;
    hash *= 0x100000001b3ull;
  };
  for (const TranscriptFrame& frame : transcript.frames) {
    mix(frame.direction == TranscriptFrame::Direction::kSent ? 0 : 1);
    const uint32_t len = static_cast<uint32_t>(frame.payload.size());
    for (int shift = 0; shift < 32; shift += 8) {
      mix(static_cast<uint8_t>(len >> shift));
    }
    for (uint8_t byte : frame.payload) mix(byte);
  }
  return hash;
}

SmcOptions GoldenSmc() {
  SmcOptions smc;
  smc.paillier_bits = 256;
  smc.rsa_bits = 128;
  return smc;
}

/// 20 encoded points in 2 dims: two blobs plus uniform noise.
struct GoldenData {
  Dataset full{2};
  DbscanParams params;
};

GoldenData MakeGoldenData() {
  SecureRng rng(2024);
  RawDataset raw = MakeBlobs(rng, 2, 8, 2, 0.5, 6.0);
  AddUniformNoise(raw, rng, 4, 8.0);
  FixedPointEncoder enc(4.0);
  GoldenData data;
  data.full = *enc.Encode(raw);
  data.params = {*enc.EncodeEpsSquared(1.2), 4};
  return data;
}

ProtocolOptions GoldenOptions(const DbscanParams& params) {
  ProtocolOptions options;
  options.params = params;
  options.comparator.kind = ComparatorKind::kBlindedPaillier;
  options.comparator.magnitude_bound = RecommendedComparatorBound(2, 1 << 12);
  return options;
}

/// Runs one job per party (two-party schemes over a Connect pair,
/// kMultiparty over a full ConnectMesh), recording every endpoint.
/// party i's rng is seeded 0x5eed + i.
struct RecordedRun {
  std::vector<Result<RunOutcome>> outcomes;
  std::vector<EndpointGolden> endpoints;  // party-major, peer-minor
};

RecordedRun RunRecorded(const std::vector<ClusteringJob>& jobs) {
  const size_t p = jobs.size();
  const bool mesh = jobs[0].scheme == PartitionScheme::kMultiparty;
  std::vector<std::vector<std::unique_ptr<MemoryChannel>>> ends(p);
  std::vector<std::vector<std::unique_ptr<RecordingChannel>>> recorders(p);
  for (size_t i = 0; i < p; ++i) {
    ends[i].resize(p);
    recorders[i].resize(p);
  }
  for (size_t i = 0; i < p; ++i) {
    for (size_t j = i + 1; j < p; ++j) {
      auto [a, b] = MemoryChannel::CreatePair();
      ends[i][j] = std::move(a);
      ends[j][i] = std::move(b);
    }
  }
  for (size_t i = 0; i < p; ++i) {
    for (size_t j = 0; j < p; ++j) {
      if (i != j) {
        recorders[i][j] = std::make_unique<RecordingChannel>(ends[i][j].get());
      }
    }
  }

  RecordedRun run;
  for (size_t i = 0; i < p; ++i) {
    run.outcomes.emplace_back(Status::Internal("party did not run"));
  }
  std::vector<std::thread> threads;
  for (size_t i = 0; i < p; ++i) {
    threads.emplace_back([&, i] {
      std::vector<Channel*> links(p, nullptr);
      for (size_t j = 0; j < p; ++j) {
        if (j != i) links[j] = recorders[i][j].get();
      }
      Result<PartyRuntime> runtime =
          mesh ? PartyRuntime::ConnectMesh(links, i, SecureRng(0x5eed + i),
                                           GoldenSmc())
               : PartyRuntime::Connect(*links[1 - i], SecureRng(0x5eed + i),
                                       GoldenSmc());
      if (runtime.ok()) {
        for (size_t j = 0; j < p; ++j) {
          if (j != i) recorders[i][j]->ClearTranscript();
        }
        run.outcomes[i] = runtime->Run(jobs[i]);
      } else {
        run.outcomes[i] = runtime.status();
      }
      for (Channel* link : links) {
        if (link != nullptr) link->Close();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t i = 0; i < p; ++i) {
    for (size_t j = 0; j < p; ++j) {
      if (i == j) continue;
      const Transcript& t = recorders[i][j]->transcript();
      run.endpoints.push_back({i, j, t.frames.size(), TranscriptDigest(t)});
    }
  }
  return run;
}

void ExpectGoldens(const RecordedRun& run,
                   const std::vector<EndpointGolden>& goldens) {
  for (size_t i = 0; i < run.outcomes.size(); ++i) {
    ASSERT_TRUE(run.outcomes[i].ok()) << "party " << i << ": "
                                      << run.outcomes[i].status();
  }
  ASSERT_EQ(run.endpoints.size(), goldens.size());
  for (size_t e = 0; e < goldens.size(); ++e) {
    const EndpointGolden& got = run.endpoints[e];
    const EndpointGolden& want = goldens[e];
    ASSERT_EQ(got.party, want.party);
    ASSERT_EQ(got.peer, want.peer);
    EXPECT_EQ(got.frames, want.frames)
        << "endpoint " << got.party << "->" << got.peer;
    EXPECT_EQ(got.digest, want.digest)
        << "endpoint " << got.party << "->" << got.peer << ": 0x" << std::hex
        << got.digest;
  }
}

RecordedRun RunHorizontal(const ProtocolOptions& options) {
  GoldenData data = MakeGoldenData();
  HorizontalPartition hp = *PartitionHorizontalSpatial(data.full, 0, 0.5);
  return RunRecorded(
      {ClusteringJob::Horizontal(hp.alice, PartyRole::kAlice, options),
       ClusteringJob::Horizontal(hp.bob, PartyRole::kBob, options)});
}

TEST(TranscriptGoldenTest, HorizontalBasicExact) {
  GoldenData data = MakeGoldenData();
  ExpectGoldens(RunHorizontal(GoldenOptions(data.params)),
                {{0, 1, 464, 0xc9fa7dae0ec79b0aull},
                 {1, 0, 464, 0xd806b9abd41885ceull}});
}

TEST(TranscriptGoldenTest, HorizontalBasicPrune) {
  GoldenData data = MakeGoldenData();
  ProtocolOptions options = GoldenOptions(data.params);
  options.plan.mode = PlanMode::kPrune;
  ExpectGoldens(RunHorizontal(options), {{0, 1, 296, 0x277916d933255e87ull},
                                         {1, 0, 296, 0xdcc0e15febd954d5ull}});
}

TEST(TranscriptGoldenTest, HorizontalBasicSieveRunsMembership) {
  GoldenData data = MakeGoldenData();
  ProtocolOptions options = GoldenOptions(data.params);
  options.plan.mode = PlanMode::kSieve;
  options.plan.sieve_k = 2;
  RecordedRun run = RunHorizontal(options);
  ExpectGoldens(run, {{0, 1, 170, 0x6da8d3a1267d98bull},
                      {1, 0, 170, 0xff051bcb0199634full}});
  // The golden must cover the encrypted membership round.
  uint64_t rescue_queries = 0;
  for (const Result<RunOutcome>& out : run.outcomes) {
    if (out.ok()) rescue_queries += out->plan.rescue_queries;
  }
  EXPECT_GT(rescue_queries, 0u);
}

TEST(TranscriptGoldenTest, HorizontalEnhanced) {
  GoldenData data = MakeGoldenData();
  ProtocolOptions options = GoldenOptions(data.params);
  options.mode = HorizontalMode::kEnhanced;
  ExpectGoldens(RunHorizontal(options), {{0, 1, 735, 0x1bfd3a1879fc0957ull},
                                         {1, 0, 735, 0xe43a0c9e592a3f18ull}});
}

RecordedRun RunVertical(const ProtocolOptions& options) {
  GoldenData data = MakeGoldenData();
  VerticalPartition vp = *PartitionVertical(data.full, 1);
  return RunRecorded(
      {ClusteringJob::Vertical(vp.alice, PartyRole::kAlice, options),
       ClusteringJob::Vertical(vp.bob, PartyRole::kBob, options)});
}

TEST(TranscriptGoldenTest, Vertical) {
  GoldenData data = MakeGoldenData();
  ExpectGoldens(RunVertical(GoldenOptions(data.params)),
                {{0, 1, 845, 0x175782b28f03ffd8ull},
                 {1, 0, 845, 0xe4c230f248d01a35ull}});
}

TEST(TranscriptGoldenTest, VerticalLocalPruning) {
  GoldenData data = MakeGoldenData();
  ProtocolOptions options = GoldenOptions(data.params);
  options.vdp_local_pruning = true;
  ExpectGoldens(RunVertical(options), {{0, 1, 309, 0xa06c34325f701f14ull},
                                       {1, 0, 309, 0x64059b8bf03043f7ull}});
}

TEST(TranscriptGoldenTest, Arbitrary) {
  GoldenData data = MakeGoldenData();
  SecureRng split_rng(77);
  ArbitraryPartition ap = *PartitionArbitrary(data.full, split_rng, 0.5);
  ProtocolOptions options = GoldenOptions(data.params);
  ExpectGoldens(
      RunRecorded(
          {ClusteringJob::Arbitrary(ap.alice, PartyRole::kAlice, options),
           ClusteringJob::Arbitrary(ap.bob, PartyRole::kBob, options)}),
      {{0, 1, 1433, 0x6ce7e744bba99857ull},
       {1, 0, 1433, 0x3308775b1d659d24ull}});
}

TEST(TranscriptGoldenTest, MultipartyThreeParties) {
  GoldenData data = MakeGoldenData();
  std::vector<Dataset> parts(3, Dataset(2));
  for (size_t i = 0; i < data.full.size(); ++i) {
    ASSERT_TRUE(parts[i % 3].Add(data.full.point(i)).ok());
  }
  ProtocolOptions options = GoldenOptions(data.params);
  std::vector<ClusteringJob> jobs;
  for (size_t i = 0; i < 3; ++i) {
    jobs.push_back(ClusteringJob::Multiparty(parts[i], i, 3, options));
  }
  ExpectGoldens(RunRecorded(jobs),
                {{0, 1, 242, 0x2bac69bdb925d712ull},
                 {0, 2, 211, 0x1eef0d3dcb21cb7cull},
                 {1, 0, 242, 0x53304f82c07bcc12ull},
                 {1, 2, 211, 0x2ef6ed83d8025fc3ull},
                 {2, 0, 211, 0xc77937387e31acdbull},
                 {2, 1, 211, 0x9b10a1df011e8d2ull}});
}

}  // namespace
}  // namespace ppdbscan
