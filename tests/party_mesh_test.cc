// PartyMesh over real loopback sockets: the deterministic pairwise
// schedule assembles a full N-party mesh (ephemeral kernel-assigned
// ports, any start order), links are slotted by the identification
// handshake rather than arrival order, a party dying mid-round surfaces
// as kUnavailable on every survivor — never as SIGPIPE — and a handshake
// peer that goes silent fails the link within the mesh budgets instead of
// hanging it.

#include "net/party_mesh.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <optional>
#include <thread>
#include <vector>

namespace ppdbscan {
namespace {

/// Establishes a P-party loopback mesh on P threads, returning the meshes
/// in party order. Ephemeral ports: every listening party binds port 0
/// first, the learned ports form the shared endpoint list, then all
/// parties establish concurrently.
std::vector<std::optional<PartyMesh>> EstablishLoopbackMesh(
    size_t parties, const PartyMeshOptions& options = {}) {
  std::vector<MeshEndpoint> endpoints(parties);
  std::vector<std::optional<SocketListener>> listeners(parties);
  for (size_t i = 1; i < parties; ++i) {
    Result<SocketListener> bound =
        SocketListener::Bind(0, static_cast<int>(parties));
    if (!bound.ok()) return {};
    endpoints[i].port = bound->port();
    listeners[i].emplace(std::move(*bound));
  }
  std::vector<std::optional<PartyMesh>> meshes(parties);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < parties; ++i) {
    threads.emplace_back([&, i] {
      Result<PartyMesh> mesh = PartyMesh::EstablishWithListener(
          std::move(listeners[i]), endpoints, i, options);
      if (mesh.ok()) meshes[i].emplace(std::move(*mesh));
    });
  }
  for (std::thread& t : threads) t.join();
  return meshes;
}

TEST(PartyMeshTest, ThreePartiesFormAFullMesh) {
  auto meshes = EstablishLoopbackMesh(3);
  ASSERT_EQ(meshes.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(meshes[i].has_value()) << "party " << i;
    EXPECT_EQ(meshes[i]->index(), i);
    EXPECT_EQ(meshes[i]->parties(), 3u);
  }
  // Every ordered pair exchanges one tagged frame over its own link.
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      if (i == j) {
        EXPECT_EQ(meshes[i]->link(j), nullptr);
        continue;
      }
      const uint8_t tag = static_cast<uint8_t>(16 * i + j);
      ASSERT_TRUE(meshes[i]->link(j)->Send({tag}).ok());
      EXPECT_EQ(*meshes[j]->link(i)->Recv(), std::vector<uint8_t>{tag});
    }
  }
}

TEST(PartyMeshTest, HandshakeTrafficExcludedFromStats) {
  auto meshes = EstablishLoopbackMesh(3);
  for (size_t i = 0; i < 3; ++i) ASSERT_TRUE(meshes[i].has_value());
  // The hello/ack bytes must not leak into protocol accounting.
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      if (i == j) continue;
      EXPECT_EQ(meshes[i]->link(j)->stats().bytes_sent, 0u);
      EXPECT_EQ(meshes[i]->link(j)->stats().bytes_received, 0u);
    }
  }
  ASSERT_TRUE(meshes[0]->link(2)->Send({1, 2, 3}).ok());
  ASSERT_TRUE(meshes[2]->link(0)->Recv().ok());
  EXPECT_EQ(meshes[0]->link(2)->stats().bytes_sent, 3u);
  EXPECT_EQ(meshes[2]->link(0)->stats().bytes_received, 3u);
}

TEST(PartyMeshTest, LinksMatchConnectMeshShape) {
  auto meshes = EstablishLoopbackMesh(3);
  for (size_t i = 0; i < 3; ++i) ASSERT_TRUE(meshes[i].has_value());
  std::vector<Channel*> links = meshes[1]->links();
  ASSERT_EQ(links.size(), 3u);
  EXPECT_NE(links[0], nullptr);
  EXPECT_EQ(links[1], nullptr);  // own slot
  EXPECT_NE(links[2], nullptr);
}

TEST(PartyMeshTest, FourPartiesAcceptOffOneListener) {
  // Party 3 accepts all three lower peers from one persistent listener —
  // the repeatable-Accept path a single-shot listener cannot serve.
  auto meshes = EstablishLoopbackMesh(4);
  ASSERT_EQ(meshes.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(meshes[i].has_value()) << "party " << i;
  }
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(meshes[i]->link(3)->Send({static_cast<uint8_t>(i)}).ok());
  }
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(*meshes[3]->link(i)->Recv(),
              std::vector<uint8_t>{static_cast<uint8_t>(i)});
  }
  EXPECT_NE(meshes[3]->listener(), nullptr);
  EXPECT_TRUE(meshes[3]->listener()->listening());
}

TEST(PartyMeshTest, PeerDeathMidRoundSurfacesUnavailable) {
  auto meshes = EstablishLoopbackMesh(3);
  for (size_t i = 0; i < 3; ++i) ASSERT_TRUE(meshes[i].has_value());

  // Parties 0 and 1 block mid-round on party 2's next message; party 2
  // dies instead of sending it.
  Result<std::vector<uint8_t>> pending0 =
      Status::Internal("recv never observed");
  Result<std::vector<uint8_t>> pending1 =
      Status::Internal("recv never observed");
  std::thread survivor0([&] { pending0 = meshes[0]->link(2)->Recv(); });
  std::thread survivor1([&] { pending1 = meshes[1]->link(2)->Recv(); });
  meshes[2]->CloseAll();
  survivor0.join();
  survivor1.join();
  EXPECT_EQ(pending0.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(pending1.status().code(), StatusCode::kUnavailable);

  // Survivors pushing frames at the dead peer get a Status too (not
  // SIGPIPE): keep sending until the failure propagates.
  std::vector<uint8_t> frame(64 * 1024, 0xEE);
  Status push = Status::Ok();
  for (int i = 0; i < 256 && push.ok(); ++i) {
    push = meshes[0]->link(2)->Send(frame);
  }
  EXPECT_EQ(push.code(), StatusCode::kUnavailable);

  // The surviving pair's link is untouched.
  ASSERT_TRUE(meshes[0]->link(1)->Send({5}).ok());
  EXPECT_EQ(*meshes[1]->link(0)->Recv(), std::vector<uint8_t>{5});
}

TEST(PartyMeshTest, ReestablishLinkHealsAKilledLink) {
  auto meshes = EstablishLoopbackMesh(3);
  for (size_t i = 0; i < 3; ++i) ASSERT_TRUE(meshes[i].has_value());
  // Put traffic on 1<->2 so the stats reset on heal is observable.
  ASSERT_TRUE(meshes[1]->link(2)->Send({1, 2, 3}).ok());
  ASSERT_TRUE(meshes[2]->link(1)->Recv().ok());
  ASSERT_GT(meshes[1]->link(2)->stats().bytes_sent, 0u);

  // The 1<->2 link dies; both ends heal it concurrently on the original
  // schedule (1 redials, 2 re-accepts off its retained listener), without
  // any coordination beyond the shared endpoint list.
  meshes[1]->link(2)->Close();
  meshes[2]->link(1)->Close();
  Status s1 = Status::Internal("never ran");
  Status s2 = Status::Internal("never ran");
  std::thread t1([&] { s1 = meshes[1]->ReestablishLink(2, 5000); });
  std::thread t2([&] { s2 = meshes[2]->ReestablishLink(1, 5000); });
  t1.join();
  t2.join();
  ASSERT_TRUE(s1.ok()) << s1.ToString();
  ASSERT_TRUE(s2.ok()) << s2.ToString();

  // The healed link carries traffic both ways, with fresh stats (the
  // re-identification handshake excluded, like a fresh Establish).
  EXPECT_EQ(meshes[1]->link(2)->stats().bytes_sent, 0u);
  EXPECT_EQ(meshes[2]->link(1)->stats().bytes_received, 0u);
  ASSERT_TRUE(meshes[1]->link(2)->Send({42}).ok());
  EXPECT_EQ(*meshes[2]->link(1)->Recv(), std::vector<uint8_t>{42});
  ASSERT_TRUE(meshes[2]->link(1)->Send({43}).ok());
  EXPECT_EQ(*meshes[1]->link(2)->Recv(), std::vector<uint8_t>{43});

  // The other links were never touched by the single-link heal.
  ASSERT_TRUE(meshes[0]->link(1)->Send({5}).ok());
  EXPECT_EQ(*meshes[1]->link(0)->Recv(), std::vector<uint8_t>{5});
  ASSERT_TRUE(meshes[0]->link(2)->Send({6}).ok());
  EXPECT_EQ(*meshes[2]->link(0)->Recv(), std::vector<uint8_t>{6});
}

TEST(PartyMeshTest, ReestablishLinkBoundedAndRejectsBadPeers) {
  auto meshes = EstablishLoopbackMesh(3);
  for (size_t i = 0; i < 3; ++i) ASSERT_TRUE(meshes[i].has_value());
  EXPECT_EQ(meshes[1]->ReestablishLink(1, 100).code(),
            StatusCode::kInvalidArgument);  // own slot
  EXPECT_EQ(meshes[1]->ReestablishLink(7, 100).code(),
            StatusCode::kInvalidArgument);  // out of range
  // Party 2 waits for party 1 to come back; party 1 never redials. The
  // wait is bounded by the budget and the slot stays empty (jobs fail
  // kUnavailable until a later heal succeeds).
  Status healed = meshes[2]->ReestablishLink(1, 300);
  EXPECT_EQ(healed.code(), StatusCode::kDeadlineExceeded)
      << healed.ToString();
  EXPECT_FALSE(healed.message().empty());
  EXPECT_EQ(meshes[2]->link(1), nullptr);
}

using Clock = std::chrono::steady_clock;

/// Handshake budget of the bounded-handshake cases, and the slack their
/// wall time may exceed it by.
constexpr auto kHandshakeBudget = std::chrono::milliseconds(500);
constexpr auto kSlack = std::chrono::seconds(3);

struct TimedStatus {
  Status status = Status::Internal("never ran");
  Clock::duration elapsed{};
};

/// Runs each party on its own thread. Whatever is still running after
/// budget + slack is unblocked by `unblock` (closing the silent socket or
/// listener it waits on), so a wait that ignores its budget fails the
/// elapsed-time assertions instead of hanging the suite.
std::vector<TimedStatus> RunBounded(
    const std::vector<std::function<Status()>>& parties,
    const std::function<void()>& unblock) {
  std::vector<TimedStatus> results(parties.size());
  std::atomic<size_t> finished{0};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (size_t i = 0; i < parties.size(); ++i) {
    threads.emplace_back([&, i] {
      results[i].status = parties[i]();
      results[i].elapsed = Clock::now() - start;
      finished.fetch_add(1);
    });
  }
  while (finished.load() < parties.size() &&
         Clock::now() - start < kHandshakeBudget + kSlack) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  unblock();
  for (std::thread& t : threads) t.join();
  return results;
}

TEST(PartyMeshTest, SilentClientFailsTheAcceptWithinItsBudget) {
  PartyMeshOptions options;
  options.accept_timeout_ms = static_cast<int>(kHandshakeBudget.count());
  Result<SocketListener> bound = SocketListener::Bind(0, 2);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  std::vector<MeshEndpoint> endpoints(2);
  endpoints[1].port = bound->port();
  std::optional<SocketListener> listener(std::move(*bound));
  // A raw client connects first and never sends a hello, so party 1
  // accepts it ahead of party 0.
  Result<std::unique_ptr<SocketChannel>> stray =
      SocketChannel::Connect(endpoints[1].host, endpoints[1].port, 1000);
  ASSERT_TRUE(stray.ok()) << stray.status().ToString();

  std::vector<TimedStatus> out = RunBounded(
      {[&] {
         return PartyMesh::EstablishWithListener(std::nullopt, endpoints, 0,
                                                 options)
             .status();
       },
       [&] {
         return PartyMesh::EstablishWithListener(std::move(listener),
                                                 endpoints, 1, options)
             .status();
       }},
      [&] { (*stray)->Close(); });
  EXPECT_EQ(out[1].status.code(), StatusCode::kDeadlineExceeded)
      << out[1].status.ToString();
  EXPECT_FALSE(out[0].status.ok());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_LT(out[i].elapsed, kHandshakeBudget + kSlack)
        << "party " << i << " waited past its accept budget";
  }
}

TEST(PartyMeshTest, SilentListenerFailsTheDialWithinItsBudget) {
  PartyMeshOptions options;
  options.accept_timeout_ms = static_cast<int>(kHandshakeBudget.count());
  // Party 1 never runs: its bound listener queues party 0's connection in
  // the kernel backlog and never accepts it, so no ack ever comes.
  Result<SocketListener> bound = SocketListener::Bind(0, 2);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  std::vector<MeshEndpoint> endpoints(2);
  endpoints[1].port = bound->port();

  std::vector<TimedStatus> out = RunBounded(
      {[&] {
        return PartyMesh::EstablishWithListener(std::nullopt, endpoints, 0,
                                                options)
            .status();
      }},
      [&] { bound->Close(); });
  EXPECT_EQ(out[0].status.code(), StatusCode::kDeadlineExceeded)
      << out[0].status.ToString();
  EXPECT_LT(out[0].elapsed, kHandshakeBudget + kSlack)
      << "party 0 waited past its ack budget";
}

TEST(PartyMeshTest, ReestablishLinkDefaultsToTheMeshBudget) {
  // With no explicit timeout a heal takes this side's budget from the
  // options the mesh was established with: party 2 re-accepts party 1, so
  // it waits accept_timeout_ms.
  PartyMeshOptions options;
  options.accept_timeout_ms = 300;
  auto meshes = EstablishLoopbackMesh(3, options);
  for (size_t i = 0; i < 3; ++i) ASSERT_TRUE(meshes[i].has_value());
  EXPECT_EQ(meshes[2]->options().accept_timeout_ms, 300);
  Status healed = meshes[2]->ReestablishLink(1);
  EXPECT_EQ(healed.code(), StatusCode::kDeadlineExceeded)
      << healed.ToString();
  EXPECT_NE(healed.message().find("gave up after 300ms"), std::string::npos)
      << healed.ToString();
}

TEST(PartyMeshTest, RejectsBadArguments) {
  std::vector<MeshEndpoint> one(1);
  EXPECT_EQ(PartyMesh::Establish(one, 0).status().code(),
            StatusCode::kInvalidArgument);
  std::vector<MeshEndpoint> three(3);
  EXPECT_EQ(PartyMesh::Establish(three, 7).status().code(),
            StatusCode::kInvalidArgument);
  // index > 0 without a bound listener is a misuse of the ephemeral-port
  // variant.
  EXPECT_EQ(PartyMesh::EstablishWithListener(std::nullopt, three, 1)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ppdbscan
