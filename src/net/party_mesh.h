#ifndef PPDBSCAN_NET_PARTY_MESH_H_
#define PPDBSCAN_NET_PARTY_MESH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/socket_channel.h"

namespace ppdbscan {

/// Where one mesh party listens. `endpoints[j]` is party j's listen
/// address; entry 0 is unused (party 0 never listens — see the schedule
/// below) but kept so endpoint lists index naturally by party.
struct MeshEndpoint {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

/// The mesh's link budgets. They bound every handshake step, so a silent
/// peer or a stray client fails the link with a named status instead of
/// hanging it, and the mesh retains them to bound its heals.
struct PartyMeshOptions {
  /// Per-link connect retry budget: connects keep retrying until the
  /// target's listener is up or this expires, so the P processes can be
  /// started in any order.
  int connect_timeout_ms = 15000;
  /// Per-link accept budget (kUnavailable on expiry; the listener stays
  /// open). The acceptor waits for a peer's hello for at most what is left
  /// of it (kDeadlineExceeded), and a dialer waits at most this long for
  /// the acceptor's ack.
  int accept_timeout_ms = 20000;
  /// The listen backlog is max(min_backlog, parties): all lower-indexed
  /// peers may connect before this party reaches its first Accept, and
  /// their connections must queue instead of being refused.
  int min_backlog = 8;
};

/// Full TCP mesh between P party processes — the two-party tcp_parties
/// pattern generalized to N machines.
///
/// The per-pair schedule is deterministic so every process can compute it
/// from (index, P) alone: party i LISTENS for every j < i and CONNECTS to
/// every j > i — each pair (i, j), i < j, is one TCP connection initiated
/// by the lower index. Every party first binds its listener, then runs its
/// connects (so every connect target is already bound or soon will be;
/// the retry loop absorbs start-order races), then accepts its i peers.
/// Accepted connections identify themselves with a hello frame (magic,
/// version, party count, sender index) answered by an ack, so arrival
/// order never mis-slots a link and a stray client fails the handshake
/// descriptively instead of desyncing the mesh. Establish and
/// ReestablishLink share one dial routine and one accept routine, and
/// every handshake receive is bounded by the PartyMeshOptions budgets: a
/// client that connects and stays silent, or a listener that never
/// answers, fails the link kDeadlineExceeded instead of hanging it.
///
/// The listener is retained for the mesh's lifetime (a daemon can
/// re-accept a returning peer); handshake traffic is excluded from the
/// per-link stats, matching the paper's per-invocation accounting.
class PartyMesh {
 public:
  /// Establishes party `index`'s side of the full mesh. All P processes
  /// must call Establish with the same endpoint list concurrently.
  /// Listens on endpoints[index].port (must be a real port for index > 0;
  /// use EstablishWithListener for ephemeral kernel-assigned ports).
  static Result<PartyMesh> Establish(
      const std::vector<MeshEndpoint>& endpoints, size_t index,
      const PartyMeshOptions& options = {});

  /// Variant taking a pre-bound listener, for ephemeral-port workflows:
  /// bind port 0 first, learn the port, publish it to the peers, then
  /// establish. Required for index > 0; ignored for party 0.
  static Result<PartyMesh> EstablishWithListener(
      std::optional<SocketListener> listener,
      const std::vector<MeshEndpoint>& endpoints, size_t index,
      const PartyMeshOptions& options = {});

  PartyMesh(PartyMesh&&) = default;
  PartyMesh& operator=(PartyMesh&&) = default;
  PartyMesh(const PartyMesh&) = delete;
  PartyMesh& operator=(const PartyMesh&) = delete;

  size_t index() const { return index_; }
  size_t parties() const { return channels_.size(); }

  /// The channel to party `peer` (null at this party's own index).
  SocketChannel* link(size_t peer) const {
    return peer < channels_.size() ? channels_[peer].get() : nullptr;
  }

  /// All P link slots with null at this party's own index — the exact
  /// shape PartyRuntime::ConnectMesh takes.
  std::vector<Channel*> links() const;

  /// This party's retained listener (null for party 0 or after Close).
  SocketListener* listener() {
    return listener_.has_value() ? &*listener_ : nullptr;
  }

  /// Re-establishes the single link to `peer` after a TCP failure through
  /// the same dial and accept routines as Establish, on the original
  /// schedule (the lower index connects, the higher accepts off its
  /// retained listener) — so both ends can call this concurrently without
  /// coordination, and a relaunched peer running a full Establish is
  /// indistinguishable from one healing a single link. The old channel is
  /// closed and dropped first (unblocking a peer mid-Recv), then the whole
  /// retry-with-backoff budget is bounded by `timeout_ms`. A negative
  /// `timeout_ms` takes this side's budget from options(): connect_timeout_ms
  /// where this party dials, accept_timeout_ms where it accepts. Where it
  /// accepts, a stray or mismatched connection is dropped and the wait
  /// continues; where it dials, an acceptor that answers with the wrong
  /// identity or configuration (kFailedPrecondition) ends the heal at once.
  /// On success the new link's stats are reset, exactly like a fresh
  /// Establish; on failure the slot stays empty (link(peer) == nullptr).
  Status ReestablishLink(size_t peer, int timeout_ms = -1);

  /// The budgets this mesh was established with (and heals with).
  const PartyMeshOptions& options() const { return options_; }

  /// Closes every link and the listener. Idempotent.
  void CloseAll();

 private:
  using Clock = std::chrono::steady_clock;

  PartyMesh() = default;

  /// The dialer's half of the link to `peer`: connects (retrying for at
  /// most connect_timeout_ms), sends the hello, waits at most
  /// accept_timeout_ms for the ack and checks that it names `peer` — each
  /// step also ends by `deadline`. On success the link takes its slot.
  Status DialLink(size_t peer, Clock::time_point deadline);

  /// The acceptor's half of one link: accepts a connection and waits for
  /// its hello, both by `deadline`, checks the sender (it must be
  /// `expected` when given, else any lower-indexed party not yet linked),
  /// then acks. On success the link takes the sender's slot.
  Status AcceptLink(std::optional<size_t> expected, Clock::time_point deadline);

  size_t index_ = 0;
  std::vector<std::unique_ptr<SocketChannel>> channels_;  // null at index_
  std::optional<SocketListener> listener_;
  // Retained from Establish so ReestablishLink can redial the same fleet.
  std::vector<MeshEndpoint> endpoints_;
  PartyMeshOptions options_;
};

}  // namespace ppdbscan

#endif  // PPDBSCAN_NET_PARTY_MESH_H_
