#include "net/party_mesh.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>
#include <utility>

#include "common/serialize.h"

namespace ppdbscan {

namespace {

/// Mesh link handshake: the connector sends a hello, the acceptor answers
/// with an ack. Both carry the magic, the handshake version, the sender's
/// view of the party count, and the sender's own index, so a link between
/// mismatched deployments fails with a descriptive error on both ends.
constexpr uint32_t kMeshMagic = 0x5050646d;  // "PPdm"
constexpr uint16_t kMeshVersion = 1;

std::vector<uint8_t> BuildHandshake(size_t parties, size_t index) {
  ByteWriter w;
  w.PutU32(kMeshMagic);
  w.PutU16(kMeshVersion);
  w.PutU32(static_cast<uint32_t>(parties));
  w.PutU32(static_cast<uint32_t>(index));
  return w.Take();
}

/// Parses a hello/ack and returns the sender's index.
Result<size_t> ParseHandshake(const std::vector<uint8_t>& frame,
                              size_t expected_parties) {
  ByteReader reader(frame);
  PPD_ASSIGN_OR_RETURN(uint32_t magic, reader.GetU32());
  if (magic != kMeshMagic) {
    return Status::FailedPrecondition(
        "mesh handshake: bad magic (a non-mesh client connected?)");
  }
  PPD_ASSIGN_OR_RETURN(uint16_t version, reader.GetU16());
  if (version != kMeshVersion) {
    return Status::FailedPrecondition(
        "mesh handshake: peer speaks version " + std::to_string(version) +
        ", this build speaks " + std::to_string(kMeshVersion));
  }
  PPD_ASSIGN_OR_RETURN(uint32_t parties, reader.GetU32());
  if (parties != expected_parties) {
    return Status::FailedPrecondition(
        "mesh handshake: peer expects " + std::to_string(parties) +
        " parties, this mesh has " + std::to_string(expected_parties));
  }
  PPD_ASSIGN_OR_RETURN(uint32_t index, reader.GetU32());
  if (!reader.Done()) {
    return Status::DataLoss("mesh handshake: trailing bytes");
  }
  return static_cast<size_t>(index);
}

Status Annotate(const Status& status, const std::string& context) {
  return Status(status.code(), context + ": " + status.message());
}

/// Milliseconds left until `deadline`, clamped to [0, INT_MAX].
int MsUntil(std::chrono::steady_clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - std::chrono::steady_clock::now());
  return static_cast<int>(std::clamp<int64_t>(
      left.count(), 0, std::numeric_limits<int>::max()));
}

std::chrono::steady_clock::time_point After(int ms) {
  return std::chrono::steady_clock::now() +
         std::chrono::milliseconds(std::max(ms, 0));
}

}  // namespace

Result<PartyMesh> PartyMesh::Establish(
    const std::vector<MeshEndpoint>& endpoints, size_t index,
    const PartyMeshOptions& options) {
  std::optional<SocketListener> listener;
  if (index > 0) {
    if (index >= endpoints.size()) {
      return Status::InvalidArgument("party index out of range");
    }
    const int backlog = std::max<int>(options.min_backlog,
                                      static_cast<int>(endpoints.size()));
    Result<SocketListener> bound =
        SocketListener::Bind(endpoints[index].port, backlog);
    if (!bound.ok()) {
      return Annotate(bound.status(),
                      "binding party " + std::to_string(index) +
                          "'s mesh listener");
    }
    listener.emplace(std::move(*bound));
  }
  return EstablishWithListener(std::move(listener), endpoints, index,
                               options);
}

Result<PartyMesh> PartyMesh::EstablishWithListener(
    std::optional<SocketListener> listener,
    const std::vector<MeshEndpoint>& endpoints, size_t index,
    const PartyMeshOptions& options) {
  const size_t p = endpoints.size();
  if (p < 2) return Status::InvalidArgument("a party mesh needs >= 2 parties");
  if (index >= p) return Status::InvalidArgument("party index out of range");
  if (index > 0 && (!listener.has_value() || !listener->listening())) {
    return Status::InvalidArgument(
        "party " + std::to_string(index) + " needs a bound listener");
  }

  PartyMesh mesh;
  mesh.index_ = index;
  mesh.channels_.resize(p);
  mesh.listener_ = std::move(listener);
  mesh.endpoints_ = endpoints;
  mesh.options_ = options;

  // Connect phase: one link to every higher-indexed party. DialLink's own
  // caps (connect_timeout_ms, then accept_timeout_ms for the ack) bound it.
  for (size_t j = index + 1; j < p; ++j) {
    Status dialed = mesh.DialLink(j, Clock::time_point::max());
    if (!dialed.ok()) {
      return Annotate(dialed, "party " + std::to_string(index) +
                                  " connecting to party " + std::to_string(j));
    }
  }
  // Accept phase: one link from every lower-indexed party, slotted by the
  // hello's sender index (arrival order is nondeterministic), each within
  // its own accept budget.
  for (size_t accepted = 0; accepted < index; ++accepted) {
    Status linked =
        mesh.AcceptLink(std::nullopt, After(options.accept_timeout_ms));
    if (!linked.ok()) {
      return Annotate(linked, "party " + std::to_string(index) +
                                  " accepting mesh peer");
    }
  }
  return mesh;
}

Status PartyMesh::DialLink(size_t peer, Clock::time_point deadline) {
  PPD_ASSIGN_OR_RETURN(
      std::unique_ptr<SocketChannel> channel,
      SocketChannel::Connect(
          endpoints_[peer].host, endpoints_[peer].port,
          std::min(options_.connect_timeout_ms, MsUntil(deadline))));
  channel->set_recv_deadline_ms(
      std::max(std::min(options_.accept_timeout_ms, MsUntil(deadline)), 1));
  PPD_RETURN_IF_ERROR(channel->Send(BuildHandshake(parties(), index_)));
  PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> ack, channel->Recv());
  PPD_ASSIGN_OR_RETURN(size_t acceptor, ParseHandshake(ack, parties()));
  if (acceptor != peer) {
    return Status::FailedPrecondition("endpoint identifies as party " +
                                      std::to_string(acceptor) +
                                      " — endpoint lists disagree");
  }
  // Handshake traffic is transport setup, not protocol traffic.
  channel->set_recv_deadline_ms(-1);
  channel->ResetStats();
  channels_[peer] = std::move(channel);
  return Status::Ok();
}

Status PartyMesh::AcceptLink(std::optional<size_t> expected,
                             Clock::time_point deadline) {
  PPD_ASSIGN_OR_RETURN(std::unique_ptr<SocketChannel> channel,
                       listener_->Accept(MsUntil(deadline)));
  channel->set_recv_deadline_ms(std::max(MsUntil(deadline), 1));
  PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> hello, channel->Recv());
  PPD_ASSIGN_OR_RETURN(size_t sender, ParseHandshake(hello, parties()));
  if (expected.has_value() && sender != *expected) {
    return Status::FailedPrecondition(
        "party " + std::to_string(sender) + " connected while waiting for " +
        "party " + std::to_string(*expected));
  }
  if (sender >= index_) {
    return Status::FailedPrecondition(
        "party " + std::to_string(sender) +
        " must not connect to a lower index (schedule violation)");
  }
  if (channels_[sender] != nullptr) {
    return Status::FailedPrecondition("party " + std::to_string(sender) +
                                      " connected twice");
  }
  PPD_RETURN_IF_ERROR(channel->Send(BuildHandshake(parties(), index_)));
  channel->set_recv_deadline_ms(-1);
  channel->ResetStats();
  channels_[sender] = std::move(channel);
  return Status::Ok();
}

Status PartyMesh::ReestablishLink(size_t peer, int timeout_ms) {
  const size_t p = channels_.size();
  if (peer >= p || peer == index_) {
    return Status::InvalidArgument("ReestablishLink needs a mesh peer index");
  }
  if (endpoints_.size() != p) {
    return Status::FailedPrecondition(
        "this mesh was not built by Establish (no endpoint list retained)");
  }
  // Drop the dead link first: closing our end unblocks a peer that is
  // still parked in a Recv on it, and frees the port direction for the
  // fresh connection.
  if (channels_[peer] != nullptr) {
    channels_[peer]->Close();
    channels_[peer].reset();
  }
  const std::string context = "party " + std::to_string(index_) +
                              " re-establishing its link to party " +
                              std::to_string(peer);
  const bool dials = peer > index_;  // the original schedule
  if (!dials && (!listener_.has_value() || !listener_->listening())) {
    return Status::FailedPrecondition(context +
                                      ": no retained listener to accept on");
  }
  if (timeout_ms < 0) {
    timeout_ms =
        dials ? options_.connect_timeout_ms : options_.accept_timeout_ms;
  }
  const Clock::time_point deadline = After(timeout_ms);
  // Retry until the budget expires: the peer may still be relaunching, not
  // yet accepting, or a stray connection may arrive first.
  Status last = Status::Unavailable("peer never became reachable");
  while (MsUntil(deadline) > 0) {
    last = dials ? DialLink(peer, deadline) : AcceptLink(peer, deadline);
    if (last.ok()) return last;
    // A dialed peer that answers with the wrong identity or configuration
    // will answer the same way on every retry.
    if (dials && last.code() == StatusCode::kFailedPrecondition) {
      return Annotate(last, context);
    }
    if (dials) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return Annotate(Status(StatusCode::kDeadlineExceeded,
                         "gave up after " + std::to_string(timeout_ms) +
                             "ms: " + last.ToString()),
                  context);
}

std::vector<Channel*> PartyMesh::links() const {
  std::vector<Channel*> links(channels_.size(), nullptr);
  for (size_t j = 0; j < channels_.size(); ++j) {
    if (j != index_) links[j] = channels_[j].get();
  }
  return links;
}

void PartyMesh::CloseAll() {
  for (const std::unique_ptr<SocketChannel>& channel : channels_) {
    if (channel != nullptr) channel->Close();
  }
  if (listener_.has_value()) listener_->Close();
}

}  // namespace ppdbscan
