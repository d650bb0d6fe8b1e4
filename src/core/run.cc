#include "core/run.h"

#include <memory>
#include <thread>
#include <utility>

#include "net/memory_channel.h"
#include "net/socket_channel.h"

namespace ppdbscan {

namespace {

/// Builds a connected two-party channel pair over real TCP on the
/// loopback interface (ephemeral kernel-assigned port).
Result<std::pair<std::unique_ptr<Channel>, std::unique_ptr<Channel>>>
TcpLoopbackPair() {
  PPD_ASSIGN_OR_RETURN(SocketListener listener, SocketListener::Bind(0));
  const uint16_t port = listener.port();
  Result<std::unique_ptr<SocketChannel>> accepted =
      Status::Internal("accept thread did not run");
  // The accept is time-bounded so a failed connect (firewalled loopback,
  // port exhaustion) surfaces as an error instead of wedging the join.
  std::thread acceptor(
      [&] { accepted = listener.Accept(/*timeout_ms=*/15000); });
  Result<std::unique_ptr<SocketChannel>> connected =
      SocketChannel::Connect("127.0.0.1", port);
  acceptor.join();
  PPD_RETURN_IF_ERROR(accepted.status());
  PPD_RETURN_IF_ERROR(connected.status());
  return std::make_pair(
      std::unique_ptr<Channel>(std::move(accepted).value()),
      std::unique_ptr<Channel>(std::move(connected).value()));
}

/// The one body behind ExecuteLocal and ExecuteLocalOutcomes: builds every
/// party's endpoints (a MemoryChannel per pair, or one TCP loopback pair),
/// wraps the scripted faults, and runs each party on its own thread.
/// Returns per-party results in party order.
std::vector<Result<RunOutcome>> RunLocalParties(
    const std::vector<LocalJob>& parties, const SmcOptions& smc,
    LocalTransport transport, const std::vector<LocalLinkFault>& faults) {
  const size_t p = parties.size();
  std::vector<Result<RunOutcome>> outs;
  outs.reserve(p);
  for (size_t i = 0; i < p; ++i) {
    outs.emplace_back(Status::Internal("party did not run"));
  }
  auto fail_all = [&outs](const Status& status) {
    for (Result<RunOutcome>& out : outs) out = status;
    return outs;
  };
  if (p < 2) {
    return fail_all(
        Status::InvalidArgument("in-process execution needs >= 2 parties"));
  }
  // kMultiparty jobs always run over a mesh runtime, even with two parties.
  const bool mesh =
      p > 2 || parties[0].job.scheme == PartitionScheme::kMultiparty;

  // ends[i][j] is party i's endpoint of the (i, j) link, individually
  // wrappable with a scripted fault.
  std::vector<std::vector<std::unique_ptr<Channel>>> ends(p);
  for (auto& row : ends) row.resize(p);
  if (transport == LocalTransport::kTcpLoopback) {
    if (mesh) {
      return fail_all(Status::InvalidArgument(
          "tcp loopback transport supports two-party schemes; multiparty "
          "runs use the in-memory mesh"));
    }
    Result<std::pair<std::unique_ptr<Channel>, std::unique_ptr<Channel>>>
        pair = TcpLoopbackPair();
    if (!pair.ok()) return fail_all(pair.status());
    ends[0][1] = std::move(pair->first);
    ends[1][0] = std::move(pair->second);
  } else {
    for (size_t i = 0; i < p; ++i) {
      for (size_t j = i + 1; j < p; ++j) {
        auto [a, b] = MemoryChannel::CreatePair();
        ends[i][j] = std::move(a);
        ends[j][i] = std::move(b);
      }
    }
  }
  for (const LocalLinkFault& fault : faults) {
    if (fault.party >= p || fault.peer >= p || fault.party == fault.peer) {
      return fail_all(Status::InvalidArgument(
          "fault schedule references a link outside the mesh"));
    }
    ends[fault.party][fault.peer] = std::make_unique<FaultInjectingChannel>(
        std::move(ends[fault.party][fault.peer]), fault.schedule);
  }

  std::vector<std::thread> threads;
  threads.reserve(p);
  for (size_t i = 0; i < p; ++i) {
    threads.emplace_back([&, i] {
      std::vector<Channel*> links(p, nullptr);
      for (size_t j = 0; j < p; ++j) {
        if (j != i) links[j] = ends[i][j].get();
      }
      // Arm the job's deadline for session establishment as well: a fault
      // that fires during the key exchange must still surface as a named
      // error. PartyRuntime::Run re-arms (and finally restores) the same
      // deadline for the job rounds.
      const int establish_deadline_ms =
          parties[i].job.options.round_deadline_ms > 0
              ? parties[i].job.options.round_deadline_ms
              : -1;
      for (Channel* link : links) {
        if (link != nullptr) link->set_recv_deadline_ms(establish_deadline_ms);
      }
      Result<PartyRuntime> runtime =
          mesh ? PartyRuntime::ConnectMesh(links, i, SecureRng(parties[i].seed),
                                           smc)
               : PartyRuntime::Connect(*links[1 - i], SecureRng(parties[i].seed),
                                       smc);
      for (Channel* link : links) {
        if (link != nullptr) link->set_recv_deadline_ms(-1);
      }
      if (runtime.ok()) {
        outs[i] = runtime->Run(parties[i].job);
      } else {
        outs[i] = runtime.status();
      }
      // Close all of this party's ends — on failure this unblocks peers
      // still waiting; on success the links are single-use anyway.
      for (Channel* link : links) {
        if (link != nullptr) link->Close();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return outs;
}

}  // namespace

Result<std::vector<RunOutcome>> ExecuteLocal(
    const std::vector<LocalJob>& parties, const SmcOptions& smc,
    LocalTransport transport) {
  std::vector<Result<RunOutcome>> outs =
      RunLocalParties(parties, smc, transport, {});
  std::vector<RunOutcome> outcomes;
  outcomes.reserve(outs.size());
  for (Result<RunOutcome>& out : outs) {
    PPD_RETURN_IF_ERROR(out.status());
    outcomes.push_back(std::move(out).value());
  }
  return outcomes;
}

std::vector<Result<RunOutcome>> ExecuteLocalOutcomes(
    const std::vector<LocalJob>& parties, const SmcOptions& smc,
    const std::vector<LocalLinkFault>& faults) {
  return RunLocalParties(parties, smc, LocalTransport::kMemory, faults);
}

}  // namespace ppdbscan
