#include "core/vertical.h"

#include "core/expand.h"
#include "core/wire.h"
#include "net/message.h"
#include "smc/comparator.h"

namespace ppdbscan {

namespace {

Status ExchangeRecordCount(Channel& channel, size_t n) {
  ByteWriter hello;
  hello.PutU32(static_cast<uint32_t>(n));
  PPD_RETURN_IF_ERROR(SendMessage(channel, wire::kVtHello, hello));
  PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                       ExpectMessage(channel, wire::kVtHello));
  ByteReader reader(payload);
  PPD_ASSIGN_OR_RETURN(uint32_t peer_n, reader.GetU32());
  if (peer_n != n) {
    return Status::InvalidArgument(
        "parties disagree on the record count in vertical partitioning");
  }
  return Status::Ok();
}

/// E9 pruning bitmap exchange: marks pairs (x, y) whose OWN partial squared
/// distance already exceeds Eps² (the total can only be larger). The driver
/// sends first; both sides then skip the union of the two maps. Returns the
/// peer's bitmap; records the disclosure (one bit per pruned pair learned
/// about the peer's partials).
Result<std::vector<bool>> ExchangePruneBitmaps(
    Channel& channel, bool is_driver, const std::vector<bool>& own_prune,
    DisclosureLog* disclosures) {
  const size_t n = own_prune.size();
  ByteWriter writer;
  writer.PutU32(static_cast<uint32_t>(n));
  uint8_t acc = 0;
  for (size_t y = 0; y < n; ++y) {
    acc = static_cast<uint8_t>(acc | (own_prune[y] ? 1u << (y % 8) : 0u));
    if (y % 8 == 7 || y + 1 == n) {
      writer.PutU8(acc);
      acc = 0;
    }
  }
  std::vector<uint8_t> peer_payload;
  if (is_driver) {
    PPD_RETURN_IF_ERROR(SendMessage(channel, wire::kVtPrune, writer));
    PPD_ASSIGN_OR_RETURN(peer_payload,
                         ExpectMessage(channel, wire::kVtPrune));
  } else {
    PPD_ASSIGN_OR_RETURN(peer_payload,
                         ExpectMessage(channel, wire::kVtPrune));
    PPD_RETURN_IF_ERROR(SendMessage(channel, wire::kVtPrune, writer));
  }
  ByteReader reader(peer_payload);
  PPD_ASSIGN_OR_RETURN(uint32_t peer_n, reader.GetU32());
  if (peer_n != n) return Status::DataLoss("prune bitmap size mismatch");
  std::vector<bool> peer_prune(n, false);
  uint8_t byte = 0;
  int64_t peer_pruned = 0;
  for (size_t y = 0; y < n; ++y) {
    if (y % 8 == 0) {
      PPD_ASSIGN_OR_RETURN(byte, reader.GetU8());
    }
    peer_prune[y] = (byte >> (y % 8)) & 1;
    peer_pruned += peer_prune[y] ? 1 : 0;
  }
  if (disclosures != nullptr) {
    disclosures->Record("peer_pruned_count", peer_pruned);
  }
  return peer_prune;
}

}  // namespace

Result<PartyClusteringResult> RunVerticalDbscan(
    Channel& channel, const SmcSession& session, const Dataset& own_columns,
    PartyRole role, const ProtocolOptions& options, SecureRng& rng,
    DisclosureLog* disclosures) {
  PPD_ASSIGN_OR_RETURN(
      std::unique_ptr<SecureComparator> comparator,
      CreateComparator(options.comparator, session, rng));
  const size_t n = own_columns.size();
  PPD_RETURN_IF_ERROR(ExchangeRecordCount(channel, n));

  const BigInt eps(options.params.eps_squared);
  const bool is_driver = role == PartyRole::kAlice;

  // With E9 pruning enabled, both sides locally discard pairs whose own
  // partial already exceeds Eps² and exchange the discard bitmaps; only
  // surviving pairs pay for a secure comparison.
  auto own_prune_map = [&](size_t x) {
    std::vector<bool> prune(n, false);
    if (options.vdp_local_pruning) {
      for (size_t y = 0; y < n; ++y) {
        prune[y] = own_columns.DistanceSquared(x, y) >
                   options.params.eps_squared;
      }
    }
    return prune;
  };

  RegionQueryFn query = [&](size_t x) -> Result<std::vector<size_t>> {
    if (is_driver) {
      ByteWriter announce;
      announce.PutU32(static_cast<uint32_t>(x));
      PPD_RETURN_IF_ERROR(SendMessage(channel, wire::kVtQuery, announce));
      std::vector<bool> own_prune = own_prune_map(x);
      std::vector<bool> peer_prune(n, false);
      if (options.vdp_local_pruning) {
        PPD_ASSIGN_OR_RETURN(
            peer_prune, ExchangePruneBitmaps(channel, /*is_driver=*/true,
                                             own_prune, disclosures));
      }
      std::vector<size_t> neighbours;
      for (size_t y = 0; y < n; ++y) {
        if (own_prune[y] || peer_prune[y]) continue;
        BigInt s_own(own_columns.DistanceSquared(x, y));
        PPD_ASSIGN_OR_RETURN(
            bool bit, comparator->QuerierCompare(channel, s_own, eps));
        if (bit) neighbours.push_back(y);
      }
      ByteWriter out;
      out.PutU32(static_cast<uint32_t>(neighbours.size()));
      for (size_t y : neighbours) out.PutU32(static_cast<uint32_t>(y));
      PPD_RETURN_IF_ERROR(SendMessage(channel, wire::kVtNeighbours, out));
      if (disclosures != nullptr) {
        disclosures->Record("neighborhood_size",
                            static_cast<int64_t>(neighbours.size()));
      }
      return neighbours;
    }
    // Peer side: the lockstep scan guarantees the driver queries the same
    // record next; verify and assist.
    PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                         ExpectMessage(channel, wire::kVtQuery));
    ByteReader reader(payload);
    PPD_ASSIGN_OR_RETURN(uint32_t announced, reader.GetU32());
    if (announced != x) {
      return Status::DataLoss("vertical scan desynchronized");
    }
    std::vector<bool> own_prune = own_prune_map(x);
    std::vector<bool> peer_prune(n, false);
    if (options.vdp_local_pruning) {
      PPD_ASSIGN_OR_RETURN(
          peer_prune, ExchangePruneBitmaps(channel, /*is_driver=*/false,
                                           own_prune, disclosures));
    }
    for (size_t y = 0; y < n; ++y) {
      if (own_prune[y] || peer_prune[y]) continue;
      BigInt s_own(own_columns.DistanceSquared(x, y));
      PPD_RETURN_IF_ERROR(comparator->PeerAssist(channel, s_own));
    }
    PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> neighbour_payload,
                         ExpectMessage(channel, wire::kVtNeighbours));
    ByteReader nreader(neighbour_payload);
    PPD_ASSIGN_OR_RETURN(uint32_t count, nreader.GetU32());
    if (count > n) return Status::DataLoss("neighbour count out of range");
    std::vector<size_t> neighbours(count);
    for (uint32_t k = 0; k < count; ++k) {
      PPD_ASSIGN_OR_RETURN(uint32_t y, nreader.GetU32());
      if (y >= n) return Status::DataLoss("neighbour index out of range");
      neighbours[k] = y;
    }
    if (disclosures != nullptr) {
      disclosures->Record("neighborhood_size", static_cast<int64_t>(count));
    }
    return neighbours;
  };

  // Both parties run the expansion in lockstep: the driver's query runs
  // the secure comparisons and announces the neighbour set, the peer's
  // query assists and receives it, so both end with identical labels —
  // the output §3.3 prescribes for records known to both parties.
  PPD_ASSIGN_OR_RETURN(
      PartyClusteringResult result,
      ExpandClusters(n, query, [&](size_t, size_t neighbours) -> Result<bool> {
        return neighbours >= options.params.min_pts;
      }));

  // Terminal handshake.
  if (is_driver) {
    PPD_RETURN_IF_ERROR(
        SendMessage(channel, wire::kVtDone, std::vector<uint8_t>()));
  } else {
    PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> done,
                         ExpectMessage(channel, wire::kVtDone));
    (void)done;
  }
  return result;
}

}  // namespace ppdbscan
