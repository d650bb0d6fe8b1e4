#include "core/arbitrary.h"

#include <span>

#include "bigint/codec.h"
#include "core/expand.h"
#include "core/wire.h"
#include "net/message.h"
#include "smc/comparator.h"
#include "smc/multiplication.h"

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
        "parties disagree on the number of shared records");
  }
  return Status::Ok();
}

/// One record pair from one party's side, per §4.4. Ownership masks are
/// public, so both parties classify every attribute identically.
struct PairSplit {
  int64_t local_part = 0;             // Σ (x_t − y_t)² over attrs I own in both
  std::vector<int64_t> cross_values;  // my half of each cross-owned attribute
};

PairSplit SplitPair(const ArbitraryPartyView& own, size_t xi, size_t yi) {
  PairSplit split;
  for (size_t t = 0; t < own.dims; ++t) {
    bool mine_x = own.owned[xi][t] != 0;
    bool mine_y = own.owned[yi][t] != 0;
    if (mine_x == mine_y) {
      if (mine_x) {
        int64_t d = own.values[xi][t] - own.values[yi][t];
        split.local_part += d * d;
      }
      continue;
    }
    split.cross_values.push_back(mine_x ? own.values[xi][t]
                                        : own.values[yi][t]);
  }
  return split;
}

/// Driver side of the §4.4 pair test: the Helper of the batched
/// Multiplication Protocol over the cross-owned attributes (one point),
/// then one secure comparison of S_A + S_B against Eps². Learns the bit.
Result<bool> PairDriver(Channel& channel, const SmcSession& session,
                        SecureComparator& comparator, const PairSplit& split,
                        int64_t eps_squared, SecureRng& rng) {
  const std::vector<int64_t>& cross = split.cross_values;
  if (!cross.empty()) {
    const PaillierContext& peer = session.peer_paillier();
    PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                         ExpectMessage(channel, wire::kArbPairCiphers));
    ByteReader reader(payload);
    PPD_ASSIGN_OR_RETURN(uint32_t count, reader.GetU32());
    if (count != cross.size()) {
      return AbortPeer(channel,
                       Status::DataLoss("cross attribute count mismatch"),
                       "arbitrary cross count mismatch");
    }
    Result<std::vector<BigInt>> ciphers = ReadCiphers(reader, count, peer);
    if (!ciphers.ok()) {
      return AbortPeer(channel, ciphers.status(),
                       "arbitrary cross cipher invalid");
    }
    PPD_ASSIGN_OR_RETURN(
        std::vector<BigInt> blinded,
        MaskedProducts(peer, *ciphers, cross.size(), std::span(&cross, 1),
                       rng));
    ByteWriter out;
    for (const BigInt& c : blinded) WriteBigInt(out, c);
    PPD_RETURN_IF_ERROR(SendMessage(channel, wire::kArbPairResponse, out));
  }
  BigInt s_alice = BigInt(split.local_part) + SquaredNorm(cross);
  return comparator.QuerierCompare(channel, s_alice, BigInt(eps_squared));
}

/// Responder side: the Receiver of the batched Multiplication Protocol
/// over its cross-owned halves, then assists the comparison.
Status PairResponder(Channel& channel, const SmcSession& session,
                     SecureComparator& comparator, const PairSplit& split,
                     SecureRng& rng) {
  const std::vector<int64_t>& cross = split.cross_values;
  BigInt s_bob(split.local_part);
  if (!cross.empty()) {
    PPD_ASSIGN_OR_RETURN(std::vector<BigInt> cipher_vec,
                         EncryptCoordinates(session, cross, rng));
    ByteWriter ciphers;
    ciphers.PutU32(static_cast<uint32_t>(cross.size()));
    for (const BigInt& c : cipher_vec) WriteBigInt(ciphers, c);
    PPD_RETURN_IF_ERROR(SendMessage(channel, wire::kArbPairCiphers, ciphers));

    PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                         ExpectMessage(channel, wire::kArbPairResponse));
    ByteReader reader(payload);
    Result<std::vector<BigInt>> response =
        ReadCiphers(reader, cross.size(), session.own_paillier_ctx());
    if (!response.ok()) {
      return AbortPeer(channel, response.status(),
                       "arbitrary cross response invalid");
    }
    PPD_ASSIGN_OR_RETURN(
        std::vector<BigInt> shares,
        DistanceShares(session, *response, cross, cross.size()));
    s_bob += shares[0];
  }
  return comparator.PeerAssist(channel, s_bob);
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

/// The peer's side of the neighbour broadcast.
Result<std::vector<size_t>> ReadNeighbours(Channel& channel, size_t n) {
  PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                       ExpectMessage(channel, wire::kVtNeighbours));
  ByteReader reader(payload);
  PPD_ASSIGN_OR_RETURN(uint32_t count, reader.GetU32());
  if (count > n) return Status::DataLoss("neighbour count out of range");
  std::vector<size_t> neighbours(count);
  for (uint32_t k = 0; k < count; ++k) {
    PPD_ASSIGN_OR_RETURN(uint32_t y, reader.GetU32());
    if (y >= n) return Status::DataLoss("neighbour index out of range");
    neighbours[k] = y;
  }
  return neighbours;
}

}  // namespace

Result<PartyClusteringResult> RunArbitraryDbscan(
    Channel& channel, const SmcSession& session,
    const ArbitraryPartyView& own_view, PartyRole role,
    const ProtocolOptions& options, SecureRng& rng,
    DisclosureLog* disclosures, bool local_pruning) {
  PPD_ASSIGN_OR_RETURN(
      std::unique_ptr<SecureComparator> comparator,
      CreateComparator(options.comparator, session, rng));
  const size_t n = own_view.values.size();
  PPD_RETURN_IF_ERROR(ExchangeRecordCount(channel, n));

  const bool is_driver = role == PartyRole::kAlice;
  const int64_t eps_squared = options.params.eps_squared;

  RegionQueryFn query = [&](size_t x) -> Result<std::vector<size_t>> {
    if (is_driver) {
      ByteWriter announce;
      announce.PutU32(static_cast<uint32_t>(x));
      PPD_RETURN_IF_ERROR(SendMessage(channel, wire::kVtQuery, announce));
    } else {
      // The lockstep scan guarantees the driver queries the same record
      // next; verify and assist.
      PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                           ExpectMessage(channel, wire::kVtQuery));
      ByteReader reader(payload);
      PPD_ASSIGN_OR_RETURN(uint32_t announced, reader.GetU32());
      if (announced != x) {
        return Status::DataLoss("shared-record scan desynchronized");
      }
    }
    std::vector<PairSplit> splits(n);
    for (size_t y = 0; y < n; ++y) splits[y] = SplitPair(own_view, x, y);
    std::vector<bool> skip(n, false);
    if (local_pruning) {
      for (size_t y = 0; y < n; ++y) {
        skip[y] = splits[y].local_part > eps_squared;
      }
      PPD_ASSIGN_OR_RETURN(
          std::vector<bool> peer_prune,
          ExchangePruneBitmaps(channel, is_driver, skip, disclosures));
      for (size_t y = 0; y < n; ++y) skip[y] = skip[y] || peer_prune[y];
    }

    std::vector<size_t> neighbours;
    if (is_driver) {
      for (size_t y = 0; y < n; ++y) {
        if (skip[y]) continue;
        PPD_ASSIGN_OR_RETURN(bool bit,
                             PairDriver(channel, session, *comparator,
                                        splits[y], eps_squared, rng));
        if (bit) neighbours.push_back(y);
      }
      ByteWriter out;
      out.PutU32(static_cast<uint32_t>(neighbours.size()));
      for (size_t y : neighbours) out.PutU32(static_cast<uint32_t>(y));
      PPD_RETURN_IF_ERROR(SendMessage(channel, wire::kVtNeighbours, out));
    } else {
      for (size_t y = 0; y < n; ++y) {
        if (skip[y]) continue;
        PPD_RETURN_IF_ERROR(
            PairResponder(channel, session, *comparator, splits[y], rng));
      }
      PPD_ASSIGN_OR_RETURN(neighbours, ReadNeighbours(channel, n));
    }
    if (disclosures != nullptr) {
      disclosures->Record("neighborhood_size",
                          static_cast<int64_t>(neighbours.size()));
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

  if (is_driver) {
    PPD_RETURN_IF_ERROR(
        SendMessage(channel, wire::kVtDone, std::vector<uint8_t>()));
  } else {
    PPD_RETURN_IF_ERROR(ExpectMessage(channel, wire::kVtDone).status());
  }
  return result;
}

}  // namespace ppdbscan
