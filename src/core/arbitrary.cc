#include "core/arbitrary.h"

#include "core/distance_protocols.h"
#include "core/expand.h"
#include "core/wire.h"
#include "net/message.h"
#include "smc/comparator.h"

namespace ppdbscan {

Result<PartyClusteringResult> RunArbitraryDbscan(
    Channel& channel, const SmcSession& session,
    const ArbitraryPartyView& own_view, PartyRole role,
    const ProtocolOptions& options, SecureRng& rng,
    DisclosureLog* disclosures) {
  PPD_ASSIGN_OR_RETURN(
      std::unique_ptr<SecureComparator> comparator,
      CreateComparator(options.comparator, session, rng));
  const size_t n = own_view.values.size();

  // Record-count handshake (same as the vertical protocol).
  {
    ByteWriter hello;
    hello.PutU32(static_cast<uint32_t>(n));
    PPD_RETURN_IF_ERROR(SendMessage(channel, wire::kVtHello, hello));
    PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                         ExpectMessage(channel, wire::kVtHello));
    ByteReader reader(payload);
    PPD_ASSIGN_OR_RETURN(uint32_t peer_n, reader.GetU32());
    if (peer_n != n) {
      return Status::InvalidArgument(
          "parties disagree on the record count in arbitrary partitioning");
    }
  }

  const bool is_driver = role == PartyRole::kAlice;

  RegionQueryFn query = [&](size_t x) -> Result<std::vector<size_t>> {
    if (is_driver) {
      ByteWriter announce;
      announce.PutU32(static_cast<uint32_t>(x));
      PPD_RETURN_IF_ERROR(SendMessage(channel, wire::kVtQuery, announce));
      std::vector<size_t> neighbours;
      for (size_t y = 0; y < n; ++y) {
        PPD_ASSIGN_OR_RETURN(
            bool bit,
            ArbitraryPairDriver(channel, session, *comparator, own_view, x, y,
                                options.params.eps_squared, rng));
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
    PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                         ExpectMessage(channel, wire::kVtQuery));
    ByteReader reader(payload);
    PPD_ASSIGN_OR_RETURN(uint32_t announced, reader.GetU32());
    if (announced != x) {
      return Status::DataLoss("arbitrary scan desynchronized");
    }
    for (size_t y = 0; y < n; ++y) {
      PPD_RETURN_IF_ERROR(ArbitraryPairResponder(channel, session,
                                                 *comparator, own_view, x, y,
                                                 rng));
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

  // Lockstep expansion on both sides, as in the vertical protocol.
  PPD_ASSIGN_OR_RETURN(
      PartyClusteringResult result,
      ExpandClusters(n, query, [&](size_t, size_t neighbours) -> Result<bool> {
        return neighbours >= options.params.min_pts;
      }));

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
