#include "smc/membership.h"

#include <algorithm>
#include <span>

#include "bigint/codec.h"
#include "net/message.h"
#include "smc/multiplication.h"

namespace ppdbscan {

namespace {

constexpr uint16_t kMshBegin = 0x0411;     // Driver -> Responder: Q, dims
constexpr uint16_t kMshCiphers = 0x0412;   // Responder -> Driver: E(y) matrix
constexpr uint16_t kMshResponse = 0x0413;  // Driver -> Responder: masked products

/// Number of queries per flight so one kMshResponse frame carries at most
/// kMshMaxCiphersPerFlight ciphers. Both sides derive this from the public
/// sizes, so the flight schedule never desyncs.
size_t QueriesPerFlight(size_t count, size_t dims) {
  const size_t per_query = std::max<size_t>(1, count * dims);
  return std::max<size_t>(1, kMshMaxCiphersPerFlight / per_query);
}

}  // namespace

Result<std::vector<size_t>> MembershipBatchDriver(
    Channel& channel, const SmcSession& session, SecureComparator& comparator,
    const std::vector<std::vector<int64_t>>& queries, int64_t eps_squared,
    SecureRng& rng) {
  const size_t q_count = queries.size();
  const size_t dims = q_count == 0 ? 0 : queries[0].size();
  for (const std::vector<int64_t>& q : queries) {
    if (q.size() != dims) {
      return Status::InvalidArgument(
          "membership queries must share one dimensionality");
    }
  }

  ByteWriter begin;
  begin.PutU32(static_cast<uint32_t>(q_count));
  begin.PutU32(static_cast<uint32_t>(dims));
  PPD_RETURN_IF_ERROR(SendMessage(channel, kMshBegin, begin));
  std::vector<size_t> counts(q_count, 0);
  if (q_count == 0) return counts;

  const PaillierContext& peer = session.peer_paillier();
  PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                       ExpectMessage(channel, kMshCiphers));
  ByteReader reader(payload);
  PPD_ASSIGN_OR_RETURN(uint32_t count, reader.GetU32());
  PPD_ASSIGN_OR_RETURN(uint32_t peer_dims, reader.GetU32());
  if (count == 0) return counts;  // nothing to compare against
  if (peer_dims != dims) {
    return AbortPeer(channel,
                     Status::DataLoss("membership dimension mismatch"),
                     "membership dimension mismatch");
  }
  Result<std::vector<BigInt>> ciphers =
      ReadCiphers(reader, size_t{count} * dims, peer);
  if (!ciphers.ok()) {
    return AbortPeer(channel, ciphers.status(), "membership ciphers invalid");
  }

  const BigInt threshold(eps_squared);
  const size_t flight = QueriesPerFlight(count, dims);
  for (size_t q0 = 0; q0 < q_count; q0 += flight) {
    const size_t qn = std::min(flight, q_count - q0);
    // The HDP Helper step with the responder's one cipher matrix reused
    // for every query of the flight.
    PPD_ASSIGN_OR_RETURN(
        std::vector<BigInt> blinded,
        MaskedProducts(peer, *ciphers, dims,
                       std::span(queries).subspan(q0, qn), rng));
    ByteWriter out;
    for (const BigInt& c : blinded) WriteBigInt(out, c);
    PPD_RETURN_IF_ERROR(SendMessage(channel, kMshResponse, out));

    // S_A per query, repeated across that query's comparisons.
    std::vector<BigInt> xqs;
    xqs.reserve(qn * count);
    for (size_t qi = 0; qi < qn; ++qi) {
      xqs.insert(xqs.end(), count, SquaredNorm(queries[q0 + qi]));
    }
    PPD_ASSIGN_OR_RETURN(
        std::vector<bool> bits,
        comparator.QuerierCompareBatch(channel, xqs, threshold));
    for (size_t qi = 0; qi < qn; ++qi) {
      for (uint32_t k = 0; k < count; ++k) {
        if (bits[qi * count + k]) ++counts[q0 + qi];
      }
    }
  }
  return counts;
}

Status MembershipBatchResponder(
    Channel& channel, const SmcSession& session, SecureComparator& comparator,
    const std::vector<std::vector<int64_t>>& points, SecureRng& rng) {
  PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> begin_payload,
                       ExpectMessage(channel, kMshBegin));
  ByteReader begin_reader(begin_payload);
  PPD_ASSIGN_OR_RETURN(uint32_t q_count, begin_reader.GetU32());
  PPD_ASSIGN_OR_RETURN(uint32_t q_dims, begin_reader.GetU32());
  if (!begin_reader.Done()) {
    return Status::DataLoss("trailing membership begin bytes");
  }
  if (q_count == 0) return Status::Ok();

  const size_t count = points.size();
  const size_t dims = count == 0 ? q_dims : points[0].size();
  if (count != 0 && q_dims != dims) {
    return AbortPeer(channel,
                     Status::DataLoss("membership dimension mismatch"),
                     "membership dimension mismatch");
  }

  // Encrypt the coordinate matrix ONCE; every query reuses it.
  std::vector<int64_t> coords;
  coords.reserve(count * dims);
  for (const std::vector<int64_t>& y : points) {
    coords.insert(coords.end(), y.begin(), y.end());
  }
  PPD_ASSIGN_OR_RETURN(std::vector<BigInt> cipher_matrix,
                       EncryptCoordinates(session, coords, rng));
  ByteWriter ciphers;
  ciphers.PutU32(static_cast<uint32_t>(count));
  ciphers.PutU32(static_cast<uint32_t>(dims));
  for (const BigInt& c : cipher_matrix) WriteBigInt(ciphers, c);
  PPD_RETURN_IF_ERROR(SendMessage(channel, kMshCiphers, ciphers));
  if (count == 0) return Status::Ok();

  const size_t flight = QueriesPerFlight(count, dims);
  for (size_t q0 = 0; q0 < q_count; q0 += flight) {
    const size_t qn = std::min(flight, size_t{q_count} - q0);
    PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                         ExpectMessage(channel, kMshResponse));
    ByteReader reader(payload);
    Result<std::vector<BigInt>> response =
        ReadCiphers(reader, qn * coords.size(), session.own_paillier_ctx());
    if (!response.ok()) {
      return AbortPeer(channel, response.status(),
                       "membership response invalid");
    }
    PPD_ASSIGN_OR_RETURN(
        std::vector<BigInt> s_b,
        DistanceShares(session, *response, coords, dims));
    for (size_t qi = 0; qi < qn; ++qi) {
      // Fresh share permutation PER QUERY: the driver's query share is the
      // same for all of a query's comparisons, so shuffling our shares
      // permutes its result bits without changing the count — it cannot
      // link bit positions to stable points across queries.
      BigInt* base = &s_b[qi * count];
      for (size_t i = count; i > 1; --i) {
        size_t j = rng.UniformU64(i);
        std::swap(base[i - 1], base[j]);
      }
    }
    PPD_RETURN_IF_ERROR(comparator.PeerAssistBatch(channel, s_b));
  }
  return Status::Ok();
}

}  // namespace ppdbscan
