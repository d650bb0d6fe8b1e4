#include "core/distance_protocols.h"

#include <span>

#include "bigint/codec.h"
#include "core/wire.h"
#include "net/message.h"
#include "smc/multiplication.h"

namespace ppdbscan {

std::vector<size_t> RandomPermutation(SecureRng& rng, size_t n) {
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  for (size_t i = n; i > 1; --i) {
    size_t j = rng.UniformU64(i);
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

Result<size_t> HdpBatchDriver(Channel& channel, const SmcSession& session,
                              SecureComparator& comparator,
                              const std::vector<int64_t>& x,
                              int64_t eps_squared, SecureRng& rng,
                              std::vector<bool>* bits) {
  const PaillierContext& peer = session.peer_paillier();
  PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                       ExpectMessage(channel, wire::kHdpCiphers));
  ByteReader reader(payload);
  PPD_ASSIGN_OR_RETURN(uint32_t count, reader.GetU32());
  PPD_ASSIGN_OR_RETURN(uint32_t dims, reader.GetU32());
  if (dims != x.size()) {
    return AbortPeer(channel,
                     Status::DataLoss("HDP dimension mismatch"),
                     "hdp dimension mismatch");
  }
  Result<std::vector<BigInt>> ciphers =
      ReadCiphers(reader, size_t{count} * dims, peer);
  if (!ciphers.ok()) {
    return AbortPeer(channel, ciphers.status(), "hdp ciphers invalid");
  }
  // The Multiplication Protocol as the Helper for every responder point:
  // E(y_kj)^{x_j} · E(r_kj), with masks summing to zero per point.
  PPD_ASSIGN_OR_RETURN(
      std::vector<BigInt> blinded,
      MaskedProducts(peer, *ciphers, dims, std::span(&x, 1), rng));
  ByteWriter out;
  for (const BigInt& c : blinded) WriteBigInt(out, c);
  PPD_RETURN_IF_ERROR(SendMessage(channel, wire::kHdpResponse, out));

  // S_A = Σ x_j², then one comparison per responder point, batched so
  // backends with non-interactive rounds run their cryptography through
  // the Paillier batch APIs.
  std::vector<BigInt> xqs(count, SquaredNorm(x));
  PPD_ASSIGN_OR_RETURN(
      std::vector<bool> cmp,
      comparator.QuerierCompareBatch(channel, xqs, BigInt(eps_squared)));
  size_t in_range = 0;
  for (bool bit : cmp) in_range += bit ? 1 : 0;
  if (bits != nullptr) *bits = std::move(cmp);
  return in_range;
}

Status HdpBatchResponder(Channel& channel, const SmcSession& session,
                         SecureComparator& comparator, const Dataset& own,
                         SecureRng& rng, const std::vector<size_t>* subset,
                         bool permute) {
  std::vector<size_t> order;
  if (subset != nullptr) {
    order = *subset;
  } else {
    order.resize(own.size());
    for (size_t i = 0; i < own.size(); ++i) order[i] = i;
  }
  if (permute) {
    std::vector<size_t> perm = RandomPermutation(rng, order.size());
    std::vector<size_t> shuffled(order.size());
    for (size_t i = 0; i < order.size(); ++i) shuffled[i] = order[perm[i]];
    order = std::move(shuffled);
  }

  // The Receiver's step: the whole |order| × dims coordinate matrix as one
  // batch (pooled randomizers when the session has a pool).
  const size_t dims = own.dims();
  std::vector<int64_t> coords;
  coords.reserve(order.size() * dims);
  for (size_t idx : order) {
    const std::vector<int64_t>& y = own.point(idx);
    coords.insert(coords.end(), y.begin(), y.end());
  }
  PPD_ASSIGN_OR_RETURN(std::vector<BigInt> cipher_matrix,
                       EncryptCoordinates(session, coords, rng));
  ByteWriter ciphers;
  ciphers.PutU32(static_cast<uint32_t>(order.size()));
  ciphers.PutU32(static_cast<uint32_t>(dims));
  for (const BigInt& c : cipher_matrix) WriteBigInt(ciphers, c);
  PPD_RETURN_IF_ERROR(SendMessage(channel, wire::kHdpCiphers, ciphers));

  PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                       ExpectMessage(channel, wire::kHdpResponse));
  ByteReader reader(payload);
  Result<std::vector<BigInt>> response =
      ReadCiphers(reader, coords.size(), session.own_paillier_ctx());
  if (!response.ok()) {
    return AbortPeer(channel, response.status(), "hdp response invalid");
  }
  PPD_ASSIGN_OR_RETURN(std::vector<BigInt> s_b,
                       DistanceShares(session, *response, coords, dims));
  return comparator.PeerAssistBatch(channel, s_b);
}

}  // namespace ppdbscan
