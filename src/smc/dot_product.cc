#include "smc/dot_product.h"

#include "bigint/codec.h"
#include "common/thread_pool.h"
#include "net/message.h"
#include "smc/multiplication.h"

namespace ppdbscan {

namespace {
constexpr uint16_t kDotAlpha = 0x0201;     // Receiver -> Helper: E(α_t)...
constexpr uint16_t kDotResponse = 0x0202;  // Helper -> Receiver: E(u_i)...
}  // namespace

Result<std::vector<BigInt>> RunDotProductReceiver(
    Channel& channel, const SmcSession& session,
    const std::vector<BigInt>& alpha, size_t expected_rows, SecureRng& rng) {
  if (alpha.empty()) {
    return AbortPeer(channel, Status::InvalidArgument("alpha must be non-empty"),
                     "dot product alpha empty");
  }
  const PaillierContext& ctx = session.own_paillier_ctx();
  PPD_ASSIGN_OR_RETURN(std::vector<BigInt> alpha_ciphers,
                       ctx.EncryptSignedBatch(alpha, rng));
  ByteWriter out;
  out.PutU32(static_cast<uint32_t>(alpha.size()));
  for (const BigInt& cipher : alpha_ciphers) WriteBigInt(out, cipher);
  PPD_RETURN_IF_ERROR(SendMessage(channel, kDotAlpha, out));

  PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                       ExpectMessage(channel, kDotResponse));
  ByteReader reader(payload);
  PPD_ASSIGN_OR_RETURN(uint32_t rows, reader.GetU32());
  if (expected_rows != 0 && rows != expected_rows) {
    return Status::DataLoss("dot product row count mismatch");
  }
  PPD_ASSIGN_OR_RETURN(std::vector<BigInt> ciphers,
                       ReadCiphers(reader, rows, ctx));
  return session.own_paillier().DecryptBatch(ciphers);
}

Result<std::vector<BigInt>> RunDotProductHelper(
    Channel& channel, const SmcSession& session,
    const std::vector<std::vector<BigInt>>& rows,
    const DotProductOptions& options, SecureRng& rng) {
  const PaillierContext& peer = session.peer_paillier();
  PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                       ExpectMessage(channel, kDotAlpha));
  ByteReader reader(payload);
  PPD_ASSIGN_OR_RETURN(uint32_t alpha_len, reader.GetU32());
  // alpha_len is the peer's claim: the decoder bounds it by the payload
  // before reserving anything.
  PPD_ASSIGN_OR_RETURN(std::vector<BigInt> alpha_ciphers,
                       ReadCiphers(reader, alpha_len, peer));

  for (const std::vector<BigInt>& row : rows) {
    if (row.size() != alpha_ciphers.size()) {
      return AbortPeer(
          channel, Status::InvalidArgument("row length does not match alpha"),
          "dot product row length mismatch");
    }
  }
  // Randomness first (serial, cheap), then the E(α_t)^{β_t} accumulation
  // for every row in parallel: rows are independent, and each one is a
  // string of Montgomery exponentiations.
  std::vector<BigInt> masks;
  masks.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    masks.push_back(options.mask_bits == 0
                        ? BigInt::RandomBelow(rng, peer.pub().n)
                        : BigInt::RandomBits(rng, options.mask_bits));
  }
  PPD_ASSIGN_OR_RETURN(std::vector<BigInt> accs,
                       peer.EncryptBatch(masks, rng));
  ParallelFor(rows.size(), [&](size_t i) {
    // E(α·β + v) = Π E(α_t)^{β_t} · E(v).
    const std::vector<BigInt>& row = rows[i];
    for (size_t t = 0; t < row.size(); ++t) {
      if (row[t].IsZero()) continue;  // E(x)^0 contributes nothing
      accs[i] = peer.Add(accs[i], peer.MulPlain(alpha_ciphers[t], row[t]));
    }
  });
  ByteWriter out;
  out.PutU32(static_cast<uint32_t>(rows.size()));
  for (const BigInt& acc : accs) WriteBigInt(out, acc);
  PPD_RETURN_IF_ERROR(SendMessage(channel, kDotResponse, out));
  return masks;
}

}  // namespace ppdbscan
