#include "smc/multiplication.h"

#include "bigint/codec.h"
#include "common/thread_pool.h"
#include "net/message.h"

namespace ppdbscan {

namespace {
constexpr uint16_t kMultCipher = 0x0101;    // Receiver -> Helper: E_A(x)
constexpr uint16_t kMultResponse = 0x0102;  // Helper -> Receiver: u'

/// Smallest serialized ciphertext: sign byte, u32 length, one magnitude
/// byte (a valid ciphertext is >= 1).
constexpr size_t kMinCipherBytes = 6;

/// Zero-sum masks over Z_n: m uniform values with Σr_j = 0 (mod n), the
/// masking step of the paper's HDP.
std::vector<BigInt> ZeroSumMasks(SecureRng& rng, size_t m, const BigInt& n) {
  std::vector<BigInt> masks(m);
  BigInt sum;
  for (size_t j = 0; j + 1 < m; ++j) {
    masks[j] = BigInt::RandomBelow(rng, n);
    sum += masks[j];
  }
  masks[m - 1] = (-sum).Mod(n);
  return masks;
}

}  // namespace

Result<BigInt> RunMultiplicationReceiver(Channel& channel,
                                         const SmcSession& session,
                                         const BigInt& x, SecureRng& rng) {
  const PaillierContext& ctx = session.own_paillier_ctx();
  PPD_ASSIGN_OR_RETURN(BigInt cipher, ctx.EncryptSigned(x, rng));
  ByteWriter out;
  WriteBigInt(out, cipher);
  PPD_RETURN_IF_ERROR(SendMessage(channel, kMultCipher, out));

  PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                       ExpectMessage(channel, kMultResponse));
  ByteReader reader(payload);
  PPD_ASSIGN_OR_RETURN(BigInt u_cipher, ReadBigInt(reader));
  if (!session.own_paillier_ctx().IsValidCiphertext(u_cipher)) {
    return Status::DataLoss("multiplication response out of range");
  }
  // u = D(E(x)^y * E(v)) = x*y + v (mod n).
  return session.own_paillier().Decrypt(u_cipher);
}

Result<BigInt> RunMultiplicationHelperWithMask(Channel& channel,
                                               const SmcSession& session,
                                               const BigInt& y,
                                               const BigInt& v,
                                               SecureRng& rng) {
  const PaillierContext& peer = session.peer_paillier();
  if (v.IsNegative() || v >= peer.pub().n) {
    return AbortPeer(channel,
                     Status::InvalidArgument("mask must lie in [0, n)"),
                     "multiplication helper mask invalid");
  }
  PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                       ExpectMessage(channel, kMultCipher));
  ByteReader reader(payload);
  PPD_ASSIGN_OR_RETURN(BigInt x_cipher, ReadBigInt(reader));
  if (!peer.IsValidCiphertext(x_cipher)) {
    return Status::DataLoss("multiplication cipher out of range");
  }
  // u' = E(x)^y * E(v)  (all under the peer's key).
  BigInt xy_cipher = peer.MulPlain(x_cipher, y);
  PPD_ASSIGN_OR_RETURN(BigInt v_cipher, peer.Encrypt(v, rng));
  BigInt u_cipher = peer.Add(xy_cipher, v_cipher);

  ByteWriter out;
  WriteBigInt(out, u_cipher);
  PPD_RETURN_IF_ERROR(SendMessage(channel, kMultResponse, out));
  return v;
}

Result<BigInt> RunMultiplicationHelper(Channel& channel,
                                       const SmcSession& session,
                                       const BigInt& y, SecureRng& rng) {
  BigInt v = BigInt::RandomBelow(rng, session.peer_paillier().pub().n);
  return RunMultiplicationHelperWithMask(channel, session, y, v, rng);
}

BigInt SquaredNorm(const std::vector<int64_t>& x) {
  BigInt sum;
  for (int64_t c : x) sum += BigInt(c) * BigInt(c);
  return sum;
}

Result<std::vector<BigInt>> EncryptCoordinates(
    const SmcSession& session, const std::vector<int64_t>& coords,
    SecureRng& rng) {
  const PaillierContext& ctx = session.own_paillier_ctx();
  std::vector<BigInt> ms(coords.size());
  for (size_t i = 0; i < coords.size(); ++i) {
    PPD_ASSIGN_OR_RETURN(ms[i], ctx.EncodeSigned(BigInt(coords[i])));
  }
  return session.EncryptOwnBatch(ms, rng);
}

Result<std::vector<BigInt>> MaskedProducts(
    const PaillierContext& peer, const std::vector<BigInt>& ciphers,
    size_t dims, std::span<const std::vector<int64_t>> queries,
    SecureRng& rng) {
  PPD_CHECK_MSG(dims > 0 && ciphers.size() % dims == 0,
                "cipher matrix must hold whole points");
  const size_t per_query = ciphers.size();
  const size_t total = queries.size() * per_query;
  // Masks are drawn serially (rng is not thread-safe); the expensive
  // passes (MulPlain, Encrypt, Add) then run as batches across the pool.
  std::vector<BigInt> masks;
  masks.reserve(total);
  for (size_t q = 0; q < queries.size(); ++q) {
    for (size_t k = 0; k < per_query / dims; ++k) {
      for (BigInt& mask : ZeroSumMasks(rng, dims, peer.pub().n)) {
        masks.push_back(std::move(mask));
      }
    }
  }
  std::vector<BigInt> scalars;
  scalars.reserve(queries.size() * dims);
  for (const std::vector<int64_t>& x : queries) {
    PPD_CHECK_MSG(x.size() == dims, "query dimension mismatch");
    for (int64_t c : x) scalars.push_back(BigInt(c));
  }
  std::vector<BigInt> products(total);
  ParallelFor(total, [&](size_t i) {
    // E(y_kj)^{x_qj}: the matrix repeats per query, the scalars per point.
    products[i] = peer.MulPlain(ciphers[i % per_query],
                                scalars[i / per_query * dims + i % dims]);
  });
  PPD_ASSIGN_OR_RETURN(std::vector<BigInt> mask_ciphers,
                       peer.EncryptBatch(masks, rng));
  return peer.AddBatch(products, mask_ciphers);
}

Result<std::vector<BigInt>> DistanceShares(
    const SmcSession& session, const std::vector<BigInt>& response,
    const std::vector<int64_t>& coords, size_t dims) {
  if (response.empty()) return std::vector<BigInt>();
  PPD_CHECK_MSG(dims > 0 && !coords.empty() &&
                    coords.size() % dims == 0 &&
                    response.size() % coords.size() == 0,
                "response must hold whole queries");
  std::vector<BigInt> sum_squares(coords.size() / dims);
  for (size_t i = 0; i < coords.size(); ++i) {
    sum_squares[i / dims] += BigInt(coords[i]) * BigInt(coords[i]);
  }
  const PaillierContext& ctx = session.own_paillier_ctx();
  PPD_ASSIGN_OR_RETURN(std::vector<BigInt> us,
                       session.own_paillier().DecryptBatch(response));
  std::vector<BigInt> shares(us.size() / dims);
  for (size_t s = 0; s < shares.size(); ++s) {
    // u_qkj = x_qj·y_kj + r_qkj; Σ_j u_qkj = Σ_j x_qj·y_kj since the
    // masks sum to zero.
    BigInt sum_u;
    for (size_t j = 0; j < dims; ++j) sum_u += us[s * dims + j];
    shares[s] = ctx.DecodeSigned(
        (sum_squares[s % sum_squares.size()] - BigInt(2) * sum_u)
            .Mod(ctx.pub().n));
  }
  return shares;
}

Result<std::vector<BigInt>> ReadCiphers(ByteReader& reader, size_t count,
                                        const PaillierContext& ctx) {
  if (count > reader.remaining() / kMinCipherBytes) {
    return Status::DataLoss("cipher vector longer than its payload");
  }
  std::vector<BigInt> ciphers;
  ciphers.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    PPD_ASSIGN_OR_RETURN(BigInt cipher, ReadBigInt(reader));
    if (!ctx.IsValidCiphertext(cipher)) {
      return Status::DataLoss("ciphertext out of range");
    }
    ciphers.push_back(std::move(cipher));
  }
  if (!reader.Done()) {
    return Status::DataLoss("trailing bytes after cipher vector");
  }
  return ciphers;
}

}  // namespace ppdbscan
