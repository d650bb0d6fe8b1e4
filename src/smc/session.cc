#include "smc/session.h"

#include "net/message.h"

namespace ppdbscan {

namespace {
constexpr uint16_t kSessionHello = 0x0001;
}  // namespace

void SmcSession::PrewarmRandomizers(size_t count) const {
  if (own_pool_ != nullptr) own_pool_->Reserve(count);
}

Result<std::vector<BigInt>> SmcSession::EncryptOwnBatch(
    const std::vector<BigInt>& ms, SecureRng& rng) const {
  if (own_pool_ != nullptr) return own_pool_->EncryptBatch(ms);
  return own_paillier_ctx().EncryptBatch(ms, rng);
}

size_t SmcSession::AdaptRandomizerPool() const {
  if (own_pool_ == nullptr) return 0;
  return own_pool_->AdaptTarget(1, kMaxAdaptivePoolTarget);
}

Result<SmcSession> SmcSession::Establish(Channel& channel, SecureRng& rng,
                                         const SmcOptions& options) {
  SmcSession session;
  session.options_ = options;

  PPD_ASSIGN_OR_RETURN(
      PaillierKeyPair paillier_kp,
      GeneratePaillierKeyPair(rng, options.paillier_bits));
  PPD_ASSIGN_OR_RETURN(RsaKeyPair rsa_kp,
                       GenerateRsaKeyPair(rng, options.rsa_bits));

  // Exchange public keys (send first, then receive: both parties do the
  // same and the channel buffers the frames).
  ByteWriter hello;
  paillier_kp.pub.Serialize(hello);
  rsa_kp.pub.Serialize(hello);
  PPD_RETURN_IF_ERROR(SendMessage(channel, kSessionHello, hello));

  PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                       ExpectMessage(channel, kSessionHello));
  ByteReader reader(payload);
  PPD_ASSIGN_OR_RETURN(PaillierPublicKey peer_paillier_pub,
                       PaillierPublicKey::Deserialize(reader));
  PPD_ASSIGN_OR_RETURN(RsaPublicKey peer_rsa_pub,
                       RsaPublicKey::Deserialize(reader));
  if (!reader.Done()) {
    return Status::DataLoss("trailing bytes in session hello");
  }

  PPD_ASSIGN_OR_RETURN(PaillierDecryptor own_dec,
                       PaillierDecryptor::Create(std::move(paillier_kp)));
  session.own_paillier_ =
      std::make_shared<const PaillierDecryptor>(std::move(own_dec));
  PPD_ASSIGN_OR_RETURN(PaillierContext peer_ctx,
                       PaillierContext::Create(std::move(peer_paillier_pub)));
  session.peer_paillier_ =
      std::make_shared<const PaillierContext>(std::move(peer_ctx));
  PPD_ASSIGN_OR_RETURN(RsaPrivateOps own_rsa,
                       RsaPrivateOps::Create(std::move(rsa_kp)));
  session.own_rsa_ =
      std::make_shared<const RsaPrivateOps>(std::move(own_rsa));
  PPD_ASSIGN_OR_RETURN(RsaPublicOps peer_rsa,
                       RsaPublicOps::Create(std::move(peer_rsa_pub)));
  session.peer_rsa_ = std::make_shared<const RsaPublicOps>(std::move(peer_rsa));
  if (options.randomizer_pool_target > 0) {
    // The pool owns a copy of the own-key context and a forked rng: a full
    // 256-bit child key drawn from the caller's stream, so OS-seeded
    // sessions keep their full entropy while fixed-seed runs stay
    // byte-identical on the wire (together with the pool's in-order factor
    // consumption, the k-th pooled encryption always uses the k-th factor).
    session.own_pool_ = std::make_shared<PaillierRandomizerPool>(
        session.own_paillier_->context(), rng.Fork(),
        options.randomizer_pool_target);
  }
  return session;
}

}  // namespace ppdbscan
