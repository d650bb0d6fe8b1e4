#include "core/options.h"

#include "bigint/codec.h"
#include "common/serialize.h"

namespace ppdbscan {

const char* PartyRoleToString(PartyRole role) {
  return role == PartyRole::kAlice ? "alice" : "bob";
}

const char* HorizontalModeToString(HorizontalMode mode) {
  return mode == HorizontalMode::kBasic ? "basic" : "enhanced";
}

const char* SelectionAlgorithmToString(SelectionAlgorithm selection) {
  return selection == SelectionAlgorithm::kKPass ? "k-pass" : "quickselect";
}

uint64_t ProtocolOptionsDigest(const ProtocolOptions& options) {
  ByteWriter canon;
  canon.PutU64(static_cast<uint64_t>(options.params.eps_squared));
  canon.PutU64(static_cast<uint64_t>(options.params.min_pts));
  canon.PutU8(static_cast<uint8_t>(options.comparator.kind));
  WriteBigInt(canon, options.comparator.magnitude_bound);
  canon.PutU64(static_cast<uint64_t>(options.comparator.blinding_bits));
  // Former ymp_prime_rounds slot: YMPP always runs YmppOptions' 12 rounds;
  // the constant keeps the digest (and the version-4 hello) unchanged.
  canon.PutU32(12);
  canon.PutU64(static_cast<uint64_t>(options.comparator.max_batch_in_flight));
  canon.PutU8(static_cast<uint8_t>(options.mode));
  canon.PutU8(static_cast<uint8_t>(options.selection));
  canon.PutU64(static_cast<uint64_t>(options.share_mask_bits));
  canon.PutU8(options.cross_party_merge ? 1 : 0);
  canon.PutU8(options.vdp_local_pruning ? 1 : 0);
  canon.PutU32(static_cast<uint32_t>(options.round_deadline_ms));
  canon.PutU32(options.retry.max_attempts);
  canon.PutU32(options.retry.backoff_ms);
  canon.PutU32(options.retry.max_backoff_ms);
  canon.PutU64(options.retry.jitter_seed);
  canon.PutU8(static_cast<uint8_t>(options.plan.mode));
  canon.PutU32(options.plan.sieve_k);

  // FNV-1a, 64-bit.
  uint64_t hash = 0xcbf29ce484222325ull;
  for (uint8_t byte : canon.data()) {
    hash ^= byte;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

BigInt RecommendedComparatorBound(size_t dims, int64_t max_abs_coord) {
  // |S_B| = |Σy² − 2Σxy| <= 3·m·C²; squared distances <= 4·m·C². Use the
  // larger with one extra factor of 2 of slack for thresholds.
  BigInt m(static_cast<int64_t>(dims));
  BigInt c(max_abs_coord);
  return BigInt(8) * m * c * c + BigInt(4);
}

}  // namespace ppdbscan
