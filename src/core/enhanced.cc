#include "core/enhanced.h"

#include <numeric>

#include "core/distance_protocols.h"
#include "core/wire.h"
#include "net/message.h"
#include "smc/dot_product.h"

namespace ppdbscan {

namespace {

/// α = (Σx_t², −2x_1, …, −2x_m, 1), the driver-side vector of §5.
std::vector<BigInt> AlphaVector(const std::vector<int64_t>& x) {
  std::vector<BigInt> alpha;
  alpha.reserve(x.size() + 2);
  BigInt norm;
  for (int64_t c : x) norm += BigInt(c) * BigInt(c);
  alpha.push_back(norm);
  for (int64_t c : x) alpha.push_back(BigInt(-2 * c));
  alpha.push_back(BigInt(1));
  return alpha;
}

/// β_k = (1, y_1, …, y_m, Σy_t²), the responder-side row of §5.
std::vector<BigInt> BetaRow(const std::vector<int64_t>& y) {
  std::vector<BigInt> beta;
  beta.reserve(y.size() + 2);
  beta.push_back(BigInt(1));
  BigInt norm;
  for (int64_t c : y) {
    beta.push_back(BigInt(c));
    norm += BigInt(c) * BigInt(c);
  }
  beta.push_back(norm);
  return beta;
}

}  // namespace

Result<bool> EnhancedCoreTestDriver(Channel& channel,
                                    const SmcSession& session,
                                    SecureComparator& comparator,
                                    const std::vector<int64_t>& x,
                                    int64_t k_star, int64_t eps_squared,
                                    SelectionAlgorithm selection,
                                    SecureRng& rng,
                                    uint64_t* selection_comparisons) {
  // Step 1: secret-share Dist²(x, B_k) for every responder point.
  PPD_ASSIGN_OR_RETURN(
      std::vector<BigInt> u,
      RunDotProductReceiver(channel, session, AlphaVector(x),
                            /*expected_rows=*/0, rng));
  const size_t peer_count = u.size();
  uint64_t comparisons = 0;

  auto finish = [&](bool core) -> Result<bool> {
    PPD_RETURN_IF_ERROR(
        SendMessage(channel, wire::kSelDone, std::vector<uint8_t>()));
    if (selection_comparisons != nullptr) {
      *selection_comparisons = comparisons;
    }
    return core;
  };

  // Locally decidable cases (the responder observes only that no
  // comparisons follow, not which case applied).
  if (k_star <= 0) return finish(true);
  if (static_cast<uint64_t>(k_star) > peer_count) return finish(false);

  // LessEq(i, j): Dist_i <= Dist_j  <=>  (u_i − u_j) + (v_j − v_i) <= 0.
  auto less_eq = [&](size_t i, size_t j) -> Result<bool> {
    ByteWriter req;
    req.PutU32(static_cast<uint32_t>(i));
    req.PutU32(static_cast<uint32_t>(j));
    PPD_RETURN_IF_ERROR(SendMessage(channel, wire::kSelCompare, req));
    ++comparisons;
    return comparator.QuerierCompare(channel, u[i] - u[j], BigInt(0));
  };

  // Step 2: k*-th smallest selection.
  size_t selected = 0;
  if (selection == SelectionAlgorithm::kKPass) {
    std::vector<size_t> candidates(peer_count);
    std::iota(candidates.begin(), candidates.end(), size_t{0});
    for (int64_t pass = 0; pass < k_star; ++pass) {
      size_t min_pos = 0;
      for (size_t pos = 1; pos < candidates.size(); ++pos) {
        PPD_ASSIGN_OR_RETURN(
            bool bit, less_eq(candidates[pos], candidates[min_pos]));
        if (bit) min_pos = pos;
      }
      selected = candidates[min_pos];
      candidates.erase(candidates.begin() + static_cast<long>(min_pos));
    }
  } else {
    std::vector<size_t> candidates(peer_count);
    std::iota(candidates.begin(), candidates.end(), size_t{0});
    uint64_t k = static_cast<uint64_t>(k_star);
    while (true) {
      if (candidates.size() == 1) {
        selected = candidates[0];
        break;
      }
      size_t pivot = candidates[rng.UniformU64(candidates.size())];
      std::vector<size_t> less_equal, greater;
      for (size_t c : candidates) {
        if (c == pivot) continue;
        PPD_ASSIGN_OR_RETURN(bool bit, less_eq(c, pivot));
        (bit ? less_equal : greater).push_back(c);
      }
      if (k <= less_equal.size()) {
        candidates = std::move(less_equal);
      } else if (k == less_equal.size() + 1) {
        selected = pivot;
        break;
      } else {
        k -= less_equal.size() + 1;
        candidates = std::move(greater);
      }
    }
  }

  // Step 3: Dist_(k*) <= Eps  <=>  u_sel + (−v_sel) <= Eps².
  ByteWriter req;
  req.PutU32(static_cast<uint32_t>(selected));
  PPD_RETURN_IF_ERROR(SendMessage(channel, wire::kSelFinal, req));
  ++comparisons;
  PPD_ASSIGN_OR_RETURN(
      bool core, comparator.QuerierCompare(channel, u[selected],
                                           BigInt(eps_squared)));
  return finish(core);
}

Status EnhancedCoreTestResponder(Channel& channel, const SmcSession& session,
                                 SecureComparator& comparator,
                                 const Dataset& own, size_t share_mask_bits,
                                 SecureRng& rng) {
  // Present points in a fresh random order (Algorithm 4's permutation
  // argument applies to the enhanced protocol as well).
  std::vector<size_t> perm = RandomPermutation(rng, own.size());
  std::vector<std::vector<BigInt>> rows;
  rows.reserve(own.size());
  for (size_t k = 0; k < own.size(); ++k) {
    rows.push_back(BetaRow(own.point(perm[k])));
  }
  DotProductOptions dot_options;
  dot_options.mask_bits = share_mask_bits;
  PPD_ASSIGN_OR_RETURN(
      std::vector<BigInt> v,
      RunDotProductHelper(channel, session, rows, dot_options, rng));

  while (true) {
    PPD_ASSIGN_OR_RETURN(Message msg, RecvMessage(channel));
    switch (msg.type) {
      case wire::kSelCompare: {
        ByteReader reader(msg.payload);
        PPD_ASSIGN_OR_RETURN(uint32_t i, reader.GetU32());
        PPD_ASSIGN_OR_RETURN(uint32_t j, reader.GetU32());
        if (i >= v.size() || j >= v.size()) {
          return AbortPeer(channel,
                           Status::DataLoss("selection index out of range"),
                           "selection index out of range");
        }
        PPD_RETURN_IF_ERROR(comparator.PeerAssist(channel, v[j] - v[i]));
        break;
      }
      case wire::kSelFinal: {
        ByteReader reader(msg.payload);
        PPD_ASSIGN_OR_RETURN(uint32_t i, reader.GetU32());
        if (i >= v.size()) {
          return AbortPeer(channel,
                           Status::DataLoss("selection index out of range"),
                           "selection final index out of range");
        }
        PPD_RETURN_IF_ERROR(comparator.PeerAssist(channel, -v[i]));
        break;
      }
      case wire::kSelDone:
        return Status::Ok();
      case kAbortMessageType:
        return AbortedFromPayload(msg.payload);
      default:
        return Status::DataLoss("unexpected message in core-test responder");
    }
  }
}

}  // namespace ppdbscan
