#include "core/horizontal.h"

#include <memory>
#include <optional>
#include <set>

#include "core/distance_protocols.h"
#include "core/enhanced.h"
#include "core/expand.h"
#include "core/plan.h"
#include "core/wire.h"
#include "dbscan/dbscan.h"
#include "dbscan/grid_index.h"
#include "net/message.h"
#include "smc/membership.h"

namespace ppdbscan {

namespace {

/// One pairwise link, from this party's side.
struct Peer {
  Channel* channel = nullptr;
  const SmcSession* session = nullptr;
  std::unique_ptr<SecureComparator> comparator;
  /// Disclosed by the plan round (non-exact plans): the peer's record
  /// count and, under kPrune, its bounding box.
  uint32_t points = 0;
  BoundingBox box;
  /// What this party serves to the peer under a non-exact plan (the band
  /// against the peer's box, or the sieved subset); empty means the full
  /// dataset.
  std::optional<Dataset> view;
};

/// The plan round of a non-exact plan, over every link: kPlanBounds (mode
/// byte, record count, bounding box — empty under kSieve), then under
/// kPrune kPlanBands with the size of the band served to that peer. Each
/// step sends to every peer before reading from any, so the round is
/// deadlock-free however the other parties order their links. Everything
/// received is deliberate plaintext disclosure, mirrored into the
/// DisclosureLog.
Status PlanRound(std::vector<Peer>& peers, const Dataset& own,
                 const ProtocolOptions& options, DisclosureLog* disclosures,
                 PlanStats* stats) {
  const PlanMode mode = options.plan.mode;
  ByteWriter bounds;
  bounds.PutU8(static_cast<uint8_t>(mode));
  bounds.PutU32(static_cast<uint32_t>(own.size()));
  WriteBoundingBox(bounds, mode == PlanMode::kPrune ? ComputeBoundingBox(own)
                                                    : BoundingBox{});
  for (Peer& peer : peers) {
    PPD_RETURN_IF_ERROR(SendMessage(*peer.channel, wire::kPlanBounds, bounds));
  }
  for (Peer& peer : peers) {
    PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                         ExpectMessage(*peer.channel, wire::kPlanBounds));
    ByteReader reader(payload);
    PPD_ASSIGN_OR_RETURN(uint8_t peer_mode, reader.GetU8());
    if (peer_mode != static_cast<uint8_t>(mode)) {
      return Status::DataLoss("plan mode mismatch in plan round");
    }
    PPD_ASSIGN_OR_RETURN(peer.points, reader.GetU32());
    PPD_ASSIGN_OR_RETURN(peer.box, ReadBoundingBox(reader, own.dims()));
    if (!reader.Done()) return Status::DataLoss("trailing plan round bytes");
    if (disclosures != nullptr) {
      disclosures->Record("plan_peer_points",
                          static_cast<int64_t>(peer.points));
      for (size_t t = 0; t < peer.box.dims(); ++t) {
        disclosures->Record("plan_peer_box_coord", peer.box.lo[t]);
        disclosures->Record("plan_peer_box_coord", peer.box.hi[t]);
      }
    }
    if (stats != nullptr) stats->peer_points += peer.points;
  }
  if (stats != nullptr) {
    stats->exact_comparisons =
        static_cast<uint64_t>(own.size()) * stats->peer_points;
  }

  if (mode == PlanMode::kSieve) {
    // The subset is fully determined by the public (n, k).
    const std::vector<size_t> sieved =
        SievedIndices(own.size(), options.plan.sieve_k);
    for (Peer& peer : peers) {
      peer.view = SubsetDataset(own, sieved);
      if (stats != nullptr) {
        stats->predicted_comparisons +=
            static_cast<uint64_t>(sieved.size()) *
            SievedCount(peer.points, options.plan.sieve_k);
      }
    }
    if (stats != nullptr) {
      stats->candidate_points = sieved.size();
      stats->responder_points = sieved.size();
    }
    return Status::Ok();
  }

  // Prune: serve each peer the band against its own box.
  std::vector<bool> candidate(own.size(), false);
  for (Peer& peer : peers) {
    std::vector<size_t> band =
        PointsWithinEpsOfBox(own, peer.box, options.params.eps_squared);
    for (size_t i : band) candidate[i] = true;
    peer.view = SubsetDataset(own, band);
    ByteWriter bands;
    bands.PutU32(static_cast<uint32_t>(band.size()));
    PPD_RETURN_IF_ERROR(SendMessage(*peer.channel, wire::kPlanBands, bands));
  }
  for (Peer& peer : peers) {
    PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                         ExpectMessage(*peer.channel, wire::kPlanBands));
    ByteReader reader(payload);
    PPD_ASSIGN_OR_RETURN(uint32_t peer_band, reader.GetU32());
    if (!reader.Done()) return Status::DataLoss("trailing plan band bytes");
    if (disclosures != nullptr) {
      disclosures->Record("plan_peer_band", static_cast<int64_t>(peer_band));
    }
    if (stats != nullptr) {
      stats->responder_points += peer.view->size();
      // Each own point within Eps of the peer's box queries it exactly
      // once in basic mode, against the peer's band toward us.
      stats->predicted_comparisons +=
          static_cast<uint64_t>(peer.view->size()) * peer_band;
    }
  }
  if (stats != nullptr) {
    uint64_t candidates = 0;
    for (bool c : candidate) candidates += c ? 1 : 0;
    stats->candidate_points = candidates;
    stats->interior_points = own.size() - candidates;
  }
  return Status::Ok();
}

/// One core-point decision for the scanning party: `own_count` plus the
/// peers' counts, each scaled by `scale` (1, or the sieve stride k when
/// the peers answer over their 1-in-k subsets). Under kPrune a peer whose
/// box is farther than Eps from the point is skipped: its count is
/// provably zero. Enhanced mode (two parties only) asks the §5 test
/// whether the peer holds at least ceil((MinPts − own_count)/scale)
/// points within Eps, and learns only that bit.
Result<bool> CoreTest(std::vector<Peer>& peers,
                      const std::vector<int64_t>& point, size_t own_count,
                      uint32_t scale, const ProtocolOptions& options,
                      SecureRng& rng, DisclosureLog* disclosures,
                      uint64_t* selection_comparisons) {
  const int64_t eps_squared = options.params.eps_squared;
  size_t peer_total = 0;
  for (Peer& peer : peers) {
    if (options.plan.mode == PlanMode::kPrune &&
        DistanceSquaredToBox(point, peer.box) > eps_squared) {
      continue;
    }
    if (options.mode == HorizontalMode::kEnhanced) {
      PPD_RETURN_IF_ERROR(SendMessage(*peer.channel, wire::kHzQueryEnhanced,
                                      std::vector<uint8_t>()));
      const int64_t deficit = static_cast<int64_t>(options.params.min_pts) -
                              static_cast<int64_t>(own_count);
      const int64_t k_star =
          deficit > 0 ? (deficit + scale - 1) / static_cast<int64_t>(scale)
                      : deficit;
      uint64_t comparisons = 0;
      PPD_ASSIGN_OR_RETURN(
          bool core,
          EnhancedCoreTestDriver(*peer.channel, *peer.session,
                                 *peer.comparator, point, k_star, eps_squared,
                                 options.selection, rng, &comparisons));
      if (selection_comparisons != nullptr) {
        *selection_comparisons += comparisons;
      }
      if (disclosures != nullptr) {
        disclosures->Record("peer_core_bit", core ? 1 : 0);
      }
      return core;
    }
    PPD_RETURN_IF_ERROR(SendMessage(*peer.channel, wire::kHzQueryBasic,
                                    std::vector<uint8_t>()));
    PPD_ASSIGN_OR_RETURN(
        size_t count,
        HdpBatchDriver(*peer.channel, *peer.session, *peer.comparator, point,
                       eps_squared, rng));
    if (disclosures != nullptr) {
      disclosures->Record("peer_neighbor_count", static_cast<int64_t>(count));
    }
    peer_total += count;
  }
  return CoreByCounts(own_count, peer_total, scale, options.params.min_pts);
}

/// This party's turn to scan its own points — the expansion skeleton, or
/// the sieve engine under kSieve — then kHzScanDone to every peer.
Result<PartyClusteringResult> DriverScan(std::vector<Peer>& peers,
                                         const Dataset& own,
                                         const ProtocolOptions& options,
                                         SecureRng& rng,
                                         DisclosureLog* disclosures,
                                         uint64_t* selection_comparisons,
                                         PlanStats* stats) {
  Result<PartyClusteringResult> result = Status::Internal("unreached");
  if (options.plan.mode == PlanMode::kSieve) {
    const uint32_t k = options.plan.sieve_k;
    SievePeerHooks hooks;
    hooks.core_test = [&](const std::vector<int64_t>& point,
                          size_t own_full) {
      return CoreTest(peers, point, own_full, k, options, rng, disclosures,
                      selection_comparisons);
    };
    hooks.membership = [&](const std::vector<std::vector<int64_t>>& queries)
        -> Result<std::vector<size_t>> {
      std::vector<size_t> totals(queries.size(), 0);
      for (Peer& peer : peers) {
        PPD_RETURN_IF_ERROR(SendMessage(*peer.channel,
                                        wire::kHzQueryMembership,
                                        std::vector<uint8_t>()));
        PPD_ASSIGN_OR_RETURN(
            std::vector<size_t> counts,
            MembershipBatchDriver(*peer.channel, *peer.session,
                                  *peer.comparator, queries,
                                  options.params.eps_squared, rng));
        for (size_t q = 0; q < counts.size(); ++q) {
          totals[q] += counts[q];
          if (disclosures != nullptr) {
            disclosures->Record("membership_count",
                                static_cast<int64_t>(counts[q]));
          }
        }
      }
      return totals;
    };
    result = RunSievePlan(own, options.params, k, hooks, stats);
  } else {
    LinearRegionQuerier local(own);
    result = ExpandClusters(
        own.size(),
        [&](size_t idx) -> Result<std::vector<size_t>> {
          return local.Query(idx, options.params.eps_squared);
        },
        [&](size_t idx, size_t neighbours) {
          return CoreTest(peers, own.point(idx), neighbours, 1, options, rng,
                          disclosures, selection_comparisons);
        });
  }
  PPD_RETURN_IF_ERROR(result.status());
  for (Peer& peer : peers) {
    PPD_RETURN_IF_ERROR(SendMessage(*peer.channel, wire::kHzScanDone,
                                    std::vector<uint8_t>()));
  }
  return result;
}

/// Serves one peer's scan: answers kHzQueryBasic / kHzQueryEnhanced /
/// kHzQueryMembership over `own` (this party's view for that peer) until
/// the peer sends kHzScanDone.
Status ServeScan(Peer& peer, const Dataset& own,
                 const ProtocolOptions& options, SecureRng& rng) {
  while (true) {
    PPD_ASSIGN_OR_RETURN(Message msg, RecvMessage(*peer.channel));
    switch (msg.type) {
      case wire::kHzQueryBasic:
        PPD_RETURN_IF_ERROR(HdpBatchResponder(
            *peer.channel, *peer.session, *peer.comparator, own, rng));
        break;
      case wire::kHzQueryEnhanced:
        PPD_RETURN_IF_ERROR(EnhancedCoreTestResponder(
            *peer.channel, *peer.session, *peer.comparator, own,
            options.share_mask_bits, rng));
        break;
      case wire::kHzQueryMembership: {
        std::vector<std::vector<int64_t>> points;
        points.reserve(own.size());
        for (size_t i = 0; i < own.size(); ++i) points.push_back(own.point(i));
        PPD_RETURN_IF_ERROR(MembershipBatchResponder(
            *peer.channel, *peer.session, *peer.comparator, points, rng));
        break;
      }
      case wire::kHzScanDone:
        return Status::Ok();
      case kAbortMessageType:
        return AbortedFromPayload(msg.payload);
      default:
        return Status::DataLoss("unexpected message in responder loop");
    }
  }
}

/// Disjoint-set union for the merge relabeling.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    for (size_t i = 0; i < n; ++i) parent_[i] = i;
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

/// Applies the merge edges to this party's labels. Both parties run this
/// with identical inputs, producing an identical shared id space: Alice's
/// clusters are nodes [0, num_alice), Bob's are [num_alice, num_alice +
/// num_bob); components are numbered by first appearance.
void RelabelAfterMerge(size_t num_alice, size_t num_bob,
                       const std::set<std::pair<uint32_t, uint32_t>>& edges,
                       bool is_alice, PartyClusteringResult* result) {
  UnionFind dsu(num_alice + num_bob);
  for (const auto& [a, b] : edges) dsu.Union(a, num_alice + b);
  std::vector<int32_t> component(num_alice + num_bob, -1);
  int32_t next = 0;
  for (size_t node = 0; node < num_alice + num_bob; ++node) {
    size_t root = dsu.Find(node);
    if (component[root] < 0) component[root] = next++;
    component[node] = component[root];
  }
  size_t offset = is_alice ? 0 : num_alice;
  for (int32_t& label : result->labels) {
    if (label >= 0) label = component[offset + static_cast<size_t>(label)];
  }
  result->num_clusters = static_cast<size_t>(next);
}

/// Every cluster is opened by a core point, so a peer claiming more
/// clusters than cores is lying — and would size the relabeling's
/// union-find from an unchecked count.
Status CheckMergeCounts(uint32_t cores, uint32_t clusters) {
  if (clusters > cores) {
    return Status::DataLoss("merge claims more clusters than core points");
  }
  return Status::Ok();
}

/// E7 extension: cross-party cluster linking via core-core adjacency.
Status MergePhase(Peer& peer, const Dataset& own, bool is_alice,
                  const ProtocolOptions& options, SecureRng& rng,
                  DisclosureLog* disclosures, PartyClusteringResult* result) {
  Channel& channel = *peer.channel;
  std::vector<size_t> cores;
  for (size_t i = 0; i < own.size(); ++i) {
    if (result->is_core[i]) cores.push_back(i);
  }

  if (is_alice) {
    ByteWriter hello;
    hello.PutU32(static_cast<uint32_t>(cores.size()));
    hello.PutU32(static_cast<uint32_t>(result->num_clusters));
    PPD_RETURN_IF_ERROR(SendMessage(channel, wire::kMergeCores, hello));

    PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                         ExpectMessage(channel, wire::kMergeCores));
    ByteReader reader(payload);
    PPD_ASSIGN_OR_RETURN(uint32_t bob_cores, reader.GetU32());
    PPD_ASSIGN_OR_RETURN(uint32_t bob_clusters, reader.GetU32());
    // Bob lists one u32 cluster id per core: bound the claimed count by
    // the payload before sizing anything from it.
    if (bob_cores > reader.remaining() / 4) {
      return Status::DataLoss("merge core count exceeds the payload");
    }
    PPD_RETURN_IF_ERROR(CheckMergeCounts(bob_cores, bob_clusters));
    std::vector<uint32_t> bob_core_cluster(bob_cores);
    for (uint32_t k = 0; k < bob_cores; ++k) {
      PPD_ASSIGN_OR_RETURN(bob_core_cluster[k], reader.GetU32());
      if (bob_core_cluster[k] >= bob_clusters) {
        return Status::DataLoss("merge cluster id out of range");
      }
    }

    std::set<std::pair<uint32_t, uint32_t>> edges;
    for (size_t a : cores) {
      std::vector<bool> bits;
      PPD_ASSIGN_OR_RETURN(
          size_t hits,
          HdpBatchDriver(channel, *peer.session, *peer.comparator,
                         own.point(a), options.params.eps_squared, rng,
                         &bits));
      (void)hits;
      for (size_t k = 0; k < bits.size(); ++k) {
        if (bits[k]) {
          edges.emplace(static_cast<uint32_t>(result->labels[a]),
                        bob_core_cluster[k]);
        }
      }
    }
    ByteWriter links;
    links.PutU32(static_cast<uint32_t>(edges.size()));
    for (const auto& [a, b] : edges) {
      links.PutU32(a);
      links.PutU32(b);
    }
    PPD_RETURN_IF_ERROR(SendMessage(channel, wire::kMergeLinks, links));
    if (disclosures != nullptr) {
      disclosures->Record("merge_links", static_cast<int64_t>(edges.size()));
    }
    RelabelAfterMerge(result->num_clusters, bob_clusters, edges,
                      /*is_alice=*/true, result);
    return Status::Ok();
  }

  // Bob side.
  PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                       ExpectMessage(channel, wire::kMergeCores));
  ByteReader reader(payload);
  PPD_ASSIGN_OR_RETURN(uint32_t alice_cores, reader.GetU32());
  PPD_ASSIGN_OR_RETURN(uint32_t alice_clusters, reader.GetU32());
  PPD_RETURN_IF_ERROR(CheckMergeCounts(alice_cores, alice_clusters));

  ByteWriter hello;
  hello.PutU32(static_cast<uint32_t>(cores.size()));
  hello.PutU32(static_cast<uint32_t>(result->num_clusters));
  for (size_t c : cores) {
    hello.PutU32(static_cast<uint32_t>(result->labels[c]));
  }
  PPD_RETURN_IF_ERROR(SendMessage(channel, wire::kMergeCores, hello));

  // The merge phase intentionally presents cores unpermuted: linking
  // requires the driver to know which (anonymous) core bucket matched,
  // and this is exactly the E7 extension's extra disclosure.
  for (uint32_t t = 0; t < alice_cores; ++t) {
    PPD_RETURN_IF_ERROR(HdpBatchResponder(channel, *peer.session,
                                          *peer.comparator, own, rng, &cores,
                                          /*permute=*/false));
  }

  PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> links_payload,
                       ExpectMessage(channel, wire::kMergeLinks));
  ByteReader links_reader(links_payload);
  PPD_ASSIGN_OR_RETURN(uint32_t edge_count, links_reader.GetU32());
  std::set<std::pair<uint32_t, uint32_t>> edges;
  for (uint32_t e = 0; e < edge_count; ++e) {
    PPD_ASSIGN_OR_RETURN(uint32_t a, links_reader.GetU32());
    PPD_ASSIGN_OR_RETURN(uint32_t b, links_reader.GetU32());
    if (a >= alice_clusters ||
        b >= static_cast<uint32_t>(result->num_clusters)) {
      return Status::DataLoss("merge edge out of range");
    }
    edges.emplace(a, b);
  }
  if (disclosures != nullptr) {
    disclosures->Record("merge_links", static_cast<int64_t>(edges.size()));
  }
  RelabelAfterMerge(alice_clusters, result->num_clusters, edges,
                    /*is_alice=*/false, result);
  return Status::Ok();
}

}  // namespace

Result<PartyClusteringResult> RunHorizontalDbscan(
    const std::vector<Channel*>& links,
    const std::vector<const SmcSession*>& sessions, const Dataset& own_points,
    size_t index, const ProtocolOptions& options, SecureRng& rng,
    DisclosureLog* disclosures, uint64_t* selection_comparisons,
    PlanStats* plan_stats) {
  const size_t parties = links.size();
  if (parties < 2) {
    return Status::InvalidArgument("a horizontal run needs >= 2 parties");
  }
  if (index >= parties) {
    return Status::InvalidArgument("party index out of range");
  }
  if (sessions.size() != parties) {
    return Status::InvalidArgument(
        "need one link and session slot per party");
  }
  if (parties > 2 && options.mode != HorizontalMode::kBasic) {
    return Status::InvalidArgument(
        "the enhanced core test is defined for two parties only (it needs "
        "the k-th smallest distance over one peer's points)");
  }
  if (parties > 2 && options.cross_party_merge) {
    return Status::InvalidArgument(
        "cross_party_merge is a two-party extension; not defined for "
        "multi-party runs");
  }

  // Peers in the public party order, one comparator per link.
  std::vector<Peer> peers;
  peers.reserve(parties - 1);
  for (size_t j = 0; j < parties; ++j) {
    if (j == index) continue;
    if (links[j] == nullptr || sessions[j] == nullptr) {
      return Status::InvalidArgument("missing link or session for a peer");
    }
    Peer peer;
    peer.channel = links[j];
    peer.session = sessions[j];
    PPD_ASSIGN_OR_RETURN(peer.comparator,
                         CreateComparator(options.comparator, *sessions[j],
                                          rng));
    peers.push_back(std::move(peer));
  }

  const PlanMode mode = options.plan.mode;
  if (plan_stats != nullptr) {
    plan_stats->mode = mode;
    plan_stats->sieve_k = mode == PlanMode::kSieve ? options.plan.sieve_k : 0;
    plan_stats->local_points = own_points.size();
  }
  // Exact mode runs no plan round.
  if (mode != PlanMode::kExact) {
    PPD_RETURN_IF_ERROR(
        PlanRound(peers, own_points, options, disclosures, plan_stats));
  }

  // Attribute measured comparisons to the role this party played in each
  // phase: querier while driving, assistant while serving.
  uint64_t mark = 0;
  auto account = [&](uint64_t PlanStats::*field) {
    uint64_t now = 0;
    for (const Peer& peer : peers) now += peer.comparator->invocations();
    if (plan_stats != nullptr) plan_stats->*field += now - mark;
    mark = now;
  };

  // Phases in the public party order: party d scans while everyone else
  // serves d. All parties iterate the same schedule, so no link carries
  // two conversations at once.
  PartyClusteringResult result;
  size_t next_peer = 0;
  for (size_t d = 0; d < parties; ++d) {
    if (d == index) {
      PPD_ASSIGN_OR_RETURN(
          result, DriverScan(peers, own_points, options, rng, disclosures,
                             selection_comparisons, plan_stats));
      account(&PlanStats::encrypted_comparisons);
    } else {
      Peer& peer = peers[next_peer++];
      PPD_RETURN_IF_ERROR(ServeScan(
          peer, peer.view ? *peer.view : own_points, options, rng));
      account(&PlanStats::assisted_comparisons);
    }
  }

  if (options.cross_party_merge) {
    // The merge phase is plan-independent (it compares core points, which
    // are already scan outputs) and runs over the full datasets.
    const bool is_alice = index == 0;
    PPD_RETURN_IF_ERROR(MergePhase(peers[0], own_points, is_alice, options,
                                   rng, disclosures, &result));
    account(is_alice ? &PlanStats::encrypted_comparisons
                     : &PlanStats::assisted_comparisons);
  }

  if (plan_stats != nullptr && mode == PlanMode::kExact) {
    // No plan round ran, so the peer counts are unknown; the measurement
    // IS the exact bill by definition.
    plan_stats->candidate_points = own_points.size();
    plan_stats->responder_points = own_points.size() * (parties - 1);
    plan_stats->exact_comparisons = plan_stats->encrypted_comparisons;
    plan_stats->predicted_comparisons = plan_stats->encrypted_comparisons;
  }
  return result;
}

}  // namespace ppdbscan
