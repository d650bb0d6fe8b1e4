#include "core/vertical.h"

#include "core/arbitrary.h"

namespace ppdbscan {

Result<PartyClusteringResult> RunVerticalDbscan(
    Channel& channel, const SmcSession& session, const Dataset& own_columns,
    PartyRole role, const ProtocolOptions& options, SecureRng& rng,
    DisclosureLog* disclosures) {
  // Every cell of a party's columns is its own: §4.4 with no cross-owned
  // attribute, where each pair test is one comparison of the local
  // partials.
  ArbitraryPartyView view;
  view.dims = own_columns.dims();
  for (size_t i = 0; i < own_columns.size(); ++i) {
    view.values.push_back(own_columns.point(i));
    view.owned.emplace_back(view.dims, 1);
  }
  return RunArbitraryDbscan(channel, session, view, role, options, rng,
                            disclosures, options.vdp_local_pruning);
}

}  // namespace ppdbscan
