#include "bgp/reachability.hpp"

#include <algorithm>
#include <stdexcept>

namespace marcopolo::bgp {

void SingleOriginReach::reset(const AsGraph& graph, NodeId origin,
                              const Announcement& ann,
                              const RoaRegistry* roas) {
  if (origin.value >= graph.size()) {
    throw std::invalid_argument("reachability origin is not in the graph");
  }
  if (ann.otc.value != 0) {
    throw std::invalid_argument(
        "single-origin reachability needs a seed without an OTC mark");
  }
  // The closure argument needs an acyclic customer->provider graph; the
  // full engine refuses a cyclic one the same way (std::logic_error).
  (void)graph.rank_order();

  graph_ = &graph;
  origin_ = origin;
  seed_ = ann;
  export_ = ann;
  export_.as_path.insert(export_.as_path.begin(), graph.asn_of(origin));
  rov_invalid_ = !passes_rov(export_, roas);

  const std::size_t n = graph.size();
  if (mark_.size() != n) {
    mark_.assign(n, 0);
    state_.assign(n, kUnreached);
    epoch_ = 0;
  }
  if (++epoch_ == 0) {  // wrapped: no stale stamp may alias the new epoch
    std::fill(mark_.begin(), mark_.end(), 0);
    epoch_ = 1;
  }

  // Eager up-closure: the origin's unblocked provider ancestry.
  settle(origin, kUp);
  stack_.clear();
  stack_.push_back(origin.value);
  while (!stack_.empty()) {
    const NodeId cur{stack_.back()};
    stack_.pop_back();
    for (const Neighbor& nb : graph.neighbors(cur)) {
      if (nb.rel != Relationship::Provider || mark_[nb.id.value] == epoch_) {
        continue;
      }
      if (blocked(nb.id)) {
        settle(nb.id, kUnreached);
        continue;
      }
      settle(nb.id, kUp);
      stack_.push_back(nb.id.value);
    }
  }
}

bool SingleOriginReach::blocked(NodeId n) const {
  return (rov_invalid_ && graph_->rov_enforcing(n)) ||
         seed_.path_contains(graph_->asn_of(n));
}

bool SingleOriginReach::evaluate(NodeId n) const {
  // U is complete, so an unsettled node is outside it (and is not the
  // origin). Peers first: a peer in U settles n without any recursion.
  bool reached = false;
  if (!blocked(n)) {
    const auto neighbors = graph_->neighbors(n);
    for (const Neighbor& nb : neighbors) {
      if (nb.rel == Relationship::Peer && mark_[nb.id.value] == epoch_ &&
          state_[nb.id.value] == kUp) {
        reached = true;
        break;
      }
    }
    if (!reached) {
      for (const Neighbor& nb : neighbors) {
        if (nb.rel == Relationship::Provider && reaches(nb.id)) {
          reached = true;
          break;
        }
      }
    }
  }
  settle(n, reached ? kReached : kUnreached);
  return reached;
}

}  // namespace marcopolo::bgp
