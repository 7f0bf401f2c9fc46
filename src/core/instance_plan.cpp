#include "core/instance_plan.hpp"

#include <algorithm>
#include <numeric>

#include "graph/pagerank.hpp"

namespace accu {

namespace {

/// Node ids by decreasing score; std::stable_sort keeps equal scores in
/// ascending id order — the static baselines' tie-break.
std::vector<NodeId> order_by_score(const std::vector<double>& score) {
  std::vector<NodeId> order(score.size());
  std::iota(order.begin(), order.end(), NodeId{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](NodeId a, NodeId b) { return score[a] > score[b]; });
  return order;
}

}  // namespace

void InstancePlan::check(const AccuInstance& instance) const {
  ACCU_ASSERT_MSG(instance.uid() == uid_,
                  "InstancePlan used with an instance it was not made for");
}

const std::vector<NodeId>& InstancePlan::max_degree_order(
    const AccuInstance& instance) const {
  check(instance);
  std::call_once(max_degree_once_, [&] {
    const Graph& g = instance.graph();
    std::vector<double> degree(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      degree[v] = g.expected_degree(v);
    }
    max_degree_order_ = order_by_score(degree);
  });
  return max_degree_order_;
}

const std::vector<NodeId>& InstancePlan::pagerank_order(
    const AccuInstance& instance) const {
  check(instance);
  std::call_once(pagerank_once_, [&] {
    pagerank_order_ = order_by_score(graph::pagerank(instance.graph()));
  });
  return pagerank_order_;
}

const ScorePack& InstancePlan::score_pack(const AccuInstance& instance) const {
  check(instance);
  std::call_once(pack_once_, [&] {
    pack_.build(instance);
    pack_built_.store(true, std::memory_order_release);
  });
  return pack_;
}

const BlankTables& InstancePlan::blank_tables(
    const AccuInstance& instance) const {
  const ScorePack& pack = score_pack(instance);
  std::call_once(blank_once_, [&] { blank_.build(pack); });
  return blank_;
}

const DrawPlan& InstancePlan::draw_plan(const AccuInstance& instance) const {
  check(instance);
  std::call_once(draw_once_, [&] { draw_.build(instance); });
  return draw_;
}

}  // namespace accu
