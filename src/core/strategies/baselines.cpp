#include "core/strategies/baselines.hpp"

#include <numeric>

#include "core/instance_plan.hpp"

namespace accu {

void RandomStrategy::reset(const AccuInstance& instance, util::Rng& rng) {
  order_.resize(instance.num_nodes());
  std::iota(order_.begin(), order_.end(), NodeId{0});
  rng.shuffle(order_);
  cursor_ = 0;
}

NodeId RandomStrategy::select(const AttackerView& view, util::Rng& rng) {
  (void)rng;  // all randomness was spent in reset()
  while (cursor_ < order_.size() && view.is_requested(order_[cursor_])) {
    ++cursor_;
  }
  return cursor_ < order_.size() ? order_[cursor_++] : kInvalidNode;
}

void StaticOrderStrategy::reset(const AccuInstance& instance,
                                util::Rng& rng) {
  (void)rng;  // static orders draw nothing
  order_ = &order(instance);
  cursor_ = 0;
}

NodeId StaticOrderStrategy::select(const AttackerView& view, util::Rng& rng) {
  (void)rng;
  if (order_ == nullptr) return kInvalidNode;  // never reset: nothing to walk
  const std::vector<NodeId>& order = *order_;
  while (cursor_ < order.size() && view.is_requested(order[cursor_])) {
    ++cursor_;
  }
  return cursor_ < order.size() ? order[cursor_++] : kInvalidNode;
}

const std::vector<NodeId>& MaxDegreeStrategy::order(
    const AccuInstance& instance) const {
  return instance.plan().max_degree_order(instance);
}

const std::vector<NodeId>& PageRankStrategy::order(
    const AccuInstance& instance) const {
  return instance.plan().pagerank_order(instance);
}

}  // namespace accu
