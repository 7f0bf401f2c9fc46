#include "core/strategies/abm.hpp"

#include <algorithm>
#include <cstdio>

#include "core/instance_plan.hpp"

namespace accu {

AbmStrategy::AbmStrategy() : AbmStrategy(Config{}) {}

AbmStrategy::AbmStrategy(Config config) : config_(config) {
  if (!(config_.weights.direct >= 0.0) || !(config_.weights.indirect >= 0.0)) {
    throw InvalidArgument("AbmStrategy: weights must be non-negative");
  }
}

AbmStrategy::AbmStrategy(double w_direct, double w_indirect)
    : AbmStrategy(Config{{w_direct, w_indirect}, /*incremental=*/true}) {}

std::string AbmStrategy::name() const {
  char buf[64];
  std::snprintf(buf, sizeof buf, "ABM(wD=%.2f,wI=%.2f)",
                config_.weights.direct, config_.weights.indirect);
  return buf;
}

double AbmStrategy::effective_accept_prob(const AttackerView& view,
                                          NodeId u) {
  const AccuInstance& instance = view.instance();
  if (instance.is_cautious(u)) {
    // q2 once the threshold is reached, q1 below it; the deterministic
    // model's (q1, q2) = (0, 1) reduces this to the 0/1 indicator.
    return instance.cautious_accept_prob(u, view.cautious_would_accept(u));
  }
  return instance.accept_prob(u);
}

// The two row reductions below ARE the scalar reference for the canonical
// reduction order (score_simd.hpp): four stride-4 lane accumulators indexed
// by the neighbor's *slot position* — the position counter advances on
// skipped neighbors too, so a skip lands on the same lane as the exact
// +0.0 the SoA kernels add for that slot — combined as (l0+l2)+(l1+l3).
// score_batch and ScoreEngine reproduce these doubles bit for bit.

double AbmStrategy::direct_gain(const AttackerView& view, NodeId u) {
  const AccuInstance& instance = view.instance();
  const BenefitModel& benefits = instance.benefits();
  double head = benefits.friend_benefit(u);
  if (view.is_fof(u)) head -= benefits.fof_benefit(u);
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  std::uint32_t pos = 0;
  for (const graph::Neighbor& nb : instance.graph().neighbors(u)) {
    const std::uint32_t lane = (pos++) & 3;
    const NodeId v = nb.node;
    if (view.is_friend(v)) continue;  // v ∈ N(s): already harvested as friend
    if (view.is_fof(v)) continue;     // (1 − 1_FOF(v)) = 0
    const double belief = view.edge_belief(nb.edge);
    if (belief <= 0.0) continue;      // observed absent
    lanes[lane] += belief * benefits.fof_benefit(v);
  }
  return head + ((lanes[0] + lanes[2]) + (lanes[1] + lanes[3]));
}

double AbmStrategy::indirect_gain(const AttackerView& view, NodeId u) {
  const AccuInstance& instance = view.instance();
  // Cautious users have no cautious neighbors (model assumption), so their
  // indirect gain is identically zero — the paper notes this explicitly.
  if (instance.is_cautious(u)) return 0.0;
  const BenefitModel& benefits = instance.benefits();
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  std::uint32_t pos = 0;
  for (const graph::Neighbor& nb : instance.graph().neighbors(u)) {
    const std::uint32_t lane = (pos++) & 3;
    const NodeId v = nb.node;
    if (!instance.is_cautious(v)) continue;
    // A cautious user that was already requested is either a friend
    // (threshold met — no indirect value left) or permanently rejected.
    if (view.is_requested(v)) continue;
    const std::uint32_t theta = instance.threshold(v);
    const std::uint32_t mutual = view.mutual_friends(v);
    if (mutual >= theta) continue;  // paper condition: θ_v > |N(s) ∩ N(v)|
    const double belief = view.edge_belief(nb.edge);
    if (belief <= 0.0) continue;
    // Reciprocal form — numerator · (1/gap) — shared with the SoA kernels.
    lanes[lane] += (belief * benefits.upgrade_gain(v)) *
                   (1.0 / static_cast<double>(theta - mutual));
  }
  return (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
}

double AbmStrategy::potential(const AttackerView& view, NodeId u) const {
  const double q = effective_accept_prob(view, u);
  if (q <= 0.0) return 0.0;  // skip the scans for hopeless candidates
  double value = config_.weights.direct * direct_gain(view, u);
  if (config_.weights.indirect > 0.0) {
    value += config_.weights.indirect * indirect_gain(view, u);
  }
  return q * value;
}

void AbmStrategy::reset(const AccuInstance& instance, util::Rng& rng) {
  (void)rng;
  instance_ = &instance;
  if (!config_.incremental) return;
  const InstancePlan& plan = instance.plan();
  engine_.reset(plan.score_pack(instance), plan.blank_tables(instance),
                config_.weights);
  version_.assign(instance.num_nodes(), 0);
  heap_.clear();  // keeps capacity for the next seed_heap
  heap_seeded_ = false;
}

void AbmStrategy::seed_heap() {
  heap_seeded_ = true;
  heap_.clear();
  for (NodeId u = 0; u < instance_->num_nodes(); ++u) {
    if (engine_.is_requested(u)) continue;  // pre-seed abandons (fault layer)
    engine_.consume_dirty(u);
    heap_.push_back(HeapEntry{engine_.seed_score(u), u, version_[u]});
  }
  // make_heap instead of n push_heaps: pop order is unaffected (the
  // comparator is a strict total order — (value, node) pairs are unique).
  std::make_heap(heap_.begin(), heap_.end());
}

void AbmStrategy::heap_push(HeapEntry entry) {
  heap_.push_back(entry);
  std::push_heap(heap_.begin(), heap_.end());
}

void AbmStrategy::refresh(NodeId u) {
  engine_.consume_dirty(u);
  ++version_[u];
  heap_push(HeapEntry{engine_.score(u), u, version_[u]});
}

void AbmStrategy::maybe_compact(const AttackerView& view) {
  constexpr std::size_t kSlack = 16;  // don't thrash tiny/near-exhausted heaps
  const std::size_t live =
      instance_->num_nodes() - view.num_requests();
  if (heap_.size() <= 4 * live + kSlack) return;
  std::erase_if(heap_, [&](const HeapEntry& e) {
    return e.version != version_[e.node] || view.is_requested(e.node);
  });
  std::make_heap(heap_.begin(), heap_.end());
}

NodeId AbmStrategy::select_incremental(const AttackerView& view) {
  if (!heap_seeded_) seed_heap();
  maybe_compact(view);
  while (!heap_.empty()) {
    const HeapEntry top = heap_.front();
    if (top.version != version_[top.node] || view.is_requested(top.node)) {
      // Stale entry (superseded or already requested).
      std::pop_heap(heap_.begin(), heap_.end());
      heap_.pop_back();
      continue;
    }
    if (engine_.consume_dirty(top.node)) {
      // The cached value is an upper bound (only potential-lowering events
      // defer); recompute and re-enter the heap.  Selection stays exactly
      // the eager policy's: see DESIGN.md §11.
      std::pop_heap(heap_.begin(), heap_.end());
      heap_.pop_back();
      ++version_[top.node];
      heap_push(HeapEntry{engine_.score(top.node), top.node,
                          version_[top.node]});
      continue;
    }
    return top.node;
  }
  return kInvalidNode;
}

NodeId AbmStrategy::select_reference(const AttackerView& view) const {
  NodeId best = kInvalidNode;
  double best_value = 0.0;
  for (NodeId u = 0; u < instance_->num_nodes(); ++u) {
    if (view.is_requested(u)) continue;
    const double value = potential(view, u);
    if (best == kInvalidNode || value > best_value) {
      best = u;
      best_value = value;
    }
  }
  return best;
}

NodeId AbmStrategy::select(const AttackerView& view, util::Rng& rng) {
  (void)rng;  // deterministic: ties break to the smallest node id
  ACCU_ASSERT_MSG(instance_ != nullptr, "reset() must run before select()");
  return config_.incremental ? select_incremental(view)
                             : select_reference(view);
}

void AbmStrategy::observe(NodeId target, bool accepted,
                          const AttackerView& view,
                          const AttackerView::AcceptanceEffects* effects) {
  (void)view;
  if (!config_.incremental) return;
  // The target's entries are stale either way: it can never be selected
  // again (select_incremental also checks is_requested as a belt).
  ++version_[target];
  if (accepted) {
    ACCU_ASSERT(effects != nullptr);
    engine_.apply_acceptance(target, *effects);
  } else {
    engine_.apply_rejection(target);
  }
  // Nodes whose potential may have *increased* must re-enter the heap now
  // (a stale entry would under-represent them); everything else waits for
  // its dirty bit to surface at the heap top.  Before the first select the
  // heap is empty and seed_heap scores from live engine state anyway.
  if (heap_seeded_) {
    for (const NodeId u : engine_.pending_eager()) refresh(u);
  }
}

void AbmStrategy::observe_revelation(
    NodeId source, const AttackerView& view,
    const AttackerView::AcceptanceEffects& effects) {
  (void)source;
  (void)view;
  if (!config_.incremental) return;  // the reference rescans the view
  // A late revelation is the new_fof/mutual_increased half of an
  // acceptance (the source's own slots were deactivated when its
  // acceptance was observed); fold the deltas and re-push potentials that
  // may have increased, exactly as observe() does.
  engine_.apply_revelation(effects);
  if (heap_seeded_) {
    for (const NodeId u : engine_.pending_eager()) refresh(u);
  }
}

AbmStrategy make_classic_greedy() {
  return AbmStrategy(AbmStrategy::Config{{1.0, 0.0}, /*incremental=*/true});
}

}  // namespace accu
