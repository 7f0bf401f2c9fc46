#include "core/instance.hpp"

#include <atomic>
#include <string>

#include "core/instance_plan.hpp"

namespace accu {

std::uint64_t AccuInstance::next_uid() noexcept {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

AccuInstance::AccuInstance(Graph graph, std::vector<UserClass> classes,
                           std::vector<double> accept_prob,
                           std::vector<std::uint32_t> threshold,
                           BenefitModel benefits)
    : graph_(std::move(graph)),
      classes_(std::move(classes)),
      accept_prob_(std::move(accept_prob)),
      threshold_(std::move(threshold)),
      benefits_(std::move(benefits)),
      cautious_below_(graph_.num_nodes(), 0.0),
      cautious_above_(graph_.num_nodes(), 1.0),
      plan_(std::make_shared<const InstancePlan>(uid_)) {
  validate();
}

AccuInstance::AccuInstance(Graph graph, std::vector<UserClass> classes,
                           std::vector<double> accept_prob,
                           std::vector<std::uint32_t> threshold,
                           BenefitModel benefits,
                           GeneralizedCautiousParams cautious_params)
    : graph_(std::move(graph)),
      classes_(std::move(classes)),
      accept_prob_(std::move(accept_prob)),
      threshold_(std::move(threshold)),
      benefits_(std::move(benefits)),
      cautious_below_(std::move(cautious_params.below)),
      cautious_above_(std::move(cautious_params.above)),
      plan_(std::make_shared<const InstancePlan>(uid_)) {
  const NodeId n = graph_.num_nodes();
  if (cautious_below_.size() != n || cautious_above_.size() != n) {
    throw InvalidArgument(
        "AccuInstance: generalized cautious vectors must have one entry per "
        "node");
  }
  for (NodeId v = 0; v < n; ++v) {
    if (classes_.size() == n && classes_[v] != UserClass::kCautious) continue;
    const double q1 = cautious_below_[v];
    const double q2 = cautious_above_[v];
    if (!(q1 >= 0.0 && q1 <= q2 && q2 <= 1.0)) {
      throw InvalidArgument("AccuInstance: need 0 <= q1 <= q2 <= 1 for "
                            "cautious user " +
                            std::to_string(v));
    }
    if (q1 != 0.0 || q2 != 1.0) generalized_ = true;
  }
  validate();
}

void AccuInstance::validate() {
  const NodeId n = graph_.num_nodes();
  if (classes_.size() != n || accept_prob_.size() != n ||
      threshold_.size() != n || benefits_.num_nodes() != n) {
    throw InvalidArgument("AccuInstance: per-node vector size mismatch");
  }
  for (NodeId u = 0; u < n; ++u) {
    if (!(accept_prob_[u] >= 0.0 && accept_prob_[u] <= 1.0)) {
      throw InvalidArgument("AccuInstance: q(" + std::to_string(u) +
                            ") outside [0,1]");
    }
    if (classes_[u] != UserClass::kCautious) continue;
    ++num_cautious_;
    cautious_users_.push_back(u);
    if (threshold_[u] < 1) {
      throw InvalidArgument("AccuInstance: θ(" + std::to_string(u) +
                            ") must be a positive integer");
    }
    // With no cautious-cautious edges every neighbor is reckless, so
    // feasibility |N(v) ∩ V_R| >= θ_v reduces to deg(v) >= θ_v; both
    // assumptions are checked in one scan.
    std::uint32_t reckless_neighbors = 0;
    for (const graph::Neighbor& nb : graph_.neighbors(u)) {
      if (classes_[nb.node] == UserClass::kCautious) {
        throw InvalidArgument(
            "AccuInstance: edge between cautious users " + std::to_string(u) +
            " and " + std::to_string(nb.node) +
            " violates the model assumption N(v) ∩ V_C = ∅");
      }
      ++reckless_neighbors;
    }
    if (reckless_neighbors < threshold_[u]) {
      throw InvalidArgument(
          "AccuInstance: cautious user " + std::to_string(u) +
          " has fewer reckless neighbors than its threshold (" +
          std::to_string(reckless_neighbors) + " < " +
          std::to_string(threshold_[u]) +
          "); the paper removes such users from the network");
    }
  }
}

}  // namespace accu
