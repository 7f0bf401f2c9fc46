// The paper's comparison baselines (§IV-A, "Algorithms for Comparison").
//
//   * MaxDegree — iteratively request the highest-degree remaining user.
//     Degrees are *expected* degrees under the attacker's prior (the sum of
//     incident edge probabilities), since true degrees are not observable.
//   * PageRank — request users in decreasing PageRank score, computed once
//     on the prior network with edge probabilities as transition weights.
//   * Random — uniform among un-requested users (the paper averages this
//     over many runs; the experiment harness does the same).
//
// MaxDegree and PageRank are static orders: their information never changes
// with observations, which is exactly why ABM beats them in the paper.  The
// orders depend on the instance alone, so its InstancePlan
// (core/instance_plan.hpp) builds each once; a simulation only walks a
// cursor over the shared order.

#pragma once

#include <vector>

#include "core/simulator.hpp"

namespace accu {

class RandomStrategy final : public Strategy {
 public:
  void reset(const AccuInstance& instance, util::Rng& rng) override;
  NodeId select(const AttackerView& view, util::Rng& rng) override;
  [[nodiscard]] std::string name() const override { return "Random"; }

 private:
  // Shuffled node order; a cursor walks it skipping requested nodes, so a
  // full simulation stays O(n) regardless of budget.
  std::vector<NodeId> order_;
  std::size_t cursor_ = 0;
};

/// Shared implementation for score-ordered static baselines.
class StaticOrderStrategy : public Strategy {
 public:
  void reset(const AccuInstance& instance, util::Rng& rng) final;
  NodeId select(const AttackerView& view, util::Rng& rng) final;

 protected:
  /// The instance's request order (decreasing score, ties by node id),
  /// owned by its plan and valid while the instance or a copy lives.
  [[nodiscard]] virtual const std::vector<NodeId>& order(
      const AccuInstance& instance) const = 0;

 private:
  const std::vector<NodeId>* order_ = nullptr;
  std::size_t cursor_ = 0;
};

class MaxDegreeStrategy final : public StaticOrderStrategy {
 public:
  [[nodiscard]] std::string name() const override { return "MaxDegree"; }

 protected:
  [[nodiscard]] const std::vector<NodeId>& order(
      const AccuInstance& instance) const override;
};

class PageRankStrategy final : public StaticOrderStrategy {
 public:
  [[nodiscard]] std::string name() const override { return "PageRank"; }

 protected:
  [[nodiscard]] const std::vector<NodeId>& order(
      const AccuInstance& instance) const override;
};

}  // namespace accu
