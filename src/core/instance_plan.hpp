// The per-instance plan: everything a simulation derives from an
// AccuInstance alone, computed once per instance instead of once per cell
// or once per worker (DESIGN.md §10).
//
//   * the static request orders of the MaxDegree and PageRank baselines
//     (the paper's PageRank score is "computed once on the prior network");
//   * the ScorePack (core/score.hpp) that ABM, BatchedABM and lookahead
//     score through;
//   * ABM's blank-state tables (BlankTables, core/score.hpp), which seed
//     the selection heap in O(1) per node and re-arm the score engine
//     without a per-slot division loop;
//   * Realization's draw plan (core/realization.hpp).
//
// An AccuInstance owns its plan through a shared_ptr, and copies share it:
// a copy keeps the contents and the uid(), so everything derived from them
// stays valid.  A fresh construction gets a fresh plan.
//
// Build rule.  Each part is built lazily, under its own std::call_once, the
// first time a cell asks for it — never in the AccuInstance constructor or
// a loader, so loading an instance costs exactly what it did before the
// plan existed.  Concurrent first use from several workers builds a part
// once; the losers block until it is ready.  A build that throws leaves its
// flag unset, so the next caller retries.  Once built, every part is
// immutable and read without locks.
//
// Accessors take the instance the plan belongs to (asserted by uid), since
// the plan keeps no pointer to it: the instance that first created the plan
// may be gone while a copy still uses it.

#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "core/instance.hpp"
#include "core/realization.hpp"
#include "core/score.hpp"
#include "core/types.hpp"

namespace accu {

class InstancePlan {
 public:
  /// An empty plan for the instance with the given uid; nothing is built.
  explicit InstancePlan(std::uint64_t uid) noexcept : uid_(uid) {}

  InstancePlan(const InstancePlan&) = delete;
  InstancePlan& operator=(const InstancePlan&) = delete;

  /// All nodes by decreasing expected degree (Graph::expected_degree),
  /// ties to the smaller id — MaxDegree's request order.
  [[nodiscard]] const std::vector<NodeId>& max_degree_order(
      const AccuInstance& instance) const;

  /// All nodes by decreasing weighted PageRank (graph/pagerank.hpp), ties
  /// to the smaller id — PageRank's request order.
  [[nodiscard]] const std::vector<NodeId>& pagerank_order(
      const AccuInstance& instance) const;

  /// The flat SoA score pack, shared read-only by every worker.
  [[nodiscard]] const ScorePack& score_pack(const AccuInstance& instance) const;

  /// Whether score_pack() has been built — true once any strategy scored
  /// through the flat kernels on this instance (or a copy).
  [[nodiscard]] bool has_score_pack() const noexcept {
    return pack_built_.load(std::memory_order_acquire);
  }

  /// ABM's blank-state tables over score_pack().
  [[nodiscard]] const BlankTables& blank_tables(
      const AccuInstance& instance) const;

  /// The realization draw schedule Realization::resample replays.
  [[nodiscard]] const DrawPlan& draw_plan(const AccuInstance& instance) const;

 private:
  void check(const AccuInstance& instance) const;

  std::uint64_t uid_;

  mutable std::once_flag max_degree_once_;
  mutable std::once_flag pagerank_once_;
  mutable std::once_flag pack_once_;
  mutable std::once_flag blank_once_;
  mutable std::once_flag draw_once_;

  // Written once under the matching flag, read-only afterwards.
  mutable std::vector<NodeId> max_degree_order_;
  mutable std::vector<NodeId> pagerank_order_;
  mutable ScorePack pack_;
  mutable BlankTables blank_;
  mutable DrawPlan draw_;
  mutable std::atomic<bool> pack_built_{false};
};

}  // namespace accu
