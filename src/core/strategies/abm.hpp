// Adaptive Benefit Maximization (ABM) — the paper's Algorithm 1.
//
// Every round, ABM requests the un-requested user maximizing the potential
//
//     P(u|ω) = q(u) · ( w_D · P_D(u|ω) + w_I · P_I(u|ω) )
//
// where, under the current observations ω,
//
//     P_D(u|ω) = B_f(u) − 1_FOF(u)·B_fof(u)
//                + Σ_{v ∈ N(u)\N(s)}  p̂_uv · (1 − 1_FOF(v)) · B_fof(v)
//
// is the expected *direct* gain of u accepting (u upgrades to friend, u's
// believed neighbors become friends-of-friends), and
//
//     P_I(u|ω) = Σ_{v ∈ N(u) ∩ V_C,  θ_v > |N(s) ∩ N(v)|}
//                    p̂_uv · (B_f(v) − B_fof(v)) / (θ_v − |N(s) ∩ N(v)|)
//
// is the *indirect* gain of moving u's cautious neighbors closer to their
// acceptance thresholds.  p̂_uv is the attacker's current edge belief
// (prior p_uv, or 0/1 once observed); q(u) is q_u for reckless users and
// the deterministic acceptance indicator for cautious users.
//
// With w_D = 1, w_I = 0 the potential equals the exact expected marginal
// gain Δ(u|ω), so ABM reduces to the classic adaptive greedy analyzed by
// Theorem 1 (and used by prior adaptive-crawling work) — a property the
// tests verify by brute-force expectation.
//
// Complexity.  A naive implementation recomputes all n potentials (O(Σdeg))
// every round.  ABM instead keeps a versioned max-heap of cached potentials
// over the incremental ScoreEngine (core/score.hpp), seeded in O(n) from
// the instance plan's blank-state tables: acceptance effects
// apply O(1) deltas per affected CSR slot, nodes whose potential may have
// *increased* are re-scored eagerly, and everything else carries a dirty
// bit and is re-summed lazily only if it surfaces at the heap top.  Stale
// heap entries are upper bounds, so the lazy pop loop returns exactly the
// argmax the eager policy would — see DESIGN.md §11 for the argument.
// The heap itself is compacted in place whenever stale entries outnumber
// live candidates 4:1, bounding its size over arbitrarily long runs.
//
// A property test pins the incremental policy to the O(n·Σdeg) scalar
// reference (`Config::incremental = false`) trace-for-trace, bit-exactly.

#pragma once

#include <vector>

#include "core/score.hpp"
#include "core/simulator.hpp"

namespace accu {

class AbmStrategy final : public Strategy {
 public:
  struct Config {
    PotentialWeights weights{};
    /// When false, recompute every candidate's potential each round
    /// (reference implementation used by tests/ablation benches).
    bool incremental = true;
  };

  /// Default configuration: the paper's w_D = w_I = 0.5, incremental.
  AbmStrategy();
  explicit AbmStrategy(Config config);
  /// Convenience: ABM with the given w_D / w_I and incremental updates.
  AbmStrategy(double w_direct, double w_indirect);

  void reset(const AccuInstance& instance, util::Rng& rng) override;
  NodeId select(const AttackerView& view, util::Rng& rng) override;
  void observe(NodeId target, bool accepted, const AttackerView& view,
               const AttackerView::AcceptanceEffects* effects) override;
  void observe_revelation(NodeId source, const AttackerView& view,
                          const AttackerView::AcceptanceEffects& effects)
      override;
  [[nodiscard]] std::string name() const override;

  /// Current size of the selection heap, stale entries included (exposed
  /// for the heap-compaction regression test).
  [[nodiscard]] std::size_t heap_size() const noexcept { return heap_.size(); }

  // --- potential function (exposed for tests / ablations) ----------------

  /// q(u): q_u for reckless users, the 0/1 threshold indicator for
  /// cautious users.
  [[nodiscard]] static double effective_accept_prob(const AttackerView& view,
                                                    NodeId u);
  /// P_D(u|ω).
  [[nodiscard]] static double direct_gain(const AttackerView& view, NodeId u);
  /// P_I(u|ω).
  [[nodiscard]] static double indirect_gain(const AttackerView& view,
                                            NodeId u);
  /// P(u|ω) under this strategy's weights.
  [[nodiscard]] double potential(const AttackerView& view, NodeId u) const;

  [[nodiscard]] const PotentialWeights& weights() const noexcept {
    return config_.weights;
  }

 private:
  struct HeapEntry {
    double value;
    NodeId node;
    std::uint32_t version;
    // Max-heap: higher potential first, ties to the smaller node id so the
    // incremental and reference modes pick identically.
    friend bool operator<(const HeapEntry& a, const HeapEntry& b) noexcept {
      if (a.value != b.value) return a.value < b.value;
      return a.node > b.node;
    }
  };

  /// Recomputes u's engine score, bumps its version and pushes an entry.
  void refresh(NodeId u);

  /// Scores every un-requested node from the engine state and heapifies —
  /// deferred from reset() to the first select() so a strategy that is
  /// reset but never run pays nothing.  While no event has reached the
  /// engine, each score is one lookup in the plan's blank-state tables.
  void seed_heap();

  void heap_push(HeapEntry entry);

  /// Drops stale/requested entries in place once they outnumber live
  /// candidates 4:1 (the heap stays O(live) over arbitrarily long runs;
  /// re-heapifying never changes pop order — the comparator is total).
  void maybe_compact(const AttackerView& view);

  NodeId select_incremental(const AttackerView& view);
  NodeId select_reference(const AttackerView& view) const;

  Config config_;
  const AccuInstance* instance_ = nullptr;
  std::vector<std::uint32_t> version_;
  // Explicit max-heap (std::push_heap/pop_heap over a vector, ordering
  // identical to std::priority_queue) so reset() can keep its capacity.
  std::vector<HeapEntry> heap_;
  bool heap_seeded_ = false;
  // Incremental scoring state (config_.incremental only), over the
  // instance plan's shared pack and blank-state tables.
  ScoreEngine engine_;
};

/// The classic adaptive greedy of earlier adaptive-crawling papers
/// ([2],[3],[6] in the paper): ABM with w_D = 1, w_I = 0.
[[nodiscard]] AbmStrategy make_classic_greedy();

}  // namespace accu
