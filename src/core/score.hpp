// The score engine — flat SoA layout and incremental caches for ABM's
// potential function, the innermost kernel of every simulation
// (P(u|ω) = q(u)·(w_D·P_D + w_I·P_I), paper §III-B).
//
// The scalar implementation in strategies/abm.cpp walks the CSR adjacency
// through per-element accessors (`edge_belief`, `is_fof`, `is_cautious`),
// each carrying an always-on assert and a cold indirection.  This header
// provides the same arithmetic over contiguous arrays, in three layers:
//
//  * ScorePack — the per-instance SoA pack: edge-parallel slot arrays laid
//    out alongside the CSR adjacency (neighbor id, mirror slot, the
//    slot-constant direct/indirect term numerators), per-node benefit /
//    acceptance columns, cautious flags as a bitset, thresholds as flat
//    uint32.  Built once per AccuInstance by its InstancePlan
//    (core/instance_plan.hpp) and shared read-only by every worker;
//    identity is AccuInstance::uid alone, so copies of an instance share it.
//
//  * BlankTables — ABM's blank-state tables over a pack: each node's
//    canonical P_D / P_I row sums before any request, and the sparse list
//    of slots whose blank P_I term is non-zero.  Also built once per
//    instance by the plan.
//
//  * score_batch — the stateless batched rescore: scores a span of
//    candidate ids against an AttackerView in one pass, reading only the
//    view's flat spans.  The reckless fast path is a branchless
//    multiply-mask loop that GCC/Clang can auto-vectorize.
//
//  * ScoreEngine — the incremental cache driving AbmStrategy: per-slot
//    contribution arrays updated by O(1) signed deltas per acceptance
//    effect, plus per-node dirty bits and an "eager" list (nodes whose
//    potential may have *increased* and must be re-pushed before the next
//    selection; everything else is refreshed lazily when it surfaces at the
//    heap top).  DESIGN.md §11 has the staleness/restore invariants.
//
// Bit-exactness.  Every result is pinned *exactly* (same doubles) to the
// scalar reference, which works because of one structural invariant: an
// edge term that is still live in some potential sum always carries the
// prior p_e — an edge is only ever observed through an accepting endpoint,
// and an accepted endpoint deactivates every term over that edge (the
// friend skip for P_D, the requested skip for P_I).  Deactivated terms are
// stored as exactly 0.0, and adding +0.0 into a non-negative lane
// accumulator is an exact floating-point no-op, so reducing a row in the
// canonical stride-4 lane order (score_simd.hpp) reproduces the scalar
// reference's lanes bit for bit — under any ISA, batch chunking, or thread
// count.  Property tests (tests/score_test.cpp) enforce this across random
// instances, cautious/reckless mixes, mid-simulation states, and every
// supported kernel ISA.
//
// Precondition: views handed to these kernels must have evolved through
// record_acceptance/record_rejection only (every view in this codebase
// does, including lookahead's hypothetical branch views) — that is what
// guarantees the invariant above.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/instance.hpp"
#include "core/observation.hpp"
#include "core/types.hpp"

namespace accu {

/// Per-instance structure-of-arrays pack for potential scoring.  Immutable
/// after build(); shared by any number of concurrent readers (the engines /
/// batch kernels keep their own mutable state).
class ScorePack {
 public:
  ScorePack() = default;

  /// (Re)builds the pack for `instance`, reusing array capacity — a pack
  /// pooled in a workspace rebuilds allocation-free once its buffers have
  /// grown to the largest instance seen.
  void build(const AccuInstance& instance);

  /// Whether this pack currently describes `instance`: the same uid, i.e.
  /// the same construction or a copy of it (copies keep the contents).
  [[nodiscard]] bool built_for(const AccuInstance& instance) const noexcept {
    return uid_ != 0 && uid_ == instance.uid();
  }

  [[nodiscard]] NodeId num_nodes() const noexcept { return num_nodes_; }
  [[nodiscard]] std::uint32_t num_slots() const noexcept {
    return row_begin_.empty() ? 0 : row_begin_[num_nodes_];
  }

  // --- per-node columns ---------------------------------------------------

  [[nodiscard]] std::uint32_t row_begin(NodeId u) const {
    return row_begin_[u];
  }
  [[nodiscard]] bool is_cautious(NodeId u) const {
    return (cautious_bits_[u >> 6] >> (u & 63)) & 1u;
  }
  [[nodiscard]] double friend_benefit(NodeId u) const { return friend_b_[u]; }
  [[nodiscard]] double fof_benefit(NodeId u) const { return fof_b_[u]; }
  /// q_u for reckless u (meaningless for cautious users).
  [[nodiscard]] double q_reckless(NodeId u) const { return q_reckless_[u]; }
  /// q1/q2 for cautious u (0/1 under the deterministic model).
  [[nodiscard]] double q_below(NodeId u) const { return q_below_[u]; }
  [[nodiscard]] double q_above(NodeId u) const { return q_above_[u]; }
  /// θ_u for cautious u; 0 for reckless users.
  [[nodiscard]] std::uint32_t theta(NodeId u) const { return theta_[u]; }

  // --- edge-parallel slot arrays (one slot per CSR adjacency entry) -------

  /// Neighbor id of slot s (same order as Graph::neighbors).
  [[nodiscard]] NodeId slot_node(std::uint32_t s) const { return adj_node_[s]; }
  /// The reverse slot: the entry in slot_node(s)'s row pointing back over
  /// the same undirected edge.  mirror(mirror(s)) == s.
  [[nodiscard]] std::uint32_t mirror(std::uint32_t s) const {
    return mirror_[s];
  }
  /// Slot-constant P_D term: p_e · B_fof(slot_node(s)).  The live value of
  /// the term whenever it is active (see the header invariant).
  [[nodiscard]] double d_init(std::uint32_t s) const { return d_init_[s]; }
  /// Slot-constant P_I numerator: p_e · upgrade_gain(v) for cautious
  /// neighbors v, exactly 0.0 otherwise (the scalar code skips those slots;
  /// summing a hard zero matches it bit for bit).
  [[nodiscard]] double i_gain(std::uint32_t s) const { return i_gain_[s]; }
  /// θ of slot s's neighbor (1 for reckless neighbors, never divided by).
  [[nodiscard]] std::uint32_t slot_theta(std::uint32_t s) const {
    return slot_theta_[s];
  }

  [[nodiscard]] std::span<const double> d_init_all() const noexcept {
    return d_init_;
  }
  [[nodiscard]] std::span<const std::uint32_t> mirror_all() const noexcept {
    return mirror_;
  }
  [[nodiscard]] std::span<const double> i_gain_all() const noexcept {
    return i_gain_;
  }
  [[nodiscard]] std::span<const std::uint32_t> slot_theta_all() const noexcept {
    return slot_theta_;
  }
  [[nodiscard]] std::span<const NodeId> slot_nodes_all() const noexcept {
    return adj_node_;
  }
  /// The cautious flags as LSB-first 64-bit words (bit u of word u/64).
  [[nodiscard]] std::span<const std::uint64_t> cautious_words() const noexcept {
    return cautious_bits_;
  }

 private:
  std::uint64_t uid_ = 0;  // AccuInstance::uid of the build; 0 = never built
  NodeId num_nodes_ = 0;

  std::vector<std::uint32_t> row_begin_;  // size n+1; CSR offsets as u32
  std::vector<std::uint64_t> cautious_bits_;
  std::vector<double> friend_b_, fof_b_;
  std::vector<double> q_reckless_, q_below_, q_above_;
  std::vector<std::uint32_t> theta_;

  std::vector<NodeId> adj_node_;          // size 2E
  std::vector<std::uint32_t> mirror_;     // size 2E
  std::vector<double> d_init_, i_gain_;   // size 2E
  std::vector<std::uint32_t> slot_theta_; // size 2E
  std::vector<std::uint32_t> edge_slot_;  // size E; build scratch
};

/// ABM's blank-state tables: what the incremental ScoreEngine holds right
/// after reset, before any event.  Immutable after build(); built once per
/// instance by InstancePlan and shared by every worker.
///
///  * `direct_sum[u]` / `indirect_sum[u]` are u's canonical row sums
///    (score_simd.hpp) of the blank contribution arrays, so a blank score
///    is O(1) per node instead of O(deg) — seed_score() uses them to seed
///    ABM's heap (Golovin & Krause's accelerated adaptive greedy).
///  * `indirect_slots` / `indirect_values` list, in slot order, the only
///    slots whose blank P_I term is non-zero (slots pointing at cautious
///    users), so ScoreEngine::reset scatters them into a zeroed array
///    instead of dividing per slot.  Sparse on purpose: no O(slots) copy
///    is kept.
struct BlankTables {
  std::vector<double> direct_sum;
  std::vector<double> indirect_sum;
  std::vector<std::uint32_t> indirect_slots;
  std::vector<double> indirect_values;

  void build(const ScorePack& pack);

  /// P(u|ω) of un-requested u in the blank state, bit-identical to
  /// ScoreEngine::score(u) right after reset (same operations, with the
  /// row sums read from the tables).
  [[nodiscard]] double score(const ScorePack& pack, NodeId u,
                             const PotentialWeights& weights) const;
};

/// Reusable per-node tables for the batched rescore.  Pool this in the
/// owning strategy: after the first few cells the vectors reach the largest
/// instance size seen and `score_batch_prepare` becomes allocation-free.
struct ScoreBatchScratch {
  std::vector<double> active;   // P_D mask per node: 1.0 while the neighbor
                                // term is live, 0.0 once deactivated
  std::vector<double> inv_gap;  // P_I reciprocal gap per node: 1/(θ_v − m_v)
                                // while indirect-live, exactly 0.0 otherwise
};

/// Builds `scratch`'s tables for the view's current state (O(n); the
/// inv_gap pass walks only the cautious bitset words).  `want_indirect`
/// mirrors `weights.indirect > 0` — callers that never read P_I skip the
/// second table.
void score_batch_prepare(const ScorePack& pack, const AttackerView& view,
                         bool want_indirect, ScoreBatchScratch& scratch);

/// Scores candidates [begin, end) into out[u - begin] using tables built by
/// score_batch_prepare on the same (pack, view) state.  Pure read of pack /
/// view / scratch — disjoint ranges may run on different threads, and
/// chunking cannot change a single bit (each candidate's reduction is
/// independent and in the canonical order, see score_simd.hpp).
void score_batch_ranged(const ScorePack& pack, const AttackerView& view,
                        const PotentialWeights& weights,
                        const ScoreBatchScratch& scratch, NodeId begin,
                        NodeId end, double* out);

/// Batched rescore: writes P(u|ω) for every u in [begin, end) into
/// out[u - begin], reading the view's flat spans only.  Already-requested
/// candidates score 0.0 (they are never selectable).  Bit-exact against
/// AbmStrategy's scalar potential() under the same weights.
///
/// Convenience wrapper over prepare + ranged with local scratch; hot paths
/// pool a ScoreBatchScratch and call the split form instead.
void score_batch(const ScorePack& pack, const AttackerView& view,
                 const PotentialWeights& weights, NodeId begin, NodeId end,
                 double* out);

class TaskPool;

/// Full-population rescore through pooled scratch: prepare + ranged over
/// [0, num_nodes) into out.  When `pool` has more than one thread the range
/// is chunked across it — bit-identical to the single-call form because
/// chunking cannot change a candidate's reduction (see score_batch_ranged).
/// `pool` may be nullptr (sequential).
void score_batch_all(const ScorePack& pack, const AttackerView& view,
                     const PotentialWeights& weights, ScoreBatchScratch& scratch,
                     TaskPool* pool, double* out);

/// Incremental potential cache for one running simulation.
///
/// Holds each node's P_D / P_I sums as per-slot contribution arrays (so a
/// delta touches O(1) doubles per affected slot, and a refresh re-sums the
/// row in CSR order — which is what keeps refreshed values bit-identical to
/// a scalar rescan).  Event handlers mirror AttackerView's acceptance
/// effects:
///
///   apply_acceptance(t): t's mirror slots leave every neighbor's P_D and
///     P_I sums; nodes entering FOF leave their neighbors' P_D sums; mutual
///     increases at cautious v either shrink v's neighbors' P_I
///     denominators (potential ↑ — eager) or cross θ_v (q(v) jumps q1→q2 —
///     eager — and v leaves its neighbors' P_I sums).
///   apply_rejection(t): a rejected *cautious* t leaves its neighbors' P_I
///     sums (reachable only under the generalized q1 > 0 model).
///
/// Every other consequence only *lowers* potentials, so affected nodes just
/// get a dirty bit and are recomputed lazily if they ever surface at the
/// selection heap's top — stale heap entries are upper bounds, which keeps
/// lazy selection exactly equal to the eager reference (see DESIGN.md §11).
class ScoreEngine {
 public:
  /// Arms the engine for a fresh simulation over `pack`'s instance (no
  /// requests sent).  `blank` must be the blank-state tables of `pack`;
  /// both must outlive the engine's use.  Capacity reuses.
  void reset(const ScorePack& pack, const BlankTables& blank,
             const PotentialWeights& weights);

  /// P(u|ω) for un-requested u under the engine's current event state;
  /// bit-exact vs the scalar reference on the matching view.
  [[nodiscard]] double score(NodeId u) const;

  /// Whether no event has reached the engine since reset().
  [[nodiscard]] bool pristine() const noexcept { return pristine_; }

  /// score(u), read from the blank-state tables in O(1) while pristine().
  [[nodiscard]] double seed_score(NodeId u) const {
    return pristine_ ? blank_->score(*pack_, u, weights_) : score(u);
  }

  [[nodiscard]] bool is_requested(NodeId u) const {
    return requested_[u] != 0;
  }

  /// Folds an accepted request into the caches; effects must be the ones
  /// AttackerView::record_acceptance produced for the same event.
  void apply_acceptance(NodeId target,
                        const AttackerView::AcceptanceEffects& effects);
  /// Folds a rejected request into the caches.
  void apply_rejection(NodeId target);

  /// Folds a late neighborhood revelation (deferred FeedbackModel) into
  /// the caches; effects must be the ones
  /// AttackerView::deliver_next_revelation produced.  This is exactly the
  /// new_fof / mutual_increased half of apply_acceptance — the
  /// target-deactivation half already ran at acceptance time (the
  /// acceptance itself is immediate feedback in every model), which is
  /// what keeps the engine's mirrors in lockstep with the *observed* view
  /// and preserves the bit-exactness invariant: an edge is observed and
  /// its terms deactivated in the same delivery event.
  void apply_revelation(const AttackerView::AcceptanceEffects& effects);

  /// Nodes whose potential may have increased in the latest apply_* call;
  /// the caller must re-score these eagerly (heap re-push) before the next
  /// selection.  Valid until the next apply_* call.
  [[nodiscard]] std::span<const NodeId> pending_eager() const noexcept {
    return eager_;
  }

  /// Clears and returns u's dirty bit ("value may have decreased since the
  /// last refresh").
  bool consume_dirty(NodeId u) {
    const bool was = dirty_[u] != 0;
    dirty_[u] = 0;
    return was;
  }

  [[nodiscard]] const ScorePack& pack() const {
    ACCU_ASSERT(pack_ != nullptr);
    return *pack_;
  }

 private:
  void add_eager(NodeId u);
  void mark_dirty(NodeId u) {
    if (requested_[u] == 0) dirty_[u] = 1;
  }

  const ScorePack* pack_ = nullptr;
  const BlankTables* blank_ = nullptr;
  PotentialWeights weights_{};
  bool maintain_indirect_ = false;
  bool pristine_ = false;

  // Per-slot live term values: exactly the scalar term while active, 0.0
  // once deactivated.
  std::vector<double> contrib_d_;
  std::vector<double> contrib_i_;

  // Per-node mirrors of the view state the potential reads.
  std::vector<std::uint32_t> mutual_;
  std::vector<std::uint8_t> fof_;
  std::vector<std::uint8_t> requested_;

  std::vector<std::uint8_t> dirty_;
  std::vector<NodeId> eager_;
  std::vector<std::uint32_t> eager_stamp_;  // dedup within one apply_* batch
  std::uint32_t eager_round_ = 0;
};

}  // namespace accu
