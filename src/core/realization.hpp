// Ground-truth realizations (paper §II-B).
//
// A realization φ fixes every random quantity of an instance:
//
//   * which potential edges actually exist (edge (u,v) is present with
//     probability p_uv, independently), and
//   * each reckless user's acceptance coin (accept with probability q_u;
//     a user receives at most one request, so one coin per user is
//     equivalent to a per-request draw).
//
// Under the deterministic model cautious users have no effective coin —
// their acceptance is a function of the realized mutual-friend count
// (paper §II-A).  Under the *generalized* model of §III-B they accept with
// probability q1 below threshold and q2 at/above it; since each user
// receives at most one request, the realization carries two independent
// pre-drawn coins per user (one per regime) and the simulator consults
// whichever regime is active at request time.
//
// The simulator owns a realization as the hidden ground truth and reveals
// pieces of it to the AttackerView as requests are accepted.

#pragma once

#include <vector>

#include "core/instance.hpp"
#include "core/types.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"

namespace accu {

/// The draw schedule of one instance: which events the reference sampling
/// loop draws (vs decides deterministically), their thresholds in draw
/// order, and how the drawn bits scatter into a realization's four bit
/// vectors.  Depends on the instance alone, so it is built once per
/// instance by its InstancePlan (core/instance_plan.hpp) and shared
/// read-only by every Realization::resample.
struct DrawPlan {
  /// A maximal stretch of consecutive draws landing on consecutive bits of
  /// one destination array (most instances need only two: all edges, then
  /// all acceptance coins).
  struct Run {
    std::size_t draw_begin;  // first draw index of the stretch
    std::size_t count;       // number of draws
    std::size_t dest_begin;  // first destination bit
    std::uint8_t array;      // 0 edges, 1 accepts, 2 below, 3 above
  };

  std::size_t num_draws = 0;
  std::vector<std::uint64_t> thresholds;  // per draw, in draw order
  std::vector<Run> runs;
  // Per-array template words: deterministic outcomes set, drawn bits 0.
  std::vector<std::uint64_t> tmpl[4];

  void build(const AccuInstance& instance);
};

class Realization {
 public:
  /// Samples a realization from the instance's probabilities.
  static Realization sample(const AccuInstance& instance, util::Rng& rng);

  /// Re-samples in place, reusing the coin/edge storage (the workspace
  /// path) — draw-for-draw identical to `sample`.
  ///
  /// This is the batched fast path: the instance's *draw plan* (DrawPlan,
  /// built once per instance by its InstancePlan; the pooled buffers here
  /// make a resample allocation-free once they have grown) lists every
  /// Bernoulli draw the reference loop would make, in order, as an integer
  /// threshold
  /// (util::Rng::bernoulli_threshold); resampling bulk-fills the raw
  /// xoshiro outputs (Rng::fill_raw — same stream, same end state), packs
  /// the compares 64 per word through the active SIMD kernel
  /// (simd::ScoreKernels::bernoulli_pack), and scatters the packed runs
  /// into the bit vectors over a template holding the deterministic
  /// (p ≤ 0 / p ≥ 1, never-drawn) outcomes.  Bit-identical to
  /// `resample_reference` — including the skipped draws — by the threshold
  /// equivalence proven in util/rng.hpp.
  void resample(const AccuInstance& instance, util::Rng& rng);

  /// The reference per-draw sampling loop the fast path is pinned against
  /// (tests/realization_test.cpp compares bits and RNG end state).
  void resample_reference(const AccuInstance& instance, util::Rng& rng);

  /// Rebuilds in place from explicit edge/coin vectors under the
  /// deterministic cautious model (cf. the two-argument constructor),
  /// reusing storage.
  void assign(const std::vector<bool>& edge_present,
              const std::vector<bool>& accepts);

  /// As above, from word-backed bit vectors — the hot variant (word-granular
  /// copies; lookahead rebuilds a scenario per sample through this).
  void assign(const util::BitVec& edge_present, const util::BitVec& accepts);

  /// A realization in which every potential edge exists and every reckless
  /// user accepts — the deterministic "certain" world; handy for tests and
  /// for instances whose probabilities are all 1.  Cautious regime coins
  /// are pinned to their most permissive positive-probability outcome
  /// (below-threshold accepts iff q1 > 0, at-threshold accepts iff q2 > 0),
  /// which reduces to reject/accept under the deterministic model.
  static Realization certain(const AccuInstance& instance);

  /// Explicit construction (tests, exhaustive theory enumeration).  The
  /// cautious regime coins default to the deterministic model
  /// (below = reject, above = accept).
  Realization(std::vector<bool> edge_present, std::vector<bool> accepts);

  /// Explicit construction with cautious regime coins (generalized model).
  Realization(std::vector<bool> edge_present, std::vector<bool> accepts,
              std::vector<bool> cautious_below_accepts,
              std::vector<bool> cautious_above_accepts);

  /// Word-backed variant of the two-argument constructor (deterministic
  /// cautious model).  A named factory so brace-initialized vector<bool>
  /// construction stays unambiguous.
  [[nodiscard]] static Realization from_bits(const util::BitVec& edge_present,
                                             const util::BitVec& accepts);

  [[nodiscard]] bool edge_present(EdgeId e) const {
    return edge_present_.get(e);
  }

  /// Whether reckless user u's coin came up "accept".  Meaningless for
  /// cautious users (asserted against in the simulator, not here, so the
  /// theory code can enumerate uniformly).
  [[nodiscard]] bool reckless_accepts(NodeId u) const {
    return accepts_.get(u);
  }

  /// Generalized-model coin of cautious user v for the below-threshold
  /// regime (accept with probability q1).
  [[nodiscard]] bool cautious_below_accepts(NodeId v) const {
    return cautious_below_.get(v);
  }

  /// Generalized-model coin of cautious user v for the at/above-threshold
  /// regime (accept with probability q2).
  [[nodiscard]] bool cautious_above_accepts(NodeId v) const {
    return cautious_above_.get(v);
  }

  [[nodiscard]] std::size_t num_edges() const noexcept {
    return edge_present_.size();
  }
  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return accepts_.size();
  }

  /// Realized degree of v (number of present incident edges).
  [[nodiscard]] std::uint32_t realized_degree(const Graph& g, NodeId v) const;

  /// Probability of this realization under the instance's model — the
  /// product over edges of p / (1-p) and over *reckless* users of
  /// q / (1-q).  Used by the exhaustive theory calculations.
  [[nodiscard]] double probability(const AccuInstance& instance) const;

 private:
  /// Shape-less; only `sample` uses it (resample fills every vector).
  Realization() = default;

  std::vector<std::uint64_t> raw_;     // pooled raw xoshiro outputs (one block)
  std::vector<std::uint64_t> packed_;  // pooled packed compare bits

  util::BitVec edge_present_;    // per EdgeId
  util::BitVec accepts_;         // per NodeId (reckless coins)
  util::BitVec cautious_below_;  // per NodeId (generalized q1 coins)
  util::BitVec cautious_above_;  // per NodeId (generalized q2 coins)
};

/// The ground-truth network of a realization: exactly the present edges,
/// carried with probability 1 (node ids preserved).  This is the graph the
/// attacker would see with unlimited budget; tests and analyses use it as
/// the omniscient reference.
[[nodiscard]] Graph realized_graph(const Graph& prior,
                                   const Realization& truth);

}  // namespace accu
