#include "core/score.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

#include "core/score_simd.hpp"
#include "core/task_pool.hpp"

namespace accu {

namespace {
constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();
}  // namespace

void ScorePack::build(const AccuInstance& instance) {
  const Graph& g = instance.graph();
  const NodeId n = g.num_nodes();
  const std::size_t slots = 2ull * g.num_edges();
  if (slots >= kNoSlot) {
    throw InvalidArgument("ScorePack: instance too large for 32-bit slots");
  }
  uid_ = instance.uid();
  num_nodes_ = n;

  row_begin_.resize(n + 1);
  cautious_bits_.assign((static_cast<std::size_t>(n) + 63) / 64, 0);
  friend_b_.resize(n);
  fof_b_.resize(n);
  q_reckless_.resize(n);
  q_below_.resize(n);
  q_above_.resize(n);
  theta_.resize(n);
  adj_node_.resize(slots);
  mirror_.resize(slots);
  d_init_.resize(slots);
  i_gain_.resize(slots);
  slot_theta_.resize(slots);

  const BenefitModel& benefits = instance.benefits();
  for (NodeId u = 0; u < n; ++u) {
    friend_b_[u] = benefits.friend_benefit(u);
    fof_b_[u] = benefits.fof_benefit(u);
    q_reckless_[u] = instance.accept_prob(u);
    if (instance.is_cautious(u)) {
      cautious_bits_[u >> 6] |= 1ull << (u & 63);
      theta_[u] = instance.threshold(u);
      q_below_[u] = instance.cautious_accept_prob(u, false);
      q_above_[u] = instance.cautious_accept_prob(u, true);
    } else {
      theta_[u] = 0;
      q_below_[u] = 0.0;
      q_above_[u] = 1.0;
    }
  }

  // Pre-laid-out slot tables (binary instance format): the file already
  // stores mirror / d_init / i_gain / slot_theta in exactly this layout, so
  // adopt them by memcpy and skip both the per-slot walk and the mirror
  // linking.  The format writer produced them with this very function (or a
  // transform pinned bit-identical to it in tests), so adopted packs score
  // bit-for-bit like recomputed ones; the binary loader re-checked the
  // structural invariants (mirror twin links, slot_theta, reckless-zero
  // i_gain) against the CSR before attaching.
  if (const PackTables* tables = instance.pack_tables();
      tables != nullptr && tables->num_slots == slots) {
    const std::span<const std::size_t> offsets = g.raw_offsets();
    for (NodeId u = 0; u <= n; ++u) {
      row_begin_[u] = static_cast<std::uint32_t>(offsets[u]);
    }
    const std::span<const graph::Neighbor> adj = g.raw_adjacency();
    for (std::size_t i = 0; i < slots; ++i) adj_node_[i] = adj[i].node;
    if (slots > 0) {
      std::memcpy(mirror_.data(), tables->mirror,
                  slots * sizeof(std::uint32_t));
      std::memcpy(d_init_.data(), tables->d_init, slots * sizeof(double));
      std::memcpy(i_gain_.data(), tables->i_gain, slots * sizeof(double));
      std::memcpy(slot_theta_.data(), tables->slot_theta,
                  slots * sizeof(std::uint32_t));
    }
    return;
  }

  std::uint32_t s = 0;
  for (NodeId u = 0; u < n; ++u) {
    row_begin_[u] = s;
    for (const graph::Neighbor& nb : g.neighbors(u)) {
      const NodeId v = nb.node;
      const double prior = g.edge_prob(nb.edge);
      adj_node_[s] = v;
      // The live term values (header invariant: active terms always carry
      // the prior), with the scalar code's exact operation order.
      d_init_[s] = prior * benefits.fof_benefit(v);
      if (instance.is_cautious(v)) {
        i_gain_[s] = prior * benefits.upgrade_gain(v);
        slot_theta_[s] = instance.threshold(v);
      } else {
        i_gain_[s] = 0.0;
        slot_theta_[s] = 1;
      }
      ++s;
    }
  }
  row_begin_[n] = s;

  // Link the two slots of each undirected edge.
  edge_slot_.assign(g.num_edges(), kNoSlot);
  s = 0;
  for (NodeId u = 0; u < n; ++u) {
    for (const graph::Neighbor& nb : g.neighbors(u)) {
      const std::uint32_t other = edge_slot_[nb.edge];
      if (other == kNoSlot) {
        edge_slot_[nb.edge] = s;
      } else {
        mirror_[s] = other;
        mirror_[other] = s;
      }
      ++s;
    }
  }
}

// ---------------------------------------------------------------------------
// Blank-state tables
// ---------------------------------------------------------------------------

void BlankTables::build(const ScorePack& pack) {
  const NodeId n = pack.num_nodes();
  const double* d_init = pack.d_init_all().data();
  const std::span<const double> i_gain = pack.i_gain_all();
  const std::span<const std::uint32_t> theta = pack.slot_theta_all();
  const simd::ScoreKernels& kernels = simd::kernels();
  direct_sum.resize(n);
  indirect_sum.assign(n, 0.0);
  indirect_slots.clear();
  indirect_values.clear();
  std::vector<double> row;  // one row of the blank P_I contributions
  for (NodeId u = 0; u < n; ++u) {
    const std::uint32_t s0 = pack.row_begin(u);
    const std::uint32_t s1 = pack.row_begin(u + 1);
    direct_sum[u] = kernels.row_sum(d_init, s0, s1);
    const std::size_t first = indirect_slots.size();
    for (std::uint32_t s = s0; s < s1; ++s) {
      if (i_gain[s] == 0.0) continue;
      // Blank state: mutual = 0, denominator = θ_v.  Reciprocal form
      // (numerator · 1/gap) — the canonical P_I operation order shared
      // with score_batch and the scalar reference.
      indirect_slots.push_back(s);
      indirect_values.push_back(i_gain[s] *
                                (1.0 / static_cast<double>(theta[s])));
    }
    // A row without non-zero terms sums to exactly +0.0, as assigned.  The
    // canonical lanes run over slot positions relative to s0, so summing a
    // zero-filled copy of the row reproduces the engine's row sum.
    if (indirect_slots.size() == first) continue;
    row.assign(s1 - s0, 0.0);
    for (std::size_t k = first; k < indirect_slots.size(); ++k) {
      row[indirect_slots[k] - s0] = indirect_values[k];
    }
    indirect_sum[u] =
        kernels.row_sum(row.data(), 0, static_cast<std::uint32_t>(row.size()));
  }
}

double BlankTables::score(const ScorePack& pack, NodeId u,
                          const PotentialWeights& weights) const {
  // ScoreEngine::score with mutual = 0 and no FOF: a cautious u sits below
  // its threshold (θ >= 1 by the instance's validation), so q = q1.
  const bool cautious = pack.is_cautious(u);
  const double q = cautious ? pack.q_below(u) : pack.q_reckless(u);
  if (q <= 0.0) return 0.0;
  double direct = pack.friend_benefit(u);
  direct += direct_sum[u];
  double value = weights.direct * direct;
  if (weights.indirect > 0.0 && !cautious) {
    value += weights.indirect * indirect_sum[u];
  }
  return q * value;
}

// ---------------------------------------------------------------------------
// Batched rescore
// ---------------------------------------------------------------------------

void score_batch_prepare(const ScorePack& pack, const AttackerView& view,
                         bool want_indirect, ScoreBatchScratch& scratch) {
  ACCU_ASSERT_MSG(pack.built_for(view.instance()),
                  "score_batch_prepare: pack does not match the view");
  const NodeId n = pack.num_nodes();
  const RequestState* rs = view.request_states().data();
  const std::uint32_t* mutual = view.mutual_counts().data();

  // P_D mask: a neighbor term is live until its node is an accepted friend
  // or a (believed) FOF.  Deactivated terms multiply to an exact +0.0,
  // which is a bit-exact stand-in for the scalar reference's skip.
  scratch.active.resize(n);
  double* active = scratch.active.data();
  for (NodeId v = 0; v < n; ++v) {
    active[v] = static_cast<double>(
        (rs[v] != RequestState::kAccepted) & (mutual[v] == 0));
  }

  // P_I reciprocal gaps: only cautious nodes can carry one, so walk the
  // cautious bitset words instead of all n nodes.
  if (want_indirect) {
    scratch.inv_gap.assign(n, 0.0);
    double* inv_gap = scratch.inv_gap.data();
    const std::span<const std::uint64_t> words = pack.cautious_words();
    for (std::size_t w = 0; w < words.size(); ++w) {
      std::uint64_t bits = words[w];
      while (bits != 0) {
        const NodeId v = static_cast<NodeId>(
            (w << 6) + static_cast<unsigned>(std::countr_zero(bits)));
        bits &= bits - 1;
        if (rs[v] != RequestState::kUnknown) continue;  // spent or rejected
        const std::uint32_t theta = pack.theta(v);
        const std::uint32_t m = mutual[v];
        if (m < theta) {
          inv_gap[v] = 1.0 / static_cast<double>(theta - m);
        }
      }
    }
  } else {
    scratch.inv_gap.resize(n);  // keep sized for the ranged call's pointers
  }
}

void score_batch_ranged(const ScorePack& pack, const AttackerView& view,
                        const PotentialWeights& weights,
                        const ScoreBatchScratch& scratch, NodeId begin,
                        NodeId end, double* out) {
  ACCU_ASSERT_MSG(pack.built_for(view.instance()),
                  "score_batch: pack does not match the view's instance");
  ACCU_ASSERT(begin <= end && end <= pack.num_nodes());
  ACCU_ASSERT(scratch.active.size() >= pack.num_nodes());
  const RequestState* rs = view.request_states().data();
  const std::uint32_t* mutual = view.mutual_counts().data();
  const double* d_init = pack.d_init_all().data();
  const double* i_gain = pack.i_gain_all().data();
  const NodeId* nodes = pack.slot_nodes_all().data();
  const double* active = scratch.active.data();
  const double* inv_gap = scratch.inv_gap.data();
  const bool want_indirect = weights.indirect > 0.0;
  const simd::ScoreKernels& kernels = simd::kernels();

  for (NodeId u = begin; u < end; ++u) {
    double& result = out[u - begin];
    if (rs[u] != RequestState::kUnknown) {
      result = 0.0;
      continue;
    }
    const bool cautious = pack.is_cautious(u);
    const double q = cautious ? (mutual[u] >= pack.theta(u) ? pack.q_above(u)
                                                            : pack.q_below(u))
                              : pack.q_reckless(u);
    if (q <= 0.0) {
      result = 0.0;
      continue;
    }
    const std::uint32_t s0 = pack.row_begin(u);
    const std::uint32_t s1 = pack.row_begin(u + 1);
    // P_D: mask-multiply gather in the canonical lane order; a deactivated
    // term (friend or FOF neighbor) contributes an exact +0.0, matching the
    // scalar reference's skip bit for bit.
    double direct = pack.friend_benefit(u);
    if (mutual[u] > 0) direct -= pack.fof_benefit(u);  // u un-requested ⇒ FOF
    direct += kernels.row_gather_mul(d_init, nodes, active, s0, s1);
    double value = weights.direct * direct;
    if (want_indirect && !cautious) {
      // P_I: slots with a reckless neighbor carry i_gain = 0.0; neighbors
      // with no indirect value left carry inv_gap = 0.0 — either factor
      // zeroes the term exactly, so the full-row gather matches the scalar
      // reference's conditional loop.  (Cautious u: indirect ≡ 0, and
      // adding weights.indirect * 0.0 is a no-op — skip the row entirely.)
      value +=
          weights.indirect * kernels.row_gather_mul(i_gain, nodes, inv_gap,
                                                    s0, s1);
    }
    result = q * value;
  }
}

void score_batch(const ScorePack& pack, const AttackerView& view,
                 const PotentialWeights& weights, NodeId begin, NodeId end,
                 double* out) {
  ScoreBatchScratch scratch;
  score_batch_prepare(pack, view, weights.indirect > 0.0, scratch);
  score_batch_ranged(pack, view, weights, scratch, begin, end, out);
}

void score_batch_all(const ScorePack& pack, const AttackerView& view,
                     const PotentialWeights& weights,
                     ScoreBatchScratch& scratch, TaskPool* pool, double* out) {
  score_batch_prepare(pack, view, weights.indirect > 0.0, scratch);
  const NodeId n = pack.num_nodes();
  // Below this many candidates per chunk the fan-out/join overhead beats
  // the row work; chunking never changes values, only wall-clock.
  constexpr NodeId kMinChunk = 256;
  const unsigned threads = pool != nullptr ? pool->threads() : 1;
  if (threads <= 1 || n < 2 * kMinChunk) {
    score_batch_ranged(pack, view, weights, scratch, 0, n, out);
    return;
  }
  const NodeId chunk = std::max(kMinChunk, (n + threads - 1) / threads);
  const std::size_t num_chunks = (n + chunk - 1) / chunk;
  pool->run(num_chunks, [&](std::size_t c) {
    const NodeId begin = static_cast<NodeId>(c) * chunk;
    const NodeId end = std::min<NodeId>(begin + chunk, n);
    score_batch_ranged(pack, view, weights, scratch, begin, end, out + begin);
  });
}

// ---------------------------------------------------------------------------
// Incremental engine
// ---------------------------------------------------------------------------

void ScoreEngine::reset(const ScorePack& pack, const BlankTables& blank,
                        const PotentialWeights& weights) {
  ACCU_ASSERT(blank.direct_sum.size() == pack.num_nodes());
  pack_ = &pack;
  blank_ = &blank;
  weights_ = weights;
  maintain_indirect_ = weights.indirect > 0.0;
  pristine_ = true;

  const std::span<const double> d_init = pack.d_init_all();
  contrib_d_.assign(d_init.begin(), d_init.end());
  if (maintain_indirect_) {
    // Blank P_I terms are zero except on the tables' sparse slot list.
    contrib_i_.assign(pack.num_slots(), 0.0);
    for (std::size_t k = 0; k < blank.indirect_slots.size(); ++k) {
      contrib_i_[blank.indirect_slots[k]] = blank.indirect_values[k];
    }
  } else {
    contrib_i_.clear();
  }

  const NodeId n = pack.num_nodes();
  mutual_.assign(n, 0);
  fof_.assign(n, 0);
  requested_.assign(n, 0);
  dirty_.assign(n, 0);
  eager_.clear();
  eager_stamp_.assign(n, 0);
  eager_round_ = 0;
}

double ScoreEngine::score(NodeId u) const {
  const ScorePack& pack = *pack_;
  ACCU_ASSERT_MSG(requested_[u] == 0,
                  "score() is defined for un-requested candidates only");
  const bool cautious = pack.is_cautious(u);
  const double q = cautious ? (mutual_[u] >= pack.theta(u) ? pack.q_above(u)
                                                           : pack.q_below(u))
                            : pack.q_reckless(u);
  if (q <= 0.0) return 0.0;
  const std::uint32_t s0 = pack.row_begin(u);
  const std::uint32_t s1 = pack.row_begin(u + 1);
  // Canonical lane-order row sums (score_simd.hpp): contrib_d_[s] is
  // exactly d_init[s]·mask and contrib_i_[s] exactly i_gain[s]·inv_gap, so
  // these reductions are bit-identical to score_batch's gathers.
  const simd::ScoreKernels& kernels = simd::kernels();
  double direct = pack.friend_benefit(u);
  if (fof_[u] != 0) direct -= pack.fof_benefit(u);
  direct += kernels.row_sum(contrib_d_.data(), s0, s1);
  double value = weights_.direct * direct;
  if (weights_.indirect > 0.0 && !cautious) {
    value += weights_.indirect * kernels.row_sum(contrib_i_.data(), s0, s1);
  }
  return q * value;
}

void ScoreEngine::add_eager(NodeId u) {
  if (requested_[u] != 0 || eager_stamp_[u] == eager_round_) return;
  eager_stamp_[u] = eager_round_;
  eager_.push_back(u);
}

void ScoreEngine::apply_acceptance(
    NodeId target, const AttackerView::AcceptanceEffects& effects) {
  const ScorePack& pack = *pack_;
  pristine_ = false;
  ++eager_round_;
  eager_.clear();
  requested_[target] = 1;

  // (1) The new friend leaves every neighbor's P_D sum (friend skip) and
  //     P_I sum (requested skip): zero the mirror slots of target's row.
  {
    const std::uint32_t s0 = pack.row_begin(target);
    const std::uint32_t s1 = pack.row_begin(target + 1);
    for (std::uint32_t s = s0; s < s1; ++s) {
      const std::uint32_t m = pack.mirror(s);
      contrib_d_[m] = 0.0;
      if (maintain_indirect_) contrib_i_[m] = 0.0;
      mark_dirty(pack.slot_node(s));
    }
  }

  // (2) Nodes entering FOF: their (1 − 1_FOF) factor vanishes from every
  //     neighbor's P_D sum, and their own head gains the −B_fof term.
  for (const NodeId w : effects.new_fof) {
    fof_[w] = 1;
    mark_dirty(w);
    const std::uint32_t s0 = pack.row_begin(w);
    const std::uint32_t s1 = pack.row_begin(w + 1);
    for (std::uint32_t s = s0; s < s1; ++s) {
      contrib_d_[pack.mirror(s)] = 0.0;
      mark_dirty(pack.slot_node(s));
    }
  }

  // (3) Mutual-count advances.  Only cautious users carry θ-dependent
  //     state; the FOF consequences of a first mutual friend are case (2).
  for (const NodeId v : effects.mutual_increased) {
    ++mutual_[v];
    if (requested_[v] != 0 || !pack.is_cautious(v)) continue;
    const std::uint32_t theta = pack.theta(v);
    const std::uint32_t m = mutual_[v];
    if (m == theta) {
      // Crossed the threshold: q(v) jumps q1 → q2 (never down, q1 <= q2) —
      // re-score v eagerly; v's indirect value is spent, so it leaves its
      // neighbors' P_I sums.
      add_eager(v);
      if (maintain_indirect_) {
        const std::uint32_t s0 = pack.row_begin(v);
        const std::uint32_t s1 = pack.row_begin(v + 1);
        for (std::uint32_t s = s0; s < s1; ++s) {
          contrib_i_[pack.mirror(s)] = 0.0;
          mark_dirty(pack.slot_node(s));
        }
      }
    } else if (m < theta && maintain_indirect_) {
      // Denominator θ_v − m shrank: every neighbor's P_I term for v grows —
      // recompute those terms and re-score the owners eagerly.
      const double inv_gap = 1.0 / static_cast<double>(theta - m);
      const std::uint32_t s0 = pack.row_begin(v);
      const std::uint32_t s1 = pack.row_begin(v + 1);
      for (std::uint32_t s = s0; s < s1; ++s) {
        const std::uint32_t ms = pack.mirror(s);
        contrib_i_[ms] = pack.i_gain(ms) * inv_gap;
        add_eager(pack.slot_node(s));
      }
    }
    // m > θ: crossed earlier — terms already zero, q already q2.
  }
}

void ScoreEngine::apply_revelation(
    const AttackerView::AcceptanceEffects& effects) {
  const ScorePack& pack = *pack_;
  pristine_ = false;
  ++eager_round_;
  eager_.clear();

  // Cases (2) and (3) of apply_acceptance, verbatim: the revelation's
  // new-FOF entries and mutual advances.  Case (1) — deactivating the
  // accepted target's own slots — ran when the acceptance was observed.
  for (const NodeId w : effects.new_fof) {
    fof_[w] = 1;
    mark_dirty(w);
    const std::uint32_t s0 = pack.row_begin(w);
    const std::uint32_t s1 = pack.row_begin(w + 1);
    for (std::uint32_t s = s0; s < s1; ++s) {
      contrib_d_[pack.mirror(s)] = 0.0;
      mark_dirty(pack.slot_node(s));
    }
  }

  for (const NodeId v : effects.mutual_increased) {
    ++mutual_[v];
    if (requested_[v] != 0 || !pack.is_cautious(v)) continue;
    const std::uint32_t theta = pack.theta(v);
    const std::uint32_t m = mutual_[v];
    if (m == theta) {
      add_eager(v);
      if (maintain_indirect_) {
        const std::uint32_t s0 = pack.row_begin(v);
        const std::uint32_t s1 = pack.row_begin(v + 1);
        for (std::uint32_t s = s0; s < s1; ++s) {
          contrib_i_[pack.mirror(s)] = 0.0;
          mark_dirty(pack.slot_node(s));
        }
      }
    } else if (m < theta && maintain_indirect_) {
      const double inv_gap = 1.0 / static_cast<double>(theta - m);
      const std::uint32_t s0 = pack.row_begin(v);
      const std::uint32_t s1 = pack.row_begin(v + 1);
      for (std::uint32_t s = s0; s < s1; ++s) {
        const std::uint32_t ms = pack.mirror(s);
        contrib_i_[ms] = pack.i_gain(ms) * inv_gap;
        add_eager(pack.slot_node(s));
      }
    }
  }
}

void ScoreEngine::apply_rejection(NodeId target) {
  const ScorePack& pack = *pack_;
  pristine_ = false;
  ++eager_round_;
  eager_.clear();
  requested_[target] = 1;
  // A rejection reveals nothing, but a rejected *cautious* target can never
  // be befriended anymore, so it leaves its neighbors' P_I sums.  (Its P_D
  // terms stay: a rejected node can still become a believed FOF.)
  if (maintain_indirect_ && pack.is_cautious(target)) {
    const std::uint32_t s0 = pack.row_begin(target);
    const std::uint32_t s1 = pack.row_begin(target + 1);
    for (std::uint32_t s = s0; s < s1; ++s) {
      contrib_i_[pack.mirror(s)] = 0.0;
      mark_dirty(pack.slot_node(s));
    }
  }
}

}  // namespace accu
