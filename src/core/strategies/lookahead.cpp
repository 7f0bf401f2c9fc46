#include "core/strategies/lookahead.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/instance_plan.hpp"
#include "core/strategies/abm.hpp"
#include "core/task_pool.hpp"

namespace accu {

LookaheadStrategy::LookaheadStrategy() : LookaheadStrategy(Config{}) {}

LookaheadStrategy::LookaheadStrategy(Config config) : config_(config) {
  if (config.beam == 0 || config.scenario_samples == 0) {
    throw InvalidArgument(
        "LookaheadStrategy: beam and scenario_samples must be >= 1");
  }
  if (!(config.weights.direct >= 0.0) || !(config.weights.indirect >= 0.0)) {
    throw InvalidArgument("LookaheadStrategy: weights must be non-negative");
  }
}

std::string LookaheadStrategy::name() const {
  char buf[64];
  std::snprintf(buf, sizeof buf, "Lookahead(beam=%u,samples=%u)",
                config_.beam, config_.scenario_samples);
  return buf;
}

void LookaheadStrategy::adopt_task_pool(TaskPool* pool) {
  task_pool_ = pool;
  pool_fresh_ = true;
}

void LookaheadStrategy::reset(const AccuInstance& instance, util::Rng&) {
  instance_ = &instance;
  // A pool handed over for an earlier simulation may be gone.
  if (!pool_fresh_) task_pool_ = nullptr;
  pool_fresh_ = false;
}

const ScorePack* LookaheadStrategy::current_pack() const {
  if (!config_.flat_scoring) return nullptr;
  return &instance_->plan().score_pack(*instance_);
}

double LookaheadStrategy::step_score(const AttackerView& view,
                                     NodeId u) const {
  const double q = AbmStrategy::effective_accept_prob(view, u);
  if (q <= 0.0) return 0.0;
  double value = config_.weights.direct * AbmStrategy::direct_gain(view, u);
  if (config_.weights.indirect > 0.0) {
    value += config_.weights.indirect * AbmStrategy::indirect_gain(view, u);
  }
  return q * value;
}

double LookaheadStrategy::best_step_score(const ScorePack* pack,
                                          const AttackerView& view,
                                          BranchScratch& s) const {
  const NodeId n = instance_->num_nodes();
  double best = 0.0;
  if (pack != nullptr) {
    s.scores.resize(n);
    score_batch_prepare(*pack, view, config_.weights.indirect > 0.0, s.batch);
    score_batch_ranged(*pack, view, config_.weights, s.batch, 0, n,
                       s.scores.data());
    for (NodeId v = 0; v < n; ++v) {
      if (view.is_requested(v)) continue;
      best = std::max(best, s.scores[v]);
    }
    return best;
  }
  for (NodeId v = 0; v < n; ++v) {
    if (view.is_requested(v)) continue;
    best = std::max(best, step_score(view, v));
  }
  return best;
}

double LookaheadStrategy::evaluate_candidate(const ScorePack* pack,
                                             const AttackerView& view,
                                             NodeId u, double first_step,
                                             const std::uint8_t* draws,
                                             BranchScratch& s) const {
  const Graph& g = instance_->graph();
  const double q = AbmStrategy::effective_accept_prob(view, u);
  double value = first_step;
  // Slot-private branch view: copy-assignment reuses its capacity.
  const auto branch_copy = [&s](const AttackerView& source) -> AttackerView& {
    if (!s.branch_view.has_value()) {
      s.branch_view.emplace(source);
    } else {
      *s.branch_view = source;
    }
    return *s.branch_view;
  };
  // Rejection branch: one deterministic continuation.
  if (q < 1.0) {
    AttackerView& rejected = branch_copy(view);
    rejected.record_rejection(u);
    value += (1.0 - q) * best_step_score(pack, rejected, s);
  }
  // Acceptance branch: replay the pre-drawn scenarios of u's revealed
  // neighborhood.  record_acceptance reads only u's incident edge bits, so
  // the slot-fresh (vs candidate-shared) scenario storage cannot change a
  // value.
  if (q > 0.0) {
    s.scenario_edges.assign(g.num_edges(), false);
    s.scenario_coins.assign(instance_->num_nodes(), true);
    double continuation = 0.0;
    std::size_t d = 0;
    for (std::uint32_t smp = 0; smp < config_.scenario_samples; ++smp) {
      for (const graph::Neighbor& nb : g.neighbors(u)) {
        switch (view.edge_state(nb.edge)) {
          case EdgeState::kPresent:
            s.scenario_edges.set(nb.edge, true);
            break;
          case EdgeState::kAbsent:
            s.scenario_edges.set(nb.edge, false);
            break;
          case EdgeState::kUnknown:
            s.scenario_edges.set(nb.edge, draws[d++] != 0);
            break;
        }
      }
      if (!s.scenario.has_value()) {
        s.scenario = Realization::from_bits(s.scenario_edges, s.scenario_coins);
      } else {
        s.scenario->assign(s.scenario_edges, s.scenario_coins);
      }
      AttackerView& accepted = branch_copy(view);
      accepted.record_acceptance(u, *s.scenario);
      continuation += best_step_score(pack, accepted, s);
    }
    value += q * continuation / static_cast<double>(config_.scenario_samples);
  }
  return value;
}

NodeId LookaheadStrategy::select(const AttackerView& view, util::Rng& rng) {
  ACCU_ASSERT_MSG(instance_ != nullptr, "reset() must run before select()");
  const Graph& g = instance_->graph();
  const ScorePack* pack = current_pack();  // resolved before any fan-out

  // Stage 1: rank candidates by the myopic score (chunked across the
  // intra-cell pool when one was offered; chunking is value-invariant).
  ranked_.clear();
  if (pack != nullptr) {
    const NodeId n = instance_->num_nodes();
    scores_.resize(n);
    score_batch_all(*pack, view, config_.weights, batch_scratch_, task_pool_,
                    scores_.data());
    for (NodeId u = 0; u < n; ++u) {
      if (view.is_requested(u)) continue;
      ranked_.emplace_back(scores_[u], u);
    }
  } else {
    for (NodeId u = 0; u < instance_->num_nodes(); ++u) {
      if (view.is_requested(u)) continue;
      ranked_.emplace_back(step_score(view, u), u);
    }
  }
  if (ranked_.empty()) return kInvalidNode;
  const std::size_t beam =
      std::min<std::size_t>(config_.beam, ranked_.size());
  std::partial_sort(ranked_.begin(),
                    ranked_.begin() + static_cast<std::ptrdiff_t>(beam),
                    ranked_.end(), [](const auto& a, const auto& b) {
                      if (a.first != b.first) return a.first > b.first;
                      return a.second < b.second;
                    });

  // Stage 2 pre-pass: draw every scenario coin on the calling thread, in
  // the exact nested order the sequential evaluation consumes them —
  // candidate-major, sample-major, CSR neighbor order.  This pins the RNG
  // stream (and therefore the whole trace) regardless of pool width.
  draws_.clear();
  draw_offsets_.resize(beam + 1);
  for (std::size_t c = 0; c < beam; ++c) {
    draw_offsets_[c] = draws_.size();
    const NodeId u = ranked_[c].second;
    if (AbmStrategy::effective_accept_prob(view, u) <= 0.0) continue;
    for (std::uint32_t smp = 0; smp < config_.scenario_samples; ++smp) {
      for (const graph::Neighbor& nb : g.neighbors(u)) {
        if (view.edge_state(nb.edge) == EdgeState::kUnknown) {
          draws_.push_back(rng.bernoulli(g.edge_prob(nb.edge)) ? 1 : 0);
        }
      }
    }
  }
  draw_offsets_[beam] = draws_.size();

  // Stage 2: approximate V(u) = Δ(u) + E[ best next Δ ] over the beam, one
  // task per candidate in its own scratch slot; combine in candidate order
  // after the join, which keeps the selection identical for any pool width.
  if (branch_scratch_.size() < beam) branch_scratch_.resize(beam);
  values_.resize(beam);
  const auto evaluate = [&](std::size_t c) {
    values_[c] = evaluate_candidate(pack, view, ranked_[c].second,
                                    ranked_[c].first,
                                    draws_.data() + draw_offsets_[c],
                                    branch_scratch_[c]);
  };
  if (task_pool_ != nullptr && task_pool_->threads() > 1 && beam > 1) {
    task_pool_->run(beam, evaluate);
  } else {
    for (std::size_t c = 0; c < beam; ++c) evaluate(c);
  }

  NodeId best = ranked_.front().second;
  double best_value = -1.0;
  for (std::size_t c = 0; c < beam; ++c) {
    if (values_[c] > best_value) {
      best_value = values_[c];
      best = ranked_[c].second;
    }
  }
  return best;
}

}  // namespace accu
