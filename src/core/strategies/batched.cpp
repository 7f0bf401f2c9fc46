#include "core/strategies/batched.hpp"

#include <algorithm>
#include <cstdio>

#include "core/instance_plan.hpp"
#include "core/strategies/abm.hpp"

namespace accu {

BatchedAbmStrategy::BatchedAbmStrategy(PotentialWeights weights,
                                       std::uint32_t batch_size,
                                       bool flat_scoring)
    : weights_(weights), batch_size_(batch_size), flat_scoring_(flat_scoring) {
  if (batch_size == 0) {
    throw InvalidArgument("BatchedAbmStrategy: batch size must be >= 1");
  }
  if (!(weights.direct >= 0.0) || !(weights.indirect >= 0.0)) {
    throw InvalidArgument("BatchedAbmStrategy: weights must be non-negative");
  }
}

std::string BatchedAbmStrategy::name() const {
  char buf[64];
  std::snprintf(buf, sizeof buf, "BatchedABM(b=%u)", batch_size_);
  return buf;
}

void BatchedAbmStrategy::adopt_task_pool(TaskPool* pool) {
  task_pool_ = pool;
  pool_fresh_ = true;
}

void BatchedAbmStrategy::reset(const AccuInstance& instance, util::Rng&) {
  instance_ = &instance;
  batch_.clear();
  cursor_ = 0;
  rounds_ = 0;
  // A pool handed over for an earlier simulation may be gone.
  if (!pool_fresh_) task_pool_ = nullptr;
  pool_fresh_ = false;
}

const ScorePack* BatchedAbmStrategy::current_pack() const {
  if (!flat_scoring_) return nullptr;
  return &instance_->plan().score_pack(*instance_);
}

void BatchedAbmStrategy::fill_batch(const AttackerView& view) {
  batch_.clear();
  cursor_ = 0;
  scored_.clear();
  if (const ScorePack* pack = current_pack()) {
    // Batched rescore over the flat arrays, chunked across the intra-cell
    // pool when one was offered; bit-identical values to the scalar scorer
    // below (and for any pool width), so the resulting batch is the same.
    const NodeId n = instance_->num_nodes();
    scores_.resize(n);
    score_batch_all(*pack, view, weights_, batch_scratch_, task_pool_,
                    scores_.data());
    for (NodeId u = 0; u < n; ++u) {
      if (view.is_requested(u)) continue;
      scored_.emplace_back(scores_[u], u);
    }
  } else {
    AbmStrategy::Config config;
    config.weights = weights_;
    const AbmStrategy scorer(config);
    for (NodeId u = 0; u < instance_->num_nodes(); ++u) {
      if (view.is_requested(u)) continue;
      scored_.emplace_back(scorer.potential(view, u), u);
    }
  }
  const std::size_t take =
      std::min<std::size_t>(batch_size_, scored_.size());
  // Best potential first; ties to the smaller id, matching ABM.
  std::partial_sort(scored_.begin(),
                    scored_.begin() + static_cast<std::ptrdiff_t>(take),
                    scored_.end(), [](const auto& a, const auto& b) {
                      if (a.first != b.first) return a.first > b.first;
                      return a.second < b.second;
                    });
  for (std::size_t i = 0; i < take; ++i) batch_.push_back(scored_[i].second);
  if (!batch_.empty()) ++rounds_;
}

NodeId BatchedAbmStrategy::select(const AttackerView& view, util::Rng&) {
  ACCU_ASSERT_MSG(instance_ != nullptr, "reset() must run before select()");
  // Skip targets that were requested since the batch was planned (cannot
  // happen with the standard simulator, but keeps the policy safe under
  // multi-policy drivers).
  while (cursor_ < batch_.size() && view.is_requested(batch_[cursor_])) {
    ++cursor_;
  }
  if (cursor_ >= batch_.size()) {
    fill_batch(view);
    if (batch_.empty()) return kInvalidNode;
  }
  return batch_[cursor_++];
}

}  // namespace accu
