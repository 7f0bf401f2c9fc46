#include "core/engine.hpp"

namespace accu {

AttackerView& SimWorkspace::reset_view(const AccuInstance& instance) {
  if (!view_.has_value()) {
    view_.emplace(instance);
  } else {
    view_->reset(instance);
  }
  return *view_;
}

const Realization& SimWorkspace::sample_truth(const AccuInstance& instance,
                                              util::Rng& rng) {
  if (!truth_.has_value()) {
    truth_ = Realization::sample(instance, rng);
  } else {
    truth_->resample(instance, rng);
  }
  return *truth_;
}

const ScorePack& SimWorkspace::score_pack(const AccuInstance& instance) {
  if (!score_pack_.built_for(instance)) score_pack_.build(instance);
  return score_pack_;
}

void SimWorkspace::set_cell_threads(unsigned threads) {
  const unsigned width = threads == 0 ? 1 : threads;
  if (width == cell_threads_) return;
  cell_threads_ = width;
  task_pool_.reset();  // respawned at the new width on next use
}

TaskPool& SimWorkspace::task_pool() {
  if (!task_pool_.has_value()) task_pool_.emplace(cell_threads_);
  return *task_pool_;
}

namespace {

/// Hands the workspace-pooled task pool to strategies with parallel inner
/// loops; valid only for the simulation that follows.
void offer_task_pool(Strategy& strategy, SimWorkspace& ws) {
  strategy.adopt_task_pool(&ws.task_pool());
}

}  // namespace

void simulate_into(const AccuInstance& instance, const Realization& truth,
                   Strategy& strategy, std::uint32_t budget, util::Rng& rng,
                   AttackerView& view, SimWorkspace& ws, SimulationResult& out,
                   const util::CancelToken* cancel,
                   const FeedbackModel& feedback) {
  ACCU_ASSERT(truth.num_edges() == instance.graph().num_edges());
  ACCU_ASSERT(truth.num_nodes() == instance.num_nodes());
  out.clear();
  out.trace.reserve(budget);
  view.arm_feedback(feedback);
  offer_task_pool(strategy, ws);
  strategy.reset(instance, rng);
  engine::ReliableEnv env(instance, truth, strategy, budget, rng, view, ws,
                          out, cancel);
  engine::run_rounds(env);
}

void simulate_with_faults_into(const AccuInstance& instance,
                               const Realization& truth, Strategy& strategy,
                               std::uint32_t budget, util::Rng& rng,
                               FaultModel& faults, AttackerView& view,
                               SimWorkspace& ws, SimulationResult& out,
                               const util::CancelToken* cancel,
                               const FeedbackModel& feedback) {
  ACCU_ASSERT(truth.num_edges() == instance.graph().num_edges());
  ACCU_ASSERT(truth.num_nodes() == instance.num_nodes());
  out.clear();
  out.trace.reserve(budget);
  view.arm_feedback(feedback);
  offer_task_pool(strategy, ws);
  strategy.reset(instance, rng);
  engine::FaultyEnv env(instance, truth, strategy, budget, rng, faults, view,
                        ws, out, cancel);
  engine::run_rounds(env);
}

}  // namespace accu
