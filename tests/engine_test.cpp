// Engine-equivalence property tests.
//
// PR 3 collapsed the four hand-written simulation loops (reliable, faulted,
// multi-bot, temporal) into the single `engine::run_rounds` template with
// per-mode environment policies, and moved per-cell scratch into the pooled
// `SimWorkspace`.  These tests pin that refactor: verbatim copies of the
// *pre-engine* loops live below as reference implementations, and every
// strategy shipped by the library must produce byte-identical traces (every
// record field, every counter, every RNG draw) through the engine.  A
// second group pins the workspace: reusing one SimWorkspace across cells,
// instances, and shapes must be indistinguishable from fresh construction,
// including through the multi-threaded experiment harness.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "core/instance_plan.hpp"
#include "core/score_simd.hpp"
#include "core/strategies/abm.hpp"
#include "core/strategies/baselines.hpp"
#include "core/strategies/batched.hpp"
#include "core/strategies/lookahead.hpp"
#include "core/strategies/retrying.hpp"
#include "datasets/datasets.hpp"
#include "graph/generators.hpp"

namespace accu {
namespace {

// ---------------------------------------------------------------------------
// Reference implementations: the pre-engine loops, copied verbatim from the
// last commit before the refactor.  Do not "clean these up" — their whole
// value is being the old code.
// ---------------------------------------------------------------------------

bool ref_resolve_acceptance(const AccuInstance& instance,
                            const Realization& truth, const AttackerView& view,
                            NodeId target) {
  if (instance.is_cautious(target)) {
    const bool reached = view.cautious_would_accept(target);
    return reached ? truth.cautious_above_accepts(target)
                   : truth.cautious_below_accepts(target);
  }
  return truth.reckless_accepts(target);
}

SimulationResult reference_simulate(const AccuInstance& instance,
                                    const Realization& truth,
                                    Strategy& strategy, std::uint32_t budget,
                                    util::Rng& rng) {
  AttackerView view(instance);
  SimulationResult result;
  result.trace.reserve(budget);
  strategy.reset(instance, rng);

  while (view.num_requests() < budget) {
    const NodeId target = strategy.select(view, rng);
    if (target == kInvalidNode) break;

    RequestRecord record;
    record.target = target;
    record.cautious_target = instance.is_cautious(target);
    record.benefit_before = view.current_benefit();

    const bool accepted = ref_resolve_acceptance(instance, truth, view, target);
    record.accepted = accepted;

    if (accepted) {
      const AttackerView::AcceptanceEffects effects =
          view.record_acceptance(target, truth);
      record.benefit_after = view.current_benefit();
      strategy.observe(target, true, view, &effects);
    } else {
      view.record_rejection(target);
      record.benefit_after = view.current_benefit();
      strategy.observe(target, false, view, nullptr);
    }
    result.trace.push_back(record);
  }

  result.total_benefit = view.current_benefit();
  result.num_accepted = static_cast<std::uint32_t>(view.friends().size());
  result.num_cautious_friends = view.num_cautious_friends();
  result.friends = view.friends();
  return result;
}

SimulationResult reference_simulate_with_faults(const AccuInstance& instance,
                                                const Realization& truth,
                                                Strategy& strategy,
                                                std::uint32_t budget,
                                                util::Rng& rng,
                                                FaultModel& faults) {
  AttackerView view(instance);
  SimulationResult result;
  result.trace.reserve(budget);
  strategy.reset(instance, rng);
  // The old loop discovered fault awareness via RTTI; the refactor replaced
  // this with the virtual Strategy::as_fault_observer (satellite 1).
  FaultObserver* fault_observer = dynamic_cast<FaultObserver*>(&strategy);
  std::vector<std::uint32_t> attempts(instance.num_nodes(), 0);

  std::uint32_t rounds = 0;
  while (rounds < budget) {
    const NodeId target = strategy.select(view, rng);
    if (target == kInvalidNode) break;

    RequestRecord record;
    record.target = target;
    record.cautious_target = instance.is_cautious(target);
    record.benefit_before = view.current_benefit();
    record.attempt = attempts[target];
    if (record.attempt > 0) ++result.num_retries;
    ++rounds;

    const FaultKind fault = faults.next();
    if (fault == FaultKind::kNone) {
      const bool accepted =
          ref_resolve_acceptance(instance, truth, view, target);
      record.accepted = accepted;
      if (accepted) {
        const AttackerView::AcceptanceEffects effects =
            view.record_acceptance(target, truth);
        record.benefit_after = view.current_benefit();
        strategy.observe(target, true, view, &effects);
      } else {
        view.record_rejection(target);
        record.benefit_after = view.current_benefit();
        strategy.observe(target, false, view, nullptr);
      }
      result.trace.push_back(record);
      continue;
    }

    ++result.num_faulted;
    ++attempts[target];
    record.fault = fault;
    record.benefit_after = record.benefit_before;

    FaultFeedback feedback = FaultFeedback::kNoResponse;
    if (fault == FaultKind::kTransient) {
      feedback = FaultFeedback::kTransientError;
    } else if (fault == FaultKind::kRateLimit) {
      feedback = FaultFeedback::kRateLimited;
    }
    const FaultResponse response =
        fault_observer != nullptr
            ? fault_observer->observe_fault(target, feedback, view)
            : FaultResponse::kAbandon;
    if (response == FaultResponse::kAbandon) {
      view.record_rejection(target);
      strategy.observe(target, false, view, nullptr);
      ++result.num_abandoned;
    }
    result.trace.push_back(record);

    if (fault == FaultKind::kRateLimit) {
      const std::uint32_t w = faults.config().suspension_rounds;
      for (std::uint32_t i = 0; i < w && rounds < budget; ++i) {
        RequestRecord stall;
        stall.fault = FaultKind::kSuspensionStall;
        stall.benefit_before = view.current_benefit();
        stall.benefit_after = stall.benefit_before;
        result.trace.push_back(stall);
        ++rounds;
        ++result.rounds_suspended;
      }
    }
  }

  result.total_benefit = view.current_benefit();
  result.num_accepted = static_cast<std::uint32_t>(view.friends().size());
  result.num_cautious_friends = view.num_cautious_friends();
  result.friends = view.friends();
  return result;
}

MultiBotResult reference_simulate_multibot(const AccuInstance& instance,
                                           const MultiBotRealization& truth,
                                           MultiBotStrategy& strategy,
                                           std::uint32_t budget,
                                           BotId num_bots, util::Rng& rng) {
  MultiBotView view(instance, num_bots);
  MultiBotResult result;
  strategy.reset(instance, num_bots, rng);

  while (view.num_requests() < budget) {
    bool any_sent = false;
    for (BotId bot = 0; bot < num_bots && view.num_requests() < budget;
         ++bot) {
      const NodeId target = strategy.select(bot, view, rng);
      if (target == kInvalidNode) continue;
      any_sent = true;
      MultiBotRequestRecord record;
      record.bot = bot;
      record.target = target;
      record.cautious_target = instance.is_cautious(target);
      record.benefit_before = view.current_benefit();
      const bool accepted = instance.is_cautious(target)
                                ? view.cautious_would_accept(bot, target)
                                : truth.reckless_accepts(bot, target);
      record.accepted = accepted;
      if (accepted) {
        view.record_acceptance(bot, target, truth.edges());
      } else {
        view.record_rejection(bot, target);
      }
      record.benefit_after = view.current_benefit();
      result.trace.push_back(record);
    }
    if (!any_sent) break;
    ++result.rounds;
  }

  result.total_benefit = view.current_benefit();
  result.num_cautious_friends = view.num_cautious_friends();
  result.coalition_friends = view.coalition_friends();
  return result;
}

TemporalResult reference_simulate_temporal(const AccuInstance& instance,
                                           const ArrivalSchedule& schedule,
                                           const Realization& truth,
                                           TemporalStrategy& strategy,
                                           std::uint32_t rounds,
                                           std::uint32_t budget,
                                           util::Rng& rng) {
  TemporalView view(instance, schedule, truth);
  TemporalResult result;
  strategy.reset(instance, rng);
  for (std::uint32_t round = 0; round < rounds; ++round) {
    view.advance_to(round);
    if (view.num_requests() >= budget) break;
    TemporalRequestRecord record;
    record.round = round;
    const NodeId target = strategy.select(view, rng);
    if (target == kInvalidNode) {
      record.benefit_after = view.current_benefit();
      result.trace.push_back(record);
      continue;
    }
    record.target = target;
    record.cautious_target = instance.is_cautious(target);
    bool accepted;
    if (instance.is_cautious(target)) {
      const bool reached = view.cautious_would_accept(target);
      accepted = reached ? truth.cautious_above_accepts(target)
                         : truth.cautious_below_accepts(target);
    } else {
      accepted = truth.reckless_accepts(target);
    }
    record.accepted = accepted;
    if (accepted) {
      view.record_acceptance(target);
    } else {
      view.record_rejection(target);
    }
    record.benefit_after = view.current_benefit();
    result.trace.push_back(record);
  }
  result.total_benefit = view.current_benefit();
  result.num_cautious_friends = view.num_cautious_friends();
  result.requests_sent = view.num_requests();
  return result;
}

// ---------------------------------------------------------------------------
// Comparison helpers: every field, exact doubles.
// ---------------------------------------------------------------------------

void expect_same(const SimulationResult& a, const SimulationResult& b,
                 const std::string& label) {
  ASSERT_EQ(a.trace.size(), b.trace.size()) << label;
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    const RequestRecord& x = a.trace[i];
    const RequestRecord& y = b.trace[i];
    EXPECT_EQ(x.target, y.target) << label << " @" << i;
    EXPECT_EQ(x.accepted, y.accepted) << label << " @" << i;
    EXPECT_EQ(x.cautious_target, y.cautious_target) << label << " @" << i;
    EXPECT_EQ(x.benefit_before, y.benefit_before) << label << " @" << i;
    EXPECT_EQ(x.benefit_after, y.benefit_after) << label << " @" << i;
    EXPECT_EQ(x.fault, y.fault) << label << " @" << i;
    EXPECT_EQ(x.attempt, y.attempt) << label << " @" << i;
  }
  EXPECT_EQ(a.total_benefit, b.total_benefit) << label;
  EXPECT_EQ(a.num_accepted, b.num_accepted) << label;
  EXPECT_EQ(a.num_cautious_friends, b.num_cautious_friends) << label;
  EXPECT_EQ(a.friends, b.friends) << label;
  EXPECT_EQ(a.num_faulted, b.num_faulted) << label;
  EXPECT_EQ(a.num_retries, b.num_retries) << label;
  EXPECT_EQ(a.rounds_suspended, b.rounds_suspended) << label;
  EXPECT_EQ(a.num_abandoned, b.num_abandoned) << label;
}

void expect_same(const MultiBotResult& a, const MultiBotResult& b) {
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    const MultiBotRequestRecord& x = a.trace[i];
    const MultiBotRequestRecord& y = b.trace[i];
    EXPECT_EQ(x.bot, y.bot) << "@" << i;
    EXPECT_EQ(x.target, y.target) << "@" << i;
    EXPECT_EQ(x.accepted, y.accepted) << "@" << i;
    EXPECT_EQ(x.cautious_target, y.cautious_target) << "@" << i;
    EXPECT_EQ(x.benefit_before, y.benefit_before) << "@" << i;
    EXPECT_EQ(x.benefit_after, y.benefit_after) << "@" << i;
  }
  EXPECT_EQ(a.total_benefit, b.total_benefit);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.num_cautious_friends, b.num_cautious_friends);
  EXPECT_EQ(a.coalition_friends, b.coalition_friends);
}

void expect_same(const TemporalResult& a, const TemporalResult& b) {
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    const TemporalRequestRecord& x = a.trace[i];
    const TemporalRequestRecord& y = b.trace[i];
    EXPECT_EQ(x.round, y.round) << "@" << i;
    EXPECT_EQ(x.target, y.target) << "@" << i;
    EXPECT_EQ(x.accepted, y.accepted) << "@" << i;
    EXPECT_EQ(x.cautious_target, y.cautious_target) << "@" << i;
    EXPECT_EQ(x.benefit_after, y.benefit_after) << "@" << i;
  }
  EXPECT_EQ(a.total_benefit, b.total_benefit);
  EXPECT_EQ(a.num_cautious_friends, b.num_cautious_friends);
  EXPECT_EQ(a.requests_sent, b.requests_sent);
}

// ---------------------------------------------------------------------------
// Fixtures.
// ---------------------------------------------------------------------------

AccuInstance facebook_instance(double scale = 0.05) {
  util::Rng rng(7);
  datasets::DatasetConfig config;
  config.scale = scale;
  config.num_cautious = 10;
  return datasets::make_dataset("facebook", config, rng);
}

struct NamedFactory {
  std::string name;
  std::function<std::unique_ptr<Strategy>()> make;
};

/// Every single-bot strategy the library ships, including a retry-wrapped
/// one (exercises the as_fault_observer dispatch) and both ABM modes.
std::vector<NamedFactory> all_strategies() {
  std::vector<NamedFactory> out;
  out.push_back({"Random", [] { return std::make_unique<RandomStrategy>(); }});
  out.push_back(
      {"MaxDegree", [] { return std::make_unique<MaxDegreeStrategy>(); }});
  out.push_back(
      {"PageRank", [] { return std::make_unique<PageRankStrategy>(); }});
  out.push_back(
      {"ABM", [] { return std::make_unique<AbmStrategy>(0.5, 0.5); }});
  out.push_back({"ABM-reference", [] {
                   AbmStrategy::Config config;
                   config.incremental = false;
                   return std::make_unique<AbmStrategy>(config);
                 }});
  out.push_back({"BatchedABM", [] {
                   return std::make_unique<BatchedAbmStrategy>(
                       PotentialWeights{0.5, 0.5}, 5);
                 }});
  out.push_back({"BatchedABM-scalar", [] {
                   return std::make_unique<BatchedAbmStrategy>(
                       PotentialWeights{0.5, 0.5}, 5, /*flat_scoring=*/false);
                 }});
  out.push_back({"Lookahead", [] {
                   LookaheadStrategy::Config config;
                   config.beam = 4;
                   config.scenario_samples = 2;
                   return std::make_unique<LookaheadStrategy>(config);
                 }});
  out.push_back({"Lookahead-scalar", [] {
                   LookaheadStrategy::Config config;
                   config.beam = 4;
                   config.scenario_samples = 2;
                   config.flat_scoring = false;
                   return std::make_unique<LookaheadStrategy>(config);
                 }});
  out.push_back({"ABM+retry", [] {
                   return std::make_unique<RetryingStrategy>(
                       std::make_unique<AbmStrategy>(0.5, 0.5),
                       util::RetryPolicy::exponential_jitter(3));
                 }});
  return out;
}

// ---------------------------------------------------------------------------
// Equivalence: engine vs the pre-refactor loops.
// ---------------------------------------------------------------------------

TEST(EngineEquivalenceTest, ReliableTracesMatchLegacyLoopForAllStrategies) {
  const AccuInstance instance = facebook_instance();
  for (std::uint64_t world = 0; world < 3; ++world) {
    util::Rng truth_rng(100 + world);
    const Realization truth = Realization::sample(instance, truth_rng);
    for (const NamedFactory& factory : all_strategies()) {
      auto legacy = factory.make();
      auto engine = factory.make();
      util::Rng rng_a(world * 31 + 5);
      util::Rng rng_b(world * 31 + 5);
      const SimulationResult a =
          reference_simulate(instance, truth, *legacy, 40, rng_a);
      const SimulationResult b = simulate(instance, truth, *engine, 40, rng_b);
      expect_same(a, b, factory.name + " world " + std::to_string(world));
    }
  }
}

TEST(EngineEquivalenceTest, FaultyTracesMatchLegacyLoopForAllStrategies) {
  const AccuInstance instance = facebook_instance();
  FaultConfig fault_config = FaultConfig::uniform(0.3, /*suspension_rounds=*/3);
  for (std::uint64_t world = 0; world < 3; ++world) {
    util::Rng truth_rng(200 + world);
    const Realization truth = Realization::sample(instance, truth_rng);
    for (const NamedFactory& factory : all_strategies()) {
      auto legacy = factory.make();
      auto engine = factory.make();
      util::Rng rng_a(world * 17 + 3);
      util::Rng rng_b(world * 17 + 3);
      FaultModel faults_a(fault_config, world + 11);
      FaultModel faults_b(fault_config, world + 11);
      const SimulationResult a = reference_simulate_with_faults(
          instance, truth, *legacy, 60, rng_a, faults_a);
      const SimulationResult b = simulate_with_faults(instance, truth, *engine,
                                                      60, rng_b, faults_b);
      expect_same(a, b, factory.name + " world " + std::to_string(world));
    }
  }
}

TEST(EngineEquivalenceTest, ZeroRateFaultyEnvEqualsReliableEnv) {
  const AccuInstance instance = facebook_instance();
  util::Rng truth_rng(42);
  const Realization truth = Realization::sample(instance, truth_rng);
  for (const NamedFactory& factory : all_strategies()) {
    auto plain = factory.make();
    auto faulty = factory.make();
    util::Rng rng_a(9);
    util::Rng rng_b(9);
    FaultModel no_faults(FaultConfig{}, 123);
    const SimulationResult a = simulate(instance, truth, *plain, 40, rng_a);
    const SimulationResult b = simulate_with_faults(instance, truth, *faulty,
                                                    40, rng_b, no_faults);
    expect_same(a, b, factory.name);
    EXPECT_EQ(b.num_faulted, 0u) << factory.name;
    EXPECT_EQ(b.rounds_suspended, 0u) << factory.name;
  }
}

TEST(EngineEquivalenceTest, AsFaultObserverMatchesDynamicCast) {
  // Satellite 1: the virtual hook must agree with RTTI for both a plain and
  // a fault-aware strategy.
  AbmStrategy plain(0.5, 0.5);
  RetryingStrategy aware(std::make_unique<AbmStrategy>(0.5, 0.5),
                         util::RetryPolicy::exponential_jitter(2));
  Strategy& plain_ref = plain;
  Strategy& aware_ref = aware;
  EXPECT_EQ(plain_ref.as_fault_observer(),
            dynamic_cast<FaultObserver*>(&plain_ref));
  EXPECT_EQ(plain_ref.as_fault_observer(), nullptr);
  EXPECT_EQ(aware_ref.as_fault_observer(),
            dynamic_cast<FaultObserver*>(&aware_ref));
  EXPECT_NE(aware_ref.as_fault_observer(), nullptr);
}

TEST(EngineEquivalenceTest, MultiBotTracesMatchLegacyLoop) {
  const AccuInstance instance = facebook_instance();
  for (BotId num_bots : {BotId{1}, BotId{2}, BotId{3}}) {
    util::Rng truth_rng(300 + num_bots);
    const MultiBotRealization truth =
        MultiBotRealization::sample(instance, num_bots, truth_rng);
    MultiBotAbm legacy({0.5, 0.5});
    MultiBotAbm engine({0.5, 0.5});
    util::Rng rng_a(num_bots * 7 + 1);
    util::Rng rng_b(num_bots * 7 + 1);
    const MultiBotResult a = reference_simulate_multibot(
        instance, truth, legacy, 30, num_bots, rng_a);
    const MultiBotResult b =
        simulate_multibot(instance, truth, engine, 30, num_bots, rng_b);
    expect_same(a, b);
  }
}

TEST(EngineEquivalenceTest, TemporalTracesMatchLegacyLoop) {
  const AccuInstance instance = facebook_instance();
  util::Rng truth_rng(17);
  const Realization truth = Realization::sample(instance, truth_rng);
  util::Rng schedule_rng(23);
  const ArrivalSchedule schedule = ArrivalSchedule::uniform_arrivals(
      static_cast<std::uint32_t>(instance.num_nodes()), 0.5, 30, schedule_rng);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    TemporalAbm legacy({0.5, 0.5});
    TemporalAbm engine({0.5, 0.5});
    util::Rng rng_a(seed);
    util::Rng rng_b(seed);
    const TemporalResult a = reference_simulate_temporal(
        instance, schedule, truth, legacy, 40, 25, rng_a);
    const TemporalResult b =
        simulate_temporal(instance, schedule, truth, engine, 40, 25, rng_b);
    expect_same(a, b);
  }
}

TEST(EngineEquivalenceTest, ScoreEngineBackedStrategiesMatchScalarScoring) {
  // PR 4: the SoA/batched score paths must be invisible in the traces —
  // every strategy that scores through core/score.hpp is pinned
  // byte-identically against its scalar-scoring twin.
  struct Pair {
    std::string name;
    std::function<std::unique_ptr<Strategy>()> flat;
    std::function<std::unique_ptr<Strategy>()> scalar;
  };
  const std::vector<Pair> pairs = {
      {"ABM",
       [] { return std::make_unique<AbmStrategy>(0.5, 0.5); },
       [] {
         AbmStrategy::Config config;
         config.incremental = false;
         return std::make_unique<AbmStrategy>(config);
       }},
      {"BatchedABM",
       [] {
         return std::make_unique<BatchedAbmStrategy>(
             PotentialWeights{0.5, 0.5}, 5, /*flat_scoring=*/true);
       },
       [] {
         return std::make_unique<BatchedAbmStrategy>(
             PotentialWeights{0.5, 0.5}, 5, /*flat_scoring=*/false);
       }},
      {"Lookahead",
       [] {
         LookaheadStrategy::Config config;
         config.beam = 4;
         config.scenario_samples = 2;
         return std::make_unique<LookaheadStrategy>(config);
       },
       [] {
         LookaheadStrategy::Config config;
         config.beam = 4;
         config.scenario_samples = 2;
         config.flat_scoring = false;
         return std::make_unique<LookaheadStrategy>(config);
       }},
  };
  const AccuInstance instance = facebook_instance();
  for (std::uint64_t world = 0; world < 3; ++world) {
    util::Rng truth_rng(900 + world);
    const Realization truth = Realization::sample(instance, truth_rng);
    for (const Pair& pair : pairs) {
      auto flat = pair.flat();
      auto scalar = pair.scalar();
      util::Rng rng_a(world * 13 + 2);
      util::Rng rng_b(world * 13 + 2);
      const SimulationResult a = simulate(instance, truth, *flat, 45, rng_a);
      const SimulationResult b = simulate(instance, truth, *scalar, 45, rng_b);
      expect_same(a, b, pair.name + " world " + std::to_string(world));
    }
  }
}

TEST(EngineEquivalenceTest, PlanPackUseReflectsScoringMode) {
  // Strategies reach the ScorePack — and with it the SIMD-dispatched
  // kernels — only through the instance plan.  Each strategy runs on a
  // fresh instance whose plan has built nothing; pin whether it built the
  // pack, so a scalar twin cannot silently drift onto (or off) the kernel
  // seam.
  const auto builds_pack = [](std::unique_ptr<Strategy> strategy) {
    const AccuInstance instance = facebook_instance();
    util::Rng truth_rng(5);
    const Realization truth = Realization::sample(instance, truth_rng);
    util::Rng rng(6);
    (void)simulate(instance, truth, *strategy, 6, rng);
    return instance.plan().has_score_pack();
  };
  EXPECT_TRUE(builds_pack(std::make_unique<AbmStrategy>(0.5, 0.5)));
  {
    AbmStrategy::Config config;
    config.incremental = false;
    EXPECT_FALSE(builds_pack(std::make_unique<AbmStrategy>(config)));
  }
  EXPECT_TRUE(builds_pack(std::make_unique<BatchedAbmStrategy>(
      PotentialWeights{0.5, 0.5}, 5, /*flat_scoring=*/true)));
  EXPECT_FALSE(builds_pack(std::make_unique<BatchedAbmStrategy>(
      PotentialWeights{0.5, 0.5}, 5, /*flat_scoring=*/false)));
  {
    LookaheadStrategy::Config config;
    config.beam = 2;
    config.scenario_samples = 1;
    EXPECT_TRUE(builds_pack(std::make_unique<LookaheadStrategy>(config)));
    config.flat_scoring = false;
    EXPECT_FALSE(builds_pack(std::make_unique<LookaheadStrategy>(config)));
  }
  // The static baselines use the plan's orders, never the pack; the retry
  // decorator changes nothing about the inner policy's scoring.
  EXPECT_FALSE(builds_pack(std::make_unique<PageRankStrategy>()));
  EXPECT_FALSE(builds_pack(std::make_unique<MaxDegreeStrategy>()));
  EXPECT_TRUE(builds_pack(std::make_unique<RetryingStrategy>(
      std::make_unique<AbmStrategy>(0.5, 0.5),
      util::RetryPolicy::exponential_jitter(3))));
  EXPECT_FALSE(builds_pack(std::make_unique<RetryingStrategy>(
      std::make_unique<RandomStrategy>(),
      util::RetryPolicy::exponential_jitter(3))));
}

TEST(EngineEquivalenceTest, ScalarTwinsMatchFlatUnderEveryForcedIsa) {
  // The flat/scalar-twin equivalence above, re-pinned under every kernel
  // table this host supports: forcing an ISA changes which vector code
  // scores the flat side, and the twin (which never touches the seam)
  // must still see byte-identical traces.
  const AccuInstance instance = facebook_instance();
  util::Rng truth_rng(912);
  const Realization truth = Realization::sample(instance, truth_rng);
  for (const simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kNeon}) {
    if (!simd::isa_supported(isa)) continue;
    simd::select_isa(isa);
    const std::string label = simd::isa_name(isa);
    {
      BatchedAbmStrategy flat(PotentialWeights{0.5, 0.5}, 5,
                              /*flat_scoring=*/true);
      BatchedAbmStrategy scalar(PotentialWeights{0.5, 0.5}, 5,
                                /*flat_scoring=*/false);
      util::Rng rng_a(77);
      util::Rng rng_b(77);
      expect_same(simulate(instance, truth, flat, 45, rng_a),
                  simulate(instance, truth, scalar, 45, rng_b),
                  "BatchedABM isa " + label);
    }
    {
      LookaheadStrategy::Config config;
      config.beam = 4;
      config.scenario_samples = 2;
      LookaheadStrategy flat(config);
      config.flat_scoring = false;
      LookaheadStrategy scalar(config);
      util::Rng rng_a(78);
      util::Rng rng_b(78);
      expect_same(simulate(instance, truth, flat, 45, rng_a),
                  simulate(instance, truth, scalar, 45, rng_b),
                  "Lookahead isa " + label);
    }
  }
  simd::select_auto();
}

// ---------------------------------------------------------------------------
// Workspace reuse.
// ---------------------------------------------------------------------------

TEST(EngineWorkspaceTest, SampleTruthMatchesRealizationSample) {
  const AccuInstance instance = facebook_instance();
  SimWorkspace ws;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    util::Rng rng_a(seed);
    util::Rng rng_b(seed);
    const Realization fresh = Realization::sample(instance, rng_a);
    const Realization& pooled = ws.sample_truth(instance, rng_b);
    ASSERT_EQ(fresh.num_nodes(), pooled.num_nodes());
    ASSERT_EQ(fresh.num_edges(), pooled.num_edges());
    for (EdgeId e = 0; e < fresh.num_edges(); ++e) {
      ASSERT_EQ(fresh.edge_present(e), pooled.edge_present(e)) << e;
    }
    for (NodeId u = 0; u < fresh.num_nodes(); ++u) {
      ASSERT_EQ(fresh.reckless_accepts(u), pooled.reckless_accepts(u)) << u;
      ASSERT_EQ(fresh.cautious_below_accepts(u),
                pooled.cautious_below_accepts(u))
          << u;
      ASSERT_EQ(fresh.cautious_above_accepts(u),
                pooled.cautious_above_accepts(u))
          << u;
    }
    // The two generators must have consumed identical draw counts.
    EXPECT_EQ(rng_a(), rng_b()) << seed;
  }
}

TEST(EngineWorkspaceTest, ReusedWorkspaceMatchesFreshConstruction) {
  // One workspace serves many cells over instances of different shapes;
  // every cell must be byte-identical to a fresh-allocation run, and the
  // persistent strategies of the worker pool must reset cleanly.
  const AccuInstance small = facebook_instance(0.03);
  const AccuInstance large = facebook_instance(0.06);
  SimWorkspace ws;
  auto pooled_abm = std::make_unique<AbmStrategy>(0.5, 0.5);
  for (std::uint64_t cell = 0; cell < 6; ++cell) {
    const AccuInstance& instance = (cell % 2 == 0) ? small : large;
    util::Rng truth_a(500 + cell);
    util::Rng truth_b(500 + cell);
    const Realization fresh_truth = Realization::sample(instance, truth_a);
    const Realization& pooled_truth = ws.sample_truth(instance, truth_b);

    AbmStrategy fresh_abm(0.5, 0.5);
    util::Rng rng_a(cell + 1);
    util::Rng rng_b(cell + 1);
    const SimulationResult fresh =
        simulate(instance, fresh_truth, fresh_abm, 30, rng_a);

    SimulationResult pooled;
    AttackerView& view = ws.reset_view(instance);
    simulate_into(instance, pooled_truth, *pooled_abm, 30, rng_b, view, ws,
                  pooled);
    expect_same(fresh, pooled, "cell " + std::to_string(cell));
  }
}

TEST(EngineWorkspaceTest, ReusedWorkspaceMatchesFreshUnderFaults) {
  const AccuInstance instance = facebook_instance();
  FaultConfig fault_config = FaultConfig::uniform(0.25, 2);
  SimWorkspace ws;
  auto pooled = std::make_unique<RetryingStrategy>(
      std::make_unique<AbmStrategy>(0.5, 0.5),
      util::RetryPolicy::exponential_jitter(3));
  for (std::uint64_t cell = 0; cell < 4; ++cell) {
    util::Rng truth_a(700 + cell);
    util::Rng truth_b(700 + cell);
    const Realization fresh_truth = Realization::sample(instance, truth_a);
    const Realization& pooled_truth = ws.sample_truth(instance, truth_b);

    RetryingStrategy fresh_strategy(std::make_unique<AbmStrategy>(0.5, 0.5),
                                    util::RetryPolicy::exponential_jitter(3));
    util::Rng rng_a(cell + 40);
    util::Rng rng_b(cell + 40);
    FaultModel faults_a(fault_config, cell + 900);
    FaultModel faults_b(fault_config, cell + 900);
    const SimulationResult fresh = simulate_with_faults(
        instance, fresh_truth, fresh_strategy, 50, rng_a, faults_a);

    SimulationResult out;
    AttackerView& view = ws.reset_view(instance);
    simulate_with_faults_into(instance, pooled_truth, *pooled, 50, rng_b,
                              faults_b, view, ws, out);
    expect_same(fresh, out, "cell " + std::to_string(cell));
  }
}

TEST(EngineWorkspaceTest, ExperimentIsThreadCountInvariant) {
  // The sweep harness reuses one workspace + strategy set per worker; the
  // aggregates must not depend on how cells land on workers.
  ExperimentConfig config;
  config.budget = 12;
  config.samples = 2;
  config.runs = 3;
  config.seed = 77;
  config.faults = FaultConfig::uniform(0.2, 2);
  config.retry = util::RetryPolicy::exponential_jitter(2);
  const InstanceFactory factory = [](std::uint32_t sample,
                                     std::uint64_t seed) {
    util::Rng rng(seed + sample);
    datasets::DatasetConfig dataset;
    dataset.scale = 0.05;
    dataset.num_cautious = 10;
    return datasets::make_dataset("facebook", dataset, rng);
  };
  const std::vector<StrategyFactory> strategies = {
      {"ABM", [] { return std::make_unique<AbmStrategy>(0.5, 0.5); }},
      {"Random", [] { return std::make_unique<RandomStrategy>(); }},
  };
  config.threads = 1;
  const ExperimentResult serial = run_experiment(factory, strategies, config);
  config.threads = 4;
  const ExperimentResult parallel =
      run_experiment(factory, strategies, config);
  for (const char* name : {"ABM", "Random"}) {
    EXPECT_EQ(serial.by_name(name).total_benefit().mean(),
              parallel.by_name(name).total_benefit().mean())
        << name;
    EXPECT_EQ(serial.by_name(name).retries().mean(),
              parallel.by_name(name).retries().mean())
        << name;
    const auto a = serial.by_name(name).cumulative_benefit().means();
    const auto b = parallel.by_name(name).cumulative_benefit().means();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]) << name << " @" << i;
    }
  }
}

}  // namespace
}  // namespace accu
