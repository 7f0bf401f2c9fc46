// Tests for the per-instance plan (core/instance_plan.hpp) and the pieces
// built with it:
//
//   * InstancePlanTest      — the static orders against the per-reset
//     score + stable_sort they replaced, plan sharing across copies,
//     concurrent first use, and resampling from the shared draw plan;
//   * InstancePlanBlankTest — ABM's blank-state tables: the O(1) heap seed
//     against ScoreEngine::score, the sparse P_I slot list against the
//     per-slot loop it replaced, and ABM traces against the reference
//     policy under full feedback, delayed:4 and faults;
//   * InstancePlanCrcTest   — slicing-by-8 CRC-32 against the byte-wise
//     reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <latch>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "core/faults.hpp"
#include "core/feedback.hpp"
#include "core/instance_plan.hpp"
#include "core/score_simd.hpp"
#include "core/strategies/abm.hpp"
#include "core/strategies/baselines.hpp"
#include "core/strategies/retrying.hpp"
#include "datasets/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/pagerank.hpp"
#include "util/crc32.hpp"

namespace accu {
namespace {

// ---------------------------------------------------------------------------
// Instances
// ---------------------------------------------------------------------------

AccuInstance all_reckless(Graph g) {
  const NodeId n = g.num_nodes();
  return AccuInstance(std::move(g), std::vector<UserClass>(n),
                      std::vector<double>(n, 0.5),
                      std::vector<std::uint32_t>(n, 1),
                      BenefitModel::uniform(n, 2.0, 1.0));
}

/// A ring with one probability everywhere: every expected degree and every
/// PageRank score ties, so the order is the tie-break alone.
AccuInstance ring(NodeId n) {
  graph::GraphBuilder b(n);
  for (NodeId v = 0; v < n; ++v) b.add_edge(v, (v + 1) % n, 0.5);
  return all_reckless(b.build());
}

/// Two disjoint stars of equal size plus isolated nodes: ties inside each
/// star, between the stars, and among the isolated nodes.
AccuInstance twin_stars() {
  graph::GraphBuilder b(14);
  for (NodeId leaf = 1; leaf <= 5; ++leaf) b.add_edge(0, leaf, 0.25);
  for (NodeId leaf = 7; leaf <= 11; ++leaf) b.add_edge(6, leaf, 0.25);
  return all_reckless(b.build());
}

AccuInstance facebook(std::uint64_t seed, double scale = 0.05) {
  util::Rng rng(seed);
  datasets::DatasetConfig config;
  config.scale = scale;
  config.num_cautious = 10;
  return datasets::make_dataset("facebook", config, rng);
}

/// Holme–Kim small world with a greedy cautious set (no cautious edges)
/// and, when q1 > 0, the generalized cautious model.
AccuInstance mixed(std::uint64_t seed, std::size_t max_cautious,
                   double q1 = 0.0) {
  const NodeId n = 90;
  util::Rng rng(seed);
  graph::GraphBuilder b = graph::holme_kim(n, 4, 0.35, rng);
  b.assign_uniform_probs(rng);
  const Graph g = b.build();
  std::vector<UserClass> classes(n, UserClass::kReckless);
  std::vector<std::uint32_t> thresholds(n, 1);
  std::vector<NodeId> cautious;
  for (NodeId v = 0; v < n && cautious.size() < max_cautious; ++v) {
    if (g.degree(v) < 3) continue;
    bool adjacent = false;
    for (const NodeId x : cautious) adjacent |= g.has_edge(v, x);
    if (adjacent) continue;
    classes[v] = UserClass::kCautious;
    thresholds[v] = 2;
    cautious.push_back(v);
  }
  std::vector<double> q(n);
  for (double& x : q) x = rng.uniform();
  BenefitModel benefits = BenefitModel::paper_default(classes);
  if (q1 > 0.0) {
    GeneralizedCautiousParams params{std::vector<double>(n, q1),
                                     std::vector<double>(n, 1.0)};
    return AccuInstance(g, classes, q, thresholds, std::move(benefits),
                        std::move(params));
  }
  return AccuInstance(g, classes, q, thresholds, std::move(benefits));
}

// ---------------------------------------------------------------------------
// The oracle: the per-reset score + stable_sort the static baselines ran
// before their orders moved into the plan.
// ---------------------------------------------------------------------------

std::vector<NodeId> sorted_by(const std::vector<double>& score) {
  std::vector<NodeId> order(score.size());
  std::iota(order.begin(), order.end(), NodeId{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](NodeId a, NodeId b) { return score[a] > score[b]; });
  return order;
}

std::vector<double> expected_degrees(const AccuInstance& instance) {
  std::vector<double> score(instance.num_nodes());
  for (NodeId v = 0; v < instance.num_nodes(); ++v) {
    score[v] = instance.graph().expected_degree(v);
  }
  return score;
}

class OracleStaticOrder final : public Strategy {
 public:
  explicit OracleStaticOrder(bool pagerank) : pagerank_(pagerank) {}
  void reset(const AccuInstance& instance, util::Rng&) override {
    order_ = sorted_by(pagerank_ ? graph::pagerank(instance.graph())
                                 : expected_degrees(instance));
    cursor_ = 0;
  }
  NodeId select(const AttackerView& view, util::Rng&) override {
    while (cursor_ < order_.size() && view.is_requested(order_[cursor_])) {
      ++cursor_;
    }
    return cursor_ < order_.size() ? order_[cursor_++] : kInvalidNode;
  }
  [[nodiscard]] std::string name() const override { return "oracle"; }

 private:
  bool pagerank_;
  std::vector<NodeId> order_;
  std::size_t cursor_ = 0;
};

void expect_same_trace(const SimulationResult& a, const SimulationResult& b,
                       const std::string& label) {
  ASSERT_EQ(a.trace.size(), b.trace.size()) << label;
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].target, b.trace[i].target) << label << " round " << i;
    EXPECT_EQ(a.trace[i].accepted, b.trace[i].accepted) << label;
    EXPECT_EQ(a.trace[i].benefit_after, b.trace[i].benefit_after) << label;
  }
  EXPECT_EQ(a.total_benefit, b.total_benefit) << label;
}

// ---------------------------------------------------------------------------
// InstancePlanTest
// ---------------------------------------------------------------------------

TEST(InstancePlanTest, OrdersEqualThePerResetSortOracle) {
  const AccuInstance instances[] = {ring(31), twin_stars(), facebook(3),
                                    mixed(5, 8)};
  for (const AccuInstance& instance : instances) {
    const InstancePlan& plan = instance.plan();
    EXPECT_EQ(plan.max_degree_order(instance),
              sorted_by(expected_degrees(instance)));
    EXPECT_EQ(plan.pagerank_order(instance),
              sorted_by(graph::pagerank(instance.graph())));
  }
  // On the ring every score ties, so the order is the id order itself.
  const AccuInstance r = ring(31);
  std::vector<NodeId> ids(31);
  std::iota(ids.begin(), ids.end(), NodeId{0});
  EXPECT_EQ(r.plan().max_degree_order(r), ids);
}

TEST(InstancePlanTest, StaticBaselineTracesEqualTheOracle) {
  // Whole simulations, across repeated cells over one instance and a copy
  // of it: borrowing the plan's order with a per-cell cursor must request
  // exactly what re-sorting at every reset did.
  const AccuInstance original = twin_stars();
  const AccuInstance big = facebook(9);
  for (const AccuInstance* instance : {&original, &big}) {
    const AccuInstance copy = *instance;
    for (const bool pagerank : {false, true}) {
      std::unique_ptr<Strategy> planned;
      if (pagerank) {
        planned = std::make_unique<PageRankStrategy>();
      } else {
        planned = std::make_unique<MaxDegreeStrategy>();
      }
      OracleStaticOrder oracle(pagerank);
      for (std::uint64_t cell = 0; cell < 3; ++cell) {
        const AccuInstance& target = cell % 2 == 0 ? *instance : copy;
        util::Rng truth_rng(40 + cell);
        const Realization truth = Realization::sample(target, truth_rng);
        util::Rng rng_a(cell), rng_b(cell);
        const std::uint32_t budget = std::min<std::uint32_t>(
            40, static_cast<std::uint32_t>(target.num_nodes()) + 2);
        expect_same_trace(simulate(target, truth, *planned, budget, rng_a),
                          simulate(target, truth, oracle, budget, rng_b),
                          planned->name() + " cell " + std::to_string(cell));
      }
    }
  }
}

TEST(InstancePlanTest, CopiesShareOnePlanDistinctUidsDoNot) {
  const AccuInstance a = facebook(3);
  const AccuInstance copy = a;
  EXPECT_EQ(copy.uid(), a.uid());
  EXPECT_EQ(&copy.plan(), &a.plan());
  // Parts built through one copy are the very objects the other sees.
  EXPECT_EQ(&copy.plan().pagerank_order(copy), &a.plan().pagerank_order(a));
  EXPECT_EQ(&copy.plan().score_pack(copy), &a.plan().score_pack(a));
  EXPECT_TRUE(a.plan().score_pack(a).built_for(copy));

  // A copy outlives its source and keeps working on the shared plan.
  auto source = std::make_unique<AccuInstance>(facebook(4));
  const InstancePlan* shared = &source->plan();
  const std::vector<NodeId> order = source->plan().max_degree_order(*source);
  const AccuInstance survivor = *source;
  source.reset();
  EXPECT_EQ(&survivor.plan(), shared);
  EXPECT_EQ(survivor.plan().max_degree_order(survivor), order);

  // Same contents, separate construction: a new uid and a new plan.
  const AccuInstance twin = facebook(3);
  EXPECT_NE(twin.uid(), a.uid());
  EXPECT_NE(&twin.plan(), &a.plan());
  EXPECT_FALSE(a.plan().score_pack(a).built_for(twin));
  EXPECT_EQ(twin.plan().pagerank_order(twin), a.plan().pagerank_order(a));

  // Assignment adopts the source's uid and plan.
  AccuInstance assigned = ring(5);
  assigned = a;
  EXPECT_EQ(assigned.uid(), a.uid());
  EXPECT_EQ(&assigned.plan(), &a.plan());
}

TEST(InstancePlanTest, NothingIsBuiltUntilACellAsks) {
  const AccuInstance instance = facebook(6);
  EXPECT_FALSE(instance.plan().has_score_pack());
  // A static baseline needs only its order, not the pack.
  PageRankStrategy pagerank;
  util::Rng rng(1);
  const Realization truth = Realization::certain(instance);
  (void)simulate(instance, truth, pagerank, 5, rng);
  EXPECT_FALSE(instance.plan().has_score_pack());
  AbmStrategy abm(0.5, 0.5);
  (void)simulate(instance, truth, abm, 5, rng);
  EXPECT_TRUE(instance.plan().has_score_pack());
}

TEST(InstancePlanTest, ConcurrentFirstUseBuildsEachPartOnce) {
  // Eight workers race the first use of every part.  Each part is built
  // once (one graph::pagerank call per instance), so every thread gets the
  // same object, and its contents equal a sequential build.
  constexpr int kThreads = 8;
  const AccuInstance instance = mixed(7, 10);
  const InstancePlan& plan = instance.plan();
  struct Seen {
    const void* pagerank = nullptr;
    const void* pagerank_data = nullptr;
    const void* degree = nullptr;
    const void* pack = nullptr;
    const void* blank = nullptr;
    const void* draw = nullptr;
  };
  std::vector<Seen> seen(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      // Vary the order the parts are first asked for.
      if (t % 2 == 0) {
        seen[t].blank = &plan.blank_tables(instance);
        seen[t].pack = &plan.score_pack(instance);
      } else {
        seen[t].pack = &plan.score_pack(instance);
        seen[t].blank = &plan.blank_tables(instance);
      }
      const std::vector<NodeId>& order = plan.pagerank_order(instance);
      seen[t].pagerank = &order;
      seen[t].pagerank_data = order.data();
      seen[t].degree = &plan.max_degree_order(instance);
      seen[t].draw = &plan.draw_plan(instance);
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[t].pagerank, seen[0].pagerank);
    EXPECT_EQ(seen[t].pagerank_data, seen[0].pagerank_data);
    EXPECT_EQ(seen[t].degree, seen[0].degree);
    EXPECT_EQ(seen[t].pack, seen[0].pack);
    EXPECT_EQ(seen[t].blank, seen[0].blank);
    EXPECT_EQ(seen[t].draw, seen[0].draw);
  }
  EXPECT_EQ(plan.pagerank_order(instance),
            sorted_by(graph::pagerank(instance.graph())));
  EXPECT_EQ(plan.max_degree_order(instance),
            sorted_by(expected_degrees(instance)));
  ScorePack fresh;
  fresh.build(instance);
  const ScorePack& pack = plan.score_pack(instance);
  ASSERT_EQ(pack.num_slots(), fresh.num_slots());
  for (std::uint32_t s = 0; s < pack.num_slots(); ++s) {
    ASSERT_EQ(pack.d_init(s), fresh.d_init(s));
    ASSERT_EQ(pack.i_gain(s), fresh.i_gain(s));
    ASSERT_EQ(pack.mirror(s), fresh.mirror(s));
  }
}

TEST(InstancePlanTest, ConcurrentSweepCellsMatchASequentialSweep) {
  // The plan under real concurrency: a 4-thread sweep, whose workers all
  // build the plan's parts on their first cell, reproduces a 1-thread
  // sweep over a separately constructed copy of the instance.
  const std::vector<StrategyFactory> roster = {
      {"ABM", [] { return std::make_unique<AbmStrategy>(0.5, 0.5); }},
      {"PageRank", [] { return std::make_unique<PageRankStrategy>(); }},
      {"MaxDegree", [] { return std::make_unique<MaxDegreeStrategy>(); }},
  };
  ExperimentConfig config;
  config.budget = 12;
  config.samples = 2;
  config.runs = 6;
  config.seed = 19;
  const auto run = [&](std::uint32_t threads) {
    ExperimentConfig c = config;
    c.threads = threads;
    return run_experiment(
        [](std::uint32_t sample, std::uint64_t) { return facebook(sample); },
        roster, c);
  };
  const ExperimentResult parallel = run(4);
  const ExperimentResult serial = run(1);
  ASSERT_EQ(parallel.aggregates.size(), serial.aggregates.size());
  for (std::size_t s = 0; s < serial.aggregates.size(); ++s) {
    EXPECT_EQ(parallel.aggregates[s].total_benefit().mean(),
              serial.aggregates[s].total_benefit().mean());
    EXPECT_EQ(parallel.aggregates[s].total_benefit().variance(),
              serial.aggregates[s].total_benefit().variance());
  }
}

TEST(InstancePlanTest, SharedDrawPlanResamplesLikeTheReference) {
  // Resampling from the plan's draw schedule, over many draw blocks and a
  // ragged tail, through a copy of the instance and under every kernel
  // table: the same bits and the same RNG end state as the reference loop.
  const AccuInstance instance = facebook(5, 0.3);
  const AccuInstance copy = instance;
  const std::size_t draws = instance.plan().draw_plan(instance).num_draws;
  ASSERT_GT(draws, 3u * 4096u);
  for (const simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kNeon}) {
    if (!simd::isa_supported(isa)) continue;
    simd::select_isa(isa);
    util::Rng fast_rng(77), ref_rng(77);
    Realization fast = Realization::certain(instance);
    Realization ref = Realization::certain(instance);
    for (int round = 0; round < 3; ++round) {
      fast.resample(round % 2 == 0 ? instance : copy, fast_rng);
      ref.resample_reference(instance, ref_rng);
      for (EdgeId e = 0; e < instance.graph().num_edges(); ++e) {
        ASSERT_EQ(fast.edge_present(e), ref.edge_present(e)) << e;
      }
      for (NodeId u = 0; u < instance.num_nodes(); ++u) {
        ASSERT_EQ(fast.reckless_accepts(u), ref.reckless_accepts(u)) << u;
      }
      ASSERT_EQ(fast_rng(), ref_rng()) << simd::isa_name(isa);
    }
  }
  simd::select_auto();
}

// ---------------------------------------------------------------------------
// InstancePlanBlankTest
// ---------------------------------------------------------------------------

const PotentialWeights kWeights[] = {{1.0, 0.0}, {0.5, 0.5}, {0.3, 0.7}};

TEST(InstancePlanBlankTest, SeedScoresEqualEngineScoresAfterReset) {
  const AccuInstance instances[] = {mixed(11, 0), mixed(12, 8),
                                    mixed(13, 90), mixed(14, 10, 0.35),
                                    facebook(2)};
  for (const AccuInstance& instance : instances) {
    const InstancePlan& plan = instance.plan();
    const ScorePack& pack = plan.score_pack(instance);
    const BlankTables& blank = plan.blank_tables(instance);
    for (const PotentialWeights& weights : kWeights) {
      ScoreEngine engine;
      engine.reset(pack, blank, weights);
      ASSERT_TRUE(engine.pristine());
      for (NodeId u = 0; u < instance.num_nodes(); ++u) {
        EXPECT_EQ(blank.score(pack, u, weights), engine.score(u)) << u;
        EXPECT_EQ(engine.seed_score(u), engine.score(u)) << u;
      }
      // Once an event lands, seeding falls back to the engine's state.
      engine.apply_rejection(0);
      EXPECT_FALSE(engine.pristine());
      for (NodeId u = 1; u < instance.num_nodes(); ++u) {
        EXPECT_EQ(engine.seed_score(u), engine.score(u)) << u;
      }
    }
  }
}

TEST(InstancePlanBlankTest, SparseIndirectSlotsEqualThePerSlotLoop) {
  // The per-slot loop ScoreEngine::reset ran before the tables existed:
  // every slot's blank P_I term, zero unless it points at a cautious user.
  for (const AccuInstance& instance :
       {mixed(21, 12), mixed(22, 90), mixed(23, 0)}) {
    const ScorePack& pack = instance.plan().score_pack(instance);
    const BlankTables& blank = instance.plan().blank_tables(instance);
    std::vector<std::uint32_t> slots;
    std::vector<double> values;
    for (std::uint32_t s = 0; s < pack.num_slots(); ++s) {
      const double term =
          pack.i_gain(s) == 0.0
              ? 0.0
              : pack.i_gain(s) * (1.0 / static_cast<double>(pack.slot_theta(s)));
      if (term == 0.0) continue;
      EXPECT_TRUE(instance.is_cautious(pack.slot_node(s))) << s;
      slots.push_back(s);
      values.push_back(term);
    }
    EXPECT_EQ(blank.indirect_slots, slots);
    EXPECT_EQ(blank.indirect_values, values);
    ASSERT_EQ(blank.direct_sum.size(), instance.num_nodes());
    ASSERT_EQ(blank.indirect_sum.size(), instance.num_nodes());
  }
}

std::unique_ptr<Strategy> abm(const PotentialWeights& weights,
                              bool incremental) {
  AbmStrategy::Config config;
  config.weights = weights;
  config.incremental = incremental;
  return std::make_unique<AbmStrategy>(config);
}

TEST(InstancePlanBlankTest, BlankSeededAbmMatchesReferenceUnderEveryMode) {
  // The blank-table heap seed must pick exactly what the reference policy
  // (a full rescan of the view each round) picks — under full feedback,
  // under delayed:4 revelations, and on a faulty platform with and without
  // the retry decorator.
  const AccuInstance instances[] = {facebook(8), mixed(31, 10),
                                    mixed(32, 10, 0.35)};
  const FeedbackModel delayed = FeedbackModel::parse("delayed:4");
  const FaultConfig faults = FaultConfig::uniform(0.2, 3);
  for (const AccuInstance& instance : instances) {
    for (const PotentialWeights& weights : kWeights) {
      for (std::uint64_t world = 0; world < 2; ++world) {
        util::Rng truth_rng(70 + world);
        const Realization truth = Realization::sample(instance, truth_rng);
        // Runs the incremental and the reference policy through `run`.
        const auto compare = [&](const std::string& label, bool retry,
                                 auto&& run) {
          SimulationResult results[2];
          for (const bool incremental : {true, false}) {
            std::unique_ptr<Strategy> strategy = abm(weights, incremental);
            if (retry) {
              strategy = std::make_unique<RetryingStrategy>(
                  std::move(strategy),
                  util::RetryPolicy::exponential_jitter(3));
            }
            util::Rng rng(world);
            results[incremental ? 0 : 1] = run(*strategy, rng);
          }
          expect_same_trace(results[0], results[1], label);
        };
        compare("full", false, [&](Strategy& s, util::Rng& rng) {
          return simulate(instance, truth, s, 30, rng);
        });
        compare("delayed:4", false, [&](Strategy& s, util::Rng& rng) {
          return simulate(instance, truth, s, 30, rng, nullptr, delayed);
        });
        for (const bool retry : {false, true}) {
          compare(retry ? "faults + retry" : "faults", retry,
                  [&](Strategy& s, util::Rng& rng) {
                    FaultModel model(faults, 500 + world);
                    return simulate_with_faults(instance, truth, s, 30, rng,
                                                model);
                  });
          compare("faults + delayed:4", retry,
                  [&](Strategy& s, util::Rng& rng) {
                    FaultModel model(faults, 600 + world);
                    return simulate_with_faults(instance, truth, s, 30, rng,
                                                model, nullptr, delayed);
                  });
        }
      }
    }
  }
}

TEST(InstancePlanBlankTest, EventsBeforeTheFirstSelectFallBackToTheEngine) {
  // An outcome observed before the heap is seeded leaves the engine
  // non-pristine; the seed must then come from the live engine state, and
  // every pick must still equal the reference policy's.  Each event kind
  // runs alone, so none of them can hide a missed fallback of another: a
  // cautious user's rejection (its neighbors lose their P_I term toward
  // it) and a reckless user's acceptance (its neighbors' P_D sums change).
  const AccuInstance instance = mixed(41, 10);
  util::Rng truth_rng(3);
  const Realization truth = Realization::sample(instance, truth_rng);
  const NodeId cautious = instance.cautious_users().front();
  NodeId accepter = 0;
  while (instance.is_cautious(accepter) || !truth.reckless_accepts(accepter)) {
    ++accepter;
  }
  for (const bool early_acceptance : {false, true}) {
    for (const PotentialWeights& weights : kWeights) {
      std::unique_ptr<Strategy> fast = abm(weights, true);
      std::unique_ptr<Strategy> ref = abm(weights, false);
      util::Rng rng_a(1), rng_b(1);
      fast->reset(instance, rng_a);
      ref->reset(instance, rng_b);
      AttackerView view(instance);
      const auto settle = [&](NodeId target, bool force_reject) {
        const bool accepts =
            !force_reject &&
            (instance.is_cautious(target)
                 ? (view.cautious_would_accept(target)
                        ? truth.cautious_above_accepts(target)
                        : truth.cautious_below_accepts(target))
                 : truth.reckless_accepts(target));
        if (accepts) {
          const AttackerView::AcceptanceEffects effects =
              view.record_acceptance(target, truth);
          fast->observe(target, true, view, &effects);
          ref->observe(target, true, view, &effects);
        } else {
          view.record_rejection(target);
          fast->observe(target, false, view, nullptr);
          ref->observe(target, false, view, nullptr);
        }
      };
      if (early_acceptance) {
        settle(accepter, false);
      } else {
        settle(cautious, true);
      }
      for (NodeId round = 0; round <= instance.num_nodes(); ++round) {
        const NodeId a = fast->select(view, rng_a);
        const NodeId b = ref->select(view, rng_b);
        ASSERT_EQ(a, b) << "round " << round << " early acceptance "
                        << early_acceptance;
        if (a == kInvalidNode) break;
        settle(a, false);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// InstancePlanCrcTest
// ---------------------------------------------------------------------------

/// The byte-at-a-time CRC-32 the slicing-by-8 loop replaced.
std::uint32_t crc32_bytewise(const unsigned char* bytes, std::size_t len,
                             std::uint32_t crc = 0) {
  std::uint32_t c = crc ^ 0xffffffffu;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= bytes[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xffffffffu;
}

TEST(InstancePlanCrcTest, SlicingBy8EqualsTheBytewiseReference) {
  std::vector<unsigned char> buffer(1024 + 16);
  util::Rng rng(2024);
  for (unsigned char& b : buffer) {
    b = static_cast<unsigned char>(rng() & 0xffu);
  }
  // The standard check value.
  EXPECT_EQ(util::crc32("123456789"), 0xcbf43926u);
  for (std::size_t offset = 0; offset < 8; ++offset) {  // unaligned starts
    const unsigned char* data = buffer.data() + offset;
    for (std::size_t len = 0; len <= 1024; ++len) {
      ASSERT_EQ(util::crc32(data, len), crc32_bytewise(data, len))
          << "offset " << offset << " len " << len;
    }
  }
  // Chained calls: any split of the input gives the one-shot value, and a
  // non-zero running crc enters the sliced loop correctly.
  const unsigned char* data = buffer.data() + 3;
  for (const std::size_t len : {std::size_t{17}, std::size_t{64},
                                 std::size_t{333}, std::size_t{1024}}) {
    const std::uint32_t whole = crc32_bytewise(data, len);
    for (std::size_t split = 0; split <= len; ++split) {
      const std::uint32_t head = util::crc32(data, split);
      ASSERT_EQ(util::crc32(data + split, len - split, head), whole)
          << "len " << len << " split " << split;
    }
    EXPECT_EQ(util::crc32(data, len, 0x12345678u),
              crc32_bytewise(data, len, 0x12345678u));
  }
}

}  // namespace
}  // namespace accu
