// Tests for the dataset factory: cautious-user selection invariants, the
// §IV-A parameter protocol, Table I size matching, determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "datasets/datasets.hpp"
#include "graph/algorithms.hpp"
#include "graph/io.hpp"
#include "test_dirs.hpp"

namespace accu::datasets {
namespace {

TEST(DatasetSpecTest, TableOneEntries) {
  const auto& specs = paper_datasets();
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].name, "facebook");
  EXPECT_EQ(specs[0].paper_nodes, 4039u);
  EXPECT_EQ(specs[3].name, "dblp");
  EXPECT_EQ(specs[3].kind, "Collaboration");
  EXPECT_EQ(dataset_spec("twitter").paper_edges, 1768149u);
  EXPECT_THROW(dataset_spec("myspace"), InvalidArgument);
}

TEST(DatasetTopologyTest, MeanDegreeTracksPaperAtSmallScale) {
  // The substitution preserves mean degree at any scale; verify all four at
  // a bench-friendly scale.
  struct Case {
    const char* name;
    double mean_degree;
    double tolerance;
  };
  for (const Case c : {Case{"facebook", 43.7, 4.0},
                       Case{"slashdot", 23.4, 7.0},
                       Case{"twitter", 43.5, 4.0},
                       Case{"dblp", 6.6, 2.0}}) {
    util::Rng rng(11);
    const double scale = c.name == std::string("facebook") ? 0.5 : 0.03;
    const Graph g = make_topology(c.name, scale, rng);
    EXPECT_NEAR(graph::degree_stats(g).mean, c.mean_degree, c.tolerance)
        << c.name;
  }
}

TEST(DatasetTopologyTest, ScaleControlsNodeCount) {
  util::Rng rng(12);
  const Graph half = make_topology("facebook", 0.5, rng);
  EXPECT_NEAR(static_cast<double>(half.num_nodes()), 4039 * 0.5, 2.0);
  util::Rng rng2(12);
  const Graph tiny = make_topology("facebook", 1e-9, rng2);
  EXPECT_EQ(tiny.num_nodes(), 120u);  // clamped floor
  EXPECT_THROW(make_topology("facebook", 0.0, rng), InvalidArgument);
}

TEST(CautiousSelectionTest, RespectsDegreeWindowAndIndependence) {
  util::Rng grng(13);
  const Graph g = make_topology("facebook", 0.5, grng);
  util::Rng rng(14);
  const auto cautious = select_cautious_users(g, 60, 10, 100, rng);
  EXPECT_EQ(cautious.size(), 60u);
  EXPECT_TRUE(std::is_sorted(cautious.begin(), cautious.end()));
  for (const NodeId v : cautious) {
    EXPECT_GE(g.degree(v), 10u);
    EXPECT_LE(g.degree(v), 100u);
  }
  // Pairwise non-adjacent (paper: "no direct edges among them").
  for (std::size_t i = 0; i < cautious.size(); ++i) {
    for (std::size_t j = i + 1; j < cautious.size(); ++j) {
      EXPECT_FALSE(g.has_edge(cautious[i], cautious[j]));
    }
  }
}

TEST(CautiousSelectionTest, ShortfallWhenPoolSmall) {
  // A star: center degree 9, leaves degree 1 — window [5,100] admits only
  // the center.
  graph::GraphBuilder b(10);
  for (NodeId v = 1; v < 10; ++v) b.add_edge(0, v);
  const Graph g = b.build();
  util::Rng rng(15);
  const auto cautious = select_cautious_users(g, 5, 5, 100, rng);
  EXPECT_EQ(cautious.size(), 1u);
  EXPECT_EQ(cautious[0], 0u);
}

TEST(MakeDatasetTest, InstanceRespectsPaperProtocol) {
  util::Rng rng(16);
  DatasetConfig config;
  config.scale = 0.5;
  config.num_cautious = 40;
  config.cautious_friend_benefit = 50.0;
  config.threshold_fraction = 0.3;
  const AccuInstance instance = make_dataset("facebook", config, rng);

  EXPECT_EQ(instance.num_cautious(), 40u);
  std::uint32_t checked = 0;
  for (const NodeId v : instance.cautious_users()) {
    // θ_v = max(1, round(0.3 · deg(v))), clamped to deg(v).
    const auto deg = instance.graph().degree(v);
    const auto expected = std::clamp<std::uint32_t>(
        static_cast<std::uint32_t>(std::round(0.3 * deg)), 1, deg);
    EXPECT_EQ(instance.threshold(v), expected);
    EXPECT_DOUBLE_EQ(instance.benefits().friend_benefit(v), 50.0);
    EXPECT_DOUBLE_EQ(instance.benefits().fof_benefit(v), 1.0);
    ++checked;
  }
  EXPECT_EQ(checked, 40u);
  for (NodeId u = 0; u < instance.num_nodes(); ++u) {
    if (instance.is_cautious(u)) continue;
    EXPECT_DOUBLE_EQ(instance.benefits().friend_benefit(u), 2.0);
    EXPECT_GE(instance.accept_prob(u), 0.0);
    EXPECT_LT(instance.accept_prob(u), 1.0);
  }
  // Edge probabilities are uniform [0,1): spot-check the range and spread.
  const Graph& g = instance.graph();
  double sum = 0.0;
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    ASSERT_GE(g.edge_prob(e), 0.0);
    ASSERT_LT(g.edge_prob(e), 1.0);
    sum += g.edge_prob(e);
  }
  EXPECT_NEAR(sum / g.num_edges(), 0.5, 0.02);
}

TEST(MakeDatasetTest, DeterministicGivenSeed) {
  DatasetConfig config;
  config.scale = 0.2;
  config.num_cautious = 20;
  util::Rng a(99), b(99), c(100);
  const AccuInstance ia = make_dataset("facebook", config, a);
  const AccuInstance ib = make_dataset("facebook", config, b);
  const AccuInstance ic = make_dataset("facebook", config, c);
  EXPECT_EQ(ia.num_nodes(), ib.num_nodes());
  EXPECT_EQ(ia.graph().num_edges(), ib.graph().num_edges());
  EXPECT_EQ(ia.cautious_users(), ib.cautious_users());
  EXPECT_TRUE(ia.cautious_users() != ic.cautious_users() ||
              ia.graph().num_edges() != ic.graph().num_edges());
}

TEST(MakeDatasetTest, FromEdgeListAppliesProtocol) {
  // Write a small snapshot, ingest it, and check the §IV-A pipeline ran.
  util::Rng grng(31);
  const Graph topology = make_topology("facebook", 0.1, grng);
  const std::string path = testdirs::test_path("accu_snap_test.edges");
  graph::write_edge_list_file(topology, path);

  DatasetConfig config;
  config.num_cautious = 12;
  util::Rng rng(32);
  const AccuInstance instance =
      make_dataset_from_edge_list(path, config, rng);
  EXPECT_EQ(instance.num_nodes(), topology.num_nodes());
  EXPECT_EQ(instance.graph().num_edges(), topology.num_edges());
  EXPECT_EQ(instance.num_cautious(), 12u);
  // Probabilities were re-drawn uniformly (the file had p = 1 everywhere).
  double sum = 0.0;
  for (graph::EdgeId e = 0; e < instance.graph().num_edges(); ++e) {
    ASSERT_LT(instance.graph().edge_prob(e), 1.0);
    sum += instance.graph().edge_prob(e);
  }
  EXPECT_NEAR(sum / instance.graph().num_edges(), 0.5, 0.05);
  EXPECT_THROW(make_dataset_from_edge_list("/nonexistent.edges", config, rng),
               IoError);
}

TEST(MakeDatasetTest, AllFourDatasetsValidate) {
  // AccuInstance's constructor enforces the model assumptions; building
  // every dataset exercises them end to end.
  DatasetConfig config;
  config.num_cautious = 25;
  for (const DatasetSpec& spec : paper_datasets()) {
    util::Rng rng(17);
    config.scale = spec.name == "facebook" ? 0.3 : 0.02;
    const AccuInstance instance = make_dataset(spec.name, config, rng);
    EXPECT_GT(instance.num_cautious(), 0u) << spec.name;
    EXPECT_GT(instance.graph().num_edges(), 0u) << spec.name;
  }
}

}  // namespace
}  // namespace accu::datasets
