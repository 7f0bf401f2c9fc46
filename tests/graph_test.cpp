// Unit tests for the CSR graph, builder, I/O and classic algorithms.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "graph/algorithms.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "test_dirs.hpp"

namespace accu::graph {
namespace {

Graph triangle_plus_tail() {
  // 0-1-2 triangle, 2-3 tail, isolated 4.
  GraphBuilder b(5);
  b.add_edge(0, 1, 0.5);
  b.add_edge(1, 2, 0.25);
  b.add_edge(0, 2, 1.0);
  b.add_edge(2, 3, 0.75);
  return b.build();
}

TEST(GraphBuilderTest, BasicCounts) {
  const Graph g = triangle_plus_tail();
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(2), 3u);
  EXPECT_EQ(g.degree(4), 0u);
}

TEST(GraphBuilderTest, RejectsSelfLoop) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(1, 1), InvalidArgument);
}

TEST(GraphBuilderTest, RejectsDuplicateBothOrientations) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  EXPECT_THROW(b.add_edge(0, 1), InvalidArgument);
  EXPECT_THROW(b.add_edge(1, 0), InvalidArgument);
  EXPECT_FALSE(b.try_add_edge(1, 0));
  EXPECT_EQ(b.num_edges(), 1u);
}

TEST(GraphBuilderTest, RejectsOutOfRangeAndBadProb) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(0, 3), InvalidArgument);
  EXPECT_THROW(b.add_edge(0, 1, 1.5), InvalidArgument);
  EXPECT_THROW(b.add_edge(0, 1, -0.1), InvalidArgument);
}

TEST(GraphBuilderTest, SetProbAndEdgeAt) {
  GraphBuilder b(3);
  b.add_edge(2, 0, 0.5);
  const EdgeEndpoints ep = b.edge_at(0);
  EXPECT_EQ(ep.lo, 0u);
  EXPECT_EQ(ep.hi, 2u);
  b.set_prob(0, 0.125);
  const Graph g = b.build();
  EXPECT_DOUBLE_EQ(g.edge_prob(0), 0.125);
  EXPECT_THROW(b.set_prob(0, 2.0), InvalidArgument);
}

TEST(GraphTest, FromCsrRoundTripsRawArrays) {
  const Graph g = triangle_plus_tail();
  const Graph h = Graph::from_csr(
      g.num_nodes(), {g.raw_offsets().begin(), g.raw_offsets().end()},
      {g.raw_adjacency().begin(), g.raw_adjacency().end()},
      {g.raw_probs().begin(), g.raw_probs().end()},
      {g.raw_endpoints().begin(), g.raw_endpoints().end()});
  EXPECT_EQ(h.num_nodes(), g.num_nodes());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  EXPECT_EQ(h.degree(2), g.degree(2));
}

TEST(GraphTest, FromCsrRejectsOffsetsPastTheSlotSpace) {
  const Graph g = triangle_plus_tail();
  std::vector<std::size_t> offsets(g.raw_offsets().begin(),
                                   g.raw_offsets().end());
  // Row 0 passes the pairwise begin <= end check, so the per-row upper
  // bound must fire before the scan ever indexes adjacency.
  offsets[1] = 1u << 20;
  EXPECT_THROW(
      Graph::from_csr(g.num_nodes(), offsets,
                      {g.raw_adjacency().begin(), g.raw_adjacency().end()},
                      {g.raw_probs().begin(), g.raw_probs().end()},
                      {g.raw_endpoints().begin(), g.raw_endpoints().end()}),
      InvalidArgument);
}

TEST(GraphTest, AdjacencyIsSortedAndSymmetric) {
  const Graph g = triangle_plus_tail();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto adj = g.neighbors(v);
    for (std::size_t i = 1; i < adj.size(); ++i) {
      EXPECT_LT(adj[i - 1].node, adj[i].node);
    }
    for (const Neighbor& nb : adj) {
      // Mirror entry exists and shares the edge id.
      const auto mirror = g.find_edge(nb.node, v);
      ASSERT_TRUE(mirror.has_value());
      EXPECT_EQ(*mirror, nb.edge);
    }
  }
}

TEST(GraphTest, FindEdgeAndProb) {
  const Graph g = triangle_plus_tail();
  const auto e = g.find_edge(1, 2);
  ASSERT_TRUE(e.has_value());
  EXPECT_DOUBLE_EQ(g.edge_prob(*e), 0.25);
  EXPECT_FALSE(g.find_edge(0, 3).has_value());
  EXPECT_FALSE(g.find_edge(4, 0).has_value());
  EXPECT_TRUE(g.has_edge(2, 0));
}

TEST(GraphTest, EndpointsNormalized) {
  const Graph g = triangle_plus_tail();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_LT(g.endpoints(e).lo, g.endpoints(e).hi);
  }
}

TEST(GraphTest, ExpectedDegree) {
  const Graph g = triangle_plus_tail();
  EXPECT_DOUBLE_EQ(g.expected_degree(0), 1.5);   // 0.5 + 1.0
  EXPECT_DOUBLE_EQ(g.expected_degree(2), 2.0);   // 0.25 + 1.0 + 0.75
  EXPECT_DOUBLE_EQ(g.expected_degree(4), 0.0);
  EXPECT_DOUBLE_EQ(g.expected_num_edges(), 2.5);
}

TEST(GraphTest, EmptyGraph) {
  const Graph g;
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

// ------------------------------------------------------------- algorithms ----

TEST(AlgorithmsTest, BfsDistances) {
  const Graph g = triangle_plus_tail();
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], 1u);
  EXPECT_EQ(dist[3], 2u);
  EXPECT_EQ(dist[4], kUnreachable);
}

TEST(AlgorithmsTest, ConnectedComponents) {
  const Graph g = triangle_plus_tail();
  const Components comps = connected_components(g);
  EXPECT_EQ(comps.count, 2u);
  EXPECT_EQ(comps.label[0], comps.label[3]);
  EXPECT_NE(comps.label[0], comps.label[4]);
}

TEST(AlgorithmsTest, LargestComponent) {
  const Graph g = triangle_plus_tail();
  const auto lc = largest_component(g);
  EXPECT_EQ(lc, (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(AlgorithmsTest, InducedSubgraphKeepsProbs) {
  const Graph g = triangle_plus_tail();
  const auto sub = induced_subgraph(g, {0, 2, 3});
  EXPECT_EQ(sub.graph.num_nodes(), 3u);
  EXPECT_EQ(sub.graph.num_edges(), 2u);  // (0,2) and (2,3)
  const auto e02 = sub.graph.find_edge(0, 1);  // relabeled 2 -> 1
  ASSERT_TRUE(e02.has_value());
  EXPECT_DOUBLE_EQ(sub.graph.edge_prob(*e02), 1.0);
  const auto e23 = sub.graph.find_edge(1, 2);
  ASSERT_TRUE(e23.has_value());
  EXPECT_DOUBLE_EQ(sub.graph.edge_prob(*e23), 0.75);
  EXPECT_EQ(sub.original_id, (std::vector<NodeId>{0, 2, 3}));
}

TEST(AlgorithmsTest, DegreeStats) {
  const Graph g = triangle_plus_tail();
  const DegreeStats stats = degree_stats(g);
  EXPECT_EQ(stats.min, 0u);
  EXPECT_EQ(stats.max, 3u);
  EXPECT_DOUBLE_EQ(stats.mean, 8.0 / 5.0);
  EXPECT_DOUBLE_EQ(stats.median, 2.0);  // degrees 0,1,2,2,3
}

TEST(AlgorithmsTest, DegreeWindowFraction) {
  const Graph g = triangle_plus_tail();
  EXPECT_DOUBLE_EQ(degree_window_fraction(g, 2, 3), 0.6);
  EXPECT_DOUBLE_EQ(degree_window_fraction(g, 5, 9), 0.0);
}

TEST(AlgorithmsTest, TrianglesAt) {
  const Graph g = triangle_plus_tail();
  EXPECT_EQ(triangles_at(g, 0), 1u);
  EXPECT_EQ(triangles_at(g, 2), 1u);
  EXPECT_EQ(triangles_at(g, 3), 0u);
}

TEST(AlgorithmsTest, ClusteringCoefficientExactOnSmall) {
  const Graph g = triangle_plus_tail();
  util::Rng rng(1);
  // Eligible: 0 (C=1), 1 (C=1), 2 (C=1/3).  Average = 7/9.
  EXPECT_NEAR(clustering_coefficient(g, 100, rng), 7.0 / 9.0, 1e-12);
}

TEST(AlgorithmsTest, CoreNumbers) {
  // A 4-clique with a pendant vertex: clique nodes have core 3, pendant 1.
  GraphBuilder b(5);
  for (NodeId u = 0; u < 4; ++u) {
    for (NodeId v = u + 1; v < 4; ++v) b.add_edge(u, v);
  }
  b.add_edge(3, 4);
  const auto core = core_numbers(b.build());
  EXPECT_EQ(core[0], 3u);
  EXPECT_EQ(core[1], 3u);
  EXPECT_EQ(core[2], 3u);
  EXPECT_EQ(core[3], 3u);
  EXPECT_EQ(core[4], 1u);
}

TEST(AlgorithmsTest, CoreNumbersPath) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  const auto core = core_numbers(b.build());
  for (const auto c : core) EXPECT_EQ(c, 1u);
}

// --------------------------------------------------------------------- io ----

TEST(IoTest, RoundTripPreservesEverything) {
  const Graph g = triangle_plus_tail();
  std::stringstream buffer;
  write_edge_list(g, buffer);
  const Graph back = read_edge_list(buffer);
  ASSERT_EQ(back.num_nodes(), g.num_nodes());
  ASSERT_EQ(back.num_edges(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const EdgeEndpoints ep = g.endpoints(e);
    const auto mirrored = back.find_edge(ep.lo, ep.hi);
    ASSERT_TRUE(mirrored.has_value());
    EXPECT_DOUBLE_EQ(back.edge_prob(*mirrored), g.edge_prob(e));
  }
}

TEST(IoTest, ReadsSnapStyleListWithoutHeader) {
  std::stringstream in("0 1\n1 2\n2 2\n1 0\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);  // self-loop and duplicate dropped
  EXPECT_DOUBLE_EQ(g.edge_prob(0), 1.0);
}

TEST(IoTest, RejectsMalformedLine) {
  std::stringstream in("0 x\n");
  EXPECT_THROW(read_edge_list(in), IoError);
}

TEST(IoTest, RejectsBadProbability) {
  std::stringstream in("0 1 1.5\n");
  EXPECT_THROW(read_edge_list(in), IoError);
}

TEST(IoTest, RejectsEndpointBeyondDeclaredCount) {
  std::stringstream in("# accu-graph nodes=2 edges=1\n0 5 0.5\n");
  EXPECT_THROW(read_edge_list(in), IoError);
}

TEST(IoTest, FileRoundTrip) {
  const Graph g = triangle_plus_tail();
  const std::string path = testdirs::test_path("accu_io_test.edges");
  write_edge_list_file(g, path);
  const Graph back = read_edge_list_file(path);
  EXPECT_EQ(back.num_nodes(), g.num_nodes());
  EXPECT_EQ(back.num_edges(), g.num_edges());
}

TEST(IoTest, MissingFileThrows) {
  EXPECT_THROW(read_edge_list_file("/nonexistent/definitely/missing"),
               IoError);
}

}  // namespace
}  // namespace accu::graph
