// Graph/GraphBuilder: CSR invariants, dedup, induced subgraphs with
// mapping composition, and Validate().
#include "src/graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <utility>
#include <vector>

namespace grgad {
namespace {

Graph TriangleWithTail() {
  // 0-1-2 triangle, 2-3 tail.
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  b.AddEdge(2, 3);
  return b.Build();
}

TEST(GraphBuilderTest, DedupsAndDropsSelfLoops) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);  // Duplicate (reversed).
  b.AddEdge(0, 1);  // Duplicate.
  b.AddEdge(2, 2);  // Self-loop.
  EXPECT_EQ(b.num_edges(), 1);
  Graph g = b.Build();
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_TRUE(g.Validate().ok());
}

TEST(GraphBuilderTest, HasEdgeQueries) {
  GraphBuilder b(3);
  b.AddEdge(0, 2);
  EXPECT_TRUE(b.HasEdge(0, 2));
  EXPECT_TRUE(b.HasEdge(2, 0));
  EXPECT_FALSE(b.HasEdge(0, 1));
  EXPECT_FALSE(b.HasEdge(1, 1));
}

/// Drives a GraphBuilder and a std::set oracle with the same edges and
/// checks every answer the builder gives against the oracle.
class BuilderOracle {
 public:
  explicit BuilderOracle(int n) : n_(n), builder_(n) {}

  void Add(int u, int v) {
    builder_.AddEdge(u, v);
    if (u != v) edges_.emplace(std::min(u, v), std::max(u, v));
  }

  /// Every pair, both orientations, self-loops included.
  void ExpectAllQueriesMatch() {
    for (int u = 0; u < n_; ++u) {
      for (int v = 0; v < n_; ++v) {
        ASSERT_EQ(builder_.HasEdge(u, v),
                  u != v && edges_.count({std::min(u, v), std::max(u, v)}))
            << u << "," << v;
      }
    }
  }

  void ExpectBuildMatches() {
    EXPECT_EQ(builder_.num_edges(), static_cast<int>(edges_.size()));
    const Graph g = builder_.Build();
    EXPECT_TRUE(g.Validate().ok());
    const std::vector<std::pair<int, int>> expected(edges_.begin(),
                                                    edges_.end());
    EXPECT_EQ(g.Edges(), expected);
  }

  GraphBuilder& builder() { return builder_; }
  size_t size() const { return edges_.size(); }

 private:
  int n_;
  GraphBuilder builder_;
  std::set<std::pair<int, int>> edges_;
};

TEST(GraphBuilderTest, ShortTailAnswersFromTheUnsortedEdges) {
  // A handful of edges: nothing is merged yet, so duplicates, reversed
  // pairs and self-loops all sit in the tail.
  BuilderOracle oracle(6);
  oracle.Add(4, 1);
  oracle.ExpectAllQueriesMatch();
  oracle.Add(1, 4);  // Reversed duplicate.
  oracle.Add(2, 2);  // Self-loop.
  oracle.Add(0, 5);
  oracle.Add(0, 5);  // Plain duplicate.
  oracle.ExpectAllQueriesMatch();
  EXPECT_EQ(oracle.builder().num_edges(), 2);
  oracle.Add(3, 0);  // After num_edges() merged the tail.
  oracle.ExpectAllQueriesMatch();
  oracle.ExpectBuildMatches();
}

TEST(GraphBuilderTest, InterleavedQueriesMatchSetOracle) {
  // Enough random edges on a small node set to pass the merge length many
  // times over, with duplicates of merged and unmerged edges, reversed
  // pairs and self-loops throughout.
  constexpr int kNodes = 48;
  BuilderOracle oracle(kNodes);
  std::mt19937 rng(20240521);
  std::uniform_int_distribution<int> node(0, kNodes - 1);
  for (int step = 1; step <= 1500; ++step) {
    const int u = node(rng);
    const int v = step % 11 == 0 ? u : node(rng);
    oracle.Add(u, v);
    const int a = node(rng);
    const int b = node(rng);
    ASSERT_EQ(oracle.builder().HasEdge(a, b), oracle.builder().HasEdge(b, a));
    if (step % 97 == 0) oracle.ExpectAllQueriesMatch();
    if (step % 211 == 0) {
      ASSERT_EQ(oracle.builder().num_edges(), static_cast<int>(oracle.size()));
    }
  }
  oracle.ExpectAllQueriesMatch();
  oracle.ExpectBuildMatches();
}

TEST(GraphBuilderTest, BuildLeavesTheBuilderReusable) {
  BuilderOracle oracle(30);
  for (int v = 1; v < 30; ++v) oracle.Add(0, v);
  oracle.ExpectBuildMatches();
  // Keep adding after Build: a star's edges again (all duplicates), then a
  // path, crossing the merge length on the way.
  for (int v = 29; v >= 1; --v) oracle.Add(v, 0);
  for (int round = 0; round < 4; ++round) {
    for (int v = 1; v + 1 < 30; ++v) oracle.Add(v + 1, v);
  }
  oracle.ExpectAllQueriesMatch();
  oracle.ExpectBuildMatches();
  oracle.ExpectBuildMatches();  // Building twice gives the same graph.
}

TEST(GraphTest, NeighborsSortedAndSymmetric) {
  Graph g = TriangleWithTail();
  EXPECT_EQ(g.num_nodes(), 4);
  EXPECT_EQ(g.num_edges(), 4);
  auto nb = g.Neighbors(2);
  EXPECT_EQ(std::vector<int>(nb.begin(), nb.end()),
            (std::vector<int>{0, 1, 3}));
  EXPECT_EQ(g.Degree(2), 3);
  EXPECT_EQ(g.Degree(3), 1);
  EXPECT_TRUE(g.HasEdge(3, 2));
  EXPECT_FALSE(g.HasEdge(3, 0));
  EXPECT_FALSE(g.HasEdge(-1, 0));
  EXPECT_FALSE(g.HasEdge(0, 99));
  EXPECT_TRUE(g.Validate().ok());
}

TEST(GraphTest, EdgesListsEachOnce) {
  Graph g = TriangleWithTail();
  const auto edges = g.Edges();
  EXPECT_EQ(edges.size(), 4u);
  for (const auto& [u, v] : edges) EXPECT_LT(u, v);
}

TEST(GraphTest, AttributesAttachAndValidate) {
  GraphBuilder b(2);
  b.AddEdge(0, 1);
  Matrix x = Matrix::FromRows({{1.0, 2.0}, {3.0, 4.0}});
  Graph g = b.Build(x);
  EXPECT_TRUE(g.has_attributes());
  EXPECT_EQ(g.attr_dim(), 2u);
  EXPECT_DOUBLE_EQ(g.attributes()(1, 0), 3.0);
  Matrix y = Matrix::FromRows({{9.0, 9.0}, {8.0, 8.0}});
  g.SetAttributes(y);
  EXPECT_DOUBLE_EQ(g.attributes()(0, 0), 9.0);
  EXPECT_TRUE(g.Validate().ok());
}

TEST(GraphTest, InducedSubgraphBasics) {
  Graph g = TriangleWithTail();
  Matrix x(4, 1);
  for (int i = 0; i < 4; ++i) x(i, 0) = i * 10.0;
  g.SetAttributes(x);
  Graph sub = g.InducedSubgraph({2, 0, 1});
  EXPECT_EQ(sub.num_nodes(), 3);
  EXPECT_EQ(sub.num_edges(), 3);  // The triangle.
  EXPECT_EQ(sub.mapping(), (std::vector<int>{2, 0, 1}));
  EXPECT_DOUBLE_EQ(sub.attributes()(0, 0), 20.0);
  EXPECT_TRUE(sub.Validate().ok());
}

TEST(GraphTest, InducedSubgraphDedupsInput) {
  Graph g = TriangleWithTail();
  Graph sub = g.InducedSubgraph({3, 3, 2, 3});
  EXPECT_EQ(sub.num_nodes(), 2);
  EXPECT_EQ(sub.num_edges(), 1);
  EXPECT_EQ(sub.mapping(), (std::vector<int>{3, 2}));
}

TEST(GraphTest, NestedInducedSubgraphComposesMapping) {
  Graph g = TriangleWithTail();
  Graph sub = g.InducedSubgraph({1, 2, 3});  // local: 0->1, 1->2, 2->3
  Graph subsub = sub.InducedSubgraph({1, 2});
  EXPECT_EQ(subsub.mapping(), (std::vector<int>{2, 3}));
  EXPECT_EQ(subsub.num_edges(), 1);
}

TEST(GraphTest, EmptyGraph) {
  Graph g = GraphBuilder(0).Build();
  EXPECT_EQ(g.num_nodes(), 0);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_TRUE(g.Validate().ok());
  Graph single = GraphBuilder(1).Build();
  EXPECT_EQ(single.Degree(0), 0);
  EXPECT_TRUE(single.Neighbors(0).empty());
}

TEST(GraphTest, DisconnectedNodesSurvive) {
  GraphBuilder b(5);
  b.AddEdge(0, 4);
  Graph g = b.Build();
  EXPECT_EQ(g.num_nodes(), 5);
  EXPECT_EQ(g.Degree(2), 0);
  EXPECT_TRUE(g.Validate().ok());
}

}  // namespace
}  // namespace grgad
