#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "graph/canonical.h"
#include "graph/csr.h"
#include "graph/datasets.h"
#include "graph/isomorphism.h"
#include "graph/pattern.h"

namespace gpm::graph {
namespace {

// The Fig. 2 style toy graph: a labeled graph with a few triangles.
Graph ToyGraph() {
  // 0-1, 0-2, 1-2 (triangle), 1-3, 2-3 (second triangle), 3-4
  Graph g = Graph::FromEdges(5, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3},
                                 {3, 4}});
  g.SetLabels({0, 1, 2, 0, 1});
  return g;
}

TEST(CsrTest, BasicCounts) {
  Graph g = ToyGraph();
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 6u);
  EXPECT_EQ(g.num_arcs(), 12u);
  EXPECT_EQ(g.degree(3), 3u);
  EXPECT_EQ(g.max_degree(), 3u);
}

TEST(CsrTest, NeighborsSortedAndSymmetric) {
  Graph g = ToyGraph();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    auto nbrs = g.neighbors(v);
    EXPECT_EQ(std::adjacent_find(nbrs.begin(), nbrs.end(),
                                 std::greater_equal<>()),
              nbrs.end());
    for (VertexId u : nbrs) {
      EXPECT_TRUE(g.HasEdge(u, v));
      EXPECT_TRUE(g.HasEdge(v, u));
    }
  }
}

TEST(CsrTest, RemovesDuplicatesAndSelfLoops) {
  Graph g = Graph::FromEdges(3, {{0, 1}, {1, 0}, {0, 1}, {2, 2}});
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_FALSE(g.HasEdge(2, 2));
}

TEST(CsrTest, HasEdge) {
  Graph g = ToyGraph();
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(2, 3));
  EXPECT_FALSE(g.HasEdge(0, 3));
  EXPECT_FALSE(g.HasEdge(0, 4));
}

TEST(CsrTest, EdgeIndexRoundTrips) {
  Graph g = ToyGraph();
  g.EnsureEdgeIndex();
  ASSERT_EQ(g.edge_list().size(), 6u);
  for (EdgeId e = 0; e < g.edge_list().size(); ++e) {
    const Edge& ed = g.edge_list()[e];
    EXPECT_LT(ed.u, ed.v);
    EXPECT_EQ(g.FindEdgeId(ed.u, ed.v), e);
    EXPECT_EQ(g.FindEdgeId(ed.v, ed.u), e);
  }
  EXPECT_EQ(g.FindEdgeId(0, 4), Graph::kInvalidEdge);
}

TEST(CsrTest, IncidentEdgesCoverDegree) {
  Graph g = ToyGraph();
  g.EnsureEdgeIndex();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(g.incident_edges(v).size(), g.degree(v));
    for (EdgeId e : g.incident_edges(v)) {
      const Edge& ed = g.edge_list()[e];
      EXPECT_TRUE(ed.u == v || ed.v == v);
    }
  }
}

// Per-arc edge ids on the toy graph and the dataset proxies: v's ids are
// its incident-edge list, and the id at arc i names the edge {v, col[i]}.
TEST(CsrTest, ArcEdgeIdsAligned) {
  std::vector<std::pair<std::string, Graph>> graphs;
  graphs.emplace_back("toy", ToyGraph());
  for (const char* name : {"ER", "CL", "CP"}) {
    graphs.emplace_back(name, MakeDataset(name));
  }
  for (auto& [name, g] : graphs) {
    SCOPED_TRACE(name);
    g.EnsureEdgeIndex();
    ASSERT_EQ(g.arc_edge_ids().size(), g.num_arcs());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      auto nbrs = g.neighbors(v);
      auto eids = g.neighbor_edge_ids(v);
      ASSERT_EQ(nbrs.size(), eids.size());
      ASSERT_TRUE(std::ranges::equal(eids, g.incident_edges(v)));
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        Edge expected{std::min(v, nbrs[i]), std::max(v, nbrs[i])};
        ASSERT_EQ(g.edge_list()[eids[i]], expected)
            << "v=" << v << " i=" << i;
      }
    }
  }
}

TEST(PatternTest, CannedShapes) {
  EXPECT_EQ(Pattern::Triangle().num_edges(), 3);
  EXPECT_EQ(Pattern::Clique(5).num_edges(), 10);
  EXPECT_EQ(Pattern::Path(4).num_edges(), 3);
  EXPECT_EQ(Pattern::Cycle(5).num_edges(), 5);
  EXPECT_EQ(Pattern::Star(4).num_edges(), 4);
  EXPECT_EQ(Pattern::Diamond().num_edges(), 5);
}

TEST(PatternTest, Automorphisms) {
  EXPECT_EQ(Pattern::Triangle().CountAutomorphisms(), 6);
  EXPECT_EQ(Pattern::Clique(4).CountAutomorphisms(), 24);
  EXPECT_EQ(Pattern::Path(3).CountAutomorphisms(), 2);
  EXPECT_EQ(Pattern::Cycle(4).CountAutomorphisms(), 8);
  EXPECT_EQ(Pattern::Star(3).CountAutomorphisms(), 6);
}

TEST(PatternTest, LabelsBreakAutomorphisms) {
  Pattern p = Pattern::Triangle();
  p.SetLabel(0, 0);
  p.SetLabel(1, 1);
  p.SetLabel(2, 2);
  EXPECT_EQ(p.CountAutomorphisms(), 1);
}

TEST(PatternTest, MatchingOrderConnected) {
  for (const Pattern& p :
       {Pattern::Triangle(), Pattern::Path(4), Pattern::Diamond(),
        Pattern::Star(4), Pattern::Cycle(5), Pattern::Clique(4)}) {
    EXPECT_TRUE(p.ConnectedPrefix(p.DefaultMatchingOrder()))
        << p.DebugString();
  }
}

TEST(PatternTest, SmQueriesMatchFig13Shapes) {
  Pattern q1 = Pattern::SmQuery(1, 4);
  Pattern q2 = Pattern::SmQuery(2, 4);
  Pattern q3 = Pattern::SmQuery(3, 4);
  EXPECT_EQ(q1.num_vertices(), 3);
  EXPECT_EQ(q1.num_edges(), 3);
  EXPECT_EQ(q2.num_vertices(), 4);
  EXPECT_EQ(q2.num_edges(), 4);
  EXPECT_EQ(q3.num_vertices(), 4);
  EXPECT_EQ(q3.num_edges(), 5);
  EXPECT_TRUE(q1.labeled());
}

TEST(CanonicalTest, IsomorphicPatternsShareCode) {
  Pattern a = Pattern::Path(3);  // 0-1-2
  Pattern b(3);                  // 1-0, 0-2: same path renumbered
  b.AddEdge(1, 0);
  b.AddEdge(0, 2);
  EXPECT_EQ(CanonicalCode(a), CanonicalCode(b));
  EXPECT_EQ(CanonicalEncoding(a), CanonicalEncoding(b));
}

TEST(CanonicalTest, DifferentShapesDiffer) {
  EXPECT_NE(CanonicalCode(Pattern::Path(3)),
            CanonicalCode(Pattern::Triangle()));
  EXPECT_NE(CanonicalCode(Pattern::Path(4)),
            CanonicalCode(Pattern::Star(3)));
  EXPECT_NE(CanonicalCode(Pattern::Diamond()),
            CanonicalCode(Pattern::Cycle(4)));
}

TEST(CanonicalTest, LabelsDistinguish) {
  Pattern a = Pattern::Path(3);
  Pattern b = Pattern::Path(3);
  a.SetLabel(0, 1);
  b.SetLabel(2, 1);  // symmetric position: still isomorphic
  EXPECT_EQ(CanonicalCode(a), CanonicalCode(b));
  Pattern c = Pattern::Path(3);
  c.SetLabel(1, 1);  // center labeled: different
  EXPECT_NE(CanonicalCode(a), CanonicalCode(c));
}

TEST(CanonicalTest, CacheAgreesWithDirect) {
  CanonicalCache cache;
  for (const Pattern& p :
       {Pattern::Triangle(), Pattern::Path(4), Pattern::Diamond()}) {
    EXPECT_EQ(cache.Get(p), CanonicalCode(p));
  }
  EXPECT_EQ(cache.size(), 3u);
}

TEST(CanonicalTest, CacheKeysByExactPattern) {
  CanonicalCache cache;
  const Pattern path = Pattern::Path(3);  // 0-1-2, center 1
  const Pattern renumbered = path.Permuted({1, 0, 2});  // center 0
  ASSERT_FALSE(path == renumbered);
  EXPECT_EQ(cache.Get(path), cache.Get(renumbered));
  EXPECT_EQ(cache.size(), 2u);  // one entry per numbering
  // The same pattern built another way is the same key.
  auto parsed = ParsePattern("0-1,1-2");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().Hash(), path.Hash());
  ASSERT_NE(cache.Find(parsed.value()), nullptr);
  EXPECT_EQ(*cache.Find(parsed.value()), CanonicalCode(path));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(IsomorphismTest, TriangleCountOnToy) {
  Graph g = ToyGraph();
  // Triangles: {0,1,2} and {1,2,3}.
  EXPECT_EQ(CountInstances(g, Pattern::Triangle()), 2u);
  EXPECT_EQ(CountEmbeddings(g, Pattern::Triangle()), 12u);
}

TEST(IsomorphismTest, LabeledMatch) {
  Graph g = ToyGraph();
  Pattern q = Pattern::Triangle();
  q.SetLabel(0, 0);
  q.SetLabel(1, 1);
  q.SetLabel(2, 2);
  // Two labeled triangles: {0,1,2} and {3,1,2} (labels 0,1,2 each), one
  // embedding apiece since the labels break every automorphism.
  EXPECT_EQ(CountEmbeddings(g, q), 2u);
}

TEST(IsomorphismTest, IsEmbeddingValidation) {
  Graph g = ToyGraph();
  EXPECT_TRUE(IsEmbedding(g, Pattern::Triangle(), {0, 1, 2}));
  EXPECT_FALSE(IsEmbedding(g, Pattern::Triangle(), {0, 1, 3}));  // 0-3 absent
  EXPECT_FALSE(IsEmbedding(g, Pattern::Triangle(), {0, 1, 1}));  // not injective
}

TEST(IsomorphismTest, EnumerateMatchesCount) {
  Graph g = ToyGraph();
  std::vector<std::vector<VertexId>> embeddings;
  EnumerateEmbeddings(g, Pattern::Path(3), &embeddings);
  EXPECT_EQ(embeddings.size(), CountEmbeddings(g, Pattern::Path(3)));
  for (const auto& e : embeddings) {
    EXPECT_TRUE(IsEmbedding(g, Pattern::Path(3), e));
  }
}

TEST(IsomorphismTest, PatternOfVerticesInduced) {
  Graph g = ToyGraph();
  const std::vector<VertexId> tri{0, 1, 2}, wedge{0, 1, 3};
  Pattern p = PatternOfVertices(g, tri, /*use_labels=*/false);
  EXPECT_EQ(CanonicalCode(p), CanonicalCode(Pattern::Triangle()));
  Pattern q = PatternOfVertices(g, wedge, false);
  EXPECT_EQ(q.num_edges(), 2);  // wedge 0-1, 1-3
}

TEST(IsomorphismTest, PatternOfEdges) {
  Graph g = ToyGraph();
  g.EnsureEdgeIndex();
  EdgeId e01 = g.FindEdgeId(0, 1);
  EdgeId e12 = g.FindEdgeId(1, 2);
  const std::vector<EdgeId> edges{e01, e12};
  Pattern p = PatternOfEdges(g, edges, false);
  EXPECT_EQ(CanonicalCode(p), CanonicalCode(Pattern::Path(3)));
}

TEST(ParsePatternTest, EdgesOnly) {
  auto p = ParsePattern("0-1,1-2,2-0");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(CanonicalCode(p.value()), CanonicalCode(Pattern::Triangle()));
  EXPECT_FALSE(p.value().labeled());
}

TEST(ParsePatternTest, WithLabelsAndWildcard) {
  auto p = ParsePattern("0-1,1-2;labels=5,*,7");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().label(0), 5u);
  EXPECT_EQ(p.value().label(1), Pattern::kAnyLabel);
  EXPECT_EQ(p.value().label(2), 7u);
}

TEST(ParsePatternTest, RoundTripsCannedShapes) {
  auto diamond = ParsePattern("0-1,1-2,2-3,3-0,0-2");
  ASSERT_TRUE(diamond.ok());
  EXPECT_EQ(CanonicalCode(diamond.value()),
            CanonicalCode(Pattern::Diamond()));
}

TEST(ParsePatternTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParsePattern("").ok());
  EXPECT_FALSE(ParsePattern("01").ok());
  EXPECT_FALSE(ParsePattern("0-x").ok());
  EXPECT_FALSE(ParsePattern("0-0").ok());            // self loop
  EXPECT_FALSE(ParsePattern("0-9").ok());            // out of range
  EXPECT_FALSE(ParsePattern("0-1;labels=1").ok());   // label count
  EXPECT_FALSE(ParsePattern("0-1;lbl=1,2").ok());    // bad suffix
  EXPECT_FALSE(ParsePattern("0-1;labels=1,2,3").ok());
}

TEST(GraphTest, StorageBytesReasonable) {
  Graph g = ToyGraph();
  // row_ptr (6x8) + col (12x4) + labels (5x4) = 116 before edge index.
  EXPECT_EQ(g.StorageBytes(), 116u);
}

}  // namespace
}  // namespace gpm::graph
