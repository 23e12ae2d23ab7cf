#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/extension.h"
#include "core/gamma.h"
#include "graph/generators.h"
#include "graph/isomorphism.h"

namespace gpm::core {
namespace {

gpusim::SimParams TestParams() {
  gpusim::SimParams p;
  p.device_memory_bytes = 8 << 20;
  p.um_device_buffer_bytes = 1 << 20;
  return p;
}

graph::Graph Toy() {
  // Two triangles sharing edge 1-2 plus a tail.
  graph::Graph g = graph::Graph::FromEdges(
      5, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}, {3, 4}});
  g.SetLabels({0, 1, 2, 0, 1});
  g.EnsureEdgeIndex();
  return g;
}

// Runs one wedge->triangle style extension over all strategy combinations
// and returns the sorted embeddings.
std::multiset<std::vector<Unit>> ExtendAllVertices(
    const graph::Graph& g, WriteStrategy strategy, bool pre_merge,
    int steps, bool ascending) {
  gpusim::Device device(TestParams());
  GammaOptions options;
  options.extension.write_strategy = strategy;
  options.extension.pre_merge = pre_merge;
  GammaEngine engine(&device, &g, options);
  EXPECT_TRUE(engine.Prepare().ok());
  auto t = engine.InitVertexTable();
  EXPECT_TRUE(t.ok());
  for (int s = 0; s < steps; ++s) {
    VertexExtensionSpec spec;
    for (int j = 0; j <= s; ++j) spec.intersect_positions.push_back(j);
    spec.require_ascending = ascending;
    auto r = engine.VertexExtension(t.value().get(), spec);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
  std::multiset<std::vector<Unit>> out;
  for (auto& e : t.value()->Materialize()) out.insert(e);
  return out;
}

TEST(VertexExtensionTest, TriangleClosureMatchesOracle) {
  graph::Graph g = Toy();
  auto embeddings = ExtendAllVertices(g, WriteStrategy::kDynamicAlloc,
                                      true, 2, /*ascending=*/true);
  // Ascending triangles: {0,1,2} and {1,2,3}.
  EXPECT_EQ(embeddings.size(), 2u);
  EXPECT_TRUE(embeddings.count({0, 1, 2}));
  EXPECT_TRUE(embeddings.count({1, 2, 3}));
}

TEST(VertexExtensionTest, AllStrategiesAgree) {
  Rng rng(17);
  graph::Graph g = graph::ErdosRenyi(60, 240, &rng);
  auto expected = ExtendAllVertices(g, WriteStrategy::kDynamicAlloc, true,
                                    2, true);
  for (WriteStrategy s :
       {WriteStrategy::kNaiveTwoPass, WriteStrategy::kPreAlloc,
        WriteStrategy::kDynamicAlloc}) {
    for (bool pm : {false, true}) {
      auto got = ExtendAllVertices(g, s, pm, 2, true);
      EXPECT_EQ(got, expected)
          << WriteStrategyName(s) << " pre_merge=" << pm;
    }
  }
}

TEST(VertexExtensionTest, InjectivityEnforced) {
  graph::Graph g = Toy();
  gpusim::Device device(TestParams());
  GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  auto t = engine.InitVertexTable();
  ASSERT_TRUE(t.ok());
  VertexExtensionSpec spec;  // union mode: all neighbors
  ASSERT_TRUE(engine.VertexExtension(t.value().get(), spec).ok());
  ASSERT_TRUE(engine.VertexExtension(t.value().get(), spec).ok());
  for (const auto& emb : t.value()->Materialize()) {
    std::set<Unit> uniq(emb.begin(), emb.end());
    EXPECT_EQ(uniq.size(), emb.size());
  }
}

TEST(VertexExtensionTest, UnionModeMatchesDefinition31) {
  // Ext_v(M) = neighbors of any vertex of M, minus V(M).
  graph::Graph g = Toy();
  gpusim::Device device(TestParams());
  GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  auto t = engine.InitVertexTable();
  ASSERT_TRUE(t.ok());
  VertexExtensionSpec spec;
  ASSERT_TRUE(engine.VertexExtension(t.value().get(), spec).ok());
  std::multiset<std::vector<Unit>> got;
  for (auto& e : t.value()->Materialize()) got.insert(e);
  std::multiset<std::vector<Unit>> expected;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    for (graph::VertexId u : g.neighbors(v)) {
      expected.insert({v, u});
    }
  }
  EXPECT_EQ(got, expected);
}

TEST(VertexExtensionTest, LabelFilterApplied) {
  graph::Graph g = Toy();
  gpusim::Device device(TestParams());
  GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  auto t = engine.InitVertexTable();
  ASSERT_TRUE(t.ok());
  VertexExtensionSpec spec;
  spec.intersect_positions = {0};
  spec.candidate_label = 1;  // vertices 1 and 4
  ASSERT_TRUE(engine.VertexExtension(t.value().get(), spec).ok());
  for (const auto& emb : t.value()->Materialize()) {
    EXPECT_EQ(g.label(emb[1]), 1u);
  }
}

TEST(VertexExtensionTest, PostFilterApplied) {
  graph::Graph g = Toy();
  gpusim::Device device(TestParams());
  GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  auto t = engine.InitVertexTable();
  ASSERT_TRUE(t.ok());
  VertexExtensionSpec spec;
  spec.intersect_positions = {0};
  spec.post_filter = [](std::span<const Unit>, Unit cand) {
    return cand % 2 == 0;
  };
  ASSERT_TRUE(engine.VertexExtension(t.value().get(), spec).ok());
  for (const auto& emb : t.value()->Materialize()) {
    EXPECT_EQ(emb[1] % 2, 0u);
  }
}

TEST(VertexExtensionTest, PreAllocFailsWhenWorstCaseTooLarge) {
  Rng rng(23);
  graph::Graph g = graph::PowerLaw(2000, 20000, 1.0, &rng);  // big hub
  gpusim::Device device(TestParams());
  GammaOptions options;
  options.extension.write_strategy = WriteStrategy::kPreAlloc;
  options.extension.pool_bytes = 1024;  // < d_max * 8
  GammaEngine engine(&device, &g, options);
  ASSERT_TRUE(engine.Prepare().ok());
  auto t = engine.InitVertexTable();
  ASSERT_TRUE(t.ok());
  VertexExtensionSpec spec;
  spec.intersect_positions = {0};
  auto r = engine.VertexExtension(t.value().get(), spec);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kDeviceOutOfMemory);
}

TEST(VertexExtensionTest, DynamicAllocHandlesPoolOverflow) {
  Rng rng(29);
  graph::Graph g = graph::ErdosRenyi(200, 2000, &rng);
  gpusim::Device device(TestParams());
  GammaOptions options;
  options.extension.pool_bytes = 16 << 10;  // tiny pool forces flushes
  options.extension.block_bytes = 1024;
  GammaEngine engine(&device, &g, options);
  ASSERT_TRUE(engine.Prepare().ok());
  auto t = engine.InitVertexTable();
  ASSERT_TRUE(t.ok());
  VertexExtensionSpec spec;  // union: ~2|E| results >> pool
  auto r = engine.VertexExtension(t.value().get(), spec);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().results, 2 * g.num_edges());
  EXPECT_GT(device.stats().pool_block_requests, 16u);
}

TEST(VertexExtensionTest, StatsPopulated) {
  graph::Graph g = Toy();
  gpusim::Device device(TestParams());
  GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  auto t = engine.InitVertexTable();
  ASSERT_TRUE(t.ok());
  VertexExtensionSpec spec;
  spec.intersect_positions = {0};
  auto r = engine.VertexExtension(t.value().get(), spec);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().input_rows, 5u);
  EXPECT_GT(r.value().candidates, 0u);
  EXPECT_GT(r.value().kernel_cycles, 0.0);
  EXPECT_GE(r.value().chunks, 1u);
}

TEST(EdgeExtensionTest, CanonicalSequencesUnique) {
  graph::Graph g = Toy();
  gpusim::Device device(TestParams());
  GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  auto t = engine.InitEdgeTable();
  ASSERT_TRUE(t.ok());
  EdgeExtensionSpec spec;
  ASSERT_TRUE(engine.EdgeExtension(t.value().get(), spec).ok());
  // Every 2-edge connected subgraph exactly once.
  std::set<std::set<Unit>> seen;
  for (const auto& emb : t.value()->Materialize()) {
    std::set<Unit> s(emb.begin(), emb.end());
    EXPECT_EQ(s.size(), 2u);
    EXPECT_TRUE(seen.insert(s).second) << "duplicate edge set";
  }
  // Count wedges + count... every pair of adjacent edges:
  uint64_t adjacent_pairs = 0;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    uint64_t d = g.degree(v);
    adjacent_pairs += d * (d - 1) / 2;
  }
  EXPECT_EQ(seen.size(), adjacent_pairs);
}

TEST(EdgeExtensionTest, IsCanonicalExtensionBasics) {
  graph::Graph g = Toy();
  // Edge ids: sorted (u,v) pairs: (0,1)=0,(0,2)=1,(1,2)=2,(1,3)=3,(2,3)=4,(3,4)=5
  std::vector<Unit> base{0};
  EXPECT_TRUE(IsCanonicalEdgeExtension(g, base, 1));
  EXPECT_TRUE(IsCanonicalEdgeExtension(g, base, 2));
  // Extending {e1} by e0 is not canonical (e0 < e1 must come first).
  std::vector<Unit> later{1};
  EXPECT_FALSE(IsCanonicalEdgeExtension(g, later, 0));
  // Disconnected extension rejected: {0-1} + {3-4}.
  EXPECT_FALSE(IsCanonicalEdgeExtension(g, base, 5));
}

TEST(EdgeExtensionTest, ThreeEdgeSetsMatchBruteForce) {
  Rng rng(31);
  graph::Graph g = graph::ErdosRenyi(30, 80, &rng);
  g.EnsureEdgeIndex();
  gpusim::Device device(TestParams());
  GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  auto t = engine.InitEdgeTable();
  ASSERT_TRUE(t.ok());
  EdgeExtensionSpec spec;
  ASSERT_TRUE(engine.EdgeExtension(t.value().get(), spec).ok());
  ASSERT_TRUE(engine.EdgeExtension(t.value().get(), spec).ok());
  std::set<std::set<Unit>> got;
  for (const auto& emb : t.value()->Materialize()) {
    got.insert(std::set<Unit>(emb.begin(), emb.end()));
  }
  // Brute force: all connected 3-edge subsets.
  std::set<std::set<Unit>> expected;
  const auto& edges = g.edge_list();
  auto connected = [&](const std::set<Unit>& s) {
    std::vector<graph::EdgeId> list(s.begin(), s.end());
    std::set<graph::VertexId> verts{edges[list[0]].u, edges[list[0]].v};
    bool grew = true;
    std::set<Unit> used{list[0]};
    while (grew) {
      grew = false;
      for (Unit e : list) {
        if (used.count(e)) continue;
        if (verts.count(edges[e].u) || verts.count(edges[e].v)) {
          verts.insert(edges[e].u);
          verts.insert(edges[e].v);
          used.insert(e);
          grew = true;
        }
      }
    }
    return used.size() == s.size();
  };
  for (Unit a = 0; a < edges.size(); ++a) {
    for (Unit b = a + 1; b < edges.size(); ++b) {
      for (Unit c = b + 1; c < edges.size(); ++c) {
        std::set<Unit> s{a, b, c};
        if (connected(s)) expected.insert(s);
      }
    }
  }
  EXPECT_EQ(got, expected);
}

TEST(EdgeExtensionTest, PreMergeEquivalentToPlain) {
  Rng rng(37);
  graph::Graph g = graph::ErdosRenyi(40, 120, &rng);
  g.EnsureEdgeIndex();
  std::multiset<std::vector<Unit>> results[2];
  for (int pm = 0; pm < 2; ++pm) {
    gpusim::Device device(TestParams());
    GammaOptions options;
    options.extension.pre_merge = pm == 1;
    GammaEngine engine(&device, &g, options);
    ASSERT_TRUE(engine.Prepare().ok());
    auto t = engine.InitEdgeTable();
    ASSERT_TRUE(t.ok());
    EdgeExtensionSpec spec;
    ASSERT_TRUE(engine.EdgeExtension(t.value().get(), spec).ok());
    ASSERT_TRUE(engine.EdgeExtension(t.value().get(), spec).ok());
    for (auto& e : t.value()->Materialize()) results[pm].insert(e);
  }
  EXPECT_EQ(results[0], results[1]);
}

// Extends a canonical 2-edge table by one canonical edge and checks the
// emitted (unit, parent) rows, in order, and the counting stats against a
// reference that filters every row's incident edges with
// IsCanonicalEdgeExtension.
TEST(EdgeExtensionTest, CanonicalRowsMatchReference) {
  Rng rng(43);
  for (graph::Graph g : {graph::ErdosRenyi(40, 150, &rng),
                         graph::PowerLaw(80, 300, 0.9, &rng)}) {
    g.EnsureEdgeIndex();
    for (bool pre_merge : {false, true}) {
      gpusim::Device device(TestParams());
      GammaOptions options;
      options.extension.pre_merge = pre_merge;
      GammaEngine engine(&device, &g, options);
      ASSERT_TRUE(engine.Prepare().ok());
      auto t = engine.InitEdgeTable();
      ASSERT_TRUE(t.ok());
      EmbeddingTable* table = t.value().get();
      EdgeExtensionSpec spec;
      spec.canonical_only = true;
      ASSERT_TRUE(engine.EdgeExtension(table, spec).ok());
      const std::vector<std::vector<Unit>> rows = table->Materialize();
      const std::vector<RowIndex> parents =
          table->last_column().parents.host_data();

      std::vector<std::pair<Unit, RowIndex>> want;
      std::size_t candidates = 0;
      for (std::size_t r = 0; r < rows.size(); ++r) {
        std::set<Unit> incident;
        for (Unit e : rows[r]) {
          for (graph::VertexId v : {g.edge_list()[e].u, g.edge_list()[e].v}) {
            for (graph::EdgeId id : g.neighbor_edge_ids(v)) incident.insert(id);
          }
        }
        candidates += incident.size();
        for (Unit e : incident) {
          if (std::find(rows[r].begin(), rows[r].end(), e) != rows[r].end()) {
            continue;
          }
          if (IsCanonicalEdgeExtension(g, rows[r], e)) {
            want.push_back({e, static_cast<RowIndex>(r)});
          }
        }
      }
      // Grouped tasks are runs of one parent, split every 64 rows (four
      // warps' worth of the default 16 rows per warp).
      std::size_t groups = 0;
      for (std::size_t lo = 0; lo < parents.size();) {
        std::size_t hi = lo + 1;
        while (hi < parents.size() && parents[hi] == parents[lo] &&
               hi - lo < 64) {
          ++hi;
        }
        ++groups;
        lo = hi;
      }

      auto stats = engine.EdgeExtension(table, spec);
      ASSERT_TRUE(stats.ok());
      std::vector<std::pair<Unit, RowIndex>> got;
      const auto& last = table->last_column();
      for (std::size_t i = 0; i < last.size(); ++i) {
        got.push_back({last.units.host_data()[i], last.parents.host_data()[i]});
      }
      EXPECT_EQ(got, want) << "pre_merge=" << pre_merge;
      EXPECT_EQ(stats.value().input_rows, rows.size());
      EXPECT_EQ(stats.value().candidates, candidates);
      EXPECT_EQ(stats.value().results, want.size());
      EXPECT_EQ(stats.value().chunks, 1u);
      EXPECT_EQ(stats.value().groups, pre_merge ? groups : 0u);
      EXPECT_GT(groups, 0u);
      EXPECT_LT(groups, rows.size());  // some groups hold several rows
    }
  }
}

TEST(ExtensionTest, ChunkingPreservesResults) {
  Rng rng(41);
  graph::Graph g = graph::ErdosRenyi(100, 500, &rng);
  std::multiset<std::vector<Unit>> big_chunks, small_chunks;
  for (std::size_t chunk : {std::size_t{1} << 16, std::size_t{64}}) {
    gpusim::Device device(TestParams());
    GammaOptions options;
    options.extension.chunk_rows = chunk;
    GammaEngine engine(&device, &g, options);
    ASSERT_TRUE(engine.Prepare().ok());
    auto t = engine.InitVertexTable();
    ASSERT_TRUE(t.ok());
    VertexExtensionSpec spec;
    spec.intersect_positions = {0};
    spec.require_ascending = true;
    ASSERT_TRUE(engine.VertexExtension(t.value().get(), spec).ok());
    auto& sink = chunk == 64 ? small_chunks : big_chunks;
    for (auto& e : t.value()->Materialize()) sink.insert(e);
  }
  EXPECT_EQ(big_chunks, small_chunks);
}

}  // namespace
}  // namespace gpm::core
