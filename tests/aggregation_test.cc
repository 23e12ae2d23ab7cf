#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <vector>

#include "core/aggregation.h"
#include "core/gamma.h"
#include "graph/canonical.h"
#include "graph/generators.h"
#include "graph/isomorphism.h"

namespace gpm::core {
namespace {

gpusim::SimParams TestParams(int host_threads = 1) {
  gpusim::SimParams p;
  p.device_memory_bytes = 8 << 20;
  p.um_device_buffer_bytes = 1 << 20;
  p.host_threads = host_threads;
  return p;
}

graph::Graph Toy() {
  graph::Graph g = graph::Graph::FromEdges(
      5, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}, {3, 4}});
  g.SetLabels({0, 1, 2, 0, 1});
  g.EnsureEdgeIndex();
  return g;
}

TEST(AggregationTest, SingleEdgePatternsByLabelPair) {
  graph::Graph g = Toy();
  gpusim::Device device(TestParams());
  GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  auto t = engine.InitEdgeTable();
  ASSERT_TRUE(t.ok());
  PatternTable pt;
  auto r = engine.Aggregation(*t.value(), &pt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().codes.size(), 6u);
  // Label pairs over edges: (0,1)x2 [0-1,3-4], (0,2)x2 [0-2,3-2], (1,2)x1
  // [1-2], (0,0)x1? 1-3 is labels (1,0) -> (0,1). Recount:
  // edges: 0-1:(0,1) 0-2:(0,2) 1-2:(1,2) 1-3:(1,0) 2-3:(2,0) 3-4:(0,1)
  // => (0,1):3, (0,2):2, (1,2):1 -> 3 distinct patterns.
  EXPECT_EQ(pt.size(), 3u);
  uint64_t total = 0;
  for (const auto& e : pt.entries()) total += e.support;
  EXPECT_EQ(total, 6u);
}

TEST(AggregationTest, UnlabeledWedgesAndTriangles) {
  graph::Graph g = Toy();
  gpusim::Device device(TestParams());
  GammaOptions options;
  options.aggregation.use_labels = false;
  GammaEngine engine(&device, &g, options);
  ASSERT_TRUE(engine.Prepare().ok());
  auto t = engine.InitEdgeTable();
  ASSERT_TRUE(t.ok());
  EdgeExtensionSpec spec;
  ASSERT_TRUE(engine.EdgeExtension(t.value().get(), spec).ok());
  PatternTable pt;
  auto r = engine.Aggregation(*t.value(), &pt);
  ASSERT_TRUE(r.ok());
  // 2-edge connected sets are all wedges (path of 3 vertices).
  ASSERT_EQ(pt.size(), 1u);
  uint64_t wedges = 0;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    uint64_t d = g.degree(v);
    wedges += d * (d - 1) / 2;
  }
  EXPECT_EQ(pt.entries()[0].support, wedges);
  EXPECT_EQ(graph::CanonicalCode(pt.entries()[0].exemplar),
            graph::CanonicalCode(graph::Pattern::Path(3)));
}

TEST(AggregationTest, CodesAlignWithRows) {
  graph::Graph g = Toy();
  gpusim::Device device(TestParams());
  GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  auto t = engine.InitEdgeTable();
  ASSERT_TRUE(t.ok());
  PatternTable pt;
  auto r = engine.Aggregation(*t.value(), &pt);
  ASSERT_TRUE(r.ok());
  graph::CanonicalCache cache;
  for (std::size_t row = 0; row < t.value()->num_embeddings(); ++row) {
    auto emb = t.value()->GetEmbedding(0, static_cast<RowIndex>(row));
    std::vector<graph::EdgeId> edges(emb.begin(), emb.end());
    graph::Pattern p = graph::PatternOfEdges(g, edges, true);
    ASSERT_LT(r.value().codes[row], r.value().distinct_codes.size());
    EXPECT_EQ(r.value().distinct_codes[r.value().codes[row]], cache.Get(p));
  }
}

TEST(AggregationTest, AccumulatesAcrossCalls) {
  graph::Graph g = Toy();
  gpusim::Device device(TestParams());
  GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  auto t = engine.InitEdgeTable();
  ASSERT_TRUE(t.ok());
  PatternTable pt;
  ASSERT_TRUE(engine.Aggregation(*t.value(), &pt).ok());
  uint64_t first = 0;
  for (const auto& e : pt.entries()) first += e.support;
  ASSERT_TRUE(engine.Aggregation(*t.value(), &pt).ok());
  uint64_t second = 0;
  for (const auto& e : pt.entries()) second += e.support;
  EXPECT_EQ(second, 2 * first);
}

TEST(AggregationTest, MniSupportLeqInstanceCount) {
  graph::Graph g = Toy();
  gpusim::Device device(TestParams());
  GammaOptions mni_options;
  mni_options.aggregation.support = SupportMeasure::kMni;
  GammaEngine engine(&device, &g, mni_options);
  ASSERT_TRUE(engine.Prepare().ok());
  auto t = engine.InitEdgeTable();
  ASSERT_TRUE(t.ok());
  PatternTable mni_pt;
  ASSERT_TRUE(engine.Aggregation(*t.value(), &mni_pt).ok());

  gpusim::Device device2(TestParams());
  GammaEngine engine2(&device2, &g, {});
  ASSERT_TRUE(engine2.Prepare().ok());
  auto t2 = engine2.InitEdgeTable();
  ASSERT_TRUE(t2.ok());
  PatternTable cnt_pt;
  ASSERT_TRUE(engine2.Aggregation(*t2.value(), &cnt_pt).ok());

  for (const auto& e : mni_pt.entries()) {
    const PatternEntry* other = cnt_pt.Find(e.code);
    ASSERT_NE(other, nullptr);
    EXPECT_LE(e.support, other->support);
    EXPECT_GT(e.support, 0u);
  }
}

// A small random labeled graph (edge index built).
graph::Graph RandomLabeled(uint64_t seed, graph::VertexId n, std::size_t m) {
  Rng rng(seed);
  graph::Graph g = graph::ErdosRenyi(n, m, &rng);
  graph::AssignLabelsZipf(&g, 3, 0.4, &rng);
  g.EnsureEdgeIndex();
  return g;
}

// Grows a table of `kind` to `len` units: canonical edge extension for
// e-ETs, union-mode vertex extension for v-ETs. `visit` sees the table at
// every length 1..len.
template <typename Visit>
void GrowTable(GammaEngine* engine, TableKind kind, int len, Visit visit) {
  auto t = kind == TableKind::kEdge ? engine->InitEdgeTable()
                                    : engine->InitVertexTable();
  ASSERT_TRUE(t.ok());
  EmbeddingTable* et = t.value().get();
  visit(*et);
  for (int i = 1; i < len; ++i) {
    if (kind == TableKind::kEdge) {
      ASSERT_TRUE(engine->EdgeExtension(et, EdgeExtensionSpec{}).ok());
    } else {
      ASSERT_TRUE(engine->VertexExtension(et, VertexExtensionSpec{}).ok());
    }
    visit(*et);
  }
}

std::vector<Unit> Row(const EmbeddingTable& t, std::size_t r) {
  return t.GetEmbedding(t.length() - 1, static_cast<RowIndex>(r));
}

// The reference quick pattern of a row and its vertices by pattern index
// (first-seen order for edges).
graph::Pattern ReferencePattern(const graph::Graph& g, TableKind kind,
                                const std::vector<Unit>& row,
                                bool use_labels) {
  return kind == TableKind::kEdge
             ? graph::PatternOfEdges(g, row, use_labels)
             : graph::PatternOfVertices(g, row, use_labels);
}

std::vector<graph::VertexId> ReferenceVertices(const graph::Graph& g,
                                               TableKind kind,
                                               const std::vector<Unit>& row) {
  if (kind == TableKind::kVertex) return row;
  std::vector<graph::VertexId> verts;
  for (Unit e : row) {
    for (graph::VertexId v : {g.edge_list()[e].u, g.edge_list()[e].v}) {
      if (std::find(verts.begin(), verts.end(), v) == verts.end()) {
        verts.push_back(v);
      }
    }
  }
  return verts;
}

// The incremental builder must number vertices and set labels exactly as
// PatternOfEdges / PatternOfVertices do, row by row, in ascending order
// (prefix reuse) and in a shuffled order (prefix rebuilt on every parent
// change).
TEST(QuickPatternBuilderTest, MatchesReferenceRowByRow) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    graph::Graph g = RandomLabeled(seed, 18, 34);
    for (TableKind kind : {TableKind::kEdge, TableKind::kVertex}) {
      for (bool use_labels : {true, false}) {
        SCOPED_TRACE(::testing::Message()
                     << "seed " << seed << " kind "
                     << (kind == TableKind::kEdge ? "edge" : "vertex")
                     << " labels " << use_labels);
        gpusim::Device device(TestParams());
        GammaEngine engine(&device, &g, {});
        ASSERT_TRUE(engine.Prepare().ok());
        GrowTable(&engine, kind, 4, [&](const EmbeddingTable& t) {
          const std::size_t rows = t.num_embeddings();
          ASSERT_GT(rows, 0u);
          std::vector<std::size_t> order(rows);
          std::iota(order.begin(), order.end(), 0);
          QuickPatternBuilder ascending(t, g, use_labels);
          QuickPatternBuilder shuffled(t, g, use_labels);
          std::vector<std::size_t> perm = order;
          Rng rng(seed * 31 + t.length());
          for (std::size_t i = rows; i > 1; --i) {
            std::swap(perm[i - 1], perm[rng.NextBounded(i)]);
          }
          for (std::size_t i = 0; i < rows; ++i) {
            for (auto [builder, r] : {std::pair{&ascending, order[i]},
                                      std::pair{&shuffled, perm[i]}}) {
              const std::vector<Unit> row = Row(t, r);
              const graph::Pattern& p =
                  builder->Build(static_cast<RowIndex>(r));
              ASSERT_EQ(p, ReferencePattern(g, kind, row, use_labels))
                  << "row " << r << ": " << p.DebugString();
              const std::vector<graph::VertexId> verts(
                  builder->vertices().begin(), builder->vertices().end());
              ASSERT_EQ(verts, ReferenceVertices(g, kind, row))
                  << "row " << r;
            }
          }
        });
      }
    }
  }
}

// One aggregation per table length: the rows, the result and the fresh
// pattern table's entries.
struct LevelOutcome {
  std::vector<std::vector<Unit>> rows;
  AggregationResult agg;
  std::vector<PatternEntry> entries;
};

void AggregateLevels(const graph::Graph& g, TableKind kind, int len,
                     const GammaOptions& options, int host_threads,
                     std::vector<LevelOutcome>* out) {
  gpusim::Device device(TestParams(host_threads));
  GammaEngine engine(&device, &g, options);
  ASSERT_TRUE(engine.Prepare().ok());
  GrowTable(&engine, kind, len, [&](const EmbeddingTable& t) {
    PatternTable pt;
    auto agg = engine.Aggregation(t, &pt);
    ASSERT_TRUE(agg.ok());
    out->push_back({t.Materialize(), std::move(agg).value(), pt.entries()});
  });
}

// Aggregate against a std::map reference built through CanonicalCache:
// the same codes and supports, entries in ascending code order, each
// exemplar the quick pattern of the first row with that code, and a result
// that does not depend on the number of host threads.
TEST(AggregationTest, MatchesReferenceOnRandomTables) {
  for (uint64_t seed : {4u, 5u}) {
    graph::Graph g = RandomLabeled(seed, 40, 110);
    for (TableKind kind : {TableKind::kEdge, TableKind::kVertex}) {
      for (bool use_labels : {true, false}) {
        SCOPED_TRACE(::testing::Message()
                     << "seed " << seed << " kind "
                     << (kind == TableKind::kEdge ? "edge" : "vertex")
                     << " labels " << use_labels);
        GammaOptions options;
        options.aggregation.use_labels = use_labels;
        std::vector<LevelOutcome> serial, pool;
        AggregateLevels(g, kind, 3, options, 1, &serial);
        AggregateLevels(g, kind, 3, options, 4, &pool);
        ASSERT_EQ(serial.size(), 3u);
        ASSERT_EQ(pool.size(), 3u);
        for (std::size_t level = 0; level < serial.size(); ++level) {
          const LevelOutcome& s = serial[level];
          struct Ref {
            uint64_t support = 0;
            std::size_t first_row = 0;
          };
          std::map<uint64_t, Ref> ref;
          graph::CanonicalCache cache;
          std::vector<uint64_t> row_codes(s.rows.size());
          for (std::size_t r = 0; r < s.rows.size(); ++r) {
            row_codes[r] =
                cache.Get(ReferencePattern(g, kind, s.rows[r], use_labels));
            ++ref.try_emplace(row_codes[r], Ref{0, r}).first->second.support;
          }

          const AggregationResult& a = s.agg;
          ASSERT_EQ(a.codes.size(), s.rows.size());
          ASSERT_EQ(a.distinct_patterns, ref.size());
          ASSERT_EQ(a.distinct_codes.size(), ref.size());
          ASSERT_EQ(s.entries.size(), ref.size());
          std::size_t k = 0;
          for (const auto& [code, want] : ref) {
            EXPECT_EQ(a.distinct_codes[k], code);
            const PatternEntry& e = s.entries[k];
            EXPECT_EQ(e.code, code);
            EXPECT_EQ(e.support, want.support);
            EXPECT_EQ(e.exemplar, ReferencePattern(g, kind,
                                                   s.rows[want.first_row],
                                                   use_labels));
            ++k;
          }
          for (std::size_t r = 0; r < a.codes.size(); ++r) {
            ASSERT_LT(a.codes[r], a.distinct_codes.size());
            EXPECT_EQ(a.distinct_codes[a.codes[r]], row_codes[r]);
          }

          const LevelOutcome& p = pool[level];
          const AggregationResult& b = p.agg;
          EXPECT_EQ(p.rows, s.rows);
          EXPECT_EQ(b.codes, a.codes);
          EXPECT_EQ(b.distinct_codes, a.distinct_codes);
          EXPECT_EQ(b.distinct_patterns, a.distinct_patterns);
          EXPECT_EQ(b.kernel_cycles, a.kernel_cycles);
          EXPECT_EQ(b.sort_stats.keys, a.sort_stats.keys);
          EXPECT_EQ(b.sort_stats.segments, a.sort_stats.segments);
          EXPECT_EQ(b.sort_stats.subtasks, a.sort_stats.subtasks);
          EXPECT_EQ(b.sort_stats.cycles, a.sort_stats.cycles);
          ASSERT_EQ(p.entries.size(), s.entries.size());
          for (std::size_t i = 0; i < s.entries.size(); ++i) {
            EXPECT_EQ(p.entries[i].code, s.entries[i].code);
            EXPECT_EQ(p.entries[i].support, s.entries[i].support);
            EXPECT_EQ(p.entries[i].exemplar, s.entries[i].exemplar);
          }
        }
      }
    }
  }
}

// MNI support against a brute-force count: per canonical code, the distinct
// data vertices seen at each quick-pattern position, minimized over
// positions.
TEST(AggregationTest, MniMatchesBruteForce) {
  graph::Graph g = RandomLabeled(6, 24, 50);
  for (TableKind kind : {TableKind::kEdge, TableKind::kVertex}) {
    SCOPED_TRACE(kind == TableKind::kEdge ? "edge" : "vertex");
    GammaOptions options;
    options.aggregation.support = SupportMeasure::kMni;
    gpusim::Device device(TestParams());
    GammaEngine engine(&device, &g, options);
    ASSERT_TRUE(engine.Prepare().ok());
    GrowTable(&engine, kind, 3, [&](const EmbeddingTable& t) {
      std::map<uint64_t, std::vector<std::set<graph::VertexId>>> images;
      graph::CanonicalCache cache;
      for (const std::vector<Unit>& row : t.Materialize()) {
        auto& img =
            images[cache.Get(ReferencePattern(g, kind, row, true))];
        const std::vector<graph::VertexId> verts =
            ReferenceVertices(g, kind, row);
        img.resize(std::max(img.size(), verts.size()));
        for (std::size_t i = 0; i < verts.size(); ++i) img[i].insert(verts[i]);
      }
      PatternTable pt;
      ASSERT_TRUE(engine.Aggregation(t, &pt).ok());
      ASSERT_EQ(pt.size(), images.size());
      for (const auto& [code, img] : images) {
        std::size_t mni = img.front().size();
        for (const auto& s : img) mni = std::min(mni, s.size());
        const PatternEntry* e = pt.Find(code);
        ASSERT_NE(e, nullptr);
        EXPECT_EQ(e->support, mni) << e->exemplar.DebugString();
      }
    });
  }
}

TEST(PatternTableTest, InvalidateAndErase) {
  PatternTable pt;
  pt.Accumulate(1, graph::Pattern::Triangle(), 5);
  pt.Accumulate(2, graph::Pattern::Path(3), 1);
  pt.Accumulate(1, graph::Pattern::Triangle(), 2);
  EXPECT_EQ(pt.Find(1)->support, 7u);
  EXPECT_EQ(pt.InvalidateBelow(3), 1u);
  EXPECT_EQ(pt.InvalidCodes().count(2), 1u);
  pt.EraseInvalid();
  EXPECT_EQ(pt.size(), 1u);
  EXPECT_EQ(pt.Find(2), nullptr);
}

TEST(PatternTableTest, TopPatternsSorted) {
  PatternTable pt;
  pt.Accumulate(1, graph::Pattern::Triangle(), 5);
  pt.Accumulate(2, graph::Pattern::Path(3), 9);
  pt.Accumulate(3, graph::Pattern::Star(3), 2);
  auto top = pt.TopPatterns();
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].support, 9u);
  EXPECT_EQ(top[2].support, 2u);
}

TEST(PatternTableTest, SetSupportOverwrites) {
  PatternTable pt;
  pt.SetSupport(1, graph::Pattern::Triangle(), 5);
  pt.SetSupport(1, graph::Pattern::Triangle(), 3);
  EXPECT_EQ(pt.Find(1)->support, 3u);
}

}  // namespace
}  // namespace gpm::core
