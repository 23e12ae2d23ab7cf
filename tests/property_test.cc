// Property-style parameterized sweeps over random graphs: every GAMMA
// configuration must produce identical results, and the framework's counts
// must equal the reference oracle's on each sampled graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <tuple>
#include <vector>

#include "algos/fpm.h"
#include "algos/kclique.h"
#include "algos/subgraph_matching.h"
#include "baselines/cpu_ref.h"
#include "baselines/presets.h"
#include "core/extension.h"
#include "core/gamma.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/isomorphism.h"
#include "graph/reorder.h"

namespace gpm {
namespace {

gpusim::SimParams TestParams() {
  gpusim::SimParams p;
  p.device_memory_bytes = 16 << 20;
  p.um_device_buffer_bytes = 2 << 20;
  return p;
}

graph::Graph SampleGraph(uint64_t seed) {
  Rng rng(seed);
  // Vary the family with the seed for diversity.
  graph::Graph g;
  switch (seed % 3) {
    case 0:
      g = graph::ErdosRenyi(50 + seed % 40, 200 + 10 * (seed % 13), &rng);
      break;
    case 1:
      g = graph::PowerLaw(60 + seed % 30, 250, 0.8, &rng);
      break;
    default:
      g = graph::Rmat(6, 220, &rng);
      break;
  }
  graph::AssignLabelsZipf(&g, 3, 0.4, &rng);
  g.EnsureEdgeIndex();
  return g;
}

// ---- Strategy-equivalence sweep -------------------------------------------

using StrategyParam =
    std::tuple<uint64_t /*seed*/, core::WriteStrategy, bool /*pre_merge*/>;

class StrategyEquivalence
    : public ::testing::TestWithParam<StrategyParam> {};

TEST_P(StrategyEquivalence, TriangleCountInvariant) {
  auto [seed, strategy, pre_merge] = GetParam();
  graph::Graph g = SampleGraph(seed);
  uint64_t expected =
      graph::CountInstances(g, graph::Pattern::Triangle());

  gpusim::Device device(TestParams());
  core::GammaOptions options;
  options.extension.write_strategy = strategy;
  options.extension.pre_merge = pre_merge;
  core::GammaEngine engine(&device, &g, options);
  ASSERT_TRUE(engine.Prepare().ok());
  auto r = algos::CountKCliques(&engine, 3);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().cliques, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StrategyEquivalence,
    ::testing::Combine(
        ::testing::Values(11, 22, 33),
        ::testing::Values(core::WriteStrategy::kNaiveTwoPass,
                          core::WriteStrategy::kPreAlloc,
                          core::WriteStrategy::kDynamicAlloc),
        ::testing::Bool()),
    [](const ::testing::TestParamInfo<StrategyParam>& info) {
      std::string name =
          core::WriteStrategyName(std::get<1>(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return "seed" + std::to_string(std::get<0>(info.param)) + "_" +
             name + (std::get<2>(info.param) ? "_grouped" : "_plain");
    });

// ---- Access-mode equivalence sweep -----------------------------------------

using AccessParam = std::tuple<uint64_t, core::GraphPlacement>;

class AccessEquivalence : public ::testing::TestWithParam<AccessParam> {};

TEST_P(AccessEquivalence, SmCountInvariant) {
  auto [seed, placement] = GetParam();
  graph::Graph g = SampleGraph(seed);
  graph::Pattern q = graph::Pattern::SmQuery(1, g.num_labels());
  uint64_t expected = graph::CountEmbeddings(g, q);

  gpusim::Device device(TestParams());
  core::GammaOptions options;
  options.access.placement = placement;
  core::GammaEngine engine(&device, &g, options);
  ASSERT_TRUE(engine.Prepare().ok());
  auto r = algos::MatchWoj(&engine, q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().embeddings, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AccessEquivalence,
    ::testing::Combine(
        ::testing::Values(7, 14),
        ::testing::Values(core::GraphPlacement::kHybridAdaptive,
                          core::GraphPlacement::kUnifiedOnly,
                          core::GraphPlacement::kZeroCopyOnly,
                          core::GraphPlacement::kDeviceResident)),
    [](const ::testing::TestParamInfo<AccessParam>& info) {
      std::string name =
          core::GraphPlacementName(std::get<1>(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return "seed" + std::to_string(std::get<0>(info.param)) + "_" +
             name;
    });

// ---- FPM threshold sweep ----------------------------------------------------

class FpmProperty
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint64_t>> {};

TEST_P(FpmProperty, MatchesReferenceForThreshold) {
  auto [seed, min_support] = GetParam();
  graph::Graph g = SampleGraph(seed);
  gpusim::Device device(TestParams());
  core::GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  auto r = algos::MineFrequentPatterns(
      &engine,
      {.max_edges = 2, .min_support = min_support});
  ASSERT_TRUE(r.ok());
  auto ref = baselines::CpuFpmEmbeddingCentric(
      g, 2, min_support, baselines::CpuModel{});
  EXPECT_EQ(r.value().patterns.size(), ref.patterns.size());
  for (const auto& e : ref.patterns.entries()) {
    const core::PatternEntry* mine = r.value().patterns.Find(e.code);
    ASSERT_NE(mine, nullptr);
    EXPECT_EQ(mine->support, e.support);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FpmProperty,
    ::testing::Combine(::testing::Values(5, 6),
                       ::testing::Values(1, 3, 10)),
    [](const ::testing::TestParamInfo<std::tuple<uint64_t, uint64_t>>&
           info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_sup" +
             std::to_string(std::get<1>(info.param));
    });

// ---- Edge-extension canonicality --------------------------------------------

// Reference for IsCanonicalEdgeExtension, built with plain vectors: the
// canonical sequence of an edge multiset starts at the smallest id, then
// repeatedly takes the smallest unused id sharing a vertex with the prefix.
// Empty when the set is disconnected.
std::vector<core::Unit> CanonicalSequence(const graph::Graph& g,
                                          std::vector<core::Unit> pool) {
  std::sort(pool.begin(), pool.end());
  std::vector<bool> used(pool.size(), false);
  std::vector<graph::VertexId> verts;
  std::vector<core::Unit> canonical;
  auto take = [&](std::size_t i) {
    used[i] = true;
    canonical.push_back(pool[i]);
    const graph::Edge& ed = g.edge_list()[pool[i]];
    for (graph::VertexId v : {ed.u, ed.v}) {
      if (std::find(verts.begin(), verts.end(), v) == verts.end())
        verts.push_back(v);
    }
  };
  take(0);
  while (canonical.size() < pool.size()) {
    std::size_t pick = pool.size();
    for (std::size_t i = 0; i < pool.size() && pick == pool.size(); ++i) {
      if (used[i]) continue;
      const graph::Edge& ed = g.edge_list()[pool[i]];
      for (graph::VertexId v : verts) {
        if (ed.u == v || ed.v == v) pick = i;
      }
    }
    if (pick == pool.size()) return {};
    take(pick);
  }
  return canonical;
}

TEST(CanonicalityProperty, MatchesVectorReference) {
  Rng rng(17);
  graph::Graph g = graph::ErdosRenyi(14, 30, &rng);
  g.EnsureEdgeIndex();
  const std::size_t m = g.edge_list().size();
  ASSERT_GT(m, 0u);
  std::size_t canonical = 0, rejected = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const std::size_t k = 1 + rng.NextBounded(7);  // edges + candidate
    std::vector<core::Unit> seq;
    const int mode = trial % 4;
    if (mode == 0) {
      // Any ids: mostly disconnected.
      for (std::size_t i = 0; i < k; ++i) seq.push_back(rng.NextBounded(m));
    } else {
      // Connected growth: each id is adjacent to an earlier one (an id may
      // repeat, which the check must treat as a multiset).
      seq.push_back(static_cast<core::Unit>(rng.NextBounded(m)));
      while (seq.size() < k) {
        const graph::Edge& from =
            g.edge_list()[seq[rng.NextBounded(seq.size())]];
        graph::VertexId v = rng.NextBounded(2) ? from.u : from.v;
        auto eids = g.neighbor_edge_ids(v);
        seq.push_back(eids[rng.NextBounded(eids.size())]);
      }
      if (mode == 1 && k >= 2) {
        // Duplicate: the candidate repeats an earlier id.
        seq.back() = seq[rng.NextBounded(k - 1)];
      } else if (mode == 2) {
        // Out of order: a random shuffle.
        for (std::size_t i = seq.size(); i > 1; --i) {
          std::swap(seq[i - 1], seq[rng.NextBounded(i)]);
        }
      } else if (mode == 3) {
        // Canonical order, so that true answers are common.
        seq = CanonicalSequence(g, seq);
      }
    }
    const bool want = CanonicalSequence(g, seq) == seq;
    const std::span<const core::Unit> edges(seq.data(), seq.size() - 1);
    ASSERT_EQ(core::IsCanonicalEdgeExtension(g, edges, seq.back()), want)
        << "trial " << trial << ", k=" << k;
    ++(want ? canonical : rejected);
  }
  // Both answers are exercised.
  EXPECT_GT(canonical, 1000u);
  EXPECT_GT(rejected, 1000u);
}

// Sorted, deduplicated ids of the edges incident to any vertex of `seq`
// that `seq` does not already hold: the fresh candidates EdgeExtend sees.
std::vector<core::Unit> FreshIncidentEdges(const graph::Graph& g,
                                           const std::vector<core::Unit>& seq) {
  std::vector<core::Unit> out;
  for (core::Unit e : seq) {
    for (graph::VertexId v : {g.edge_list()[e].u, g.edge_list()[e].v}) {
      for (graph::EdgeId id : g.neighbor_edge_ids(v)) out.push_back(id);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  std::erase_if(out, [&seq](core::Unit e) {
    return std::find(seq.begin(), seq.end(), e) != seq.end();
  });
  return out;
}

// Seeded canonical sequences of `edges` edges: each step appends a random
// fresh incident edge that IsCanonicalEdgeExtension accepts, restarting
// from a new first edge at a dead end.
std::vector<std::vector<core::Unit>> GrowCanonical(const graph::Graph& g,
                                                   std::size_t edges,
                                                   std::size_t count,
                                                   Rng* rng) {
  std::vector<std::vector<core::Unit>> out;
  while (out.size() < count) {
    std::vector<core::Unit> seq{
        static_cast<core::Unit>(rng->NextBounded(g.edge_list().size()))};
    while (seq.size() < edges) {
      std::vector<core::Unit> next;
      for (core::Unit e : FreshIncidentEdges(g, seq)) {
        if (core::IsCanonicalEdgeExtension(g, seq, e)) next.push_back(e);
      }
      if (next.empty()) break;
      seq.push_back(next[rng->NextBounded(next.size())]);
    }
    if (seq.size() == edges) out.push_back(std::move(seq));
  }
  return out;
}

// EdgeExtend's per-row threshold rule against IsCanonicalEdgeExtension on
// every fresh incident candidate of seeded canonical rows of 1-7 edges. The
// rows go into a hand-built table (row r's parent is row r of the column
// before), so each row is extended on its own.
class ThresholdCanonicality
    : public ::testing::TestWithParam<std::tuple<const char*, bool>> {};

TEST_P(ThresholdCanonicality, MatchesReferenceOnEveryCandidate) {
  const auto [dataset, pre_merge] = GetParam();
  graph::Graph g = graph::MakeDataset(dataset);
  g.EnsureEdgeIndex();
  Rng rng(71);
  std::size_t accepted = 0, rejected = 0;
  for (std::size_t len = 1; len <= 7; ++len) {
    const auto rows = GrowCanonical(g, len, 64, &rng);
    gpusim::Device device(TestParams());
    core::GammaOptions options;
    options.extension.pre_merge = pre_merge;
    core::GammaEngine engine(&device, &g, options);
    ASSERT_TRUE(engine.Prepare().ok());
    core::EmbeddingTable table(&device, core::TableKind::kEdge);
    std::vector<core::RowIndex> identity(rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      identity[r] = static_cast<core::RowIndex>(r);
    }
    for (std::size_t j = 0; j < len; ++j) {
      std::vector<core::Unit> units;
      for (const auto& row : rows) units.push_back(row[j]);
      ASSERT_TRUE((j == 0 ? table.InitFirstColumn(std::move(units))
                          : table.AppendColumn(std::move(units), identity))
                      .ok());
    }
    core::EdgeExtensionSpec spec;
    spec.canonical_only = true;
    ASSERT_TRUE(engine.EdgeExtension(&table, spec).ok());

    std::vector<std::pair<core::Unit, core::RowIndex>> want;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      for (core::Unit e : FreshIncidentEdges(g, rows[r])) {
        if (core::IsCanonicalEdgeExtension(g, rows[r], e)) {
          want.push_back({e, static_cast<core::RowIndex>(r)});
          ++accepted;
        } else {
          ++rejected;
        }
      }
    }
    std::vector<std::pair<core::Unit, core::RowIndex>> got;
    const auto& last = table.last_column();
    for (std::size_t i = 0; i < last.size(); ++i) {
      got.push_back({last.units.host_data()[i], last.parents.host_data()[i]});
    }
    ASSERT_EQ(got, want) << dataset << ", " << len << " edges";
  }
  // Both answers are exercised.
  EXPECT_GT(accepted, 1000u);
  EXPECT_GT(rejected, 1000u);
}

INSTANTIATE_TEST_SUITE_P(
    Proxies, ThresholdCanonicality,
    ::testing::Combine(::testing::Values("ER", "CP"), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<const char*, bool>>& info) {
      return std::string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_grouped" : "_ungrouped");
    });

// ---- Invariants -------------------------------------------------------------

class InvariantTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InvariantTest, CompressionPreservesEmbeddings) {
  graph::Graph g = SampleGraph(GetParam());
  // Run SM with and without table compression; counts must agree.
  graph::Pattern q = graph::Pattern::SmQuery(2, g.num_labels());
  uint64_t counts[2];
  for (int compress = 0; compress < 2; ++compress) {
    gpusim::Device device(TestParams());
    core::GammaOptions options;
    options.filter.compress = compress == 1;
    core::GammaEngine engine(&device, &g, options);
    ASSERT_TRUE(engine.Prepare().ok());
    auto r = algos::MatchWoj(&engine, q);
    ASSERT_TRUE(r.ok());
    counts[compress] = r.value().embeddings;
  }
  EXPECT_EQ(counts[0], counts[1]);
}

TEST_P(InvariantTest, CliqueMonotoneInK) {
  graph::Graph g = SampleGraph(GetParam());
  gpusim::Device device(TestParams());
  core::GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  // C(k) * something >= C(k+1): any (k+1)-clique contains k-cliques.
  auto c3 = algos::CountKCliques(&engine, 3);
  ASSERT_TRUE(c3.ok());
  gpusim::Device device2(TestParams());
  core::GammaEngine engine2(&device2, &g, {});
  ASSERT_TRUE(engine2.Prepare().ok());
  auto c4 = algos::CountKCliques(&engine2, 4);
  ASSERT_TRUE(c4.ok());
  if (c4.value().cliques > 0) {
    EXPECT_GE(c3.value().cliques, c4.value().cliques);
  }
}

TEST_P(InvariantTest, SimulatedTimeMonotone) {
  graph::Graph g = SampleGraph(GetParam());
  gpusim::Device device(TestParams());
  core::GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  double before = device.ElapsedSeconds();
  ASSERT_TRUE(algos::CountKCliques(&engine, 3).ok());
  EXPECT_GT(device.ElapsedSeconds(), before);
}

INSTANTIATE_TEST_SUITE_P(Sweep, InvariantTest,
                         ::testing::Values(101, 202, 303));

// ---- Cross-feature invariants ------------------------------------------------

class CrossFeatureTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrossFeatureTest, ReorderingPreservesCounts) {
  graph::Graph g = SampleGraph(GetParam());
  uint64_t expected = graph::CountInstances(g, graph::Pattern::Triangle());
  for (graph::ReorderStrategy strategy :
       {graph::ReorderStrategy::kDegreeDescending,
        graph::ReorderStrategy::kBfs, graph::ReorderStrategy::kRandom,
        graph::ReorderStrategy::kDegeneracy}) {
    graph::Graph r = graph::Reorder(g, strategy, 5);
    gpusim::Device device(TestParams());
    core::GammaEngine engine(&device, &r, {});
    ASSERT_TRUE(engine.Prepare().ok());
    auto run = algos::CountKCliques(&engine, 3);
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run.value().cliques, expected)
        << graph::ReorderStrategyName(strategy);
  }
}

TEST_P(CrossFeatureTest, FpmInvariantAcrossWriteStrategies) {
  graph::Graph g = SampleGraph(GetParam());
  core::PatternTable reference;
  bool first = true;
  for (core::WriteStrategy strategy :
       {core::WriteStrategy::kDynamicAlloc,
        core::WriteStrategy::kNaiveTwoPass,
        core::WriteStrategy::kPreAlloc}) {
    gpusim::Device device(TestParams());
    core::GammaOptions options;
    options.extension.write_strategy = strategy;
    core::GammaEngine engine(&device, &g, options);
    ASSERT_TRUE(engine.Prepare().ok());
    auto r = algos::MineFrequentPatterns(
        &engine, {.max_edges = 2, .min_support = 3});
    ASSERT_TRUE(r.ok()) << core::WriteStrategyName(strategy);
    if (first) {
      reference = std::move(r.value().patterns);
      first = false;
      continue;
    }
    EXPECT_EQ(r.value().patterns.size(), reference.size());
    for (const auto& e : reference.entries()) {
      const core::PatternEntry* mine = r.value().patterns.Find(e.code);
      ASSERT_NE(mine, nullptr);
      EXPECT_EQ(mine->support, e.support);
    }
  }
}

TEST_P(CrossFeatureTest, AdaptiveIntersectionPreservesCounts) {
  graph::Graph g = SampleGraph(GetParam());
  uint64_t counts[2];
  for (int adaptive = 0; adaptive < 2; ++adaptive) {
    gpusim::Device device(TestParams());
    core::GammaOptions options;
    options.extension.adaptive_intersection = adaptive == 1;
    core::GammaEngine engine(&device, &g, options);
    ASSERT_TRUE(engine.Prepare().ok());
    auto r = algos::CountKCliques(&engine, 4);
    ASSERT_TRUE(r.ok());
    counts[adaptive] = r.value().cliques;
  }
  EXPECT_EQ(counts[0], counts[1]);
}

TEST_P(CrossFeatureTest, SymmetricTimesAutEqualsPlainEmbeddings) {
  graph::Graph g = SampleGraph(GetParam());
  for (const graph::Pattern& q :
       {graph::Pattern::Triangle(), graph::Pattern::Diamond()}) {
    gpusim::Device d1(TestParams()), d2(TestParams());
    core::GammaEngine e1(&d1, &g, {}), e2(&d2, &g, {});
    ASSERT_TRUE(e1.Prepare().ok());
    ASSERT_TRUE(e2.Prepare().ok());
    auto plain = algos::MatchWoj(&e1, q);
    auto sym = algos::MatchWojSymmetric(&e2, q);
    ASSERT_TRUE(plain.ok());
    ASSERT_TRUE(sym.ok());
    EXPECT_EQ(sym.value().instances *
                  static_cast<uint64_t>(q.CountAutomorphisms()),
              plain.value().embeddings)
        << q.DebugString();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CrossFeatureTest,
                         ::testing::Values(41, 42, 43));

}  // namespace
}  // namespace gpm
