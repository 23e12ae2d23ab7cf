// Pattern-compiler parity suite: the compiled engine must reproduce the
// hand-specialized algorithms' exact counts (tolerance 0) on every
// workload, and automatically derived symmetry restrictions must be
// complete (no duplicates, orbit-count identity) for asymmetric, fully
// symmetric, and labeled patterns.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "baselines/cpu_ref.h"
#include "core/compiled_engine.h"
#include "core/gamma.h"
#include "core/pattern_compiler.h"
#include "graph/generators.h"
#include "graph/isomorphism.h"
#include "graph/pattern.h"
#include "minijson.h"

namespace gpm {
namespace {

gpusim::SimParams TestParams() {
  gpusim::SimParams p;
  p.device_memory_bytes = 16 << 20;
  p.um_device_buffer_bytes = 2 << 20;
  return p;
}

graph::Graph RandomLabeled(uint64_t seed, graph::VertexId n,
                           std::size_t m) {
  Rng rng(seed);
  graph::Graph g = graph::ErdosRenyi(n, m, &rng);
  graph::AssignLabelsZipf(&g, 3, 0.3, &rng);
  g.EnsureEdgeIndex();
  return g;
}

core::CompiledRunResult RunPlan(graph::Graph* g,
                                const core::CompiledPlan& plan) {
  gpusim::Device device(TestParams());
  core::GammaEngine engine(&device, g, {});
  EXPECT_TRUE(engine.Prepare().ok());
  core::CompiledEngine compiled(&engine);
  auto run = compiled.Run(plan);
  EXPECT_TRUE(run.ok()) << run.status().message();
  return run.ok() ? run.value() : core::CompiledRunResult{};
}

TEST(CompilerParityTest, CliqueCountsMatchOracle) {
  graph::Graph g = RandomLabeled(11, 60, 500);
  core::PatternCompiler compiler(&g);
  for (int k : {3, 4, 5}) {
    core::CompiledPlan plan = compiler.CompileKClique(k, true).value();
    // The clique preset must fold every restriction into the ascending
    // intersection — no post-filters survive.
    for (const core::CompiledLevel& level : plan.levels) {
      EXPECT_TRUE(level.require_ascending) << "k=" << k;
      EXPECT_TRUE(level.restrictions.empty()) << "k=" << k;
    }
    EXPECT_TRUE(plan.levels.back().count_only) << "k=" << k;
    core::CompiledRunResult run = RunPlan(&g, plan);
    EXPECT_EQ(run.embeddings,
              graph::CountInstances(g, graph::Pattern::Clique(k)))
        << "k=" << k;
  }
}

// Sorted intra-subgraph degree sequence; distinguishes every connected
// shape on <= 4 vertices (wedge/triangle; path/star/cycle/tailed-
// triangle/diamond/clique).
std::vector<int> DegreeSequence(const graph::Pattern& p) {
  std::vector<int> degs;
  for (int i = 0; i < p.num_vertices(); ++i) degs.push_back(p.degree(i));
  std::sort(degs.begin(), degs.end());
  return degs;
}

// Brute-force census of connected induced k-vertex subgraphs, keyed by
// degree sequence.
std::map<std::vector<int>, uint64_t> InducedCensus(const graph::Graph& g,
                                                   int k) {
  std::map<std::vector<int>, uint64_t> census;
  std::vector<graph::VertexId> pick(k);
  auto visit = [&](auto&& self, int depth, graph::VertexId first) -> void {
    if (depth == k) {
      graph::Pattern shape = graph::PatternOfVertices(
          g, pick, /*use_labels=*/false);
      uint32_t reached = 1;  // bitmask BFS from vertex 0
      for (bool grew = true; grew;) {
        grew = false;
        for (int i = 0; i < k; ++i) {
          if (!((reached >> i) & 1)) continue;
          for (int j = 0; j < k; ++j) {
            if (shape.HasEdge(i, j) && !((reached >> j) & 1)) {
              reached |= 1u << j;
              grew = true;
            }
          }
        }
      }
      if (reached == (1u << k) - 1) ++census[DegreeSequence(shape)];
      return;
    }
    for (graph::VertexId v = first; v < g.num_vertices(); ++v) {
      pick[depth] = v;
      self(self, depth + 1, v + 1);
    }
  };
  visit(visit, 0, 0);
  return census;
}

TEST(CompilerParityTest, MotifCensusMatchesInducedOracle) {
  graph::Graph g = RandomLabeled(12, 40, 150);
  core::PatternCompiler compiler(&g);
  for (int k : {3, 4}) {
    core::CompiledRunResult run =
        RunPlan(&g, compiler.CompileMotifCensus(k).value());
    // 2 connected 3-vertex shapes, 6 connected 4-vertex shapes.
    EXPECT_EQ(run.motifs.size(), k == 3 ? 2u : 6u);
    std::map<std::vector<int>, uint64_t> oracle = InducedCensus(g, k);
    for (const auto& [shape, count] : run.motifs) {
      EXPECT_EQ(count, oracle[DegreeSequence(shape)])
          << shape.DebugString();
    }
  }
}

TEST(CompilerParityTest, FpmMatchesEmbeddingCentricReference) {
  graph::Graph g = RandomLabeled(9, 40, 120);
  core::PatternCompiler compiler(&g);
  core::CompiledRunResult run = RunPlan(&g, compiler.CompileFpm(3, 3).value());
  auto ref = baselines::CpuFpmEmbeddingCentric(g, 3, 3,
                                               baselines::CpuModel{});
  EXPECT_EQ(run.patterns.size(), ref.patterns.size());
  for (const auto& e : ref.patterns.entries()) {
    const core::PatternEntry* mine = run.patterns.Find(e.code);
    ASSERT_NE(mine, nullptr) << e.exemplar.DebugString();
    EXPECT_EQ(mine->support, e.support) << e.exemplar.DebugString();
  }
}

TEST(CompilerFpmTest, EdgeBudgetOutOfRangeIsInvalidArgument) {
  // A k-edge pattern spans up to k + 1 vertices; patterns hold at most
  // Pattern::kMaxVertices, so max_edges lives in [1, kMaxVertices - 1].
  graph::Graph g = RandomLabeled(9, 40, 120);
  core::PatternCompiler compiler(&g);
  for (int max_edges : {0, graph::Pattern::kMaxVertices}) {
    auto plan = compiler.CompileFpm(max_edges, 1);
    ASSERT_FALSE(plan.ok()) << max_edges;
    EXPECT_EQ(plan.status().code(), ErrorCode::kInvalidArgument);
    EXPECT_NE(plan.status().message().find("max_edges"), std::string::npos)
        << plan.status().message();
  }
  EXPECT_TRUE(
      compiler.CompileFpm(graph::Pattern::kMaxVertices - 1, 1).ok());
}

TEST(CompilerParityTest, SubgraphMatchQuerySet) {
  graph::Graph g = RandomLabeled(13, 50, 220);
  core::PatternCompiler compiler(&g);
  std::vector<graph::Pattern> queries = {
      graph::Pattern::SmQuery(1, g.num_labels()),
      graph::Pattern::SmQuery(2, g.num_labels()),
      graph::Pattern::SmQuery(3, g.num_labels()),
      graph::Pattern::Diamond(),
      graph::Pattern::Cycle(5),
      graph::Pattern::Star(3),
      graph::Pattern::TailedTriangle(),
  };
  for (const graph::Pattern& q : queries) {
    core::CompiledRunResult run =
        RunPlan(&g, compiler.CompileMatch(q, {}).value());
    EXPECT_EQ(run.embeddings, graph::CountEmbeddings(g, q))
        << q.DebugString();
    EXPECT_EQ(run.instances, graph::CountInstances(g, q))
        << q.DebugString();
  }
}

TEST(CompilerParityTest, EdgeJoinMatchesOracle) {
  graph::Graph g = RandomLabeled(14, 40, 150);
  core::PatternCompiler compiler(&g);
  for (const graph::Pattern& q :
       {graph::Pattern::Triangle(), graph::Pattern::Path(3)}) {
    core::CompiledRunResult run =
        RunPlan(&g, compiler.CompileEdgeJoin(q).value());
    EXPECT_EQ(run.instances, graph::CountInstances(g, q))
        << q.DebugString();
  }
}

// Orbit-count identity: with derived restrictions each instance appears
// exactly once (embeddings == instances == oracle instance count), and
// restricted * |Aut| == unrestricted embeddings. Count equality against
// the exact oracle implies completeness and no duplicates — every row the
// engine keeps is a valid embedding, so an over- or under-count would
// show.
void CheckSymmetryCompleteness(graph::Graph* g, const graph::Pattern& q,
                               int want_automorphisms) {
  core::PatternCompiler compiler(g);
  core::CompiledPlan plain = compiler.CompileMatch(q, {}).value();
  core::CompiledPlan sym =
      compiler.CompileMatch(q, {.break_symmetry = true}).value();
  EXPECT_EQ(sym.automorphisms,
            static_cast<uint64_t>(want_automorphisms))
      << q.DebugString();
  EXPECT_TRUE(sym.symmetry_broken);
  core::CompiledRunResult plain_run = RunPlan(g, plain);
  core::CompiledRunResult sym_run = RunPlan(g, sym);
  uint64_t want_instances = graph::CountInstances(*g, q);
  EXPECT_EQ(sym_run.embeddings, want_instances) << q.DebugString();
  EXPECT_EQ(sym_run.instances, want_instances) << q.DebugString();
  EXPECT_EQ(sym_run.embeddings * sym.automorphisms, plain_run.embeddings)
      << q.DebugString();
  EXPECT_EQ(plain_run.embeddings, graph::CountEmbeddings(*g, q))
      << q.DebugString();
}

TEST(SymmetryCompletenessTest, AsymmetricPattern) {
  graph::Graph g = RandomLabeled(15, 50, 220);
  // A labeled 3-path with distinct labels has a trivial automorphism
  // group; restrictions must be a no-op.
  graph::Pattern q = graph::Pattern::Path(3);
  q.SetLabel(0, 0);
  q.SetLabel(1, 1);
  q.SetLabel(2, 2);
  ASSERT_EQ(q.CountAutomorphisms(), 1);
  CheckSymmetryCompleteness(&g, q, 1);
}

TEST(SymmetryCompletenessTest, FullySymmetricPattern) {
  graph::Graph g = RandomLabeled(16, 50, 300);
  CheckSymmetryCompleteness(&g, graph::Pattern::Clique(4), 24);
}

TEST(SymmetryCompletenessTest, PartiallySymmetricPatterns) {
  graph::Graph g = RandomLabeled(17, 50, 220);
  CheckSymmetryCompleteness(&g, graph::Pattern::Diamond(), 4);
  CheckSymmetryCompleteness(&g, graph::Pattern::TailedTriangle(), 2);
  CheckSymmetryCompleteness(&g, graph::Pattern::Star(3), 6);
}

TEST(SymmetryCompletenessTest, LabeledPattern) {
  graph::Graph g = RandomLabeled(18, 60, 260);
  // q1 is the labeled triangle: two vertices share a label, one differs,
  // so exactly one automorphism survives the labeling.
  graph::Pattern q = graph::Pattern::SmQuery(1, g.num_labels());
  CheckSymmetryCompleteness(&g, q, q.CountAutomorphisms());
}

TEST(InputAwareTest, EdgeParallelStartPreservesCounts) {
  // Dense enough that the planner estimates more level-1 rows than start
  // vertices, so the foldable (0,1) restriction triggers an edge-parallel
  // start.
  Rng rng(19);
  graph::Graph g = graph::ErdosRenyi(60, 600, &rng);
  g.EnsureEdgeIndex();
  core::PatternCompiler compiler(&g);
  core::CompiledPlan plan =
      compiler
          .CompileMatch(graph::Pattern::Triangle(),
                        {.plan_strategy = core::PlanStrategy::kGreedyCardinality,
                         .break_symmetry = true,
                         .fold_ascending = true,
                         .input_aware = true})
          .value();
  EXPECT_EQ(plan.start, core::StartMode::kEdgeParallel);
  EXPECT_EQ(plan.first_depth(), 2);
  EXPECT_EQ(plan.levels.size(), 1u);
  core::CompiledRunResult run = RunPlan(&g, plan);
  EXPECT_EQ(run.instances,
            graph::CountInstances(g, graph::Pattern::Triangle()));
  EXPECT_EQ(run.embeddings, run.instances);
}

TEST(InputAwareTest, AutoPlansMatchOracleOnQuerySet) {
  graph::Graph g = RandomLabeled(20, 60, 300);
  core::PatternCompiler compiler(&g);
  core::CompileOptions aware{
      .plan_strategy = core::PlanStrategy::kGreedyCardinality,
      .break_symmetry = true,
      .fold_ascending = true,
      .input_aware = true};
  for (const graph::Pattern& q :
       {graph::Pattern::Diamond(), graph::Pattern::Cycle(4),
        graph::Pattern::SmQuery(1, g.num_labels()),
        graph::Pattern::SmQuery(3, g.num_labels())}) {
    core::CompiledRunResult run = RunPlan(&g, compiler.CompileMatch(q, aware).value());
    EXPECT_EQ(run.instances, graph::CountInstances(g, q))
        << q.DebugString();
  }
}

TEST(PlanJsonTest, EmitsWellFormedPlanDocument) {
  graph::Graph g = RandomLabeled(21, 60, 300);
  core::PatternCompiler compiler(&g);
  core::CompiledPlan plan =
      compiler
          .CompileMatch(graph::Pattern::Diamond(),
                        {.plan_strategy = core::PlanStrategy::kGreedyCardinality,
                         .break_symmetry = true,
                         .fold_ascending = true,
                         .input_aware = true})
          .value();
  std::string json = plan.ToJson();
  minijson::Value doc;
  ASSERT_TRUE(minijson::Parser(json).Parse(&doc)) << json;
  ASSERT_EQ(doc.type, minijson::Value::kObject);
  const minijson::Value* schema = doc.Find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->str, "gamma.plan.v1");
  EXPECT_EQ(doc.Find("kind")->str, "subgraph-match");
  const minijson::Value* order = doc.Find("order");
  ASSERT_NE(order, nullptr);
  EXPECT_EQ(order->array.size(), 4u);
  const minijson::Value* levels = doc.Find("levels");
  ASSERT_NE(levels, nullptr);
  ASSERT_EQ(levels->array.size(), plan.levels.size());
  for (const minijson::Value& level : levels->array) {
    const minijson::Value* ws = level.Find("write_strategy");
    ASSERT_NE(ws, nullptr);
    EXPECT_NE(ws->str, "inherit");  // input-aware plans pick explicitly
    ASSERT_NE(level.Find("depth"), nullptr);
    ASSERT_NE(level.Find("intersect"), nullptr);
    ASSERT_NE(level.Find("restrictions"), nullptr);
  }
  EXPECT_EQ(doc.Find("symmetry_broken")->boolean, true);
  // Summary mirrors the full document.
  core::PlanSummary summary = plan.Summary();
  EXPECT_TRUE(summary.enabled);
  EXPECT_EQ(summary.kind, "subgraph-match");
  EXPECT_EQ(summary.levels, static_cast<int>(plan.levels.size()));
  EXPECT_TRUE(summary.symmetry_broken);
}

}  // namespace
}  // namespace gpm
