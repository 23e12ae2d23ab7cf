#include "core/pattern_compiler.h"

#include <algorithm>
#include <sstream>

#include "common/json.h"
#include "common/logging.h"
#include "graph/isomorphism.h"

namespace gpm::core {
namespace {

using graph::Label;
using graph::Pattern;

// Restrictions that constrain the vertex matched at depth `d` given the
// already-matched prefix — exactly the per-level selection the legacy
// symmetric matcher performed inline (same iteration order, so compiled
// post-filters evaluate restrictions in the same sequence).
std::vector<SymmetryRestriction> ApplicableAt(
    const std::vector<SymmetryRestriction>& restrictions, int d) {
  std::vector<SymmetryRestriction> applicable;
  for (const SymmetryRestriction& r : restrictions) {
    if (r.larger_pos == d && r.smaller_pos < d) applicable.push_back(r);
    if (r.smaller_pos == d && r.larger_pos < d) applicable.push_back(r);
  }
  return applicable;
}

// True when `applicable` is exactly the full ascending chain at depth d:
// {(j, d) : j = 0..d-1}. Only then can the post-filter be folded into the
// extension's require_ascending flag without changing semantics.
bool IsFullAscendingChain(const std::vector<SymmetryRestriction>& applicable,
                          int d) {
  if (static_cast<int>(applicable.size()) != d) return false;
  std::vector<bool> seen(d, false);
  for (const SymmetryRestriction& r : applicable) {
    if (r.larger_pos != d) return false;
    if (r.smaller_pos < 0 || r.smaller_pos >= d) return false;
    if (seen[r.smaller_pos]) return false;
    seen[r.smaller_pos] = true;
  }
  return true;
}

void WriteLabel(JsonWriter& w, Label label) {
  if (label == Pattern::kAnyLabel) {
    w.Value("*");
  } else {
    w.Value(label);
  }
}

}  // namespace

const char* PlanKindName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kSubgraphMatch:
      return "subgraph-match";
    case PlanKind::kMotifCensus:
      return "motif-census";
    case PlanKind::kFrequentMining:
      return "frequent-mining";
    case PlanKind::kEdgeJoin:
      return "edge-join";
  }
  return "?";
}

const char* StartModeName(StartMode mode) {
  switch (mode) {
    case StartMode::kVertexParallel:
      return "vertex-parallel";
    case StartMode::kEdgeParallel:
      return "edge-parallel";
  }
  return "?";
}

PlanSummary CompiledPlan::Summary() const {
  PlanSummary s;
  s.enabled = true;
  s.kind = PlanKindName(kind);
  s.order = order;
  switch (kind) {
    case PlanKind::kSubgraphMatch:
    case PlanKind::kMotifCensus:
      s.levels = static_cast<int>(levels.size());
      break;
    case PlanKind::kFrequentMining:
      s.levels = max_edges > 0 ? max_edges - 1 : 0;
      break;
    case PlanKind::kEdgeJoin:
      s.levels = edge_order.empty()
                     ? 0
                     : static_cast<int>(edge_order.size()) - 1;
      break;
  }
  s.symmetry_broken = symmetry_broken;
  return s;
}

std::string CompiledPlan::DebugString() const {
  std::ostringstream os;
  os << "CompiledPlan(" << PlanKindName(kind);
  if (!order.empty()) {
    os << ", order=[";
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (i > 0) os << ",";
      os << order[i];
    }
    os << "]";
  }
  os << ", start=" << StartModeName(start)
     << ", levels=" << levels.size();
  if (symmetry_broken) os << ", symmetry-broken";
  if (kind == PlanKind::kFrequentMining) {
    os << ", max_edges=" << max_edges << ", min_support=" << min_support;
  }
  os << ")";
  return os.str();
}

std::string CompiledPlan::ToJson() const {
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.Key("schema").Value("gamma.plan.v1");
  w.Key("kind").Value(PlanKindName(kind));
  if (kind == PlanKind::kSubgraphMatch || kind == PlanKind::kEdgeJoin) {
    w.Key("pattern").BeginObject();
    w.Key("num_vertices").Value(pattern.num_vertices());
    w.Key("edges").BeginArray();
    for (auto [a, b] : pattern.EdgeList()) {
      w.BeginArray().Value(a).Value(b).EndArray();
    }
    w.EndArray();
    w.Key("labels").BeginArray();
    for (int i = 0; i < pattern.num_vertices(); ++i) {
      WriteLabel(w, pattern.label(i));
    }
    w.EndArray();
    w.EndObject();
  }
  if (kind == PlanKind::kSubgraphMatch || kind == PlanKind::kMotifCensus) {
    w.Key("order").BeginArray();
    for (int v : order) w.Value(v);
    w.EndArray();
    w.Key("start").BeginObject();
    w.Key("mode").Value(StartModeName(start));
    w.Key("label");
    WriteLabel(w, start_label);
    if (start == StartMode::kEdgeParallel) {
      w.Key("second_label");
      WriteLabel(w, second_label);
    }
    w.Key("ascending").Value(start_ascending);
    // Why this start mode: the raw estimates the input-aware rule
    // compares, recorded even when input_aware was off (the choice is
    // then "inherit the preset's vertex-parallel start").
    w.Key("rationale").BeginObject();
    w.Key("input_aware").Value(input_aware);
    w.Key("est_start_rows").Value(est_start_rows);
    w.Key("est_pair_rows").Value(est_pair_rows);
    w.Key("edge_parallel_foldable").Value(edge_parallel_foldable);
    w.Key("edge_parallel_profitable")
        .Value(edge_parallel_foldable && est_pair_rows >= est_start_rows);
    w.EndObject();
    w.EndObject();
    w.Key("levels").BeginArray();
    for (std::size_t i = 0; i < levels.size(); ++i) {
      const CompiledLevel& level = levels[i];
      w.BeginObject();
      w.Key("depth").Value(first_depth() + static_cast<int>(i));
      w.Key("intersect").BeginArray();
      for (int p : level.intersect_positions) w.Value(p);
      w.EndArray();
      w.Key("label");
      WriteLabel(w, level.candidate_label);
      w.Key("require_ascending").Value(level.require_ascending);
      w.Key("enforce_injective").Value(level.enforce_injective);
      w.Key("restrictions").BeginArray();
      for (const SymmetryRestriction& r : level.restrictions) {
        w.BeginObject();
        w.Key("smaller_pos").Value(r.smaller_pos);
        w.Key("larger_pos").Value(r.larger_pos);
        w.EndObject();
      }
      w.EndArray();
      w.Key("count_only").Value(level.count_only);
      w.Key("write_strategy")
          .Value(level.write_strategy ? WriteStrategyName(*level.write_strategy)
                                      : "inherit");
      if (level.pre_merge) {
        w.Key("pre_merge").Value(*level.pre_merge);
      } else {
        w.Key("pre_merge").Value("inherit");
      }
      w.Key("est_rows").Value(level.est_rows);
      // Why these strategy choices: the inputs the input-aware rules
      // compare. "inherit" = the plan did not override the engine option.
      w.Key("rationale").BeginObject();
      w.Key("intersect_width")
          .Value(level.intersect_positions.size());
      w.Key("prealloc_threshold").Value(kPreAllocRowsThreshold);
      w.Key("write_strategy_rule")
          .Value(!level.write_strategy ? "inherit"
                 : level.est_rows >= kPreAllocRowsThreshold
                     ? "est_rows>=threshold"
                     : "est_rows<threshold");
      w.Key("pre_merge_rule")
          .Value(!level.pre_merge                     ? "inherit"
                 : level.intersect_positions.size() >= 2
                     ? "intersect_width>=2"
                     : "intersect_width<2");
      w.EndObject();
      w.EndObject();
    }
    w.EndArray();
  }
  if (kind == PlanKind::kEdgeJoin) {
    w.Key("edge_order").BeginArray();
    for (auto [a, b] : edge_order) {
      w.BeginArray().Value(a).Value(b).EndArray();
    }
    w.EndArray();
  }
  if (kind == PlanKind::kFrequentMining) {
    w.Key("fpm").BeginObject();
    w.Key("max_edges").Value(max_edges);
    w.Key("min_support").Value(min_support);
    w.EndObject();
  }
  w.Key("symmetry_broken").Value(symmetry_broken);
  w.Key("automorphisms").Value(automorphisms);
  w.Key("estimated_cost").Value(estimated_cost);
  w.EndObject();
  os << "\n";
  return os.str();
}

Result<CompiledPlan> PatternCompiler::CompileMatch(
    const graph::Pattern& query, const CompileOptions& options) const {
  if (query.num_vertices() < 1) {
    return Status::InvalidArgument("cannot compile an empty pattern");
  }
  // BuildWojPlan aborts on disconnected queries; reject them up front so
  // untrusted patterns fail as a structured error.
  if (!query.ConnectedPrefix(query.DefaultMatchingOrder())) {
    return Status::InvalidArgument(
        "pattern graph is not connected: " + query.DebugString());
  }
  return CompileMatchWithPlan(
      query, BuildWojPlan(*g_, query, options.plan_strategy), options);
}

Result<CompiledPlan> PatternCompiler::CompileMatchWithPlan(
    const graph::Pattern& query, const WojPlan& woj,
    const CompileOptions& options) const {
  if (query.num_vertices() < 1) {
    return Status::InvalidArgument("cannot compile an empty pattern");
  }
  if (static_cast<int>(woj.order.size()) != query.num_vertices()) {
    return Status::InvalidArgument(
        "plan order has " + std::to_string(woj.order.size()) +
        " entries for a " + std::to_string(query.num_vertices()) +
        "-vertex pattern");
  }
  const int k = query.num_vertices();

  CompiledPlan plan;
  plan.kind = PlanKind::kSubgraphMatch;
  plan.pattern = query;
  plan.automorphisms = static_cast<uint64_t>(query.CountAutomorphisms());
  plan.order = woj.order;
  plan.estimated_cost = woj.estimated_cost;
  plan.start_label = query.label(plan.order[0]);

  std::vector<SymmetryRestriction> restrictions;
  if (options.break_symmetry) {
    restrictions = BreakSymmetry(query, plan.order);
    plan.symmetry_broken = true;
  }

  for (int d = 1; d < k; ++d) {
    CompiledLevel level;
    // Derived from the query rather than copied from woj.backward so
    // caller-supplied plans with only an order still compile.
    for (int j = 0; j < d; ++j) {
      if (query.HasEdge(plan.order[d], plan.order[j])) {
        level.intersect_positions.push_back(j);
      }
    }
    if (level.intersect_positions.empty()) {
      return Status::InvalidArgument(
          "matching order prefix not connected at depth " +
          std::to_string(d) + " (vertex " + std::to_string(plan.order[d]) +
          " has no matched neighbor)");
    }
    level.candidate_label = query.label(plan.order[d]);
    level.enforce_injective = true;
    level.restrictions = ApplicableAt(restrictions, d);
    if (options.fold_ascending &&
        IsFullAscendingChain(level.restrictions, d)) {
      level.require_ascending = true;
      level.restrictions.clear();
    }
    level.count_only = options.count_only_last && d == k - 1;
    level.est_rows = EstimateCardinality(*g_, query, plan.order, d);
    plan.levels.push_back(std::move(level));
  }

  // Rationale fields are filled whether or not input_aware acts on them
  // (compiling is pure host analysis), so every plan document carries the
  // estimates an input-aware compile would have decided from.
  plan.input_aware = options.input_aware;
  plan.est_start_rows = EstimateCardinality(*g_, query, plan.order, 0);
  if (k >= 2) {
    const CompiledLevel& l1 = plan.levels.front();
    plan.est_pair_rows = l1.est_rows;
    plan.edge_parallel_foldable =
        l1.restrictions.empty() ||
        (l1.restrictions.size() == 1 &&
         l1.restrictions[0].smaller_pos == 0 &&
         l1.restrictions[0].larger_pos == 1) ||
        l1.require_ascending;
  }

  if (options.input_aware) {
    // Input-aware strategy selection (documented in DESIGN.md):
    //
    // Start mode. An edge-parallel start seeds the first two columns from
    // one edge-list scan, eliminating the depth-1 extension pass. It is
    // legal when the plan has >= 2 vertices and the depth-1 restrictions
    // are absent or exactly the single (0,1) pair (foldable into an
    // ascending pair scan); it is chosen when the estimated pair count is
    // at least the start-vertex candidate count, i.e. the scan replaces an
    // extension over a table no smaller than itself.
    if (k >= 2) {
      const CompiledLevel& l1 = plan.levels.front();
      if (plan.edge_parallel_foldable &&
          plan.est_pair_rows >= plan.est_start_rows) {
        plan.start = StartMode::kEdgeParallel;
        plan.second_label = l1.candidate_label;
        plan.start_ascending =
            l1.require_ascending || !l1.restrictions.empty();
        plan.levels.erase(plan.levels.begin());
      }
    }
    // Write strategy. Two-pass pre-allocation amortizes well on large
    // intermediate tables; dynamic allocation wins when a level is
    // expected to stay small (chunk setup dominates). Grouped
    // intersection (pre_merge) pays off once a level intersects >= 2
    // matched adjacency lists.
    for (CompiledLevel& level : plan.levels) {
      level.write_strategy = level.est_rows >= kPreAllocRowsThreshold
                                 ? WriteStrategy::kPreAlloc
                                 : WriteStrategy::kDynamicAlloc;
      level.pre_merge = level.intersect_positions.size() >= 2;
    }
  }

  return plan;
}

Result<CompiledPlan> PatternCompiler::CompileKClique(
    int k, bool count_only_last) const {
  if (k < 2) {
    return Status::InvalidArgument("k-clique needs k >= 2, got " +
                                   std::to_string(k));
  }
  CompileOptions options;
  options.plan_strategy = PlanStrategy::kStructural;
  options.break_symmetry = true;
  options.fold_ascending = true;
  options.count_only_last = count_only_last;
  Result<CompiledPlan> plan = CompileMatch(Pattern::Clique(k), options);
  if (!plan.ok()) return plan;
  // The clique's full automorphism group folds into ascending-id
  // extensions at every level; the compiled spec is then field-identical
  // to the legacy hand-written one.
  for (const CompiledLevel& level : plan.value().levels) {
    if (!level.require_ascending || !level.restrictions.empty()) {
      return Status::Internal("clique restrictions did not fold");
    }
  }
  return plan;
}

Result<CompiledPlan> PatternCompiler::CompileMotifCensus(int k) const {
  if (k < 2 || k > 5) {
    return Status::InvalidArgument(
        "motif census supports k in [2,5], got " + std::to_string(k));
  }
  CompiledPlan plan;
  plan.kind = PlanKind::kMotifCensus;
  plan.pattern = Pattern(k);
  plan.order.resize(k);
  for (int i = 0; i < k; ++i) plan.order[i] = i;
  for (int d = 1; d < k; ++d) {
    CompiledLevel level;  // empty intersect set = union extension
    level.enforce_injective = true;
    plan.levels.push_back(std::move(level));
  }
  return plan;
}

Result<CompiledPlan> PatternCompiler::CompileFpm(int max_edges,
                                                 uint64_t min_support) const {
  // An embedding of k edges spans up to k + 1 vertices, and patterns hold
  // at most Pattern::kMaxVertices.
  constexpr int kMaxEdges = graph::Pattern::kMaxVertices - 1;
  if (max_edges < 1 || max_edges > kMaxEdges) {
    return Status::InvalidArgument(
        "max_edges must be in [1, " + std::to_string(kMaxEdges) + "], got " +
        std::to_string(max_edges));
  }
  CompiledPlan plan;
  plan.kind = PlanKind::kFrequentMining;
  plan.max_edges = max_edges;
  plan.min_support = min_support;
  return plan;
}

Result<CompiledPlan> PatternCompiler::CompileEdgeJoin(
    const graph::Pattern& query) const {
  if (query.num_vertices() < 2 || query.num_edges() < 1) {
    return Status::InvalidArgument(
        "edge join needs a pattern with at least one edge");
  }
  // ConnectedEdgeOrder aborts on disconnected queries; reject them first.
  if (!query.ConnectedPrefix(query.DefaultMatchingOrder())) {
    return Status::InvalidArgument(
        "pattern graph is not connected: " + query.DebugString());
  }
  CompiledPlan plan;
  plan.kind = PlanKind::kEdgeJoin;
  plan.pattern = query;
  plan.automorphisms = static_cast<uint64_t>(query.CountAutomorphisms());
  plan.edge_order = graph::ConnectedEdgeOrder(query);
  return plan;
}

}  // namespace gpm::core
