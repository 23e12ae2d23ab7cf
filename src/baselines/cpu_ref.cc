#include "baselines/cpu_ref.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "core/extension.h"
#include "graph/canonical.h"
#include "graph/isomorphism.h"

namespace gpm::baselines {
namespace {

using graph::EdgeId;
using graph::Label;
using graph::Pattern;
using graph::VertexId;

// Op-counted backtracking matcher (embedding count). Ops: one per
// candidate probed (adjacency scan element or binary-search step).
struct CountingMatcher {
  const graph::Graph& g;
  const Pattern& p;
  std::vector<int> order;
  std::vector<VertexId> assigned;
  uint64_t count = 0;
  uint64_t ops = 0;

  CountingMatcher(const graph::Graph& graph, const Pattern& pattern)
      : g(graph), p(pattern), order(pattern.DefaultMatchingOrder()) {
    assigned.assign(p.num_vertices(), 0);
  }

  bool LabelOk(int qv, VertexId dv) const {
    return p.label(qv) == Pattern::kAnyLabel || p.label(qv) == g.label(dv);
  }

  void Run() {
    const int first = order[0];
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ++ops;
      if (!LabelOk(first, v)) continue;
      assigned[first] = v;
      Extend(1);
    }
  }

  void Extend(int depth) {
    if (depth == p.num_vertices()) {
      ++count;
      return;
    }
    const int pv = order[depth];
    int anchor = -1;
    uint32_t anchor_deg = 0;
    std::vector<int> backs;
    for (int d = 0; d < depth; ++d) {
      int q = order[d];
      if (!p.HasEdge(pv, q)) continue;
      backs.push_back(q);
      uint32_t deg = g.degree(assigned[q]);
      if (anchor < 0 || deg < anchor_deg) {
        anchor = q;
        anchor_deg = deg;
      }
    }
    GAMMA_CHECK(anchor >= 0) << "disconnected matching order";
    for (VertexId cand : g.neighbors(assigned[anchor])) {
      ++ops;
      if (!LabelOk(pv, cand)) continue;
      bool ok = true;
      for (int d = 0; d < depth && ok; ++d) {
        if (assigned[order[d]] == cand) ok = false;
      }
      for (int q : backs) {
        if (!ok) break;
        if (q == anchor) continue;
        // A binary-search adjacency probe touches ~log2(d) cache lines.
        ops += 8;
        if (!g.HasEdge(assigned[q], cand)) ok = false;
      }
      if (!ok) continue;
      assigned[pv] = cand;
      Extend(depth + 1);
    }
  }
};

}  // namespace

CpuRunResult CpuKClique(const graph::Graph& g, int k,
                        const CpuModel& model) {
  CpuRunResult result;
  GAMMA_CHECK(k >= 2) << "k must be at least 2";

  // Ordered DFS: candidates are neighbors with larger ids, intersected as
  // the clique grows, so each clique is visited exactly once.
  std::vector<VertexId> cand, next;
  struct Frame {
    std::vector<VertexId> cand;
    std::size_t i = 0;
  };
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    auto nbrs = g.neighbors(v);
    auto it = std::upper_bound(nbrs.begin(), nbrs.end(), v);
    cand.assign(it, nbrs.end());
    result.ops += nbrs.size();
    if (k == 2) {
      result.count += cand.size();
      continue;
    }
    // Iterative DFS from depth 2.
    std::vector<Frame> stack;
    stack.push_back({cand, 0});
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.i >= f.cand.size()) {
        stack.pop_back();
        continue;
      }
      VertexId w = f.cand[f.i++];
      int depth = static_cast<int>(stack.size()) + 1;  // vertices so far
      if (depth + 1 == k) {
        // Count completions: candidates after w adjacent to w.
        auto wn = g.neighbors(w);
        next.clear();
        std::set_intersection(f.cand.begin() + f.i, f.cand.end(),
                              wn.begin(), wn.end(),
                              std::back_inserter(next));
        result.ops += (f.cand.size() - f.i) + wn.size();
        result.count += next.size();
      } else {
        auto wn = g.neighbors(w);
        next.clear();
        std::set_intersection(f.cand.begin() + f.i, f.cand.end(),
                              wn.begin(), wn.end(),
                              std::back_inserter(next));
        result.ops += (f.cand.size() - f.i) + wn.size();
        if (!next.empty()) stack.push_back({next, 0});
      }
    }
  }
  result.sim_millis = model.OpsToMillis(result.ops);
  return result;
}

CpuRunResult CpuSubgraphMatch(const graph::Graph& g,
                              const graph::Pattern& query,
                              const CpuModel& model,
                              bool symmetry_breaking) {
  CountingMatcher m(g, query);
  m.Run();
  CpuRunResult result;
  result.count = m.count;
  result.ops = m.ops;
  if (symmetry_breaking) {
    // Pattern-aware systems explore one representative per automorphism
    // orbit and multiply; the work shrinks by |Aut| while the reported
    // count stays the same.
    result.ops /= static_cast<uint64_t>(query.CountAutomorphisms());
  }
  result.sim_millis = model.OpsToMillis(result.ops);
  return result;
}

CpuFpmResult CpuFpmEmbeddingCentric(const graph::Graph& g, int max_edges,
                                    uint64_t min_support,
                                    const CpuModel& model) {
  CpuFpmResult result;
  GAMMA_CHECK(!g.edge_list().empty()) << "edge index required";
  graph::CanonicalCache cache;

  std::vector<std::vector<EdgeId>> level;
  level.reserve(g.num_edges());
  for (EdgeId e = 0; e < g.edge_list().size(); ++e) level.push_back({e});

  for (int i = 1; i <= max_edges; ++i) {
    // Aggregation.
    std::unordered_map<uint64_t, uint64_t> counts;
    std::unordered_map<uint64_t, Pattern> exemplars;
    std::vector<uint64_t> codes(level.size());
    for (std::size_t r = 0; r < level.size(); ++r) {
      Pattern p = graph::PatternOfEdges(g, level[r], /*use_labels=*/true);
      uint64_t code = cache.Get(p);
      codes[r] = code;
      ++counts[code];
      exemplars.try_emplace(code, p);
      result.ops += static_cast<uint64_t>(i) * i;
    }
    for (auto& [code, c] : counts) {
      result.patterns.Accumulate(code, exemplars.at(code), c);
    }
    result.patterns.InvalidateBelow(min_support);
    auto invalid = result.patterns.InvalidCodes();
    result.patterns.EraseInvalid();

    // Filtering.
    std::vector<std::vector<EdgeId>> kept;
    kept.reserve(level.size());
    for (std::size_t r = 0; r < level.size(); ++r) {
      ++result.ops;
      if (!invalid.count(codes[r])) kept.push_back(std::move(level[r]));
    }
    level = std::move(kept);

    if (i == max_edges) break;

    // Extension with canonicality dedup.
    std::vector<std::vector<EdgeId>> next;
    std::vector<VertexId> verts;
    std::vector<EdgeId> cands;
    for (const auto& emb : level) {
      verts.clear();
      for (EdgeId e : emb) {
        const graph::Edge& ed = g.edge_list()[e];
        if (std::find(verts.begin(), verts.end(), ed.u) == verts.end())
          verts.push_back(ed.u);
        if (std::find(verts.begin(), verts.end(), ed.v) == verts.end())
          verts.push_back(ed.v);
      }
      cands.clear();
      for (VertexId v : verts) {
        auto eids = g.neighbor_edge_ids(v);
        cands.insert(cands.end(), eids.begin(), eids.end());
        result.ops += eids.size();
      }
      std::sort(cands.begin(), cands.end());
      cands.erase(std::unique(cands.begin(), cands.end()), cands.end());
      for (EdgeId cand : cands) {
        if (std::find(emb.begin(), emb.end(), cand) != emb.end()) continue;
        result.ops += static_cast<uint64_t>(i) * i;
        std::span<const core::Unit> span(
            reinterpret_cast<const core::Unit*>(emb.data()), emb.size());
        if (!core::IsCanonicalEdgeExtension(g, span, cand)) continue;
        std::vector<EdgeId> extended = emb;
        extended.push_back(cand);
        next.push_back(std::move(extended));
      }
    }
    level = std::move(next);
  }
  result.sim_millis = model.OpsToMillis(result.ops);
  return result;
}

CpuFpmResult CpuFpmPatternCentric(const graph::Graph& g, int max_edges,
                                  uint64_t min_support,
                                  const CpuModel& model) {
  CpuFpmResult result;
  graph::CanonicalCache cache;
  const uint32_t num_labels = g.num_labels();

  // Level 1: single-edge patterns by label pair (one scan of the edges).
  std::unordered_map<uint64_t, std::pair<Pattern, uint64_t>> current;
  for (const graph::Edge& e : g.edge_list()) {
    ++result.ops;
    Pattern p(2);
    p.AddEdge(0, 1);
    Label a = g.label(e.u), b = g.label(e.v);
    p.SetLabel(0, std::min(a, b));
    p.SetLabel(1, std::max(a, b));
    uint64_t code = cache.Get(p);
    auto [it, inserted] = current.emplace(code, std::make_pair(p, 0));
    ++it->second.second;
  }
  for (auto it = current.begin(); it != current.end();) {
    if (it->second.second < min_support) {
      it = current.erase(it);
    } else {
      result.patterns.Accumulate(it->first, it->second.first,
                                 it->second.second);
      ++it;
    }
  }

  for (int i = 2; i <= max_edges; ++i) {
    // Candidate generation: extend each frequent pattern by one edge —
    // either to a fresh vertex with every label, or closing a non-edge.
    std::unordered_map<uint64_t, Pattern> candidates;
    for (const auto& [code, entry] : current) {
      const Pattern& p = entry.first;
      const int n = p.num_vertices();
      if (n < Pattern::kMaxVertices) {
        for (int a = 0; a < n; ++a) {
          for (uint32_t l = 0; l < num_labels; ++l) {
            Pattern q(n + 1);
            for (int x = 0; x < n; ++x) {
              q.SetLabel(x, p.label(x));
              for (int y = x + 1; y < n; ++y) {
                if (p.HasEdge(x, y)) q.AddEdge(x, y);
              }
            }
            q.SetLabel(n, l);
            q.AddEdge(a, n);
            candidates.emplace(cache.Get(q), q);
          }
        }
      }
      for (int a = 0; a < n; ++a) {
        for (int b = a + 1; b < n; ++b) {
          if (p.HasEdge(a, b)) continue;
          Pattern q = p;
          q.AddEdge(a, b);
          candidates.emplace(cache.Get(q), q);
        }
      }
    }
    // Support counting by matching (no embeddings materialized).
    std::unordered_map<uint64_t, std::pair<Pattern, uint64_t>> next;
    for (const auto& [code, q] : candidates) {
      CountingMatcher m(g, q);
      m.Run();
      result.ops += m.ops;
      uint64_t support =
          m.count / static_cast<uint64_t>(q.CountAutomorphisms());
      if (support >= min_support) {
        next.emplace(code, std::make_pair(q, support));
        result.patterns.Accumulate(code, q, support);
      }
    }
    current = std::move(next);
    if (current.empty()) break;
  }
  result.sim_millis = model.OpsToMillis(result.ops);
  return result;
}

}  // namespace gpm::baselines
