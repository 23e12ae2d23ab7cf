#ifndef GAMMA_GRAPH_ISOMORPHISM_H_
#define GAMMA_GRAPH_ISOMORPHISM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.h"
#include "graph/pattern.h"

namespace gpm::graph {

/// True when `assignment` (pattern vertex i → data vertex assignment[i]) is
/// an injective, label- and edge-preserving embedding of `p` in `g`
/// (subgraph isomorphism; non-induced).
bool IsEmbedding(const Graph& g, const Pattern& p,
                 const std::vector<VertexId>& assignment);

/// Counts all embeddings (ordered, injective maps) of `p` in `g` with a
/// straightforward backtracking search. Reference oracle for tests and the
/// functional core of the CPU baselines.
uint64_t CountEmbeddings(const Graph& g, const Pattern& p);

/// Counts instances: embeddings divided by |Aut(p)|.
uint64_t CountInstances(const Graph& g, const Pattern& p);

/// Enumerates all embeddings into `out` (ordered by matching order); for
/// small test graphs only.
void EnumerateEmbeddings(const Graph& g, const Pattern& p,
                         std::vector<std::vector<VertexId>>* out);

/// Builds the pattern induced by `vertices` of `g` restricted to the edges
/// among them that are present in g (with data labels when `use_labels`).
/// This is the map_function of FPM aggregation: an embedding's shape.
/// Allocation-free; at most Pattern::kMaxVertices vertices.
Pattern PatternOfVertices(const Graph& g, std::span<const VertexId> vertices,
                          bool use_labels);

/// Builds the pattern spanned by a set of undirected edge ids of `g` (the
/// e-ET variant used by edge extension). Vertices are numbered in first-seen
/// order; labels taken from `g` when `use_labels`. Allocation-free; the
/// edges may touch at most Pattern::kMaxVertices distinct vertices.
Pattern PatternOfEdges(const Graph& g, std::span<const EdgeId> edges,
                       bool use_labels);

/// Number of vertex orderings of `p` whose every prefix is connected — the
/// per-instance multiplicity of union-neighborhood vertex extension (motif
/// census post-processing divides by it).
uint64_t CountConnectedOrderings(const Pattern& p);

/// A connected ordering of `p`'s edges: every edge after the first shares a
/// vertex with an earlier one (the prefix constraint edge-at-a-time matching
/// plans need).
std::vector<std::pair<int, int>> ConnectedEdgeOrder(const Pattern& p);

/// True when the edge-id sequence `edges` (in order) can be mapped to the
/// first `edges.size()` edges of `query_edges` (pairs over query vertices,
/// with `query` supplying labels) by a consistent injective vertex
/// assignment. The per-prefix constraint of binary-join matching.
bool MatchesQueryPrefix(const Graph& g, const std::vector<EdgeId>& edges,
                        const Pattern& query,
                        const std::vector<std::pair<int, int>>& query_edges);

}  // namespace gpm::graph

#endif  // GAMMA_GRAPH_ISOMORPHISM_H_
