#ifndef GAMMA_GRAPH_CSR_H_
#define GAMMA_GRAPH_CSR_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace gpm::graph {

using VertexId = uint32_t;
using EdgeId = uint32_t;
using Label = uint32_t;

/// An undirected edge as a (min, max) vertex pair.
struct Edge {
  VertexId u;
  VertexId v;
  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

/// Labeled graph in Compressed Sparse Row form (§IV).
///
/// Adjacency lists are strictly increasing and loop-free (construction
/// drops self-loops and duplicate edges), which enables binary-search
/// adjacency tests and merge-based set intersection — both primitives
/// GAMMA's extension step relies on. The graph is stored undirected: each
/// edge appears in both endpoints' adjacency lists. An optional edge index
/// assigns each undirected edge a dense EdgeId and provides
/// vertex→incident-edge lists (needed by edge-extension / e-ET workloads
/// such as FPM).
class Graph {
 public:
  Graph() = default;

  /// Builds an undirected CSR from an edge list. Vertices are
  /// [0, num_vertices); out-of-range endpoints are CHECK-failed. Self-loops
  /// are dropped and duplicate edges (in either orientation) are merged.
  static Graph FromEdges(VertexId num_vertices,
                         const std::vector<Edge>& edges);

  std::size_t num_vertices() const {
    return row_ptr_.empty() ? 0 : row_ptr_.size() - 1;
  }
  /// Number of undirected edges.
  std::size_t num_edges() const { return col_.size() / 2; }
  /// Number of directed arcs (2x undirected edges).
  std::size_t num_arcs() const { return col_.size(); }

  uint32_t degree(VertexId v) const {
    return static_cast<uint32_t>(row_ptr_[v + 1] - row_ptr_[v]);
  }
  uint32_t max_degree() const { return max_degree_; }
  double average_degree() const {
    return num_vertices() == 0
               ? 0.0
               : static_cast<double>(num_arcs()) / num_vertices();
  }

  /// Strictly increasing neighbor list of `v` (never contains `v`).
  std::span<const VertexId> neighbors(VertexId v) const {
    return {col_.data() + row_ptr_[v],
            col_.data() + row_ptr_[v + 1]};
  }

  /// Byte offset of `v`'s adjacency list inside the column array — used by
  /// the page-level access-heat model.
  std::size_t adjacency_offset_bytes(VertexId v) const {
    return row_ptr_[v] * sizeof(VertexId);
  }
  std::size_t adjacency_bytes(VertexId v) const {
    return degree(v) * sizeof(VertexId);
  }

  /// Binary-search adjacency test.
  bool HasEdge(VertexId u, VertexId v) const;

  Label label(VertexId v) const {
    return labels_.empty() ? 0 : labels_[v];
  }
  void SetLabels(std::vector<Label> labels);
  uint32_t num_labels() const { return num_labels_; }
  bool labeled() const { return !labels_.empty(); }

  const std::vector<uint64_t>& row_ptr() const { return row_ptr_; }
  const std::vector<VertexId>& col() const { return col_; }
  const std::vector<Label>& labels() const { return labels_; }

  // -- Undirected edge index ------------------------------------------------

  /// Builds (idempotently) the dense undirected-edge index.
  void EnsureEdgeIndex();
  bool has_edge_index() const { return !edge_list_.empty() || col_.empty(); }

  /// All undirected edges, Edge.u < Edge.v, sorted; EdgeId = position.
  const std::vector<Edge>& edge_list() const { return edge_list_; }

  /// Sorted ids of undirected edges incident to `v`.
  std::span<const EdgeId> incident_edges(VertexId v) const {
    return {incident_.data() + incident_ptr_[v],
            incident_.data() + incident_ptr_[v + 1]};
  }

  /// For each arc position in `col()`, the undirected EdgeId of that arc —
  /// i.e. arc_edge_ids()[i] is the edge {u, col()[i]} where i lies in u's
  /// row. Lets edge extension read candidate edge ids coalesced with the
  /// adjacency list. Row u lists its w < u (edges (w, u), ids ascending in
  /// w) before its w > u (edges (u, w), ids ascending in w and above the
  /// former), which is exactly the order of u's incident-edge ids; the two
  /// arrays are one.
  const std::vector<EdgeId>& arc_edge_ids() const { return incident_; }

  /// Edge ids aligned with neighbors(v); the same list as incident_edges(v)
  /// (EnsureEdgeIndex CHECKs that incident_ptr_ equals row_ptr_).
  std::span<const EdgeId> neighbor_edge_ids(VertexId v) const {
    return {incident_.data() + row_ptr_[v],
            incident_.data() + row_ptr_[v + 1]};
  }

  /// Id of undirected edge {u, v}, or kInvalidEdge when absent.
  static constexpr EdgeId kInvalidEdge = 0xffffffffu;
  EdgeId FindEdgeId(VertexId u, VertexId v) const;

  /// Total bytes of the CSR arrays (structure + labels), for memory
  /// accounting: the paper notes a billion-edge graph takes 10-15 GB.
  std::size_t StorageBytes() const;

  std::string DebugString() const;

 private:
  std::vector<uint64_t> row_ptr_;
  std::vector<VertexId> col_;
  std::vector<Label> labels_;
  uint32_t num_labels_ = 1;
  uint32_t max_degree_ = 0;

  // Undirected edge index (built on demand).
  std::vector<Edge> edge_list_;
  std::vector<uint64_t> incident_ptr_;
  std::vector<EdgeId> incident_;
};

}  // namespace gpm::graph

#endif  // GAMMA_GRAPH_CSR_H_
