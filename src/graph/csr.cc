#include "graph/csr.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace gpm::graph {

Graph Graph::FromEdges(VertexId num_vertices,
                       const std::vector<Edge>& edges) {
  // Normalize to directed arcs in both directions.
  std::vector<std::pair<VertexId, VertexId>> arcs;
  arcs.reserve(edges.size() * 2);
  for (const Edge& e : edges) {
    GAMMA_CHECK(e.u < num_vertices && e.v < num_vertices)
        << "edge endpoint out of range: (" << e.u << "," << e.v << ")";
    if (e.u == e.v) continue;
    arcs.emplace_back(e.u, e.v);
    arcs.emplace_back(e.v, e.u);
  }
  std::sort(arcs.begin(), arcs.end());
  arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());

  Graph g;
  g.row_ptr_.assign(num_vertices + 1, 0);
  g.col_.resize(arcs.size());
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    ++g.row_ptr_[arcs[i].first + 1];
    g.col_[i] = arcs[i].second;
  }
  for (VertexId v = 0; v < num_vertices; ++v) {
    g.row_ptr_[v + 1] += g.row_ptr_[v];
    uint32_t d = static_cast<uint32_t>(g.row_ptr_[v + 1] - g.row_ptr_[v]);
    g.max_degree_ = std::max(g.max_degree_, d);
  }
  return g;
}

bool Graph::HasEdge(VertexId u, VertexId v) const {
  auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

void Graph::SetLabels(std::vector<Label> labels) {
  GAMMA_CHECK(labels.size() == num_vertices())
      << "label vector size mismatch";
  labels_ = std::move(labels);
  num_labels_ = 0;
  for (Label l : labels_) num_labels_ = std::max(num_labels_, l + 1);
  if (num_labels_ == 0) num_labels_ = 1;
}

void Graph::EnsureEdgeIndex() {
  if (!edge_list_.empty() || col_.empty()) return;
  edge_list_.reserve(num_edges());
  for (VertexId u = 0; u < num_vertices(); ++u) {
    for (VertexId v : neighbors(u)) {
      if (u < v) edge_list_.push_back({u, v});
    }
  }
  // edge_list_ is already sorted by (u, v) because CSR rows are sorted.
  incident_ptr_.assign(num_vertices() + 1, 0);
  for (const Edge& e : edge_list_) {
    ++incident_ptr_[e.u + 1];
    ++incident_ptr_[e.v + 1];
  }
  for (std::size_t v = 0; v < num_vertices(); ++v) {
    incident_ptr_[v + 1] += incident_ptr_[v];
  }
  incident_.resize(col_.size());
  std::vector<uint64_t> cursor(incident_ptr_.begin(),
                               incident_ptr_.end() - 1);
  for (EdgeId id = 0; id < edge_list_.size(); ++id) {
    const Edge& e = edge_list_[id];
    incident_[cursor[e.u]++] = id;
    incident_[cursor[e.v]++] = id;
  }
  // incident_ doubles as the per-arc edge ids (see arc_edge_ids()), which
  // needs each vertex's incident count to equal its degree.
  GAMMA_CHECK(incident_ptr_ == row_ptr_)
      << "incident lists misaligned with CSR rows";
}

EdgeId Graph::FindEdgeId(VertexId u, VertexId v) const {
  if (u > v) std::swap(u, v);
  Edge probe{u, v};
  auto it = std::lower_bound(edge_list_.begin(), edge_list_.end(), probe);
  if (it == edge_list_.end() || !(*it == probe)) return kInvalidEdge;
  return static_cast<EdgeId>(it - edge_list_.begin());
}

std::size_t Graph::StorageBytes() const {
  return row_ptr_.size() * sizeof(uint64_t) +
         col_.size() * sizeof(VertexId) + labels_.size() * sizeof(Label) +
         edge_list_.size() * sizeof(Edge) +
         incident_ptr_.size() * sizeof(uint64_t) +
         incident_.size() * sizeof(EdgeId);
}

std::string Graph::DebugString() const {
  std::ostringstream os;
  os << "Graph(|V|=" << num_vertices() << ", |E|=" << num_edges()
     << ", d_max=" << max_degree() << ", labels=" << num_labels_ << ")";
  return os.str();
}

}  // namespace gpm::graph
