#ifndef GAMMA_CORE_AGGREGATION_H_
#define GAMMA_CORE_AGGREGATION_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/adaptive_access.h"
#include "core/embedding_table.h"
#include "core/multimerge_sort.h"
#include "core/pattern_table.h"
#include "graph/csr.h"
#include "graph/pattern.h"

namespace gpm::core {

/// Support measure used when aggregating embeddings into patterns.
enum class SupportMeasure : uint8_t {
  /// Number of instances of the pattern (the paper's definition, §III).
  kInstanceCount,
  /// Minimum node image: min over pattern positions of the number of
  /// distinct data vertices appearing there (anti-monotone; common in
  /// other FPM systems, provided as an extension).
  kMni,
};

struct AggregationOptions {
  /// Map embeddings to labeled patterns (true for FPM over labeled data).
  bool use_labels = true;
  SupportMeasure support = SupportMeasure::kInstanceCount;
  /// Sorting backend for the canonical-code table; the pattern table can
  /// exceed device memory, which is what Optimization 3 addresses.
  SortOptions sort;
  /// Cycles charged per embedding for the map function (canonical coding
  /// of a k-unit embedding costs ~O(k^2) table lookups on device).
  double map_cycles_per_unit = 8.0;
};

struct AggregationResult {
  /// codes[r] = rank of embedding r's canonical pattern code among
  /// `distinct_codes` (aligned with the last column). Retained so Filtering
  /// can drop instances of invalid patterns without recomputing the map.
  std::vector<uint32_t> codes;
  /// The distinct canonical codes of this table, ascending: rank k stands
  /// for distinct_codes[k].
  std::vector<uint64_t> distinct_codes;
  std::size_t distinct_patterns = 0;
  SortStats sort_stats;
  double kernel_cycles = 0;
};

/// Builds the quick pattern of rows of a table's last column: the
/// embedding's shape as numbered by unit order, equal to PatternOfEdges
/// (vertices in first-seen order) for an edge table and PatternOfVertices
/// for a vertex table. Rows are appended in parent order, so the builder
/// keeps the quick pattern of the last parent prefix and, while the parent
/// repeats, adds only the row's last unit: an edge numbers each endpoint
/// not yet seen (u, then v) and adds one edge; a vertex adds one vertex and
/// its edges to the prefix. Rows may come in any order; ascending order
/// builds each prefix once per run of equal parent. The table must hold at
/// most Pattern::kMaxVertices vertices per row, and must outlive the builder
/// unchanged.
class QuickPatternBuilder {
 public:
  QuickPatternBuilder(const EmbeddingTable& table, const graph::Graph& g,
                      bool use_labels);

  /// The quick pattern of `row` of the last column; valid until the next
  /// call.
  const graph::Pattern& Build(RowIndex row);

  /// The data vertices of the last built pattern, by pattern vertex.
  std::span<const graph::VertexId> vertices() const {
    return {verts_.data(), static_cast<std::size_t>(pattern_.num_vertices())};
  }

 private:
  using VertexList = std::array<graph::VertexId, graph::Pattern::kMaxVertices>;

  void AddUnit(Unit unit, graph::Pattern* p, VertexList* verts) const;

  const graph::Graph& g_;
  const bool edge_table_;
  const bool use_labels_;
  const int len_;
  std::array<const Unit*, graph::Pattern::kMaxVertices> units_{};
  std::array<const RowIndex*, graph::Pattern::kMaxVertices> parents_{};
  // The pattern of columns [0, len - 1) of row `prefix_parent_` of column
  // len - 2 (empty for a one-column table).
  RowIndex prefix_parent_ = kNoParent;
  graph::Pattern prefix_;
  VertexList prefix_verts_{};
  graph::Pattern pattern_;
  VertexList verts_{};
};

/// The aggregation primitive (§III-B2): maps every embedding of `table` to
/// its pattern's canonical label, sorts the label column (out-of-core when
/// needed), counts support per pattern, and accumulates into `pt`. New
/// patterns enter `pt` in ascending code order, each with the quick pattern
/// of its first row as exemplar.
Result<AggregationResult> Aggregate(const EmbeddingTable& table,
                                    GraphAccessor* accessor,
                                    PatternTable* pt,
                                    const AggregationOptions& options);

}  // namespace gpm::core

#endif  // GAMMA_CORE_AGGREGATION_H_
