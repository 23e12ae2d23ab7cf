#ifndef GAMMA_CORE_EXTENSION_H_
#define GAMMA_CORE_EXTENSION_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/adaptive_access.h"
#include "core/embedding_table.h"
#include "core/memory_pool.h"
#include "graph/pattern.h"

namespace gpm::core {

/// How a kernel resolves the parallel-write conflict (§V-B, Challenge 1).
enum class WriteStrategy : uint8_t {
  /// Pangolin: run the extension twice — count, scan, then re-extend and
  /// write at exact offsets. No extra space, double compute.
  kNaiveTwoPass,
  /// GSI: preallocate worst-case space (rows x d_max) per kernel; chunks
  /// shrink to fit, wasting bandwidth on the sparse result buffer, and the
  /// kernel fails outright when even one row's worst case does not fit.
  kPreAlloc,
  /// GAMMA Optimization 1: warp-owned blocks from a device memory pool.
  kDynamicAlloc,
};

const char* WriteStrategyName(WriteStrategy strategy);

/// Tuning knobs shared by both extension primitives.
struct ExtensionOptions {
  WriteStrategy write_strategy = WriteStrategy::kDynamicAlloc;
  /// Optimization 2: group embeddings sharing a parent and hoist the
  /// prefix adjacency intersection out of the per-row loop.
  bool pre_merge = true;
  /// Rows per warp task when not grouping by prefix. Fine granularity
  /// keeps the warp-slot makespan balanced on skewed graphs (hub rows
  /// cluster together in the table).
  std::size_t rows_per_warp = 16;
  /// Embedding rows processed per kernel launch (out-of-core chunking).
  std::size_t chunk_rows = 1 << 16;
  /// Execution streams for the chunk pipeline. 1 = the historical fully
  /// synchronous path (bit-identical cycle totals). >= 2 enables the
  /// double-buffered pipeline: chunk i+1's extension kernels run on a
  /// compute stream while chunk i's column flush (and host append) drains
  /// on a copy stream, with events guarding buffer-half reuse. Functional
  /// results are identical either way; only the simulated timeline
  /// changes.
  std::size_t num_streams = 1;
  /// Device write buffer (the memory pool).
  std::size_t pool_bytes = 4ull << 20;
  /// Pool block size (paper: 8 KB).
  std::size_t block_bytes = 8192;
  /// Cycles charged per post_filter invocation.
  double post_filter_cycles = 4.0;
  /// Adaptive list intersection: gallop (binary-search the larger list)
  /// when list sizes are lopsided, merge otherwise. Disable to force
  /// merge-only intersection (ablation).
  bool adaptive_intersection = true;
  /// Count-only mode: the extension tallies surviving candidates but
  /// materializes no new column (no pool traffic, no flush). The standard
  /// final-level optimization for counting workloads — the paper's
  /// embedding table is only needed when a further extension or
  /// aggregation will read it.
  bool count_only = false;
  /// Fault injection for the sanitizer's racecheck tests: skips the event
  /// wait that guards buffer-half reuse in the double-buffered pipeline,
  /// recreating the bug class the guard exists to prevent (compute stream
  /// writes a half whose flush is still in flight on the copy stream).
  /// Never set outside tests; results stay correct (the simulation is
  /// functional), only the simulated ordering becomes unsound.
  bool unsafe_skip_buffer_guard = false;
};

/// Outcome of one extension primitive call.
struct ExtensionStats {
  std::size_t input_rows = 0;
  std::size_t candidates = 0;  ///< before filtering
  std::size_t results = 0;     ///< rows appended
  std::size_t chunks = 0;      ///< kernel launches
  std::size_t groups = 0;      ///< pre-merge groups processed
  double kernel_cycles = 0;
};

/// Candidate specification for vertex extension (v-ET).
struct VertexExtensionSpec {
  /// Columns whose data vertices' adjacency lists are intersected to form
  /// the candidate set. Empty => union of all columns' neighborhoods
  /// (Definition 3.1's N_v(M)) instead of an intersection.
  std::vector<int> intersect_positions;
  /// Candidate must carry this label (kAnyLabel = no constraint).
  graph::Label candidate_label = graph::Pattern::kAnyLabel;
  /// Candidate id must exceed every matched vertex (clique orientation).
  bool require_ascending = false;
  /// Candidate must differ from every matched vertex.
  bool enforce_injective = true;
  /// Optional extra predicate over (embedding, candidate); charged
  /// `post_filter_cycles` per call.
  std::function<bool(std::span<const Unit>, Unit)> post_filter;
};

/// Candidate specification for edge extension (e-ET).
struct EdgeExtensionSpec {
  /// Keep only canonical insertion sequences, so every connected edge set
  /// is produced exactly once (Arabesque-style canonicality). The input
  /// rows must be canonical sequences themselves (see EdgeExtend).
  bool canonical_only = true;
  /// Optional extra predicate over (embedding edge ids, candidate edge id).
  std::function<bool(std::span<const Unit>, Unit)> post_filter;
};

/// Extends every embedding of the v-ET by one vertex (Ext_v, Def. 3.1) and
/// appends the new column. Fails with kDeviceOutOfMemory when the write
/// strategy cannot reserve its device buffers.
Result<ExtensionStats> VertexExtend(EmbeddingTable* table,
                                    GraphAccessor* accessor,
                                    const VertexExtensionSpec& spec,
                                    const ExtensionOptions& options);

/// Extends every embedding of the e-ET by one adjacent edge (Ext_e) and
/// appends the new column. Requires the graph's edge index.
///
/// With `canonical_only`, every input row must itself be a canonical
/// sequence (of fewer than 2 * Pattern::kMaxVertices edges): the test is
/// then a per-row threshold instead of a rescan of the sequence, and agrees
/// with IsCanonicalEdgeExtension exactly when the row is canonical. Tables
/// built only by InitEdgeTable, canonical extensions and Filtering satisfy
/// this: level 1 is single edges, each level emits only canonical
/// extensions, and filtering only drops rows.
Result<ExtensionStats> EdgeExtend(EmbeddingTable* table,
                                  GraphAccessor* accessor,
                                  const EdgeExtensionSpec& spec,
                                  const ExtensionOptions& options);

/// True when appending edge `e` to the insertion sequence `edges` yields the
/// canonical sequence of the extended edge set (start at the smallest id,
/// then repeatedly take the smallest id sharing a vertex with the prefix).
/// The reference for EdgeExtend's `canonical_only` rule, used by the CPU
/// oracle and the tests; it rescans the whole sequence on every call.
bool IsCanonicalEdgeExtension(const graph::Graph& g,
                              std::span<const Unit> edges, Unit e);

}  // namespace gpm::core

#endif  // GAMMA_CORE_EXTENSION_H_
