#include "core/aggregation.h"

#include <algorithm>
#include <array>
#include <mutex>
#include <numeric>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "graph/canonical.h"

namespace gpm::core {
namespace {

constexpr std::size_t kRowsPerWarp = 256;
// Slots of the per-task pattern → id cache (direct-mapped by hash).
constexpr std::size_t kTaskCacheSlots = 64;

// Shared by the map tasks: quick pattern → dense id of its canonical code,
// ids handed out in first-insert order. Ids depend on the interleaving of
// the tasks, codes do not; the relabel to ranks makes the result
// interleaving-independent.
class CodeIds {
 public:
  uint32_t Get(const graph::Pattern& p) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (auto it = ids_.find(p); it != ids_.end()) return it->second;
    }
    // The permutation search runs outside the lock: codes are pure
    // functions of the pattern, so a rare duplicate search computes the
    // same value.
    const uint64_t code = graph::CanonicalCode(p);
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, fresh] =
        id_of_code_.try_emplace(code, static_cast<uint32_t>(codes_.size()));
    if (fresh) codes_.push_back(code);
    return ids_.try_emplace(p, it->second).first->second;
  }

  /// codes()[id] = the canonical code of dense id `id`.
  const std::vector<uint64_t>& codes() const { return codes_; }

 private:
  struct Hasher {
    std::size_t operator()(const graph::Pattern& p) const { return p.Hash(); }
  };
  std::mutex mu_;
  std::unordered_map<graph::Pattern, uint32_t, Hasher> ids_;
  std::unordered_map<uint64_t, uint32_t> id_of_code_;
  std::vector<uint64_t> codes_;
};

}  // namespace

QuickPatternBuilder::QuickPatternBuilder(const EmbeddingTable& table,
                                         const graph::Graph& g,
                                         bool use_labels)
    : g_(g),
      edge_table_(table.kind() == TableKind::kEdge),
      use_labels_(use_labels),
      len_(table.length()) {
  GAMMA_CHECK(len_ <= graph::Pattern::kMaxVertices)
      << "quick patterns of at most " << graph::Pattern::kMaxVertices
      << " units, got " << len_;
  for (int j = 0; j < len_; ++j) {
    units_[j] = table.column(j).units.host_data().data();
    parents_[j] = table.column(j).parents.host_data().data();
  }
}

void QuickPatternBuilder::AddUnit(Unit unit, graph::Pattern* p,
                                  VertexList* verts) const {
  auto add_vertex = [&](graph::VertexId v) {
    const int i = p->AddVertex(use_labels_ ? g_.label(v)
                                           : graph::Pattern::kAnyLabel);
    (*verts)[i] = v;
    return i;
  };
  if (edge_table_) {
    const graph::Edge& e = g_.edge_list()[unit];
    auto index_of = [&](graph::VertexId v) {
      for (int i = 0; i < p->num_vertices(); ++i) {
        if ((*verts)[i] == v) return i;
      }
      return add_vertex(v);
    };
    const int iu = index_of(e.u);
    p->AddEdge(iu, index_of(e.v));
  } else {
    const int n = add_vertex(unit);
    for (int i = 0; i < n; ++i) {
      if (g_.HasEdge((*verts)[i], unit)) p->AddEdge(i, n);
    }
  }
}

const graph::Pattern& QuickPatternBuilder::Build(RowIndex row) {
  const int last = len_ - 1;
  const RowIndex parent = last > 0 ? parents_[last][row] : kNoParent;
  if (parent != prefix_parent_) {
    std::array<Unit, graph::Pattern::kMaxVertices> units;
    RowIndex r = parent;
    for (int j = last - 1; j >= 0; --j) {
      units[j] = units_[j][r];
      r = parents_[j][r];
    }
    prefix_ = graph::Pattern();
    for (int j = 0; j < last; ++j) AddUnit(units[j], &prefix_, &prefix_verts_);
    prefix_parent_ = parent;
  }
  pattern_ = prefix_;
  verts_ = prefix_verts_;
  AddUnit(units_[last][row], &pattern_, &verts_);
  return pattern_;
}

Result<AggregationResult> Aggregate(const EmbeddingTable& table,
                                    GraphAccessor* accessor,
                                    PatternTable* pt,
                                    const AggregationOptions& options) {
  AggregationResult result;
  const std::size_t rows = table.num_embeddings();
  const int len = table.length();
  if (rows == 0) return result;

  const bool edge_table = table.kind() == TableKind::kEdge;
  // An embedding of k edges may span k + 1 vertices.
  constexpr int kMaxUnits = graph::Pattern::kMaxVertices;
  const int max_len = edge_table ? kMaxUnits - 1 : kMaxUnits;
  if (len > max_len) {
    return Status::InvalidArgument(
        "aggregation maps embeddings of at most " + std::to_string(max_len) +
        (edge_table ? " edges" : " vertices") + ", got " +
        std::to_string(len));
  }

  gpusim::Device* device = table.device();
  const graph::Graph& g = accessor->graph();

  // Map phase: one warp per row block. Each row's quick pattern comes from
  // a QuickPatternBuilder (the parent prefix is built once per run of equal
  // parent), and its dense code id is looked up first in a per-task cache
  // keyed by the quick pattern itself, then in the shared CodeIds. Tasks may
  // run concurrently: every row writes only its own slot, and CodeIds is
  // the one piece of shared mutable state.
  result.codes.resize(rows);  // dense ids until the relabel below
  CodeIds ids;
  const std::size_t tasks = (rows + kRowsPerWarp - 1) / kRowsPerWarp;
  result.kernel_cycles += device->LaunchKernel(
      tasks, [&](gpusim::WarpCtx& w, std::size_t t) {
        std::size_t lo = t * kRowsPerWarp;
        std::size_t hi = std::min(rows, lo + kRowsPerWarp);
        table.ChargeColumnRead(w, len - 1, lo, hi - lo);
        w.ChargeSimtWork((hi - lo) * len,
                         options.map_cycles_per_unit * len);
        // Empty slots hold the default (0-vertex) pattern, which equals no
        // built pattern.
        struct Slot {
          graph::Pattern pattern;
          uint32_t id = 0;
        };
        std::array<Slot, kTaskCacheSlots> cache;
        QuickPatternBuilder build(table, g, options.use_labels);
        for (std::size_t r = lo; r < hi; ++r) {
          const graph::Pattern& p = build.Build(static_cast<RowIndex>(r));
          Slot& slot = cache[p.Hash() % kTaskCacheSlots];
          if (slot.pattern != p) {
            slot.pattern = p;
            slot.id = ids.Get(p);
          }
          result.codes[r] = slot.id;
        }
        w.DeviceWrite((hi - lo) * kPatternCodeBytes);
      },
      "aggregation-map");

  // Relabel ids to ranks among the ascending distinct codes, recording each
  // rank's first row (its exemplar: the serial first-wins choice).
  const std::vector<uint64_t>& id_codes = ids.codes();
  const std::size_t distinct = id_codes.size();
  std::vector<uint32_t> by_code(distinct);
  std::iota(by_code.begin(), by_code.end(), 0u);
  std::sort(by_code.begin(), by_code.end(), [&](uint32_t a, uint32_t b) {
    return id_codes[a] < id_codes[b];
  });
  std::vector<uint32_t> rank_of(distinct);
  result.distinct_codes.resize(distinct);
  for (std::size_t k = 0; k < distinct; ++k) {
    rank_of[by_code[k]] = static_cast<uint32_t>(k);
    result.distinct_codes[k] = id_codes[by_code[k]];
  }
  result.distinct_patterns = distinct;
  // The sort runs over the ranks instead of the codes: every sort charge
  // depends only on the keys' order and equality (checkpoints, their dedup,
  // matched indices, slice sizes), which a strictly increasing relabel
  // keeps, so the cycles and SortStats are those of sorting the codes,
  // while the keys fit in one radix digit.
  std::vector<uint64_t> sorted(rows);
  std::vector<std::size_t> first_row(distinct, rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const uint32_t k = rank_of[result.codes[r]];
    result.codes[r] = k;
    sorted[r] = k;
    if (first_row[k] == rows) first_row[k] = r;
  }
  auto sort_stats = SortKeys(device, &sorted, options.sort);
  if (!sort_stats.ok()) return sort_stats.status();
  result.sort_stats = sort_stats.value();

  // Run-length count over the sorted ranks (single scan kernel).
  std::vector<uint64_t> counts(distinct);
  result.kernel_cycles += device->LaunchKernel(
      std::max<std::size_t>(1, rows / 4096),
      [&](gpusim::WarpCtx& w, std::size_t) {
        w.ZeroCopyRead(4096 * sizeof(uint64_t));
        w.ChargeSimtWork(4096);
      },
      "aggregation-count");
  for (std::size_t i = 0; i < sorted.size();) {
    std::size_t j = i;
    while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
    counts[sorted[i]] = j - i;
    i = j;
  }

  QuickPatternBuilder build(table, g, options.use_labels);
  if (options.support == SupportMeasure::kInstanceCount) {
    for (std::size_t k = 0; k < distinct; ++k) {
      pt->Accumulate(result.distinct_codes[k],
                     build.Build(static_cast<RowIndex>(first_row[k])),
                     counts[k]);
    }
  } else {
    // MNI: min over pattern positions of distinct data vertices seen at
    // that position. Positions follow the quick pattern's numbering (for
    // e-ET, the first-seen vertex order of PatternOfEdges).
    std::vector<std::vector<std::unordered_set<graph::VertexId>>> images(
        distinct);
    for (std::size_t r = 0; r < rows; ++r) {
      build.Build(static_cast<RowIndex>(r));
      std::span<const graph::VertexId> verts = build.vertices();
      auto& img = images[result.codes[r]];
      if (img.size() < verts.size()) img.resize(verts.size());
      for (std::size_t i = 0; i < verts.size(); ++i) img[i].insert(verts[i]);
    }
    for (std::size_t k = 0; k < distinct; ++k) {
      uint64_t mni = images[k].empty() ? 0 : images[k].front().size();
      for (const auto& s : images[k]) {
        mni = std::min<uint64_t>(mni, s.size());
      }
      pt->SetSupport(result.distinct_codes[k],
                     build.Build(static_cast<RowIndex>(first_row[k])), mni);
    }
  }
  return result;
}

}  // namespace gpm::core
