#include "core/aggregation.h"

#include <algorithm>
#include <array>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "graph/canonical.h"
#include "graph/isomorphism.h"

namespace gpm::core {
namespace {

constexpr std::size_t kRowsPerWarp = 256;
constexpr int kMaxUnits = graph::Pattern::kMaxVertices;
// Slots of the per-task pattern → code cache (direct-mapped by hash).
constexpr std::size_t kTaskCacheSlots = 64;

// Reconstructs rows of a table's last column, oldest unit first, by walking
// the parent chain into a caller-provided stack array (GetEmbedding without
// the allocation).
class RowWalker {
 public:
  explicit RowWalker(const EmbeddingTable& table) : len_(table.length()) {
    for (int j = 0; j < len_; ++j) {
      units_[j] = table.column(j).units.host_data().data();
      parents_[j] = table.column(j).parents.host_data().data();
    }
  }

  std::span<const Unit> operator()(std::size_t row,
                                   std::array<Unit, kMaxUnits>* buf) const {
    RowIndex r = static_cast<RowIndex>(row);
    for (int j = len_ - 1; j >= 0; --j) {
      (*buf)[j] = units_[j][r];
      r = parents_[j][r];
    }
    return {buf->data(), static_cast<std::size_t>(len_)};
  }

 private:
  int len_;
  std::array<const Unit*, kMaxUnits> units_{};
  std::array<const RowIndex*, kMaxUnits> parents_{};
};

}  // namespace

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
  const int max_len = edge_table ? kMaxUnits - 1 : kMaxUnits;
  if (len > max_len) {
    return Status::InvalidArgument(
        "aggregation maps embeddings of at most " + std::to_string(max_len) +
        (edge_table ? " edges" : " vertices") + ", got " +
        std::to_string(len));
  }

  gpusim::Device* device = table.device();
  const graph::Graph& g = accessor->graph();
  const RowWalker walk(table);

  // Map phase: one warp per row block; each row is walked into a stack
  // array, its quick pattern (the embedding's shape as numbered by unit
  // order) built in place and canonically coded, and the code written out.
  // Codes are looked up first in a per-task cache keyed by the quick pattern
  // itself, then in the shared memo. Tasks may run concurrently: every row
  // writes only its own code slot, each task collects its own first-seen
  // exemplars (merged after the launch in ascending task order, reproducing
  // the serial first-wins choice), and the shared memo — whose values are
  // content-derived and thus interleaving-independent — is the one piece of
  // shared mutable state, behind a mutex. The permutation search itself
  // runs outside the lock (codes are pure functions of the pattern, so a
  // rare duplicate search computes the same value), keeping the dominant
  // cost parallel.
  result.codes.resize(rows);
  std::mutex memo_mu;
  graph::CanonicalCache memo;
  auto shared_canonical = [&memo_mu, &memo](const graph::Pattern& p) {
    {
      std::lock_guard<std::mutex> lock(memo_mu);
      if (const uint64_t* code = memo.Find(p)) return *code;
    }
    const uint64_t canon = graph::CanonicalCode(p);
    std::lock_guard<std::mutex> lock(memo_mu);
    return memo.Insert(p, canon);
  };
  auto pattern_of = [&](std::span<const Unit> units) {
    return edge_table ? graph::PatternOfEdges(g, units, options.use_labels)
                      : graph::PatternOfVertices(g, units, options.use_labels);
  };
  std::size_t tasks = (rows + kRowsPerWarp - 1) / kRowsPerWarp;
  std::vector<std::unordered_map<uint64_t, graph::Pattern>> task_exemplars(
      tasks);
  result.kernel_cycles += device->LaunchKernel(
      tasks, [&](gpusim::WarpCtx& w, std::size_t t) {
        std::size_t lo = t * kRowsPerWarp;
        std::size_t hi = std::min(rows, lo + kRowsPerWarp);
        table.ChargeColumnRead(w, len - 1, lo, hi - lo);
        w.ChargeSimtWork((hi - lo) * len,
                         options.map_cycles_per_unit * len);
        // Empty slots hold the default (0-vertex) pattern, which equals no
        // built pattern. The first row of this task with a given code is
        // always a miss (no earlier row had its quick pattern), so offering
        // the exemplar on misses only (try_emplace keeps the first) keeps
        // the first-wins choice.
        struct Slot {
          graph::Pattern pattern;
          uint64_t code = 0;
        };
        std::array<Slot, kTaskCacheSlots> cache;
        std::array<Unit, kMaxUnits> buf;
        for (std::size_t r = lo; r < hi; ++r) {
          const graph::Pattern p = pattern_of(walk(r, &buf));
          Slot& slot = cache[p.Hash() % kTaskCacheSlots];
          if (slot.pattern != p) {
            slot.pattern = p;
            slot.code = shared_canonical(p);
            task_exemplars[t].try_emplace(slot.code, p);
          }
          result.codes[r] = slot.code;
        }
        w.DeviceWrite((hi - lo) * sizeof(uint64_t));
      },
      "aggregation-map");
  std::unordered_map<uint64_t, graph::Pattern> exemplars;
  for (auto& te : task_exemplars) {
    for (auto& [code, p] : te) exemplars.try_emplace(code, p);
  }

  // Sort the code column (out-of-core capable) and count runs. The sort
  // runs over each row's dense rank among the distinct codes instead of the
  // code itself: every sort charge depends only on the keys' order and
  // equality (checkpoints, their dedup, matched indices, slice sizes), which
  // a strictly increasing relabel keeps, so the cycles and SortStats are
  // those of sorting the codes, while the keys fit in one radix digit.
  std::vector<uint64_t> distinct;
  distinct.reserve(exemplars.size());
  for (const auto& [code, p] : exemplars) distinct.push_back(code);
  std::sort(distinct.begin(), distinct.end());
  std::vector<uint64_t> sorted(rows);
  {
    std::unordered_map<uint64_t, uint64_t> rank;
    for (std::size_t i = 0; i < distinct.size(); ++i) rank[distinct[i]] = i;
    for (std::size_t r = 0; r < rows; ++r) sorted[r] = rank[result.codes[r]];
  }
  auto sort_stats = SortKeys(device, &sorted, options.sort);
  if (!sort_stats.ok()) return sort_stats.status();
  result.sort_stats = sort_stats.value();

  // Run-length count over the sorted codes (single scan kernel).
  std::unordered_map<uint64_t, uint64_t> counts;
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
    counts[distinct[sorted[i]]] = j - i;  // ranks ascend with the codes
    i = j;
  }
  result.distinct_patterns = counts.size();

  if (options.support == SupportMeasure::kInstanceCount) {
    for (auto& [code, count] : counts) {
      pt->Accumulate(code, exemplars.at(code), count);
    }
  } else {
    // MNI: min over pattern positions of distinct data vertices seen at
    // that position. Positions follow the embedding's unit order (for
    // e-ET, the first-seen vertex order used by PatternOfEdges).
    std::unordered_map<uint64_t,
                       std::vector<std::unordered_set<graph::VertexId>>>
        images;
    std::array<Unit, kMaxUnits> buf;
    std::array<graph::VertexId, graph::Pattern::kMaxVertices> verts;
    for (std::size_t r = 0; r < rows; ++r) {
      std::span<const Unit> units = walk(r, &buf);
      std::size_t nv = 0;
      if (edge_table) {
        // The map phase built each row's pattern, so at most kMaxVertices.
        for (Unit e : units) {
          const graph::Edge& ed = g.edge_list()[e];
          for (graph::VertexId v : {ed.u, ed.v}) {
            if (std::find(verts.begin(), verts.begin() + nv, v) ==
                verts.begin() + nv) {
              verts[nv++] = v;
            }
          }
        }
      } else {
        nv = std::copy(units.begin(), units.end(), verts.begin()) -
             verts.begin();
      }
      auto& img = images[result.codes[r]];
      if (img.size() < nv) img.resize(nv);
      for (std::size_t i = 0; i < nv; ++i) {
        img[i].insert(verts[i]);
      }
    }
    for (auto& [code, img] : images) {
      uint64_t mni = img.empty() ? 0 : img.front().size();
      for (const auto& s : img) {
        mni = std::min<uint64_t>(mni, s.size());
      }
      pt->SetSupport(code, exemplars.at(code), mni);
    }
  }
  return result;
}

}  // namespace gpm::core
