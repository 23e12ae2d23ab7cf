#include "core/extension.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <unordered_map>

#include "common/logging.h"
#include "core/intersection.h"

namespace gpm::core {
namespace {

using graph::VertexId;

constexpr std::size_t kEntryBytes = sizeof(Unit) + sizeof(RowIndex);

const char* KindName(TableKind kind) {
  return kind == TableKind::kVertex ? "vertex" : "edge";
}

// Host-side flat materialization of the table: row-major rows x len. This
// is the functional truth the kernels compute over; the simulated cost of
// reading the columns is charged separately by ChargeTableRead.
struct Flattened {
  int len = 0;
  std::size_t rows = 0;
  std::vector<Unit> data;

  std::span<const Unit> row(std::size_t r) const {
    return {data.data() + r * len, static_cast<std::size_t>(len)};
  }
};

Flattened Flatten(const EmbeddingTable& table) {
  Flattened flat;
  flat.len = table.length();
  flat.rows = table.num_embeddings();
  flat.data.resize(flat.rows * flat.len);
  if (flat.rows == 0) return flat;
  // Walk column by column: compute each row's ancestor in one pass per
  // column instead of chasing parents per row.
  std::vector<RowIndex> anc(flat.rows);
  for (std::size_t r = 0; r < flat.rows; ++r) anc[r] = static_cast<RowIndex>(r);
  for (int j = flat.len - 1; j >= 0; --j) {
    const auto& units = table.column(j).units.host_data();
    const auto& parents = table.column(j).parents.host_data();
    for (std::size_t r = 0; r < flat.rows; ++r) {
      flat.data[r * flat.len + j] = units[anc[r]];
      anc[r] = parents[anc[r]];
    }
  }
  return flat;
}

// Charges the unified-memory reads a warp performs to reconstruct rows
// [lo, hi) of the table. Ancestor rows of a contiguous row range are
// themselves contiguous (children are appended in parent order), so each
// column contributes one span.
void ChargeTableRead(gpusim::WarpCtx& warp, const EmbeddingTable& table,
                     std::size_t lo, std::size_t hi) {
  if (lo >= hi) return;
  RowIndex first = static_cast<RowIndex>(lo);
  RowIndex last = static_cast<RowIndex>(hi - 1);
  for (int j = table.length() - 1; j >= 0; --j) {
    const auto& col = table.column(j);
    std::size_t span = (static_cast<std::size_t>(last) - first + 1);
    table.ChargeColumnRead(warp, j, first, span);
    first = col.parents.host_data()[first];
    last = col.parents.host_data()[last];
    if (first == kNoParent) break;
  }
}

// Most edges, the candidate included, a canonicality check handles.
constexpr std::size_t kMaxCanonicalEdges = 2 * graph::Pattern::kMaxVertices;

// Canonicality thresholds of one canonical edge sequence `emb` (the order
// IsCanonicalEdgeExtension defines). Let a(w) be the index of the first edge
// of `emb` containing vertex w, and T(w) = max(emb[0], emb[a(w)+1], ...,
// emb[len-1]). A fresh edge e is a canonical extension iff it touches the
// embedding and e > T(w) for each of its endpoints w in the embedding: the
// greedy order of emb + e departs from emb only at step 0 (e < emb[0]) or
// at a step i > a(w), where e touches the prefix, with e < emb[i]. Vertices
// are kept in first-seen order, so a(w) ascends and T(w) descends along
// them: the first endpoint found carries the binding threshold.
class CanonicalThresholds {
 public:
  CanonicalThresholds(const graph::Graph& g, std::span<const Unit> emb) {
    const std::size_t len = emb.size();
    // suffix[i] = max(emb[0], emb[i..len)): emb[0] is the sequence's minimum.
    std::array<Unit, kMaxCanonicalEdges + 1> suffix;
    suffix[len] = emb[0];
    for (std::size_t i = len; i-- > 0;) {
      suffix[i] = std::max(emb[i], suffix[i + 1]);
    }
    for (std::size_t i = 0; i < len; ++i) {
      const graph::Edge& ed = g.edge_list()[emb[i]];
      for (VertexId w : {ed.u, ed.v}) {
        if (std::find(verts_.begin(), verts_.begin() + nv_, w) ==
            verts_.begin() + nv_) {
          verts_[nv_] = w;
          thresholds_[nv_++] = suffix[i + 1];
        }
      }
    }
  }

  // True when the fresh edge `id` with endpoints `ed` extends the sequence
  // canonically.
  bool Admits(const graph::Edge& ed, Unit id) const {
    for (std::size_t j = 0; j < nv_; ++j) {
      if (verts_[j] == ed.u || verts_[j] == ed.v) return id > thresholds_[j];
    }
    return false;  // disconnected
  }

 private:
  std::array<VertexId, 2 * kMaxCanonicalEdges> verts_;
  std::array<Unit, 2 * kMaxCanonicalEdges> thresholds_;
  std::size_t nv_ = 0;
};

// One emitted extension result.
struct Emit {
  Unit unit;
  RowIndex parent;
};

// Generator interface: fills `out` with the accepted candidates of rows
// [lo, hi) while charging `warp`. Returns the raw candidate count (before
// filtering) for the stats.
using RowRangeGenerator = std::function<std::size_t(
    gpusim::WarpCtx& warp, std::size_t lo, std::size_t hi,
    std::vector<Emit>* out)>;

// A kernel-granularity unit of work: either a plain row range or one
// pre-merge group.
struct WarpTask {
  std::size_t lo;
  std::size_t hi;
};

// Shared chunked driver implementing the three write strategies. The
// generator is strategy-agnostic; this function arranges passes, buffers,
// pool traffic and flushes, and appends the final column.
Result<ExtensionStats> RunExtension(
    EmbeddingTable* table, GraphAccessor* accessor,
    const ExtensionOptions& options, const std::vector<WarpTask>& tasks,
    const RowRangeGenerator& generate, std::size_t worst_case_per_row) {
  gpusim::Device* device = table->device();
  ExtensionStats stats;
  stats.input_rows = table->num_embeddings();

  // Double-buffered pipeline (num_streams >= 2): extension kernels for
  // chunk i+1 run on a compute stream while chunk i's result flush and
  // host-side append drain on a copy stream; events guard reuse of each
  // buffer half. Count-only extensions move no results, so there is
  // nothing to overlap — but their kernels still run on the compute
  // stream, so per-stream trace/metrics attribution is consistent across
  // every write strategy.
  const bool use_worker_streams = options.num_streams >= 2;
  const bool async = use_worker_streams && !options.count_only;
  const gpusim::StreamId compute_stream =
      use_worker_streams ? device->WorkerStream(0) : gpusim::kDefaultStream;
  const gpusim::StreamId copy_stream =
      async ? device->WorkerStream(1) : gpusim::kDefaultStream;
  if (use_worker_streams) {
    // The extension logically follows everything already submitted.
    device->FastForwardStream(compute_stream);
    if (async) device->FastForwardStream(copy_stream);
  }
  const bool double_buffer_pool =
      async && options.write_strategy == WriteStrategy::kDynamicAlloc;
  const std::size_t writable_pool_bytes =
      double_buffer_pool ? options.pool_bytes / 2 : options.pool_bytes;

  MemoryPool pool(
      device,
      {.pool_bytes = options.pool_bytes,
       .block_bytes = std::min(options.block_bytes, writable_pool_bytes),
       .double_buffered = double_buffer_pool});
  const std::size_t pool_entries = options.pool_bytes / kEntryBytes;
  if (options.write_strategy == WriteStrategy::kPreAlloc &&
      worst_case_per_row > pool_entries) {
    return Status::DeviceOutOfMemory(
        "prealloc write strategy cannot fit one row's worst case (" +
        std::to_string(worst_case_per_row) + " results) in the device "
        "buffer");
  }
  if (options.write_strategy != WriteStrategy::kNaiveTwoPass) {
    // The count-then-write strategy needs no staging pool — its second
    // pass writes at exact offsets ("no extra space, double compute");
    // the other strategies reserve their device write buffer up front.
    Status reserve = pool.Reserve();
    if (!reserve.ok()) return reserve;
  }

  std::vector<Unit> new_units;
  std::vector<RowIndex> new_parents;
  std::vector<Emit> emitted;

  // Completion events for each buffer half's flush: chunk i must not start
  // writing into half (i % 2) before chunk i-2's flush of that half has
  // drained on the copy stream.
  gpusim::Event flush_done[2];

  // Group tasks into kernels of ~chunk_rows input rows.
  std::size_t t = 0;
  while (t < tasks.size()) {
    std::size_t chunk_begin = t;
    std::size_t rows_in_chunk = 0;
    std::size_t limit_rows = options.chunk_rows;
    if (options.write_strategy == WriteStrategy::kPreAlloc) {
      // Worst-case preallocation: shrink the kernel until rows x d_max
      // results fit in the buffer (GSI's "prealloc-combine").
      limit_rows = std::min(
          limit_rows, std::max<std::size_t>(
                          1, pool_entries / std::max<std::size_t>(
                                                1, worst_case_per_row)));
    }
    while (t < tasks.size() && rows_in_chunk < limit_rows) {
      rows_in_chunk += tasks[t].hi - tasks[t].lo;
      ++t;
    }
    std::size_t chunk_end = t;
    std::size_t chunk_tasks = chunk_end - chunk_begin;
    const std::size_t half = stats.chunks % 2;
    ++stats.chunks;
    if (async && flush_done[half].valid() &&
        !options.unsafe_skip_buffer_guard) {
      // The buffer half this chunk writes into is still flushing; the
      // compute stream stalls until the copy stream releases it.
      device->WaitEvent(compute_stream, flush_done[half]);
    }

    emitted.clear();
    std::size_t chunk_results = 0;

    if (options.count_only) {
      // Tally survivors without writing anything: single generation pass,
      // results reduced warp-locally and atomically added to one counter.
      // Each task writes only its own tally slot (kernel lambdas may run
      // concurrently); the reduction happens after the launch, ascending.
      std::vector<std::size_t> task_candidates(chunk_tasks, 0);
      std::vector<std::size_t> task_results(chunk_tasks, 0);
      stats.kernel_cycles += device->LaunchKernelAsync(
          compute_stream, chunk_tasks,
          [&](gpusim::WarpCtx& w, std::size_t i) {
            const WarpTask& task = tasks[chunk_begin + i];
            std::vector<Emit> local;
            task_candidates[i] = generate(w, task.lo, task.hi, &local);
            w.ChargeWarpScan();
            w.ChargeAtomic();
            task_results[i] = local.size();
          },
          "extension-count-only");
      for (std::size_t i = 0; i < chunk_tasks; ++i) {
        stats.candidates += task_candidates[i];
        stats.results += task_results[i];
      }
      continue;
    }
    switch (options.write_strategy) {
      case WriteStrategy::kDynamicAlloc: {
        // One cursor per resident warp slot: a warp keeps filling its
        // current block across the group tasks it processes ("the results
        // are collected in the same memory block").
        std::vector<MemoryPool::WarpCursor> cursors(
            std::max(1, device->params().num_warp_slots));
        // Task-local accumulation: every task owns its tally slot and emit
        // buffer; the pool write defers its own shared-state bookkeeping
        // when recording. Reduction and the ordered emit merge (ascending
        // task id = the serial schedule) happen after the launch.
        std::vector<std::size_t> task_candidates(chunk_tasks, 0);
        std::vector<std::vector<Emit>> task_emits(chunk_tasks);
        stats.kernel_cycles += device->LaunchKernelAsync(
            compute_stream, chunk_tasks,
            [&](gpusim::WarpCtx& w, std::size_t i) {
              const WarpTask& task = tasks[chunk_begin + i];
              std::vector<Emit>& local = task_emits[i];
              task_candidates[i] = generate(w, task.lo, task.hi, &local);
              pool.WarpWrite(w, &cursors[i % cursors.size()], local.size(),
                             kEntryBytes);
            },
            "extension-dynamic");
        for (std::size_t i = 0; i < chunk_tasks; ++i) {
          stats.candidates += task_candidates[i];
          emitted.insert(emitted.end(), task_emits[i].begin(),
                         task_emits[i].end());
        }
        for (auto& cursor : cursors) pool.EndWarpTask(&cursor);
        chunk_results = emitted.size();
        if (async) {
          // The flush reads what the kernel wrote: order it after the
          // compute stream's position, then drain on the copy stream.
          device->WaitEvent(copy_stream, device->RecordEvent(compute_stream));
        }
        pool.FlushToHost(copy_stream);
        break;
      }
      case WriteStrategy::kNaiveTwoPass: {
        // Pass 1: count only (full generation cost, results discarded).
        std::vector<std::size_t> counts(chunk_tasks, 0);
        std::vector<std::size_t> task_candidates(chunk_tasks, 0);
        stats.kernel_cycles += device->LaunchKernelAsync(
            compute_stream, chunk_tasks,
            [&](gpusim::WarpCtx& w, std::size_t i) {
              const WarpTask& task = tasks[chunk_begin + i];
              std::vector<Emit> local;
              task_candidates[i] = generate(w, task.lo, task.hi, &local);
              counts[i] = local.size();
              w.DeviceWrite(sizeof(uint32_t));  // per-task count
            },
            "extension-count");
        for (std::size_t i = 0; i < chunk_tasks; ++i) {
          stats.candidates += task_candidates[i];
        }
        // Scan of per-task counts to assign exact write offsets.
        stats.kernel_cycles += device->LaunchKernelAsync(
            compute_stream, 1, [&](gpusim::WarpCtx& w, std::size_t) {
              w.DeviceRead(chunk_tasks * sizeof(uint32_t));
              w.ChargeSimtWork(chunk_tasks);
              w.ChargeWarpScan();
              w.DeviceWrite(chunk_tasks * sizeof(uint32_t));
            },
            "extension-scan");
        // Pass 2: regenerate and write at exact offsets.
        std::vector<std::vector<Emit>> task_emits(chunk_tasks);
        stats.kernel_cycles += device->LaunchKernelAsync(
            compute_stream, chunk_tasks,
            [&](gpusim::WarpCtx& w, std::size_t i) {
              const WarpTask& task = tasks[chunk_begin + i];
              std::vector<Emit>& local = task_emits[i];
              generate(w, task.lo, task.hi, &local);
              w.DeviceWrite(local.size() * kEntryBytes);
            },
            "extension-write");
        for (std::size_t i = 0; i < chunk_tasks; ++i) {
          emitted.insert(emitted.end(), task_emits[i].begin(),
                         task_emits[i].end());
        }
        chunk_results = emitted.size();
        if (async) {
          device->WaitEvent(copy_stream, device->RecordEvent(compute_stream));
        }
        device->CopyDeviceToHostAsync(copy_stream,
                                      chunk_results * kEntryBytes);
        break;
      }
      case WriteStrategy::kPreAlloc: {
        std::vector<std::size_t> task_candidates(chunk_tasks, 0);
        std::vector<std::vector<Emit>> task_emits(chunk_tasks);
        stats.kernel_cycles += device->LaunchKernelAsync(
            compute_stream, chunk_tasks,
            [&](gpusim::WarpCtx& w, std::size_t i) {
              const WarpTask& task = tasks[chunk_begin + i];
              std::vector<Emit>& local = task_emits[i];
              task_candidates[i] = generate(w, task.lo, task.hi, &local);
              // Scattered writes into the worst-case slots.
              w.DeviceWrite(local.size() * kEntryBytes);
              w.DeviceWrite((task.hi - task.lo) * sizeof(uint32_t));
            },
            "extension-prealloc");
        for (std::size_t i = 0; i < chunk_tasks; ++i) {
          stats.candidates += task_candidates[i];
          emitted.insert(emitted.end(), task_emits[i].begin(),
                         task_emits[i].end());
        }
        chunk_results = emitted.size();
        // Combine step: compact the sparse buffer. Bandwidth is paid over
        // the whole preallocated span — that is the cost of overestimation.
        std::size_t alloc_entries =
            std::min(pool_entries, rows_in_chunk * worst_case_per_row);
        stats.kernel_cycles += device->LaunchKernelAsync(
            compute_stream, std::max<std::size_t>(1, chunk_tasks),
            [&](gpusim::WarpCtx& w, std::size_t i) {
              std::size_t share = alloc_entries / std::max<std::size_t>(
                                                      1, chunk_tasks);
              w.DeviceRead(share * kEntryBytes);
              w.ChargeWarpScan();
              w.DeviceWrite(chunk_results * kEntryBytes /
                            std::max<std::size_t>(1, chunk_tasks));
              (void)i;
            },
            "extension-combine");
        if (async) {
          device->WaitEvent(copy_stream, device->RecordEvent(compute_stream));
        }
        device->CopyDeviceToHostAsync(copy_stream,
                                      chunk_results * kEntryBytes);
        break;
      }
    }

    new_units.reserve(new_units.size() + emitted.size());
    new_parents.reserve(new_parents.size() + emitted.size());
    for (const Emit& e : emitted) {
      new_units.push_back(e.unit);
      new_parents.push_back(e.parent);
    }
    stats.results += chunk_results;
    // Host-side append of the flushed results into the new column follows
    // the flush — it lives on the copy stream, off the compute stream's
    // critical path.
    device->ChargeHostWork(static_cast<double>(chunk_results), copy_stream);
    if (async) flush_done[half] = device->RecordEvent(copy_stream);
  }

  if (use_worker_streams) {
    // The results are complete only once every pipeline leg drains (for
    // count-only, just the compute stream).
    device->Synchronize();
  }

  (void)accessor;
  if (!options.count_only) {
    Status append =
        table->AppendColumn(std::move(new_units), std::move(new_parents));
    if (!append.ok()) return append;
  }
  return stats;
}

// Splits [0, rows) into per-warp tasks; with `group_by_parent` the split
// follows runs of equal parent in the last column (Optimization 2's
// groups), otherwise fixed-size blocks.
std::vector<WarpTask> BuildTasks(const EmbeddingTable& table,
                                 bool group_by_parent,
                                 std::size_t rows_per_warp) {
  std::vector<WarpTask> tasks;
  const std::size_t rows = table.num_embeddings();
  if (rows == 0) return tasks;
  if (!group_by_parent) {
    for (std::size_t lo = 0; lo < rows; lo += rows_per_warp) {
      tasks.push_back({lo, std::min(rows, lo + rows_per_warp)});
    }
    return tasks;
  }
  const auto& parents = table.last_column().parents.host_data();
  // Oversized groups (hub parents) are split so that no single warp task
  // serializes thousands of rows; each shard still hoists its own prefix
  // intersection.
  const std::size_t max_group_rows = 4 * rows_per_warp;
  std::size_t lo = 0;
  for (std::size_t r = 1; r <= rows; ++r) {
    if (r == rows || parents[r] != parents[lo] ||
        r - lo >= max_group_rows) {
      tasks.push_back({lo, r});
      lo = r;
    }
  }
  return tasks;
}

}  // namespace

const char* WriteStrategyName(WriteStrategy strategy) {
  switch (strategy) {
    case WriteStrategy::kNaiveTwoPass:
      return "naive-two-pass";
    case WriteStrategy::kPreAlloc:
      return "prealloc";
    case WriteStrategy::kDynamicAlloc:
      return "dynamic-alloc";
  }
  return "?";
}

Result<ExtensionStats> VertexExtend(EmbeddingTable* table,
                                    GraphAccessor* accessor,
                                    const VertexExtensionSpec& spec,
                                    const ExtensionOptions& options) {
  GAMMA_CHECK(table->kind() == TableKind::kVertex)
      << "VertexExtend on " << KindName(table->kind()) << " table";
  GAMMA_CHECK(table->length() > 0) << "extension of uninitialized table";
  const int len = table->length();
  for (int p : spec.intersect_positions) {
    GAMMA_CHECK(p >= 0 && p < len) << "intersect position out of range";
  }

  const graph::Graph& g = accessor->graph();
  Flattened flat = Flatten(*table);

  // Positions actually used to produce candidates.
  std::vector<int> positions = spec.intersect_positions;
  const bool union_mode = positions.empty();
  if (union_mode) {
    positions.resize(len);
    for (int j = 0; j < len; ++j) positions[j] = j;
  }

  // Frontier for the self-adaptive planner: every adjacency list the
  // kernels will touch, with multiplicity.
  {
    std::unordered_map<VertexId, uint64_t> times;
    for (std::size_t r = 0; r < flat.rows; ++r) {
      std::span<const Unit> row = flat.row(r);
      for (int p : positions) ++times[row[p]];
    }
    std::vector<std::pair<VertexId, uint64_t>> frontier(times.begin(),
                                                        times.end());
    accessor->PlanExtension(frontier);
  }

  // Prefix positions are shared within a pre-merge group.
  std::vector<int> prefix_positions;
  bool last_included = false;
  for (int p : positions) {
    if (p == len - 1) {
      last_included = true;
    } else {
      prefix_positions.push_back(p);
    }
  }
  const bool grouped = options.pre_merge && !union_mode &&
                       !prefix_positions.empty() && len >= 2;

  std::vector<WarpTask> tasks =
      BuildTasks(*table, grouped, options.rows_per_warp);

  ExtensionStats group_stats;
  group_stats.groups = grouped ? tasks.size() : 0;

  // Per-candidate filtering shared by both paths. Returns survivors.
  auto filter_and_emit = [&](gpusim::WarpCtx& w, std::size_t row,
                             std::span<const Unit> emb,
                             const std::vector<VertexId>& cands,
                             std::vector<Emit>* out) {
    if (spec.enforce_injective || spec.require_ascending) {
      w.ChargeSimtWork(cands.size() * len, 0.5);
    }
    if (spec.candidate_label != graph::Pattern::kAnyLabel) {
      // Warp-coalesced label fetch for the whole candidate list.
      accessor->ChargeLabelsBatch(w, cands);
    }
    for (VertexId cand : cands) {
      if (spec.require_ascending) {
        bool ascending = true;
        for (Unit u : emb) {
          if (cand <= u) {
            ascending = false;
            break;
          }
        }
        if (!ascending) continue;
      }
      if (spec.enforce_injective) {
        bool distinct = true;
        for (Unit u : emb) {
          if (u == cand) {
            distinct = false;
            break;
          }
        }
        if (!distinct) continue;
      }
      if (spec.candidate_label != graph::Pattern::kAnyLabel &&
          g.label(cand) != spec.candidate_label) {
        continue;  // label traffic charged batched above
      }
      if (spec.post_filter) {
        w.ChargeCompute(options.post_filter_cycles);
        if (!spec.post_filter(emb, cand)) continue;
      }
      out->push_back({cand, static_cast<RowIndex>(row)});
    }
  };

  auto intersect = [&options](gpusim::WarpCtx& w,
                              std::span<const VertexId> a,
                              std::span<const VertexId> b,
                              std::vector<VertexId>* out) {
    if (options.adaptive_intersection) {
      IntersectAdaptive(w, a, b, out);
    } else {
      IntersectSorted(w, a, b, out);
    }
  };

  RowRangeGenerator generate = [&](gpusim::WarpCtx& w, std::size_t lo,
                                   std::size_t hi,
                                   std::vector<Emit>* out) -> std::size_t {
    std::size_t raw_candidates = 0;
    ChargeTableRead(w, *table, lo, hi);
    std::vector<VertexId> merged, scratch, cands;
    if (grouped) {
      // One warp per group: hoist the prefix intersection L_m.
      std::span<const Unit> prefix = flat.row(lo);
      bool first = true;
      for (int p : prefix_positions) {
        auto adj = accessor->ReadAdjacency(w, prefix[p]);
        if (first) {
          merged.assign(adj.begin(), adj.end());
          first = false;
        } else {
          intersect(w, merged, adj, &scratch);
          merged.swap(scratch);
        }
      }
      for (std::size_t r = lo; r < hi; ++r) {
        std::span<const Unit> emb = flat.row(r);
        if (last_included) {
          auto adj = accessor->ReadAdjacency(w, emb[len - 1]);
          intersect(w, merged, adj, &cands);
        } else {
          cands.assign(merged.begin(), merged.end());
          w.ChargeSimtWork(merged.size(), 0.25);
        }
        raw_candidates += cands.size();
        filter_and_emit(w, r, emb, cands, out);
      }
    } else {
      for (std::size_t r = lo; r < hi; ++r) {
        std::span<const Unit> emb = flat.row(r);
        bool first = true;
        for (int p : positions) {
          auto adj = accessor->ReadAdjacency(w, emb[p]);
          if (first) {
            merged.assign(adj.begin(), adj.end());
            first = false;
            continue;
          }
          if (union_mode) {
            UnionSorted(w, merged, adj, &scratch);
          } else {
            intersect(w, merged, adj, &scratch);
          }
          merged.swap(scratch);
        }
        raw_candidates += merged.size();
        filter_and_emit(w, r, emb, merged, out);
      }
    }
    return raw_candidates;
  };

  auto result = RunExtension(table, accessor, options, tasks, generate,
                             g.max_degree());
  if (result.ok()) {
    result.value().groups = group_stats.groups;
  }
  return result;
}

bool IsCanonicalEdgeExtension(const graph::Graph& g,
                              std::span<const Unit> edges, Unit e) {
  // Canonical sequence of a connected edge set: start at the smallest edge
  // id; repeatedly append the smallest id adjacent (sharing a vertex) to
  // the prefix. The extension is canonical iff that sequence equals
  // (edges..., e). Runs per candidate, so everything lives in fixed-size
  // stack arrays.
  constexpr std::size_t kMaxK = kMaxCanonicalEdges;
  const std::size_t k = edges.size() + 1;
  GAMMA_CHECK(k <= kMaxK) << "canonicality check of " << k
                          << " edges; at most " << kMaxK;
  std::array<Unit, kMaxK> want;
  std::copy(edges.begin(), edges.end(), want.begin());
  want[k - 1] = e;

  std::array<Unit, kMaxK> pool = want;
  std::sort(pool.begin(), pool.begin() + k);
  if (pool[0] != want[0]) return false;

  // A connected prefix of s edges spans at most s + 1 vertices.
  std::array<VertexId, kMaxK + 1> verts;
  std::size_t nv = 0;
  auto has_vertex = [&verts, &nv](VertexId v) {
    for (std::size_t i = 0; i < nv; ++i) {
      if (verts[i] == v) return true;
    }
    return false;
  };
  auto add_endpoints = [&](Unit edge_id) {
    const graph::Edge& ed = g.edge_list()[edge_id];
    if (!has_vertex(ed.u)) verts[nv++] = ed.u;
    if (!has_vertex(ed.v)) verts[nv++] = ed.v;
  };

  // Seed with the smallest edge (pool[0] == want[0]).
  uint32_t used = 1u;
  add_endpoints(want[0]);

  for (std::size_t step = 1; step < k; ++step) {
    // Smallest unused edge adjacent to the prefix: pool is sorted, so the
    // first hit is the smallest.
    std::size_t pick = k;
    for (std::size_t i = 0; i < k; ++i) {
      if ((used >> i) & 1u) continue;
      const graph::Edge& ed = g.edge_list()[pool[i]];
      if (has_vertex(ed.u) || has_vertex(ed.v)) {
        pick = i;
        break;
      }
    }
    if (pick == k) return false;  // disconnected
    if (pool[pick] != want[step]) return false;
    used |= 1u << pick;
    add_endpoints(pool[pick]);
  }
  return true;
}

Result<ExtensionStats> EdgeExtend(EmbeddingTable* table,
                                  GraphAccessor* accessor,
                                  const EdgeExtensionSpec& spec,
                                  const ExtensionOptions& options) {
  GAMMA_CHECK(table->kind() == TableKind::kEdge)
      << "EdgeExtend on " << KindName(table->kind()) << " table";
  GAMMA_CHECK(table->length() > 0) << "extension of uninitialized table";
  const graph::Graph& g = accessor->graph();
  GAMMA_CHECK(!g.edge_list().empty()) << "edge index required";
  const int len = table->length();
  GAMMA_CHECK(!spec.canonical_only ||
              static_cast<std::size_t>(len) < kMaxCanonicalEdges)
      << "canonical extension of " << len << " edges; at most "
      << kMaxCanonicalEdges - 1;

  Flattened flat = Flatten(*table);

  // Vertex set of each embedding (host-side truth; charged reads happen in
  // the kernel via ReadEdgeEndpoints).
  auto verts_of = [&g](std::span<const Unit> edges,
                       std::vector<VertexId>* out) {
    out->clear();
    for (Unit e : edges) {
      const graph::Edge& ed = g.edge_list()[e];
      if (std::find(out->begin(), out->end(), ed.u) == out->end())
        out->push_back(ed.u);
      if (std::find(out->begin(), out->end(), ed.v) == out->end())
        out->push_back(ed.v);
    }
  };

  // Frontier: adjacency of every embedding vertex.
  {
    std::unordered_map<VertexId, uint64_t> times;
    std::vector<VertexId> verts;
    for (std::size_t r = 0; r < flat.rows; ++r) {
      verts_of(flat.row(r), &verts);
      for (VertexId v : verts) ++times[v];
    }
    std::vector<std::pair<VertexId, uint64_t>> frontier(times.begin(),
                                                        times.end());
    accessor->PlanExtension(frontier);
  }

  const bool grouped = options.pre_merge && len >= 2;
  std::vector<WarpTask> tasks =
      BuildTasks(*table, grouped, options.rows_per_warp);

  auto filter_and_emit = [&](gpusim::WarpCtx& w, std::size_t row,
                             std::span<const Unit> emb,
                             const std::vector<graph::EdgeId>& cands,
                             std::vector<Emit>* out) {
    std::optional<CanonicalThresholds> canonical;
    if (spec.canonical_only) canonical.emplace(g, emb);
    for (graph::EdgeId cand : cands) {
      bool fresh = true;
      for (Unit u : emb) {
        if (u == cand) {
          fresh = false;
          break;
        }
      }
      if (!fresh) continue;
      if (spec.canonical_only) {
        // Charged as a len² device-side check per fresh candidate; one add
        // per candidate keeps the double-precision sum in order.
        w.ChargeCompute(static_cast<double>(len * len));
        if (!canonical->Admits(g.edge_list()[cand], cand)) continue;
      }
      if (spec.post_filter) {
        w.ChargeCompute(options.post_filter_cycles);
        if (!spec.post_filter(emb, cand)) continue;
      }
      out->push_back({cand, static_cast<RowIndex>(row)});
    }
  };

  // Gathers candidate edge ids adjacent to `verts` into `out` (sorted,
  // deduplicated), charging the adjacency reads.
  auto gather = [&](gpusim::WarpCtx& w, const std::vector<VertexId>& verts,
                    std::vector<graph::EdgeId>* out) {
    out->clear();
    for (VertexId v : verts) {
      auto [nbrs, eids] = accessor->ReadAdjacencyWithEids(w, v);
      (void)nbrs;
      out->insert(out->end(), eids.begin(), eids.end());
    }
    w.ChargeSimtWork(out->size() ? out->size() *
                                       static_cast<std::size_t>(std::log2(
                                           out->size() + 1))
                                 : 0,
                     0.25);
    std::sort(out->begin(), out->end());
    out->erase(std::unique(out->begin(), out->end()), out->end());
  };

  RowRangeGenerator generate = [&](gpusim::WarpCtx& w, std::size_t lo,
                                   std::size_t hi,
                                   std::vector<Emit>* out) -> std::size_t {
    std::size_t raw_candidates = 0;
    ChargeTableRead(w, *table, lo, hi);
    std::vector<VertexId> verts, last_verts;
    std::vector<graph::EdgeId> base, extra, cands;
    if (grouped) {
      // Hoist the shared prefix's incident edges.
      std::span<const Unit> prefix = flat.row(lo);
      verts_of(prefix.subspan(0, len - 1), &verts);
      for (int j = 0; j + 1 < len; ++j) {
        (void)accessor->ReadEdgeEndpoints(w, prefix[j]);
      }
      gather(w, verts, &base);
      for (std::size_t r = lo; r < hi; ++r) {
        std::span<const Unit> emb = flat.row(r);
        const graph::Edge& last = g.edge_list()[emb[len - 1]];
        (void)accessor->ReadEdgeEndpoints(w, emb[len - 1]);
        last_verts.clear();
        if (std::find(verts.begin(), verts.end(), last.u) == verts.end())
          last_verts.push_back(last.u);
        if (std::find(verts.begin(), verts.end(), last.v) == verts.end())
          last_verts.push_back(last.v);
        gather(w, last_verts, &extra);
        cands.clear();
        cands.reserve(base.size() + extra.size());
        std::set_union(base.begin(), base.end(), extra.begin(), extra.end(),
                       std::back_inserter(cands));
        w.ChargeSimtWork(base.size() + extra.size(), 0.25);
        raw_candidates += cands.size();
        filter_and_emit(w, r, emb, cands, out);
      }
    } else {
      for (std::size_t r = lo; r < hi; ++r) {
        std::span<const Unit> emb = flat.row(r);
        accessor->ChargeEdgeEndpointsBatch(w, emb[0], emb.size());
        verts_of(emb, &verts);
        gather(w, verts, &cands);
        raw_candidates += cands.size();
        filter_and_emit(w, r, emb, cands, out);
      }
    }
    return raw_candidates;
  };

  // Worst case new edges per row: every incident edge of every endpoint.
  std::size_t worst = static_cast<std::size_t>(g.max_degree()) *
                      static_cast<std::size_t>(len + 1);
  auto result = RunExtension(table, accessor, options, tasks, generate,
                             std::max<std::size_t>(1, worst));
  if (result.ok() && grouped) result.value().groups = tasks.size();
  return result;
}

}  // namespace gpm::core
