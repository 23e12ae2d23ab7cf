#include "core/filtering.h"

#include <algorithm>

#include "common/logging.h"
#include "gpusim/device.h"

namespace gpm::core {
namespace {

constexpr std::size_t kRowsPerWarp = 256;

FilterStats MarkAndCompact(EmbeddingTable* table,
                           const std::vector<uint8_t>& keep,
                           std::size_t predicate_rows, double mark_cycles,
                           const FilterOptions& options) {
  FilterStats stats;
  stats.checked = predicate_rows;
  for (uint8_t k : keep) {
    if (!k) ++stats.removed;
  }
  stats.kernel_cycles = mark_cycles;
  if (options.compress) {
    stats.compaction =
        CompactTable(table, keep, options.prune_ancestors);
    stats.kernel_cycles += stats.compaction.kernel_cycles;
  } else if (stats.removed > 0) {
    // Without compression the invalid rows stay as holes; model the flag
    // column that downstream kernels must consult.
    std::vector<uint8_t> dense(keep);
    (void)dense;
  }
  return stats;
}

}  // namespace

FilterStats FilterEmbeddings(
    EmbeddingTable* table,
    const std::function<bool(std::span<const Unit>)>& keep,
    const FilterOptions& options) {
  const std::size_t rows = table->num_embeddings();
  const int len = table->length();
  std::vector<uint8_t> marks(rows, 1);
  gpusim::Device* device = table->device();

  double cycles = 0;
  if (rows > 0) {
    std::size_t tasks = (rows + kRowsPerWarp - 1) / kRowsPerWarp;
    cycles = device->LaunchKernel(tasks, [&](gpusim::WarpCtx& w,
                                             std::size_t t) {
      std::size_t lo = t * kRowsPerWarp;
      std::size_t hi = std::min(rows, lo + kRowsPerWarp);
      table->ChargeColumnRead(w, len - 1, lo, hi - lo);
      w.ChargeSimtWork(hi - lo, options.predicate_cycles);
      for (std::size_t r = lo; r < hi; ++r) {
        std::vector<Unit> emb =
            table->GetEmbedding(len - 1, static_cast<RowIndex>(r));
        marks[r] = keep(emb) ? 1 : 0;
      }
      w.DeviceWrite(hi - lo);
    },
    "filter-mark");
  }
  return MarkAndCompact(table, marks, rows, cycles, options);
}

FilterStats FilterByPattern(EmbeddingTable* table,
                            const std::vector<uint32_t>& ranks,
                            const std::vector<uint64_t>& distinct_codes,
                            const PatternTable& pt,
                            const FilterOptions& options) {
  GAMMA_CHECK(ranks.size() == table->num_embeddings())
      << "codes misaligned with table";
  std::vector<uint8_t> drop(distinct_codes.size(), 0);
  for (std::size_t k = 0; k < distinct_codes.size(); ++k) {
    const PatternEntry* e = pt.Find(distinct_codes[k]);
    drop[k] = e != nullptr && !e->valid;
  }
  const bool any_invalid =
      std::any_of(pt.entries().begin(), pt.entries().end(),
                  [](const PatternEntry& e) { return !e.valid; });
  const std::size_t rows = ranks.size();
  std::vector<uint8_t> marks(rows, 1);
  gpusim::Device* device = table->device();

  double cycles = 0;
  if (rows > 0 && any_invalid) {
    std::size_t tasks = (rows + kRowsPerWarp - 1) / kRowsPerWarp;
    cycles = device->LaunchKernel(tasks, [&](gpusim::WarpCtx& w,
                                             std::size_t t) {
      std::size_t lo = t * kRowsPerWarp;
      std::size_t hi = std::min(rows, lo + kRowsPerWarp);
      w.DeviceRead((hi - lo) * kPatternCodeBytes);
      w.ChargeSimtWork(hi - lo, options.predicate_cycles);
      for (std::size_t r = lo; r < hi; ++r) marks[r] = !drop[ranks[r]];
      w.DeviceWrite(hi - lo);
    },
    "filter-mark-pattern");
  }
  return MarkAndCompact(table, marks, rows, cycles, options);
}

}  // namespace gpm::core
