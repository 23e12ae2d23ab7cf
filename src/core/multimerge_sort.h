#ifndef GAMMA_CORE_MULTIMERGE_SORT_H_
#define GAMMA_CORE_MULTIMERGE_SORT_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "gpusim/device.h"

namespace gpm::core {

/// Out-of-core GPU sorting method (Fig. 19 / Table III competitors).
enum class SortMethod : uint8_t {
  /// Optimization 3: in-core segment sorts + checkpoint-partitioned
  /// multi-merge with matched indices; redundant searches halved by the
  /// prefix-sum trick (Algorithm 3).
  kGammaMultiMerge,
  /// Same segmentation, but the merge searches every element of every list
  /// against every other list (no ordering/prefix-sum saving).
  kNaiveMerge,
  /// xtr2sort-style: sample splitters, partition all keys over PCIe into
  /// buckets, then sort each bucket in core. Pays a full extra pass and
  /// suffers bucket imbalance.
  kXtr2Sort,
  /// Host-only std::sort (no GPU), the Table III CPU baseline.
  kCpuSort,
};

const char* SortMethodName(SortMethod method);

struct SortOptions {
  SortMethod method = SortMethod::kGammaMultiMerge;
  /// Per-segment device budget; 0 = use half the free device memory.
  std::size_t segment_bytes = 0;
  /// Checkpoint spacing within a segment (elements). Bounds every merge
  /// subtask to at most p_size elements per list (Definition 5.1 ff).
  /// Must be positive for the multi-merge methods (kInvalidArgument).
  std::size_t p_size = 1 << 14;
  /// In-core frameworks (Pangolin) can only sort what fits on the device:
  /// fail with kDeviceOutOfMemory instead of segmenting.
  bool in_core_only = false;
  /// Execution streams for the segment phase. 1 = the historical
  /// synchronous path (bit-identical cycle totals). >= 2 round-robins the
  /// in-core segment sorts over worker streams, so segment i+1's H2D
  /// upload contends on the PCIe link with (instead of waiting for)
  /// segment i's sort kernel and write-back; `cycles` then accounts the
  /// phase's joined elapsed time rather than the serial per-op sum.
  std::size_t num_streams = 1;
};

struct SortStats {
  std::size_t keys = 0;
  std::size_t segments = 0;
  std::size_t subtasks = 0;  ///< merge subtasks (multi-merge methods)
  double cycles = 0;         ///< simulated cycles spent sorting
};

/// Sorts `keys` ascending with the chosen method, charging `device`.
/// The GAMMA path actually executes Algorithm 3 (segment sort, checkpoint
/// collection, matched-index partitioning, per-subtask merges) on the host
/// data, so tests validate the algorithm, not just the cost model.
Result<SortStats> SortKeys(gpusim::Device* device,
                           std::vector<uint64_t>* keys,
                           const SortOptions& options);

/// The matched index of `x` in sorted `s` (Definition 5.1): the smallest
/// index i with x <= s[i], or |s| when x exceeds every element.
std::size_t MatchedIndex(const std::vector<uint64_t>& s, uint64_t x);

}  // namespace gpm::core

#endif  // GAMMA_CORE_MULTIMERGE_SORT_H_
