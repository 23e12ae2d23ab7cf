#include "core/multimerge_sort.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>

#include "common/logging.h"
#include "gpusim/sanitizer.h"

namespace gpm::core {
namespace {

constexpr std::size_t kKeyBytes = sizeof(uint64_t);
// Host sorts have no 10k-thread parallelism; cycles per compare-move step.
constexpr double kCpuCyclesPerStep = 12.0;

double Log2Of(std::size_t n) {
  return std::log2(static_cast<double>(n) + 2.0);
}

// LSD radix sort of `in` into `out` with 11-bit digits. A digit all keys
// share costs no pass: one read pass finds the digits that vary, a second
// counts their histograms, and each of them takes one scatter pass, so keys
// below 2^11 sort in a single scatter. The passes ping-pong between `out`
// and `in`, which is left clobbered.
void RadixSort(std::span<uint64_t> in, std::vector<uint64_t>* out) {
  constexpr int kDigitBits = 11;
  constexpr int kDigits = (64 + kDigitBits - 1) / kDigitBits;
  constexpr std::size_t kRadix = std::size_t{1} << kDigitBits;
  const std::size_t n = in.size();
  out->resize(n);
  if (n == 0) return;
  GAMMA_CHECK(n <= UINT32_MAX) << "radix sort of " << n << " keys";
  uint64_t varying = 0;
  for (uint64_t k : in) varying |= k ^ in[0];
  std::array<int, kDigits> shifts;
  int passes = 0;
  for (int d = 0; d < kDigits; ++d) {
    if ((varying >> (d * kDigitBits)) & (kRadix - 1)) {
      shifts[passes++] = d * kDigitBits;
    }
  }
  std::vector<uint32_t> hist(passes * kRadix, 0);
  for (uint64_t k : in) {
    for (int p = 0; p < passes; ++p) {
      ++hist[p * kRadix + ((k >> shifts[p]) & (kRadix - 1))];
    }
  }
  std::span<uint64_t> src = in;
  std::span<uint64_t> dst(*out);
  for (int p = 0; p < passes; ++p) {
    uint32_t* offset = hist.data() + p * kRadix;
    uint32_t sum = 0;
    for (std::size_t b = 0; b < kRadix; ++b) {
      const uint32_t count = offset[b];
      offset[b] = sum;
      sum += count;
    }
    for (uint64_t k : src) dst[offset[(k >> shifts[p]) & (kRadix - 1)]++] = k;
    std::swap(src, dst);
  }
  if (src.data() != out->data()) {
    std::copy(src.begin(), src.end(), out->begin());
  }
}

// In-core sort of one segment: H2D, bitonic-style kernel, D2H, all ordered
// on `stream` (default stream = the historical synchronous path).
double ChargeSegmentSort(gpusim::Device* device, std::size_t elems,
                         gpusim::StreamId stream = gpusim::kDefaultStream) {
  if (elems == 0) return 0;
  double cycles = 0;
  // The staging buffer is charged conceptually (the simulator holds the
  // keys in host vectors); a shadow-only scratch gives the sanitizer an
  // allocation to bounds-check the kernel's accesses against. No-op when
  // no sanitizer is attached.
  gpusim::SanitizerScratch scratch(device, "sort-segment-buffer",
                                   elems * kKeyBytes);
  if (gpusim::Sanitizer* san = device->sanitizer()) {
    san->OnBulkAccess(stream, scratch.handle(), 0, elems * kKeyBytes,
                      /*is_write=*/true, "sort-h2d");
  }
  cycles += device->CopyHostToDeviceAsync(stream, elems * kKeyBytes);
  const std::size_t kElemsPerTask = 4096;
  std::size_t tasks = (elems + kElemsPerTask - 1) / kElemsPerTask;
  double log_n = Log2Of(elems);
  cycles += device->LaunchKernelAsync(stream, tasks,
                                      [&](gpusim::WarpCtx& w, std::size_t t) {
    std::size_t lo = t * kElemsPerTask;
    std::size_t n = std::min(elems, lo + kElemsPerTask) - lo;
    w.DeviceRead(scratch.handle(), lo * kKeyBytes, n * kKeyBytes);
    // Bitonic/merge network: log^2(n) passes over the task's share.
    w.ChargeSimtWork(n, log_n * log_n * 0.5);
    w.DeviceWrite(scratch.handle(), lo * kKeyBytes, n * kKeyBytes);
  },
  "sort-segment");
  if (gpusim::Sanitizer* san = device->sanitizer()) {
    san->OnBulkAccess(stream, scratch.handle(), 0, elems * kKeyBytes,
                      /*is_write=*/false, "sort-d2h");
  }
  cycles += device->CopyDeviceToHostAsync(stream, elems * kKeyBytes);
  return cycles;
}

// Multi-merge of sorted segments (Algorithm 3), shared by the GAMMA and
// naive methods; `halved_searches` applies Optimization 3's ordered-pair +
// prefix-sum saving.
SortStats MultiMerge(gpusim::Device* device,
                     std::vector<std::vector<uint64_t>>* segments,
                     std::vector<uint64_t>* out, std::size_t p_size,
                     bool halved_searches) {
  SortStats stats;
  const std::size_t n = segments->size();

  // Collect checkpoints: every p_size-th element of each segment.
  std::vector<uint64_t> checkpoints;
  for (const auto& seg : *segments) {
    for (std::size_t i = p_size; i < seg.size(); i += p_size) {
      checkpoints.push_back(seg[i]);
    }
  }
  std::sort(checkpoints.begin(), checkpoints.end());
  checkpoints.erase(std::unique(checkpoints.begin(), checkpoints.end()),
                    checkpoints.end());

  // Matched indices of every checkpoint in every segment (block-wise
  // parallel on device; charged as one kernel).
  std::vector<std::vector<std::size_t>> splits(n);
  double log_seg = 0;
  for (const auto& seg : *segments) log_seg = std::max(log_seg, Log2Of(seg.size()));
  stats.cycles += device->LaunchKernel(
      std::max<std::size_t>(1, n), [&](gpusim::WarpCtx& w, std::size_t i) {
        const auto& seg = (*segments)[i];
        w.ZeroCopyRead(checkpoints.size() * kKeyBytes);
        w.ChargeSimtWork(checkpoints.size(), log_seg);
        splits[i].reserve(checkpoints.size() + 2);
        splits[i].push_back(0);
        for (uint64_t c : checkpoints) {
          splits[i].push_back(MatchedIndex(seg, c));
        }
        splits[i].push_back(seg.size());
      },
      "sort-matched-index");

  // One merge subtask per checkpoint interval; warp-wise merging. Subtask
  // o takes every segment's slice between its o-th and (o+1)-th split
  // points, so its run starts in `out` at the sum of the segments' o-th
  // split points and the subtasks write disjoint ranges.
  const std::size_t num_subtasks = checkpoints.size() + 1;
  stats.subtasks = num_subtasks;
  std::size_t total = 0;
  for (const auto& seg : *segments) total += seg.size();
  out->resize(total);
  stats.cycles += device->LaunchKernel(
      num_subtasks, [&](gpusim::WarpCtx& w, std::size_t o) {
        std::size_t base = 0;
        std::size_t m = 0;
        for (std::size_t i = 0; i < n; ++i) {
          base += splits[i][o];
          m += splits[i][o + 1] - splits[i][o];
        }
        // The slices live in host memory (segments were written back after
        // the in-core sorts); read them in and write the merged run out.
        w.ZeroCopyRead(m * kKeyBytes);
        // Searches run one element per SIMT lane (thread-wise searching
        // in Algorithm 3), log2(p_size) steps each.
        std::size_t searches = m * (n > 0 ? n - 1 : 0);
        if (halved_searches) {
          // Only S_j over S_k for j > k; the reverse direction comes from
          // the prefix-sum over matched counts (Fig. 9(c)).
          w.ChargeSimtWork(searches / 2, Log2Of(p_size));
          w.ChargeSimtWork(searches / 2, 0.25);  // prefix-sum passes
          w.ChargeWarpScan();
        } else {
          w.ChargeSimtWork(searches, Log2Of(p_size));
        }
        w.ZeroCopyWrite(m * kKeyBytes);

        // Functional merge: concatenate the non-empty slices into the
        // output run, then merge adjacent sorted runs pairwise, bottom-up,
        // ping-ponging through a scratch buffer (ceil(log2 n) linear
        // passes).
        uint64_t* const dst = out->data() + base;
        std::vector<std::size_t> bounds{0};
        for (std::size_t i = 0; i < n; ++i) {
          const auto& seg = (*segments)[i];
          std::size_t lo = splits[i][o];
          std::size_t hi = splits[i][o + 1];
          if (lo == hi) continue;
          std::copy(seg.data() + lo, seg.data() + hi, dst + bounds.back());
          bounds.push_back(bounds.back() + (hi - lo));
        }
        if (bounds.size() <= 2) return;
        std::vector<uint64_t> scratch(m);
        uint64_t* src = dst;
        uint64_t* tmp = scratch.data();
        while (bounds.size() > 2) {
          // Runs [b0,b1) and [b1,b2) merge into [b0,b2); an odd last run
          // is copied across. The merged bounds are bounds[0, 2, 4, ...]
          // plus the end, compacted in place.
          std::size_t kept = 1;
          std::size_t j = 0;
          for (; j + 2 < bounds.size(); j += 2) {
            std::merge(src + bounds[j], src + bounds[j + 1],
                       src + bounds[j + 1], src + bounds[j + 2],
                       tmp + bounds[j]);
            bounds[kept++] = bounds[j + 2];
          }
          if (j + 1 < bounds.size()) {
            std::copy(src + bounds[j], src + bounds[j + 1], tmp + bounds[j]);
            bounds[kept++] = bounds[j + 1];
          }
          bounds.resize(kept);
          std::swap(src, tmp);
        }
        if (src != dst) std::copy(src, src + m, dst);
      },
      "sort-merge");
  return stats;
}

}  // namespace

const char* SortMethodName(SortMethod method) {
  switch (method) {
    case SortMethod::kGammaMultiMerge:
      return "gamma-multimerge";
    case SortMethod::kNaiveMerge:
      return "naive-merge";
    case SortMethod::kXtr2Sort:
      return "xtr2sort";
    case SortMethod::kCpuSort:
      return "cpu-sort";
  }
  return "?";
}

std::size_t MatchedIndex(const std::vector<uint64_t>& s, uint64_t x) {
  return static_cast<std::size_t>(
      std::lower_bound(s.begin(), s.end(), x) - s.begin());
}

Result<SortStats> SortKeys(gpusim::Device* device,
                           std::vector<uint64_t>* keys,
                           const SortOptions& options) {
  const bool multi_merge = options.method == SortMethod::kGammaMultiMerge ||
                           options.method == SortMethod::kNaiveMerge;
  if (multi_merge && options.p_size == 0) {
    return Status::InvalidArgument(
        "multi-merge checkpoint spacing (p_size) must be positive");
  }
  SortStats stats;
  stats.keys = keys->size();
  const std::size_t n = keys->size();
  if (n <= 1) return stats;

  // gamma-prof: everything charged under the sort subtree (partition /
  // segment / merge kernels and host merges) is attributed to the kSort
  // resource class; memory traffic keeps its memory class.
  gpusim::SortActivityScope sort_activity(device);

  if (options.method == SortMethod::kCpuSort) {
    double log_n = Log2Of(n);
    device->ChargeHostWork(static_cast<double>(n) * log_n *
                           kCpuCyclesPerStep);
    std::sort(keys->begin(), keys->end());
    stats.segments = 1;
    return stats;
  }

  std::size_t segment_bytes = options.segment_bytes;
  if (segment_bytes == 0) {
    segment_bytes = device->memory().available_bytes() / 2;
  }
  if (segment_bytes < 4096) {
    return Status::DeviceOutOfMemory(
        "not enough device memory for a sort segment");
  }
  const std::size_t seg_elems = segment_bytes / kKeyBytes;
  if (options.in_core_only && n > seg_elems) {
    return Status::DeviceOutOfMemory(
        "in-core sort of " + std::to_string(n * kKeyBytes) +
        " bytes exceeds the device sort buffer (" +
        std::to_string(segment_bytes) + " bytes)");
  }

  if (options.method == SortMethod::kXtr2Sort) {
    // Sample splitters from the unsorted input (stride sample), partition
    // every key over the link, then sort each bucket in core. Bucket skew
    // is whatever the sample produces — that is xtr2sort's weakness.
    std::size_t num_buckets =
        std::max<std::size_t>(1, (n + seg_elems - 1) / seg_elems);
    std::vector<uint64_t> sample;
    std::size_t stride = std::max<std::size_t>(1, n / (num_buckets * 32));
    for (std::size_t i = 0; i < n; i += stride) sample.push_back((*keys)[i]);
    std::sort(sample.begin(), sample.end());
    std::vector<uint64_t> splitters;
    for (std::size_t b = 1; b < num_buckets; ++b) {
      splitters.push_back(sample[b * sample.size() / num_buckets]);
    }
    // Partition pass: read all keys, write them into buckets (host side).
    stats.cycles += device->LaunchKernel(
        std::max<std::size_t>(1, n / 4096),
        [&](gpusim::WarpCtx& w, std::size_t) {
          std::size_t share = 4096;
          w.ZeroCopyRead(share * kKeyBytes);
          w.ChargeSimtWork(share, Log2Of(splitters.size()));
          w.ZeroCopyWrite(share * kKeyBytes);
        });
    std::vector<std::vector<uint64_t>> buckets(num_buckets);
    for (uint64_t k : *keys) {
      std::size_t b = static_cast<std::size_t>(
          std::upper_bound(splitters.begin(), splitters.end(), k) -
          splitters.begin());
      buckets[b].push_back(k);
    }
    keys->clear();
    for (auto& bucket : buckets) {
      // Oversized buckets need multiple in-core rounds (extra passes).
      std::size_t rounds = std::max<std::size_t>(
          1, (bucket.size() + seg_elems - 1) / seg_elems);
      for (std::size_t r = 0; r < rounds; ++r) {
        std::size_t lo = r * bucket.size() / rounds;
        std::size_t hi = (r + 1) * bucket.size() / rounds;
        stats.cycles += ChargeSegmentSort(device, hi - lo);
      }
      if (rounds > 1) {
        // Merge the rounds on the host (penalty for the imbalance).
        device->ChargeHostWork(static_cast<double>(bucket.size()) * 4);
      }
      std::sort(bucket.begin(), bucket.end());
      keys->insert(keys->end(), bucket.begin(), bucket.end());
      ++stats.segments;
    }
    return stats;
  }

  // Segment phase shared by the multi-merge methods. With num_streams >= 2
  // the in-core sorts round-robin over worker streams: segment i+1's H2D
  // upload queues behind (rather than after the completion of) segment i's
  // write-back on the shared link, and the sort kernels themselves overlap
  // freely. The phase is then accounted by its joined elapsed time.
  const std::size_t sort_streams =
      std::max<std::size_t>(1, options.num_streams);
  const bool overlap_segments = sort_streams >= 2 && n > seg_elems;
  const double segment_phase_start =
      overlap_segments ? device->Synchronize() : 0.0;
  // Each segment sorts out of its range of `keys`, which serves as the
  // radix scratch: the merge (or the single segment) overwrites all of it.
  std::vector<std::vector<uint64_t>> segments;
  std::size_t seg_idx = 0;
  for (std::size_t lo = 0; lo < n; lo += seg_elems) {
    std::size_t hi = std::min(n, lo + seg_elems);
    segments.emplace_back();
    RadixSort({keys->data() + lo, hi - lo}, &segments.back());
    if (overlap_segments) {
      gpusim::StreamId stream =
          device->WorkerStream(static_cast<int>(seg_idx % sort_streams));
      ChargeSegmentSort(device, hi - lo, stream);
    } else {
      stats.cycles += ChargeSegmentSort(device, hi - lo);
    }
    ++seg_idx;
  }
  if (overlap_segments) {
    // Checkpoint collection (and the merge kernels after it) read every
    // sorted segment: join all streams before leaving the phase.
    stats.cycles += device->Synchronize() - segment_phase_start;
  }
  stats.segments = segments.size();
  if (segments.size() == 1) {
    *keys = std::move(segments.front());
    return stats;
  }

  SortStats merge = MultiMerge(
      device, &segments, keys, options.p_size,
      /*halved_searches=*/options.method == SortMethod::kGammaMultiMerge);
  stats.cycles += merge.cycles;
  stats.subtasks = merge.subtasks;
  return stats;
}

}  // namespace gpm::core
