#ifndef GAMMA_GPUSIM_UNIFIED_MEMORY_H_
#define GAMMA_GPUSIM_UNIFIED_MEMORY_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "gpusim/sim_params.h"
#include "gpusim/stats.h"

namespace gpm::prof {
class CommandLog;
}  // namespace gpm::prof

namespace gpm::gpusim {

class AccessObserver;
class Sanitizer;

/// Charge produced by a memory access: warp stall cycles plus bytes that
/// must cross the PCIe link (added to the current kernel's link traffic).
///
/// `hit_cycles` and `fault_cycles` split `cycles` by resource class for
/// gamma-prof (page-buffer hits are device-memory time, faults are
/// migration time). They are accumulated with the same expressions in the
/// same order as `cycles`, so `hit_cycles + fault_cycles == cycles` holds
/// exactly whenever an access is all-hit or all-fault, and to within the
/// usual fold reordering otherwise; attribution closes any residual.
struct AccessCharge {
  double cycles = 0;
  std::size_t pcie_bytes = 0;
  double hit_cycles = 0;
  double fault_cycles = 0;
};

/// Charge of one zero-copy access of `bytes` (128 B transactions over the
/// link; the first pays full link latency, the rest pipeline), counted
/// into `stats`; `bytes` must be positive. The one zero-copy cost
/// formula: `WarpCtx::ZeroCopyRead` and the adaptivity audit's shadows
/// both charge through it. Inline: it sits on every zero-copy read.
inline AccessCharge ZeroCopyCharge(const SimParams& params, std::size_t bytes,
                                   DeviceStats* stats) {
  const std::size_t ntx = (bytes + params.zc_transaction_bytes - 1) /
                          params.zc_transaction_bytes;
  stats->zc_transactions += ntx;
  stats->zc_bytes += ntx * params.zc_transaction_bytes;
  AccessCharge charge;
  charge.cycles = params.pcie_latency_cycles +
                  static_cast<double>(ntx - 1) * params.zc_pipelined_cycles;
  charge.pcie_bytes = ntx * params.zc_transaction_bytes;
  return charge;
}

/// The device-side buffer of migrated unified-memory pages: an LRU over
/// resident pages plus the fault/hit/evict cost arithmetic, counting into
/// a DeviceStats.
///
/// `UnifiedMemory` owns the device's instance; the adaptivity audit owns
/// two more, one per counterfactual placement, counting into their own
/// totals. Page-level timeline instants are emitted only when a log is
/// bound (`BindTrace`), so shadow instances never touch the timeline.
///
/// The buffer is flat: a per-region page -> slot table (grown on first
/// touch), slots holding each resident page's key and index links of the
/// LRU list, and a free list of slots. A hit moves its page to the front,
/// eviction pops the back.
class PageBuffer {
 public:
  /// `params` and `stats` must outlive the buffer.
  PageBuffer(const SimParams& params, std::size_t capacity_pages,
             DeviceStats* stats)
      : params_(params), stats_(stats), capacity_pages_(capacity_pages) {}

  PageBuffer(const PageBuffer&) = delete;
  PageBuffer& operator=(const PageBuffer&) = delete;

  /// Routes page-level fault/hit/eviction/prefetch events to `log` as
  /// instants, timestamped by `*now_cycles`. Both pointers must outlive
  /// this object.
  void BindTrace(prof::CommandLog* log, const double* now_cycles) {
    trace_ = log;
    now_cycles_ = now_cycles;
  }

  /// Charges a device-side access of `[offset, offset + bytes)` within
  /// `region`: a device-memory access per resident page, a fault plus a
  /// whole-page migration per missing one.
  AccessCharge Access(uint32_t region, std::size_t offset, std::size_t bytes);

  /// Migrates the page holding `offset` without a fault penalty; returns
  /// the bytes migrated (0 when the page was already resident).
  std::size_t Prefetch(uint32_t region, std::size_t offset);

  /// Drops the buffered pages past `new_bytes` when a region shrank from
  /// `old_bytes`.
  void DropRegionTail(uint32_t region, std::size_t old_bytes,
                      std::size_t new_bytes);

  /// Drops every buffered page of `region`.
  void DropRegion(uint32_t region);

  bool IsResident(uint32_t region, std::size_t offset) const;
  std::size_t resident_pages() const { return resident_; }
  std::size_t capacity_pages() const { return capacity_pages_; }

 private:
  static constexpr int32_t kNone = -1;

  /// One resident page and its LRU neighbours (slot indices, kNone at the
  /// ends; `prev` is towards the most recent). A page number fits 32 bits:
  /// its region's table holds one entry per page.
  struct Slot {
    uint32_t region = 0;
    uint32_t page = 0;
    int32_t prev = kNone;
    int32_t next = kNone;
  };

  /// `region`'s page -> slot table, grown to hold `pages` entries.
  std::vector<int32_t>& Table(uint32_t region, uint64_t pages);

  void Unlink(int32_t slot);
  void PushFront(int32_t slot);
  /// Moves a resident page's slot to the front (a hit).
  void Touch(int32_t slot);
  /// Unlinks and frees the slot of a resident page; `*entry` is its table
  /// entry.
  void Remove(int32_t* entry);
  /// Makes `(region, page)` resident at the front, evicting from the back
  /// at capacity; `table` is `region`'s table, already holding `page`.
  void InsertPage(uint32_t region, uint64_t page,
                  std::vector<int32_t>& table);

  const SimParams& params_;
  DeviceStats* stats_;
  std::size_t capacity_pages_;
  prof::CommandLog* trace_ = nullptr;
  const double* now_cycles_ = nullptr;

  std::vector<std::vector<int32_t>> tables_;  // [region][page] -> slot
  std::vector<Slot> slots_;
  std::vector<int32_t> free_slots_;
  int32_t head_ = kNone;  // most recent
  int32_t tail_ = kNone;  // least recent: the next victim
  std::size_t resident_ = 0;
};

/// Simulated CUDA unified (managed) memory.
///
/// Host-resident regions are addressable from device code; the first access
/// to a page triggers a page fault and a 4 KB migration into a device-side
/// page buffer (LRU). Subsequent accesses to a buffered page cost only a
/// device-memory access. The buffer capacity models the portion of device
/// memory the runtime dedicates to migrated pages; pages persist across
/// kernels, which is what gives GAMMA's extensions their exploitable
/// temporal locality (paper Fig. 5).
class UnifiedMemory {
 public:
  using RegionId = uint32_t;

  UnifiedMemory(const SimParams& params, DeviceStats* stats)
      : buffer_(params, params.um_device_buffer_bytes / params.um_page_bytes,
                stats) {}

  UnifiedMemory(const UnifiedMemory&) = delete;
  UnifiedMemory& operator=(const UnifiedMemory&) = delete;

  /// Routes the page buffer's events to `log` (see PageBuffer::BindTrace);
  /// the Device wires this up at construction when the timeline is armed.
  void BindTrace(prof::CommandLog* log, const double* now_cycles) {
    buffer_.BindTrace(log, now_cycles);
  }

  /// Attaches a read-only tap on the access stream (see AccessObserver);
  /// nullptr detaches. Set through `Device::set_access_observer`, which
  /// keeps the warp-level zero-copy tap in sync. Observers never alter
  /// charges or counters, so results are identical with one attached.
  void set_observer(AccessObserver* observer) { observer_ = observer; }
  AccessObserver* observer() const { return observer_; }

  /// Mirrors region register/resize into the checker so it can bounds-check
  /// unified reads; nullptr detaches. Like observers, the sanitizer never
  /// alters charges.
  void set_sanitizer(Sanitizer* sanitizer) { sanitizer_ = sanitizer; }

  /// Registered regions by id; Device::EnableSanitizer snapshots this to
  /// shadow regions that predate the sanitizer.
  const std::unordered_map<RegionId, std::size_t>& region_sizes() const {
    return region_bytes_;
  }

  /// Registers a managed region of `bytes` bytes; returns its id.
  RegionId Register(std::size_t bytes);

  /// Grows or shrinks a region. Shrinking invalidates buffered pages that
  /// fall beyond the new size.
  void ResizeRegion(RegionId region, std::size_t new_bytes);

  /// Simulates a device-side access of `[offset, offset + bytes)` within
  /// `region`. Faults and migrates non-resident pages.
  AccessCharge Access(RegionId region, std::size_t offset, std::size_t bytes);

  /// Prefetches the page holding `offset` into the device buffer
  /// (cudaMemPrefetchAsync-style: bulk migration, no per-page fault
  /// penalty). Returns the bytes that actually had to migrate (0 when the
  /// page was already resident). The caller charges the link transfer.
  std::size_t PrefetchPage(RegionId region, std::size_t offset) {
    return buffer_.Prefetch(region, offset);
  }

  /// Drops every buffered page of `region` (e.g., data rewritten by host).
  void InvalidateRegion(RegionId region);

  /// True when the page holding `offset` is resident in the device buffer.
  bool IsResident(RegionId region, std::size_t offset) const {
    return buffer_.IsResident(region, offset);
  }

  std::size_t resident_pages() const { return buffer_.resident_pages(); }
  std::size_t capacity_pages() const { return buffer_.capacity_pages(); }

 private:
  PageBuffer buffer_;
  AccessObserver* observer_ = nullptr;
  Sanitizer* sanitizer_ = nullptr;
  RegionId next_region_ = 1;
  std::unordered_map<RegionId, std::size_t> region_bytes_;
};

}  // namespace gpm::gpusim

#endif  // GAMMA_GPUSIM_UNIFIED_MEMORY_H_
