#include "gpusim/unified_memory.h"

#include <algorithm>

#include "common/logging.h"
#include "gpusim/access_observer.h"
#include "gpusim/critpath.h"
#include "gpusim/sanitizer.h"

namespace gpm::gpusim {

namespace {

using Instant = prof::InstantRecord::Kind;

// Emits one page-level timeline instant when a log is bound. The timestamp
// has kernel-boundary resolution: all events of one kernel share its start
// time.
void TracePage(prof::CommandLog* log, const double* now_cycles,
               Instant kind, uint32_t region, uint64_t page) {
  if (log == nullptr) return;
  prof::InstantRecord rec;
  rec.kind = kind;
  rec.ts = now_cycles != nullptr ? *now_cycles : 0.0;
  rec.region = region;
  rec.page = page;
  log->AppendInstant(rec);
}

}  // namespace

std::vector<int32_t>& PageBuffer::Table(uint32_t region, uint64_t pages) {
  if (region >= tables_.size()) tables_.resize(std::size_t{region} + 1);
  std::vector<int32_t>& table = tables_[region];
  if (table.size() < pages) table.resize(pages, kNone);
  return table;
}

bool PageBuffer::IsResident(uint32_t region, std::size_t offset) const {
  const uint64_t page = offset / params_.um_page_bytes;
  return region < tables_.size() && page < tables_[region].size() &&
         tables_[region][page] != kNone;
}

AccessCharge PageBuffer::Access(uint32_t region, std::size_t offset,
                                std::size_t bytes) {
  AccessCharge charge;
  if (bytes == 0) return charge;
  const std::size_t page_bytes = params_.um_page_bytes;
  uint64_t first_page = offset / page_bytes;
  uint64_t last_page = (offset + bytes - 1) / page_bytes;
  std::vector<int32_t>& table = Table(region, last_page + 1);
  for (uint64_t p = first_page; p <= last_page; ++p) {
    std::size_t lo = std::max<std::size_t>(offset, p * page_bytes);
    std::size_t hi =
        std::min<std::size_t>(offset + bytes, (p + 1) * page_bytes);
    std::size_t span = hi - lo;
    const int32_t slot = table[p];
    if (slot != kNone) {
      // Buffered page: device-memory cost only.
      ++stats_->um_page_hits;
      charge.cycles += params_.device_mem_latency_cycles +
                       static_cast<double>(span) /
                           params_.device_bytes_per_cycle;
      charge.hit_cycles += params_.device_mem_latency_cycles +
                           static_cast<double>(span) /
                               params_.device_bytes_per_cycle;
      Touch(slot);
      TracePage(trace_, now_cycles_, Instant::kUmHit, region, p);
    } else {
      // Page fault: fault handling plus whole-page migration.
      ++stats_->um_page_faults;
      stats_->um_migrated_bytes += page_bytes;
      charge.cycles += params_.page_fault_cycles +
                       static_cast<double>(page_bytes) /
                           params_.pcie_bytes_per_cycle;
      charge.fault_cycles += params_.page_fault_cycles +
                             static_cast<double>(page_bytes) /
                                 params_.pcie_bytes_per_cycle;
      charge.pcie_bytes += page_bytes;
      TracePage(trace_, now_cycles_, Instant::kUmFault, region, p);
      InsertPage(region, p, table);
    }
  }
  return charge;
}

std::size_t PageBuffer::Prefetch(uint32_t region, std::size_t offset) {
  uint64_t page = offset / params_.um_page_bytes;
  std::vector<int32_t>& table = Table(region, page + 1);
  const int32_t slot = table[page];
  if (slot != kNone) {
    Touch(slot);
    return 0;
  }
  InsertPage(region, page, table);
  stats_->um_migrated_bytes += params_.um_page_bytes;
  TracePage(trace_, now_cycles_, Instant::kUmPrefetch, region, page);
  return params_.um_page_bytes;
}

void PageBuffer::DropRegionTail(uint32_t region, std::size_t old_bytes,
                                std::size_t new_bytes) {
  if (new_bytes >= old_bytes || region >= tables_.size()) return;
  const std::size_t page_bytes = params_.um_page_bytes;
  std::vector<int32_t>& table = tables_[region];
  uint64_t first_stale = (new_bytes + page_bytes - 1) / page_bytes;
  uint64_t end = std::min<uint64_t>(old_bytes / page_bytes + 1, table.size());
  for (uint64_t p = first_stale; p < end; ++p) {
    if (table[p] != kNone) Remove(&table[p]);
  }
}

void PageBuffer::DropRegion(uint32_t region) {
  if (region >= tables_.size()) return;
  std::vector<int32_t>& table = tables_[region];
  for (int32_t& entry : table) {
    if (entry != kNone) Remove(&entry);
  }
  std::vector<int32_t>().swap(table);
}

void PageBuffer::Unlink(int32_t slot) {
  Slot& s = slots_[slot];
  (s.prev == kNone ? head_ : slots_[s.prev].next) = s.next;
  (s.next == kNone ? tail_ : slots_[s.next].prev) = s.prev;
}

void PageBuffer::PushFront(int32_t slot) {
  Slot& s = slots_[slot];
  s.prev = kNone;
  s.next = head_;
  (head_ == kNone ? tail_ : slots_[head_].prev) = slot;
  head_ = slot;
}

void PageBuffer::Touch(int32_t slot) {
  if (slot == head_) return;
  Unlink(slot);
  PushFront(slot);
}

void PageBuffer::Remove(int32_t* entry) {
  Unlink(*entry);
  free_slots_.push_back(*entry);
  *entry = kNone;
  --resident_;
}

void PageBuffer::InsertPage(uint32_t region, uint64_t page,
                            std::vector<int32_t>& table) {
  if (capacity_pages_ == 0) return;  // No buffer: behaves like re-faulting.
  while (resident_ >= capacity_pages_) {
    const Slot victim = slots_[tail_];
    Remove(&tables_[victim.region][victim.page]);
    ++stats_->um_evictions;
    TracePage(trace_, now_cycles_, Instant::kUmEviction, victim.region,
              victim.page);
  }
  int32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<int32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].region = region;
  slots_[slot].page = static_cast<uint32_t>(page);
  PushFront(slot);
  table[page] = slot;
  ++resident_;
}

UnifiedMemory::RegionId UnifiedMemory::Register(std::size_t bytes) {
  RegionId id = next_region_++;
  region_bytes_.emplace(id, bytes);
  if (sanitizer_ != nullptr) sanitizer_->OnRegionRegister(id, bytes);
  return id;
}

void UnifiedMemory::ResizeRegion(RegionId region, std::size_t new_bytes) {
  auto it = region_bytes_.find(region);
  GAMMA_CHECK(it != region_bytes_.end()) << "resize of unknown UM region";
  std::size_t old_bytes = it->second;
  it->second = new_bytes;
  if (sanitizer_ != nullptr) sanitizer_->OnRegionResize(region, new_bytes);
  if (observer_ != nullptr) {
    observer_->OnRegionResized(region, old_bytes, new_bytes);
  }
  buffer_.DropRegionTail(region, old_bytes, new_bytes);
}

void UnifiedMemory::InvalidateRegion(RegionId region) {
  if (observer_ != nullptr) observer_->OnRegionInvalidated(region);
  buffer_.DropRegion(region);
}

AccessCharge UnifiedMemory::Access(RegionId region, std::size_t offset,
                                   std::size_t bytes) {
  AccessCharge charge = buffer_.Access(region, offset, bytes);
  if (observer_ != nullptr && bytes > 0) {
    observer_->OnUnifiedAccess(region, offset, bytes, charge.cycles);
  }
  return charge;
}

}  // namespace gpm::gpusim
