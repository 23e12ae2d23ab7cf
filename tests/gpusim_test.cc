#include <gtest/gtest.h>

#include <list>
#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gpusim/critpath.h"
#include "gpusim/device.h"
#include "gpusim/host_array.h"
#include "gpusim/profile.h"

namespace gpm::gpusim {
namespace {

SimParams SmallParams() {
  SimParams p;
  p.device_memory_bytes = 1 << 20;       // 1 MiB
  p.um_device_buffer_bytes = 64 << 10;   // 16 pages
  return p;
}

TEST(DeviceMemoryTest, AllocateAndFree) {
  DeviceMemory mem(1000);
  auto a = mem.Allocate(400);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(mem.used_bytes(), 400u);
  auto b = mem.Allocate(600);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(mem.available_bytes(), 0u);
  mem.Free(a.value());
  EXPECT_EQ(mem.used_bytes(), 600u);
}

TEST(DeviceMemoryTest, OomWhenExceedingCapacity) {
  DeviceMemory mem(1000);
  auto a = mem.Allocate(800);
  ASSERT_TRUE(a.ok());
  auto b = mem.Allocate(300);
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), ErrorCode::kDeviceOutOfMemory);
}

TEST(DeviceMemoryTest, PeakTracksHighWater) {
  DeviceMemory mem(1000);
  auto a = mem.Allocate(700);
  mem.Free(a.value());
  auto b = mem.Allocate(100);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(mem.peak_used_bytes(), 700u);
}

TEST(DeviceMemoryTest, ResizeGrowsAndShrinks) {
  DeviceMemory mem(1000);
  auto a = mem.Allocate(100);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(mem.Resize(a.value(), 900).ok());
  EXPECT_EQ(mem.used_bytes(), 900u);
  EXPECT_FALSE(mem.Resize(a.value(), 1100).ok());
  EXPECT_TRUE(mem.Resize(a.value(), 50).ok());
  EXPECT_EQ(mem.used_bytes(), 50u);
}

TEST(DeviceBufferTest, RaiiFreesOnDestruction) {
  DeviceMemory mem(1000);
  {
    auto buf = DeviceBuffer::Make(&mem, 500);
    ASSERT_TRUE(buf.ok());
    EXPECT_EQ(mem.used_bytes(), 500u);
  }
  EXPECT_EQ(mem.used_bytes(), 0u);
}

TEST(DeviceBufferTest, MoveTransfersOwnership) {
  DeviceMemory mem(1000);
  auto buf = DeviceBuffer::Make(&mem, 500);
  ASSERT_TRUE(buf.ok());
  DeviceBuffer other = std::move(buf).value();
  EXPECT_TRUE(other.valid());
  other.Release();
  EXPECT_EQ(mem.used_bytes(), 0u);
}

TEST(DeviceBufferTest, MoveAssignEmptiesSource) {
  DeviceMemory mem(1000);
  auto a = DeviceBuffer::Make(&mem, 300);
  auto b = DeviceBuffer::Make(&mem, 200);
  ASSERT_TRUE(a.ok() && b.ok());
  DeviceBuffer dst = std::move(a).value();
  DeviceBuffer src = std::move(b).value();
  dst = std::move(src);
  // The moved-from buffer must be fully emptied: a stale id/bytes pair
  // would double-free on destruction or misreport its size.
  EXPECT_FALSE(src.valid());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(src.bytes(), 0u);
  EXPECT_EQ(src.id(), 0u);
  EXPECT_TRUE(dst.valid());
  EXPECT_EQ(dst.bytes(), 200u);
  EXPECT_EQ(mem.used_bytes(), 200u);  // the 300-byte target was released
  dst.Release();
  EXPECT_EQ(mem.used_bytes(), 0u);
}

TEST(DeviceBufferTest, SelfMoveAssignIsSafe) {
  DeviceMemory mem(1000);
  auto buf = DeviceBuffer::Make(&mem, 400);
  ASSERT_TRUE(buf.ok());
  DeviceBuffer b = std::move(buf).value();
  DeviceBuffer& alias = b;
  b = std::move(alias);  // NOLINT(clang-diagnostic-self-move)
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.bytes(), 400u);
  EXPECT_EQ(mem.used_bytes(), 400u);
}

TEST(UnifiedMemoryTest, FaultThenHit) {
  SimParams p = SmallParams();
  DeviceStats stats;
  UnifiedMemory um(p, &stats);
  auto region = um.Register(1 << 20);
  AccessCharge miss = um.Access(region, 0, 64);
  EXPECT_EQ(stats.um_page_faults, 1u);
  EXPECT_EQ(miss.pcie_bytes, p.um_page_bytes);
  AccessCharge hit = um.Access(region, 128, 64);
  EXPECT_EQ(stats.um_page_faults, 1u);
  EXPECT_EQ(stats.um_page_hits, 1u);
  EXPECT_EQ(hit.pcie_bytes, 0u);
  EXPECT_LT(hit.cycles, miss.cycles);
}

TEST(UnifiedMemoryTest, SpanningAccessTouchesAllPages) {
  SimParams p = SmallParams();
  DeviceStats stats;
  UnifiedMemory um(p, &stats);
  auto region = um.Register(1 << 20);
  um.Access(region, p.um_page_bytes - 8, 16);  // crosses a page boundary
  EXPECT_EQ(stats.um_page_faults, 2u);
}

TEST(UnifiedMemoryTest, LruEvictsOldest) {
  SimParams p = SmallParams();  // 16-page buffer
  DeviceStats stats;
  UnifiedMemory um(p, &stats);
  auto region = um.Register(1 << 20);
  for (int i = 0; i < 17; ++i) {
    um.Access(region, i * p.um_page_bytes, 8);
  }
  EXPECT_EQ(stats.um_evictions, 1u);
  EXPECT_FALSE(um.IsResident(region, 0));      // page 0 evicted
  EXPECT_TRUE(um.IsResident(region, 16 * p.um_page_bytes));
}

TEST(UnifiedMemoryTest, TouchRefreshesLruPosition) {
  SimParams p = SmallParams();
  DeviceStats stats;
  UnifiedMemory um(p, &stats);
  auto region = um.Register(1 << 20);
  for (int i = 0; i < 16; ++i) um.Access(region, i * p.um_page_bytes, 8);
  um.Access(region, 0, 8);  // refresh page 0
  um.Access(region, 16 * p.um_page_bytes, 8);  // evicts page 1, not 0
  EXPECT_TRUE(um.IsResident(region, 0));
  EXPECT_FALSE(um.IsResident(region, p.um_page_bytes));
}

TEST(UnifiedMemoryTest, ShrinkInvalidatesStalePages) {
  SimParams p = SmallParams();
  DeviceStats stats;
  UnifiedMemory um(p, &stats);
  auto region = um.Register(8 * p.um_page_bytes);
  um.Access(region, 7 * p.um_page_bytes, 8);
  EXPECT_TRUE(um.IsResident(region, 7 * p.um_page_bytes));
  um.ResizeRegion(region, 2 * p.um_page_bytes);
  EXPECT_FALSE(um.IsResident(region, 7 * p.um_page_bytes));
}

// The page buffer on its own, as the adaptivity audit's shadows use it:
// a capacity and a DeviceStats to count into, no regions or observer.

TEST(PageBufferTest, ZeroCapacityNeverCaches) {
  SimParams p = SmallParams();
  DeviceStats stats;
  PageBuffer buffer(p, 0, &stats);
  buffer.Access(0, 0, p.um_page_bytes);
  buffer.Access(0, 0, p.um_page_bytes);
  EXPECT_EQ(stats.um_page_faults, 2u);
  EXPECT_EQ(stats.um_page_hits, 0u);
  EXPECT_EQ(buffer.resident_pages(), 0u);
}

TEST(PageBufferTest, LruEvictionCountsAndOrder) {
  SimParams p = SmallParams();
  DeviceStats stats;
  PageBuffer buffer(p, 2, &stats);
  buffer.Access(0, 0 * p.um_page_bytes, 8);  // page 0
  buffer.Access(0, 1 * p.um_page_bytes, 8);  // page 1
  buffer.Access(0, 0 * p.um_page_bytes, 8);  // hit, page 0 now MRU
  buffer.Access(0, 2 * p.um_page_bytes, 8);  // evicts page 1 (LRU)
  buffer.Access(0, 0 * p.um_page_bytes, 8);  // still resident: hit
  buffer.Access(0, 1 * p.um_page_bytes, 8);  // fault again
  EXPECT_EQ(stats.um_page_faults, 4u);
  EXPECT_EQ(stats.um_page_hits, 2u);
  EXPECT_EQ(stats.um_evictions, 2u);
  EXPECT_EQ(stats.um_migrated_bytes, 4 * p.um_page_bytes);
  EXPECT_EQ(buffer.resident_pages(), 2u);
}

TEST(PageBufferTest, RegionDropsInvalidateResidency) {
  SimParams p = SmallParams();
  DeviceStats stats;
  PageBuffer buffer(p, 8, &stats);
  buffer.Access(0, 0, 3 * p.um_page_bytes);  // pages 0..2 of region 0
  buffer.Access(1, 0, 2 * p.um_page_bytes);  // pages 0..1 of region 1
  EXPECT_EQ(buffer.resident_pages(), 5u);
  // Shrink region 0 to one page: pages 1..2 drop without eviction cost.
  buffer.DropRegionTail(0, 3 * p.um_page_bytes, p.um_page_bytes);
  EXPECT_EQ(buffer.resident_pages(), 3u);
  buffer.DropRegion(1);
  EXPECT_EQ(buffer.resident_pages(), 1u);
  // Re-access of a dropped page faults again.
  uint64_t faults = stats.um_page_faults;
  buffer.Access(0, 2 * p.um_page_bytes, 8);
  EXPECT_EQ(stats.um_page_faults, faults + 1);
}

TEST(PageBufferTest, HighRegionIdsDoNotAlias) {
  SimParams p = SmallParams();
  DeviceStats stats;
  PageBuffer buffer(p, 8, &stats);
  buffer.Access(1, 0, 8);
  buffer.Access(65537, 0, 8);  // 65537 = 1 + 2^16: a distinct region
  EXPECT_EQ(stats.um_page_faults, 2u);
  EXPECT_EQ(stats.um_page_hits, 0u);
  buffer.DropRegion(65537);
  EXPECT_FALSE(buffer.IsResident(65537, 0));
  EXPECT_TRUE(buffer.IsResident(1, 0));
  EXPECT_EQ(buffer.resident_pages(), 1u);
}

// The page buffer's documented behaviour on a std::list + std::map LRU
// (front = most recent), with the same charge arithmetic, for the
// differential test below.
class ReferenceLru {
 public:
  ReferenceLru(const SimParams& params, std::size_t capacity)
      : params_(params), capacity_(capacity) {}

  AccessCharge Access(uint32_t region, std::size_t offset,
                      std::size_t bytes) {
    AccessCharge charge;
    if (bytes == 0) return charge;
    const std::size_t pb = params_.um_page_bytes;
    for (uint64_t p = offset / pb; p <= (offset + bytes - 1) / pb; ++p) {
      const std::size_t span = std::min(offset + bytes, (p + 1) * pb) -
                               std::max<std::size_t>(offset, p * pb);
      auto it = where_.find({region, p});
      if (it != where_.end()) {
        ++stats.um_page_hits;
        const double c = params_.device_mem_latency_cycles +
                         static_cast<double>(span) /
                             params_.device_bytes_per_cycle;
        charge.cycles += c;
        charge.hit_cycles += c;
        lru_.splice(lru_.begin(), lru_, it->second);
        Emit(prof::InstantRecord::Kind::kUmHit, region, p);
      } else {
        ++stats.um_page_faults;
        stats.um_migrated_bytes += pb;
        const double c = params_.page_fault_cycles +
                         static_cast<double>(pb) /
                             params_.pcie_bytes_per_cycle;
        charge.cycles += c;
        charge.fault_cycles += c;
        charge.pcie_bytes += pb;
        Emit(prof::InstantRecord::Kind::kUmFault, region, p);
        Insert({region, p});
      }
    }
    return charge;
  }

  std::size_t Prefetch(uint32_t region, std::size_t offset) {
    const uint64_t p = offset / params_.um_page_bytes;
    auto it = where_.find({region, p});
    if (it != where_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return 0;
    }
    Insert({region, p});
    stats.um_migrated_bytes += params_.um_page_bytes;
    Emit(prof::InstantRecord::Kind::kUmPrefetch, region, p);
    return params_.um_page_bytes;
  }

  void DropRegionTail(uint32_t region, std::size_t old_bytes,
                      std::size_t new_bytes) {
    if (new_bytes >= old_bytes) return;
    const std::size_t pb = params_.um_page_bytes;
    for (uint64_t p = (new_bytes + pb - 1) / pb; p <= old_bytes / pb; ++p) {
      Erase({region, p});
    }
  }

  void DropRegion(uint32_t region) {
    for (auto it = where_.begin(); it != where_.end();) {
      auto next = std::next(it);
      if (it->first.first == region) Erase(it->first);
      it = next;
    }
  }

  bool IsResident(uint32_t region, std::size_t offset) const {
    return where_.count({region, offset / params_.um_page_bytes}) > 0;
  }
  std::size_t resident_pages() const { return lru_.size(); }

  DeviceStats stats;
  std::vector<prof::InstantRecord> instants;
  double now = 0;

 private:
  using Key = std::pair<uint32_t, uint64_t>;

  void Emit(prof::InstantRecord::Kind kind, uint32_t region, uint64_t page) {
    prof::InstantRecord rec;
    rec.kind = kind;
    rec.ts = now;
    rec.region = region;
    rec.page = page;
    instants.push_back(rec);
  }

  void Insert(Key key) {
    if (capacity_ == 0) return;
    while (lru_.size() >= capacity_) {
      const Key victim = lru_.back();
      Erase(victim);
      ++stats.um_evictions;
      Emit(prof::InstantRecord::Kind::kUmEviction, victim.first,
           victim.second);
    }
    lru_.push_front(key);
    where_.emplace(key, lru_.begin());
  }

  void Erase(Key key) {
    auto it = where_.find(key);
    if (it == where_.end()) return;
    lru_.erase(it->second);
    where_.erase(it);
  }

  const SimParams& params_;
  std::size_t capacity_;
  std::list<Key> lru_;
  std::map<Key, std::list<Key>::iterator> where_;
};

// A seeded random stream of accesses (some spanning pages), prefetches and
// region drops, replayed on PageBuffer and on ReferenceLru. After every
// operation the counters, residency and the timeline instants (which pin
// the eviction order) must agree exactly.
TEST(PageBufferTest, MatchesReferenceLru) {
  const SimParams p = SmallParams();
  const std::size_t pb = p.um_page_bytes;
  const uint32_t regions[] = {0, 1, 7};
  constexpr uint64_t kPages = 24;
  for (std::size_t capacity : {0u, 1u, 3u, 64u}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    std::mt19937 rng(static_cast<unsigned>(1000 + capacity));
    DeviceStats stats;
    PageBuffer buffer(p, capacity, &stats);
    prof::CommandLog log;
    log.set_enabled(true);
    ReferenceLru ref(p, capacity);
    buffer.BindTrace(&log, &ref.now);
    std::set<std::pair<uint32_t, uint64_t>> touched;
    std::size_t checked = 0;  // instants compared so far
    for (int op = 0; op < 3000; ++op) {
      ref.now = op;
      const uint32_t region = regions[rng() % 3];
      const unsigned kind = rng() % 20;
      std::string what;
      if (kind < 14) {
        const std::size_t offset = rng() % (kPages * pb);
        // Mostly within a page; every fourth access spans up to 3 pages.
        const std::size_t bytes =
            rng() % 4 == 0 ? 1 + rng() % (3 * pb) : 1 + rng() % 256;
        what = "Access";
        AccessCharge got = buffer.Access(region, offset, bytes);
        AccessCharge want = ref.Access(region, offset, bytes);
        ASSERT_EQ(got.cycles, want.cycles) << "op " << op;
        ASSERT_EQ(got.hit_cycles, want.hit_cycles) << "op " << op;
        ASSERT_EQ(got.fault_cycles, want.fault_cycles) << "op " << op;
        ASSERT_EQ(got.pcie_bytes, want.pcie_bytes) << "op " << op;
        for (uint64_t q = offset / pb; q <= (offset + bytes - 1) / pb; ++q) {
          touched.insert({region, q});
        }
      } else if (kind < 17) {
        const std::size_t offset = rng() % (kPages * pb);
        what = "Prefetch";
        ASSERT_EQ(buffer.Prefetch(region, offset),
                  ref.Prefetch(region, offset))
            << "op " << op;
        touched.insert({region, offset / pb});
      } else if (kind < 19) {
        const std::size_t old_bytes = rng() % (kPages * pb + 1);
        const std::size_t new_bytes = rng() % (old_bytes + 1);
        what = "DropRegionTail";
        buffer.DropRegionTail(region, old_bytes, new_bytes);
        ref.DropRegionTail(region, old_bytes, new_bytes);
      } else {
        what = "DropRegion";
        buffer.DropRegion(region);
        ref.DropRegion(region);
      }
      SCOPED_TRACE("op " + std::to_string(op) + " " + what);
      for (const DeviceStats::Field& f : DeviceStats::Fields()) {
        ASSERT_EQ(stats.*f.member, ref.stats.*f.member) << f.name;
      }
      ASSERT_EQ(buffer.resident_pages(), ref.resident_pages());
      for (const auto& [r, q] : touched) {
        ASSERT_EQ(buffer.IsResident(r, q * pb), ref.IsResident(r, q * pb))
            << "region " << r << " page " << q;
      }
      ASSERT_EQ(log.instants().size(), ref.instants.size());
      for (; checked < ref.instants.size(); ++checked) {
        const prof::InstantRecord& got = log.instants()[checked];
        const prof::InstantRecord& want = ref.instants[checked];
        ASSERT_EQ(got.kind, want.kind) << "instant " << checked;
        ASSERT_EQ(got.ts, want.ts) << "instant " << checked;
        ASSERT_EQ(got.region, want.region) << "instant " << checked;
        ASSERT_EQ(got.page, want.page) << "instant " << checked;
      }
    }
    ASSERT_EQ(log.dropped(), 0u);
    if (capacity > 0) {
      EXPECT_GT(stats.um_page_hits, 0u);
    }
    if (capacity > 0 && capacity < 64) {
      EXPECT_GT(stats.um_evictions, 0u);
    }
  }
}

TEST(DeviceTest, UmBufferReservedAtConstruction) {
  Device device(SmallParams());
  EXPECT_EQ(device.memory().used_bytes(), SmallParams().um_device_buffer_bytes);
}

TEST(DeviceTest, KernelAdvancesClock) {
  Device device(SmallParams());
  double before = device.now_cycles();
  device.LaunchKernel(4, [](WarpCtx& w, std::size_t) {
    w.ChargeCompute(1000);
  });
  EXPECT_GT(device.now_cycles(), before);
  EXPECT_EQ(device.stats().kernel_launches, 1u);
  EXPECT_EQ(device.stats().warp_tasks, 4u);
}

TEST(DeviceTest, MakespanScalesWithWarpSlots) {
  SimParams one = SmallParams();
  one.num_warp_slots = 1;
  SimParams many = SmallParams();
  many.num_warp_slots = 64;
  Device d1(one), d64(many);
  auto work = [](WarpCtx& w, std::size_t) { w.ChargeCompute(10000); };
  double t1 = d1.LaunchKernel(64, work);
  double t64 = d64.LaunchKernel(64, work);
  // 64 equal tasks: serial is ~64x the parallel makespan (plus overhead).
  EXPECT_GT(t1, t64 * 30);
}

TEST(DeviceTest, PcieOverlapsWithCompute) {
  Device device(SmallParams());
  // Compute-heavy kernel: PCIe traffic is hidden under the makespan.
  double compute_only = device.LaunchKernel(1, [](WarpCtx& w, std::size_t) {
    w.ChargeCompute(1e7);
  });
  double with_traffic = device.LaunchKernel(1, [](WarpCtx& w, std::size_t) {
    w.ChargeCompute(1e7);
    w.ZeroCopyRead(1024);
  });
  EXPECT_NEAR(compute_only, with_traffic, compute_only * 0.01);
}

TEST(DeviceTest, ExplicitCopyChargesLink) {
  Device device(SmallParams());
  double cycles = device.CopyHostToDevice(16 << 10);
  EXPECT_GT(cycles, 0);
  EXPECT_EQ(device.stats().explicit_h2d_bytes, 16u << 10);
}

TEST(WarpCtxTest, ZeroCopyCountsTransactions) {
  Device device(SmallParams());
  device.LaunchKernel(1, [](WarpCtx& w, std::size_t) {
    w.ZeroCopyRead(300);  // 3 x 128B transactions
  });
  EXPECT_EQ(device.stats().zc_transactions, 3u);
  EXPECT_EQ(device.stats().zc_bytes, 384u);
}

TEST(WarpCtxTest, SimtWorkRoundsUpToWarpSteps) {
  Device device(SmallParams());
  double t33 = 0, t1 = 0;
  device.LaunchKernel(1, [&](WarpCtx& w, std::size_t) {
    w.ChargeSimtWork(33);  // 2 steps of 32
    t33 = w.cycles();
  });
  device.LaunchKernel(1, [&](WarpCtx& w, std::size_t) {
    w.ChargeSimtWork(1);  // 1 step
    t1 = w.cycles();
  });
  EXPECT_DOUBLE_EQ(t33, 2.0);
  EXPECT_DOUBLE_EQ(t1, 1.0);
}

TEST(HostArrayTest, TracksHostMemory) {
  Device device(SmallParams());
  {
    HostArray<uint32_t> arr(&device);
    arr.Assign(std::vector<uint32_t>(1000, 7));
    EXPECT_EQ(device.host_tracker().current_bytes(), 4000u);
  }
  EXPECT_EQ(device.host_tracker().current_bytes(), 0u);
  EXPECT_EQ(device.host_tracker().peak_bytes(), 4000u);
}

TEST(HostArrayTest, ReadReturnsLiveData) {
  Device device(SmallParams());
  HostArray<uint32_t> arr(&device);
  arr.Assign({10, 20, 30, 40});
  device.LaunchKernel(1, [&](WarpCtx& w, std::size_t) {
    auto span = arr.Read(w, 1, 2, AccessMode::kZeroCopy);
    EXPECT_EQ(span[0], 20u);
    EXPECT_EQ(span[1], 30u);
    EXPECT_EQ(arr.ReadOne(w, 3, AccessMode::kUnified), 40u);
  });
  EXPECT_GT(device.stats().zc_transactions, 0u);
  EXPECT_GT(device.stats().um_page_faults, 0u);
}

// The kernel table (--trace, the profile's kernel_trace) is the command
// log's kKernel records.
std::vector<const prof::CommandRecord*> KernelRecords(const Device& device) {
  std::vector<const prof::CommandRecord*> kernels;
  for (const prof::CommandRecord& rec : device.critpath().commands()) {
    if (rec.kind == prof::CommandRecord::Kind::kKernel) {
      kernels.push_back(&rec);
    }
  }
  return kernels;
}

TEST(DeviceTest, TraceRecordsNamedKernels) {
  SimParams params = SmallParams();
  params.record_commands = true;
  Device device(params);
  device.LaunchKernel(3, [](WarpCtx& w, std::size_t) {
    w.ChargeCompute(100);
  }, "alpha");
  device.LaunchKernel(1, [](WarpCtx& w, std::size_t) {
    w.ZeroCopyRead(1024);
  }, "beta");
  const auto kernels = KernelRecords(device);
  ASSERT_EQ(kernels.size(), 2u);
  EXPECT_EQ(kernels[0]->name, "alpha");
  EXPECT_EQ(kernels[0]->tasks, 3u);
  EXPECT_GT(kernels[0]->end - kernels[0]->start, 0.0);
  EXPECT_EQ(kernels[1]->name, "beta");
  EXPECT_GT(kernels[1]->link_transfer, 0.0);
  device.critpath().Clear();
  EXPECT_TRUE(KernelRecords(device).empty());
}

TEST(DeviceTest, TraceOffByDefault) {
  Device device(SmallParams());
  device.LaunchKernel(1, [](WarpCtx& w, std::size_t) {
    w.ChargeCompute(1);
  });
  EXPECT_TRUE(KernelRecords(device).empty());
}

TEST(SimParamsTest, PresetsAreConsistent) {
  SimParams v100 = SimParams::V100();
  EXPECT_EQ(v100.device_memory_bytes, 16ull << 30);
  EXPECT_GT(v100.num_warp_slots, SimParams().num_warp_slots);
  SimParams bench = SimParams::BenchScale();
  EXPECT_LT(bench.device_memory_bytes, v100.device_memory_bytes);
  // Both presets keep the page buffer inside device memory.
  EXPECT_LT(bench.um_device_buffer_bytes, bench.device_memory_bytes);
  EXPECT_LT(v100.um_device_buffer_bytes, v100.device_memory_bytes);
  // A device can actually be built from each preset.
  Device d1(bench);
  Device d2(v100);
  EXPECT_GT(d1.memory().available_bytes(), 0u);
  EXPECT_GT(d2.memory().available_bytes(), 0u);
}

TEST(StatsTest, ToStringMentionsCounters) {
  DeviceStats stats;
  stats.um_page_faults = 5;
  std::string s = stats.ToString();
  EXPECT_NE(s.find("um_faults=5"), std::string::npos);
}

TEST(StatsTest, FieldsEnumerateEveryCounterOnce) {
  // Setting each field through its member pointer to a distinct value and
  // summing the struct proves the table hits every counter exactly once
  // (a missing or duplicated entry changes the sum).
  DeviceStats stats;
  uint64_t expected_sum = 0;
  uint64_t v = 1;
  for (const DeviceStats::Field& f : DeviceStats::Fields()) {
    stats.*f.member = v;
    expected_sum += v;
    ++v;
  }
  uint64_t sum = 0;
  for (const DeviceStats::Field& f : DeviceStats::Fields()) {
    sum += stats.*f.member;
  }
  EXPECT_EQ(sum, expected_sum);
  EXPECT_EQ(DeviceStats::Fields().size(), 16u);
}

TEST(StatsTest, SnapshotDiffRoundTrip) {
  DeviceStats before;
  uint64_t v = 10;
  for (const DeviceStats::Field& f : DeviceStats::Fields()) {
    before.*f.member = v++;
  }
  DeviceStats after = before.Snapshot();
  uint64_t inc = 1;
  for (const DeviceStats::Field& f : DeviceStats::Fields()) {
    after.*f.member += inc++;
  }
  DeviceStats delta = after.Diff(before);
  inc = 1;
  for (const DeviceStats::Field& f : DeviceStats::Fields()) {
    EXPECT_EQ(delta.*f.member, inc) << f.name;
    EXPECT_EQ(before.*f.member + delta.*f.member, after.*f.member)
        << f.name;
    ++inc;
  }
  // Diff saturates rather than wrapping when counters ran backwards.
  DeviceStats negative = before.Diff(after);
  for (const DeviceStats::Field& f : DeviceStats::Fields()) {
    EXPECT_EQ(negative.*f.member, 0u) << f.name;
  }
}

TEST(StatsTest, JsonListsEveryCounter) {
  DeviceStats stats;
  uint64_t v = 100;
  for (const DeviceStats::Field& f : DeviceStats::Fields()) {
    stats.*f.member = v++;
  }
  std::string json = StatsJson(stats);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  v = 100;
  for (const DeviceStats::Field& f : DeviceStats::Fields()) {
    std::string entry =
        std::string("\"") + f.name + "\": " + std::to_string(v++);
    EXPECT_NE(json.find(entry), std::string::npos) << entry;
  }
}

TEST(ProfileTest, PhaseScopeAttributesDeltasByName) {
  Device device(SmallParams());
  for (int i = 0; i < 2; ++i) {
    PhaseScope scope(&device, "zc-phase");
    device.LaunchKernel(1, [](WarpCtx& w, std::size_t) {
      w.ZeroCopyRead(300);  // 3 x 128B transactions
    });
  }
  {
    PhaseScope scope(&device, "idle-phase");
  }
  const PhaseRecord* zc = device.profile().Find("zc-phase");
  ASSERT_NE(zc, nullptr);
  EXPECT_EQ(zc->invocations, 2u);
  EXPECT_EQ(zc->delta.kernel_launches, 2u);
  EXPECT_EQ(zc->delta.zc_transactions, 6u);
  EXPECT_GT(zc->cycles, 0.0);
  const PhaseRecord* idle = device.profile().Find("idle-phase");
  ASSERT_NE(idle, nullptr);
  EXPECT_EQ(idle->invocations, 1u);
  EXPECT_EQ(idle->delta.zc_transactions, 0u);
  EXPECT_EQ(device.profile().Find("never-ran"), nullptr);
}

TEST(ProfileTest, ToJsonCarriesTotalsPhasesAndTrace) {
  Device device(SmallParams());
  device.critpath().set_enabled(true);
  {
    PhaseScope scope(&device, "alpha");
    device.LaunchKernel(2, [](WarpCtx& w, std::size_t) {
      w.ZeroCopyRead(128);
    }, "alpha-kernel");
  }
  std::string json = device.profile().ToJson(device);
  EXPECT_NE(json.find("\"schema\": \"gamma.profile.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"totals\""), std::string::npos);
  EXPECT_NE(json.find("\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"alpha-kernel\""), std::string::npos);
  EXPECT_NE(json.find("\"invocations\": 1"), std::string::npos);
  // The counters object inside each section lists every field by name.
  for (const DeviceStats::Field& f : DeviceStats::Fields()) {
    EXPECT_NE(json.find(std::string("\"") + f.name + "\""),
              std::string::npos)
        << f.name;
  }
}

}  // namespace
}  // namespace gpm::gpusim
