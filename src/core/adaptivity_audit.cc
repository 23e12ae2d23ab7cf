#include "core/adaptivity_audit.h"

#include <algorithm>
#include <sstream>

#include "common/json.h"

namespace gpm::core {

namespace {

uint64_t SatSub(uint64_t a, uint64_t b) { return a >= b ? a - b : 0; }

}  // namespace

ShadowCounters ShadowCounters::Diff(const ShadowCounters& since) const {
  ShadowCounters d;
  d.cycles = cycles - since.cycles;
  d.um_page_faults = SatSub(um_page_faults, since.um_page_faults);
  d.um_page_hits = SatSub(um_page_hits, since.um_page_hits);
  d.um_migrated_bytes = SatSub(um_migrated_bytes, since.um_migrated_bytes);
  d.um_evictions = SatSub(um_evictions, since.um_evictions);
  d.zc_transactions = SatSub(zc_transactions, since.zc_transactions);
  d.zc_bytes = SatSub(zc_bytes, since.zc_bytes);
  return d;
}

void ShadowPageLru::Access(uint32_t region, std::size_t offset,
                           std::size_t bytes) {
  if (bytes == 0) return;
  // Identical page split, cost arithmetic, and accumulation order to
  // UnifiedMemory::Access: the per-call charge is summed locally and added
  // to the running total once, so cycle totals stay bit-comparable with a
  // real run that executed the same stream.
  double cycles = 0;
  const std::size_t page_bytes = params_.um_page_bytes;
  uint64_t first_page = offset / page_bytes;
  uint64_t last_page = (offset + bytes - 1) / page_bytes;
  for (uint64_t p = first_page; p <= last_page; ++p) {
    uint64_t key = PageKey(region, p);
    std::size_t lo = std::max<std::size_t>(offset, p * page_bytes);
    std::size_t hi =
        std::min<std::size_t>(offset + bytes, (p + 1) * page_bytes);
    std::size_t span = hi - lo;
    auto it = resident_.find(key);
    if (it != resident_.end()) {
      ++counters_.um_page_hits;
      cycles += params_.device_mem_latency_cycles +
                static_cast<double>(span) / params_.device_bytes_per_cycle;
      lru_.splice(lru_.begin(), lru_, it->second);
    } else {
      ++counters_.um_page_faults;
      counters_.um_migrated_bytes += page_bytes;
      cycles += params_.page_fault_cycles +
                static_cast<double>(page_bytes) / params_.pcie_bytes_per_cycle;
      Insert(key);
    }
  }
  counters_.cycles += cycles;
}

void ShadowPageLru::ZeroCopy(std::size_t bytes) {
  if (bytes == 0) return;
  // Mirrors WarpCtx::ZeroCopyRead.
  std::size_t ntx = (bytes + params_.zc_transaction_bytes - 1) /
                    params_.zc_transaction_bytes;
  counters_.zc_transactions += ntx;
  counters_.zc_bytes += ntx * params_.zc_transaction_bytes;
  counters_.cycles += params_.pcie_latency_cycles +
                      static_cast<double>(ntx - 1) * params_.zc_pipelined_cycles;
}

void ShadowPageLru::Insert(uint64_t key) {
  if (capacity_pages_ == 0) return;  // No buffer: behaves like re-faulting.
  while (lru_.size() >= capacity_pages_) {
    uint64_t victim = lru_.back();
    resident_.erase(victim);
    lru_.pop_back();
    ++counters_.um_evictions;
  }
  lru_.push_front(key);
  resident_.emplace(key, lru_.begin());
}

void ShadowPageLru::DropRegionTail(uint32_t region, std::size_t old_bytes,
                                   std::size_t new_bytes) {
  if (new_bytes >= old_bytes) return;
  const std::size_t page_bytes = params_.um_page_bytes;
  uint64_t first_stale = (new_bytes + page_bytes - 1) / page_bytes;
  uint64_t last = old_bytes / page_bytes;
  for (uint64_t p = first_stale; p <= last; ++p) {
    auto it = resident_.find(PageKey(region, p));
    if (it != resident_.end()) {
      lru_.erase(it->second);
      resident_.erase(it);
    }
  }
}

void ShadowPageLru::DropRegion(uint32_t region) {
  for (auto it = resident_.begin(); it != resident_.end();) {
    if ((it->first >> 48) == region) {
      lru_.erase(it->second);
      it = resident_.erase(it);
    } else {
      ++it;
    }
  }
}

AdaptivityAudit::AdaptivityAudit(gpusim::Device* device,
                                 GraphPlacement placement)
    : device_(device),
      placement_(placement),
      shadow_unified_(device->params(), device->unified().capacity_pages()),
      shadow_zerocopy_(device->params(), device->unified().capacity_pages()) {}

AdaptivityAudit::~AdaptivityAudit() {
  if (device_ != nullptr && device_->access_observer() == this) {
    device_->set_access_observer(nullptr);
  }
}

void AdaptivityAudit::BeginExtension(std::size_t frontier_vertices,
                                     double planned_bytes) {
  CloseOpenRecord();
  open_ = AdaptivityRecord{};
  open_.extension = ++num_extensions_;
  open_.frontier_vertices = frontier_vertices;
  open_.planned_bytes = planned_bytes;
  stats_at_begin_ = device_->stats().Snapshot();
  actual_cycles_at_begin_ = actual_access_cycles_;
  est_unified_at_begin_ = shadow_unified_.counters();
  est_zerocopy_at_begin_ = shadow_zerocopy_.counters();
  extension_open_ = true;
}

void AdaptivityAudit::RecordHybridPlan(const AccessHeatTracker& heat,
                                       std::size_t unified_pages,
                                       double top_page_overlap,
                                       double plan_cycles) {
  if (!extension_open_) return;
  open_.planned_bytes = heat.current_total();  // exact A_i, clamped to space
  open_.w_spatial = heat.last_w_spatial();
  open_.unified_pages = unified_pages;
  open_.top_page_overlap = top_page_overlap;
  open_.plan_cycles = plan_cycles;
  plan_cycles_total_ += plan_cycles;

  const std::vector<double>& h = heat.heat();
  double max = 0;
  double sum = 0;
  std::size_t nonzero = 0;
  for (double v : h) {
    if (v <= 0) continue;
    ++nonzero;
    sum += v;
    max = std::max(max, v);
  }
  open_.heat_nonzero_pages = nonzero;
  open_.heat_max = max;
  open_.heat_mean_nonzero = nonzero > 0 ? sum / static_cast<double>(nonzero) : 0;
  if (max > 0) {
    for (double v : h) {
      if (v <= 0) continue;
      // Bucket by power-of-two distance from the hottest page; everything
      // colder than max/2^(kBuckets-1) lands in the last bucket.
      std::size_t b = 0;
      double threshold = max / 2;
      while (b + 1 < kHeatHistogramBuckets && v <= threshold) {
        ++b;
        threshold /= 2;
      }
      ++open_.heat_histogram[b];
    }
  }

  if (device_->params().record_timeline) {
    prof::InstantRecord rec;
    rec.kind = prof::InstantRecord::Kind::kAdaptivity;
    rec.ts = device_->now_cycles();
    rec.region = static_cast<uint32_t>(open_.extension);
    rec.page = unified_pages;
    device_->critpath().AppendInstant(rec);
  }
}

void AdaptivityAudit::OnGraphSpan(uint32_t region, std::size_t offset,
                                  std::size_t bytes) {
  if (bytes == 0) return;
  // Same page split as GraphAccessor::ChargeSpan, so each shadow sees the
  // exact per-span sequence its pure run would have charged.
  const std::size_t page_bytes = device_->params().um_page_bytes;
  std::size_t first = offset / page_bytes;
  std::size_t last = (offset + bytes - 1) / page_bytes;
  for (std::size_t p = first; p <= last; ++p) {
    std::size_t lo = std::max(offset, p * page_bytes);
    std::size_t hi = std::min(offset + bytes, (p + 1) * page_bytes);
    shadow_unified_.Access(region, lo, hi - lo);
    shadow_zerocopy_.ZeroCopy(hi - lo);
  }
}

void AdaptivityAudit::OnUnifiedAccess(uint32_t region, std::size_t offset,
                                      std::size_t bytes, double cycles) {
  actual_access_cycles_ += cycles;
  if (in_graph_span_) return;  // already replayed via OnGraphSpan
  // Non-graph unified traffic (labels, packed edges, table columns) stays
  // unified under every host placement: replay into both shadows so they
  // contend for page-buffer capacity exactly as in the pure runs.
  shadow_unified_.Access(region, offset, bytes);
  shadow_zerocopy_.Access(region, offset, bytes);
}

void AdaptivityAudit::OnZeroCopy(std::size_t bytes, double cycles) {
  actual_access_cycles_ += cycles;
  if (in_graph_span_) return;
  // Non-graph zero-copy charges (degree probes, staging reads) are
  // placement-invariant: both counterfactual runs would pay them as-is.
  shadow_unified_.ZeroCopy(bytes);
  shadow_zerocopy_.ZeroCopy(bytes);
}

void AdaptivityAudit::OnRegionResized(uint32_t region, std::size_t old_bytes,
                                      std::size_t new_bytes) {
  shadow_unified_.DropRegionTail(region, old_bytes, new_bytes);
  shadow_zerocopy_.DropRegionTail(region, old_bytes, new_bytes);
}

void AdaptivityAudit::OnRegionInvalidated(uint32_t region) {
  shadow_unified_.DropRegion(region);
  shadow_zerocopy_.DropRegion(region);
}

void AdaptivityAudit::CloseOpenRecord() {
  if (!extension_open_) return;
  extension_open_ = false;
  open_.actual = device_->stats().Snapshot().Diff(stats_at_begin_);
  open_.actual_access_cycles = actual_access_cycles_ - actual_cycles_at_begin_;
  open_.est_unified = shadow_unified_.counters().Diff(est_unified_at_begin_);
  open_.est_zerocopy =
      shadow_zerocopy_.counters().Diff(est_zerocopy_at_begin_);
  open_.regret_cycles =
      open_.actual_access_cycles + open_.plan_cycles -
      std::min(open_.est_unified.cycles, open_.est_zerocopy.cycles);
  records_.push_back(open_);
  device_->adaptivity_gauges().regret_cycles = TotalRegretCycles();
}

double AdaptivityAudit::TotalRegretCycles() const {
  // Committed-mode regret: a real counterfactual run picks ONE pure mode
  // for the whole workload, so the baseline is the min of the run totals
  // (not the sum of per-record minima, which would grant the baseline an
  // oracle that re-picks the mode every extension).
  return actual_access_cycles_ + plan_cycles_total_ -
         std::min(shadow_unified_.counters().cycles,
                  shadow_zerocopy_.counters().cycles);
}

void AdaptivityAudit::Finalize() { CloseOpenRecord(); }

AdaptivitySummary AdaptivityAudit::Summary() {
  Finalize();
  AdaptivitySummary s;
  s.enabled = true;
  s.extensions = static_cast<uint64_t>(records_.size());
  std::size_t unified_pages_sum = 0;
  for (const AdaptivityRecord& r : records_) {
    unified_pages_sum += r.unified_pages;
  }
  s.mean_unified_pages =
      records_.empty() ? 0
                       : static_cast<double>(unified_pages_sum) /
                             static_cast<double>(records_.size());
  s.plan_cycles = plan_cycles_total_;
  s.actual_access_cycles = actual_access_cycles_;
  s.est_unified_cycles = shadow_unified_.counters().cycles;
  s.est_zerocopy_cycles = shadow_zerocopy_.counters().cycles;
  s.regret_cycles = TotalRegretCycles();
  return s;
}

namespace {

void WriteShadow(JsonWriter& w, const char* key, const ShadowCounters& c) {
  w.Key(key).BeginObject();
  w.Key("cycles").Value(c.cycles);
  w.Key("um_page_faults").Value(c.um_page_faults);
  w.Key("um_page_hits").Value(c.um_page_hits);
  w.Key("um_migrated_bytes").Value(c.um_migrated_bytes);
  w.Key("um_evictions").Value(c.um_evictions);
  w.Key("zc_transactions").Value(c.zc_transactions);
  w.Key("zc_bytes").Value(c.zc_bytes);
  w.EndObject();
}

}  // namespace

std::string AdaptivityAudit::ToJson() {
  AdaptivitySummary s = Summary();
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.Key("schema").Value("gamma.adaptivity.v1");
  w.Key("placement").Value(GraphPlacementName(placement_));
  w.Key("page_bytes").Value(device_->params().um_page_bytes);
  w.Key("capacity_pages").Value(device_->unified().capacity_pages());
  w.Key("extensions").Value(s.extensions);

  w.Key("totals").BeginObject();
  w.Key("actual_access_cycles").Value(s.actual_access_cycles);
  w.Key("plan_cycles").Value(s.plan_cycles);
  w.Key("est_unified_cycles").Value(s.est_unified_cycles);
  w.Key("est_zerocopy_cycles").Value(s.est_zerocopy_cycles);
  w.Key("best_pure")
      .Value(s.est_unified_cycles <= s.est_zerocopy_cycles ? "unified"
                                                           : "zerocopy");
  w.Key("regret_cycles").Value(s.regret_cycles);
  w.Key("mean_unified_pages").Value(s.mean_unified_pages);
  w.EndObject();

  w.Key("records").BeginArray();
  for (const AdaptivityRecord& r : records_) {
    w.BeginObject();
    w.Key("extension").Value(r.extension);
    w.Key("frontier_vertices").Value(r.frontier_vertices);
    w.Key("planned_bytes").Value(r.planned_bytes);
    w.Key("w_spatial").Value(r.w_spatial);
    w.Key("unified_pages").Value(r.unified_pages);
    w.Key("top_page_overlap").Value(r.top_page_overlap);
    w.Key("heat").BeginObject();
    w.Key("nonzero_pages").Value(r.heat_nonzero_pages);
    w.Key("max").Value(r.heat_max);
    w.Key("mean_nonzero").Value(r.heat_mean_nonzero);
    w.Key("histogram").BeginArray();
    for (uint64_t b : r.heat_histogram) w.Value(b);
    w.EndArray();
    w.EndObject();
    w.Key("plan_cycles").Value(r.plan_cycles);
    w.Key("actual").BeginObject();
    w.Key("access_cycles").Value(r.actual_access_cycles);
    for (const gpusim::DeviceStats::Field& f :
         gpusim::DeviceStats::Fields()) {
      w.Key(f.name).Value(r.actual.*f.member);
    }
    w.EndObject();
    WriteShadow(w, "est_unified", r.est_unified);
    WriteShadow(w, "est_zerocopy", r.est_zerocopy);
    w.Key("regret_cycles").Value(r.regret_cycles);
    w.EndObject();
  }
  w.EndArray();

  w.EndObject();
  os << '\n';
  return os.str();
}

}  // namespace gpm::core
