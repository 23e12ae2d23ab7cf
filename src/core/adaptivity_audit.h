#ifndef GAMMA_CORE_ADAPTIVITY_AUDIT_H_
#define GAMMA_CORE_ADAPTIVITY_AUDIT_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/access_heat.h"
#include "core/adaptive_access.h"
#include "gpusim/access_observer.h"
#include "gpusim/device.h"
#include "gpusim/sim_params.h"
#include "gpusim/stats.h"
#include "gpusim/unified_memory.h"

namespace gpm::core {

/// Traffic a counterfactual placement accumulated: the DeviceStats its
/// page buffer and zero-copy charges counted (only the host-memory access
/// fields move), plus the warp-stall cycles those charges would have cost.
struct ShadowCounters : gpusim::DeviceStats {
  double cycles = 0;

  /// Difference `*this - since` (counters saturate at zero).
  ShadowCounters Diff(const ShadowCounters& since) const {
    ShadowCounters d;
    static_cast<gpusim::DeviceStats&>(d) = DeviceStats::Diff(since);
    d.cycles = cycles - since.cycles;
    return d;
  }
};

/// Number of buckets in the per-record heat histogram: bucket 0 counts
/// pages within 2x of the hottest page, bucket i pages in
/// (max/2^(i+1), max/2^i], and the last bucket everything colder.
inline constexpr std::size_t kHeatHistogramBuckets = 8;

/// One per-extension audit record: why the plan chose what it chose, what
/// the run actually paid, and what each pure placement would have paid for
/// the same access stream. The record's window runs from its plan until
/// the next extension's plan (or Finalize), so aggregation/filter traffic
/// between extensions lands in the preceding record.
struct AdaptivityRecord {
  int extension = 0;  ///< 1-based extension index
  std::size_t frontier_vertices = 0;
  double planned_bytes = 0;  ///< A_i: planned bytes x times for the window

  // Hybrid decision snapshot (zeroed under pure placements, which plan
  // nothing).
  double w_spatial = 0;           ///< Def. 4.3 weight w_s
  std::size_t unified_pages = 0;  ///< N_u pages flagged unified
  double top_page_overlap = 0;    ///< Fig. 5 top-N_u overlap vs previous
  std::size_t heat_nonzero_pages = 0;
  double heat_max = 0;
  double heat_mean_nonzero = 0;
  std::array<uint64_t, kHeatHistogramBuckets> heat_histogram{};
  double plan_cycles = 0;  ///< host planning + prefetch transfer cycles

  /// Actual traffic of the window (full DeviceStats delta) and the actual
  /// warp-stall cycles of the observed host-memory accesses.
  gpusim::DeviceStats actual;
  double actual_access_cycles = 0;

  /// Counterfactual costs of the same window's access stream.
  ShadowCounters est_unified;
  ShadowCounters est_zerocopy;

  /// (actual_access_cycles + plan_cycles) - min(est cycles): positive
  /// means the best pure mode would have beaten the hybrid this window.
  double regret_cycles = 0;
};

/// Whole-run aggregate of an audit, for one-line summaries and the bench
/// export. All cycle fields count observed host-memory access charges
/// (plus plan overhead where named), not end-to-end makespans.
struct AdaptivitySummary {
  bool enabled = false;
  uint64_t extensions = 0;
  double mean_unified_pages = 0;
  double plan_cycles = 0;
  double actual_access_cycles = 0;
  double est_unified_cycles = 0;
  double est_zerocopy_cycles = 0;
  /// (actual + plan) - min(est_unified, est_zerocopy) over run totals:
  /// the committed-mode regret (one pure mode for the whole run).
  double regret_cycles = 0;
};

/// Per-extension decision explainability + counterfactual shadow costing
/// for the self-adaptive hybrid (the paper's §IV / Fig. 20 claim).
///
/// Attached as the device's AccessObserver, the audit sees every real
/// unified/zero-copy charge and replays the identical access stream
/// through two shadow placements, each its own instance of the device's
/// `gpusim::PageBuffer` plus `gpusim::ZeroCopyCharge`: one costing the run
/// as if UnifiedOnly, one as if ZeroCopyOnly (graph spans only — labels,
/// packed edges, and embedding-table columns stay unified under every
/// host placement and are replayed into both shadow buffers, where they
/// contend for capacity exactly as they would in the pure run).
/// GraphAccessor routes graph spans through OnGraphSpan and brackets its
/// real charges with SpanGuard so they are not replayed twice.
///
/// Because functional execution is placement-independent, a pure run
/// observes the same access stream the hybrid run replays — so the
/// hybrid's counterfactual totals match the pure runs' actual counters
/// exactly, and their cycle sums bit-for-bit (tests/adaptivity_audit_test
/// enforces this). Observing is strictly read-only: simulated cycles and
/// counters are identical with or without an audit attached.
class AdaptivityAudit : public gpusim::AccessObserver {
 public:
  /// `device` must outlive the audit. `placement` is recorded in the
  /// export; shadow models are meaningful for the host placements only.
  AdaptivityAudit(gpusim::Device* device, GraphPlacement placement);
  ~AdaptivityAudit() override;

  AdaptivityAudit(const AdaptivityAudit&) = delete;
  AdaptivityAudit& operator=(const AdaptivityAudit&) = delete;

  // -- GraphAccessor hooks ---------------------------------------------------

  /// Opens the next extension's record (closing the previous one). Called
  /// from PlanExtension under every audited placement, so pure runs carry
  /// one record per extension too.
  void BeginExtension(std::size_t frontier_vertices, double planned_bytes);

  /// Fills the open record's decision snapshot after a hybrid plan and
  /// emits the trace marker. `plan_cycles` is the simulated time the plan
  /// itself consumed (host work + prefetch transfer).
  void RecordHybridPlan(const AccessHeatTracker& heat,
                        std::size_t unified_pages, double top_page_overlap,
                        double plan_cycles);

  /// Replays one graph span through both shadow models (page-split
  /// identical to GraphAccessor::ChargeSpan). The caller then performs
  /// the real charges under a SpanGuard.
  void OnGraphSpan(uint32_t region, std::size_t offset, std::size_t bytes);

  /// Brackets for the real charges of a graph span already replayed via
  /// OnGraphSpan, so the observer taps add them to the actual totals only.
  /// Exposed (rather than SpanGuard-only) because GraphAccessor defers them
  /// through WarpCtx::Defer on recording contexts, where the bracket must
  /// travel with the charges into the ordered replay.
  void BeginGraphSpan() { in_graph_span_ = true; }
  void EndGraphSpan() { in_graph_span_ = false; }

  /// RAII form of the brackets, for immediate-mode call sites.
  class SpanGuard {
   public:
    explicit SpanGuard(AdaptivityAudit* audit) : audit_(audit) {
      if (audit_ != nullptr) audit_->BeginGraphSpan();
    }
    ~SpanGuard() {
      if (audit_ != nullptr) audit_->EndGraphSpan();
    }
    SpanGuard(const SpanGuard&) = delete;
    SpanGuard& operator=(const SpanGuard&) = delete;

   private:
    AdaptivityAudit* audit_;
  };

  // -- AccessObserver taps ---------------------------------------------------

  void OnUnifiedAccess(uint32_t region, std::size_t offset,
                       std::size_t bytes, double cycles) override;
  void OnZeroCopy(std::size_t bytes, double cycles) override;
  void OnRegionResized(uint32_t region, std::size_t old_bytes,
                       std::size_t new_bytes) override;
  void OnRegionInvalidated(uint32_t region) override;

  // -- Export ----------------------------------------------------------------

  /// Closes the last open record. Idempotent; called implicitly by
  /// Summary()/ToJson(). Call once the workload is done.
  void Finalize();

  const std::vector<AdaptivityRecord>& records() const { return records_; }
  GraphPlacement placement() const { return placement_; }

  /// Cumulative shadow totals from attach — the counter counterpart of
  /// Summary()'s est_*_cycles (which are these structs' cycles fields).
  const ShadowCounters& unified_shadow_totals() const {
    return shadow_unified_.totals;
  }
  const ShadowCounters& zerocopy_shadow_totals() const {
    return shadow_zerocopy_.totals;
  }

  /// Whole-run totals (accumulated from attach, so traffic before the
  /// first extension counts toward totals but no record).
  AdaptivitySummary Summary();

  /// Renders the audit as a `gamma.adaptivity.v1` JSON document.
  std::string ToJson();

 private:
  /// One counterfactual pure placement: its own page buffer, sized like
  /// the device's, counting into its own totals.
  struct Shadow {
    Shadow(const gpusim::SimParams& params, std::size_t capacity_pages)
        : params(params), buffer(params, capacity_pages, &totals) {}
    void Unified(uint32_t region, std::size_t offset, std::size_t bytes) {
      totals.cycles += buffer.Access(region, offset, bytes).cycles;
    }
    void ZeroCopy(std::size_t bytes) {
      totals.cycles += gpusim::ZeroCopyCharge(params, bytes, &totals).cycles;
    }

    const gpusim::SimParams& params;
    ShadowCounters totals;
    gpusim::PageBuffer buffer;
  };

  void CloseOpenRecord();
  double TotalRegretCycles() const;

  gpusim::Device* device_;
  GraphPlacement placement_;
  Shadow shadow_unified_;
  Shadow shadow_zerocopy_;

  double actual_access_cycles_ = 0;  // cumulative observed charges
  double plan_cycles_total_ = 0;
  bool in_graph_span_ = false;

  bool extension_open_ = false;
  int num_extensions_ = 0;
  AdaptivityRecord open_;
  gpusim::DeviceStats stats_at_begin_;
  double actual_cycles_at_begin_ = 0;
  ShadowCounters est_unified_at_begin_;
  ShadowCounters est_zerocopy_at_begin_;
  std::vector<AdaptivityRecord> records_;
};

}  // namespace gpm::core

#endif  // GAMMA_CORE_ADAPTIVITY_AUDIT_H_
