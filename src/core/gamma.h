#ifndef GAMMA_CORE_GAMMA_H_
#define GAMMA_CORE_GAMMA_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "core/adaptive_access.h"
#include "core/adaptivity_audit.h"
#include "core/aggregation.h"
#include "core/extension.h"
#include "core/filtering.h"
#include "core/pattern_table.h"
#include "core/plan_profiler.h"
#include "gpusim/device.h"
#include "graph/csr.h"

namespace gpm::core {

/// End-to-end configuration of a GAMMA run.
struct GammaOptions {
  GraphAccessor::Options access;
  ExtensionOptions extension;
  AggregationOptions aggregation;
  FilterOptions filter;
  /// In-core mode: embedding tables live in device memory and runs fail
  /// with kDeviceOutOfMemory when they outgrow it (baseline behaviour).
  bool device_resident_tables = false;
  /// Attaches a core::AdaptivityAudit for the run: per-extension decision
  /// records plus counterfactual unified-only/zero-copy-only shadow
  /// costing (gamma.adaptivity.v1). Only meaningful for the host-resident
  /// placements (hybrid/unified/zero-copy); ignored otherwise. Off by
  /// default — observing is read-only, but the shadow replay costs real
  /// wall-clock time.
  bool adaptivity_audit = false;
  /// Attaches a core::PlanProfiler for the run: per-level estimate-vs-
  /// actual rows with Q-error, strategy provenance, resource-class
  /// attribution, and warp-slot load imbalance (gamma.planprof.v1).
  /// Observation only — a profiled run is bit-identical in cycles and
  /// DeviceStats to an unprofiled one. Attribution and slot histograms
  /// additionally need SimParams::record_commands.
  bool plan_profile = false;
};

/// The user-facing GAMMA framework façade (Fig. 3).
///
/// Owns the graph accessor and exposes the primitives —
/// VertexExtension / EdgeExtension / Aggregation / Filtering /
/// output_results — configured once through GammaOptions, so algorithm code
/// (Algorithms 1 and 2, kCL, ...) reads like the paper's pseudocode and
/// never touches host-memory access modes, intermediate-result management,
/// or the primitive optimizations.
class GammaEngine {
 public:
  GammaEngine(gpusim::Device* device, const graph::Graph* graph,
              const GammaOptions& options);

  GammaEngine(const GammaEngine&) = delete;
  GammaEngine& operator=(const GammaEngine&) = delete;

  /// Stages the graph on the platform. Must be called once before use.
  Status Prepare();

  // -- Embedding-table construction -----------------------------------------

  /// v-ET seeded with every vertex carrying `label` (kAnyLabel = all
  /// vertices). Charged as a scan kernel over the label array.
  Result<std::unique_ptr<EmbeddingTable>> InitVertexTable(
      graph::Label label = graph::Pattern::kAnyLabel);

  /// e-ET seeded with every undirected edge (all length-1 embeddings,
  /// Algorithm 2 line 1). Requires the graph's edge index.
  Result<std::unique_ptr<EmbeddingTable>> InitEdgeTable();

  /// v-ET seeded with the first two columns from one edge-list scan: every
  /// adjacent (u, v) pair whose endpoints carry `first_label` /
  /// `second_label` (kAnyLabel = all), both orientations unless
  /// `ascending` keeps only u < v (a folded (0,1) symmetry restriction).
  /// The edge-parallel start mode of compiled plans — it replaces the
  /// depth-1 vertex extension. Requires the graph's edge index.
  Result<std::unique_ptr<EmbeddingTable>> InitVertexPairTable(
      graph::Label first_label, graph::Label second_label, bool ascending);

  // -- Primitives (Fig. 3 interfaces) ---------------------------------------

  Result<ExtensionStats> VertexExtension(EmbeddingTable* et,
                                         const VertexExtensionSpec& spec);
  Result<ExtensionStats> EdgeExtension(EmbeddingTable* et,
                                       const EdgeExtensionSpec& spec);
  Result<AggregationResult> Aggregation(const EmbeddingTable& et,
                                        PatternTable* pt);
  FilterStats Filtering(EmbeddingTable* et,
                        const std::function<bool(std::span<const Unit>)>&
                            constraint);
  FilterStats Filtering(EmbeddingTable* et,
                        const std::vector<uint64_t>& codes,
                        const PatternTable& pt);

  /// Renders results for the user (embedding count or pattern supports).
  std::string OutputResults(const EmbeddingTable* et,
                            const PatternTable* pt) const;

  gpusim::Device* device() { return device_; }
  /// Per-phase time/traffic attribution of every primitive call made
  /// through this engine (lives on the device; see gpusim::RunProfile).
  const gpusim::RunProfile& profile() const { return device_->profile(); }
  const graph::Graph& graph() const { return *graph_; }
  GraphAccessor& accessor() { return accessor_; }
  const GammaOptions& options() const { return options_; }
  GammaOptions& mutable_options() { return options_; }

  /// The run's adaptivity audit, or nullptr when GammaOptions did not
  /// enable one (or the placement has no host-memory traffic to audit).
  AdaptivityAudit* audit() { return audit_.get(); }

  /// The run's plan profiler, or nullptr when GammaOptions did not enable
  /// one. CompiledEngine::Run brackets every plan level through it.
  PlanProfiler* plan_profiler() { return plan_profiler_.get(); }

 private:
  gpusim::Device* device_;
  const graph::Graph* graph_;
  GammaOptions options_;
  GraphAccessor accessor_;
  // Destroyed before accessor_/device_ users run down; the audit detaches
  // itself from the device on destruction.
  std::unique_ptr<AdaptivityAudit> audit_;
  std::unique_ptr<PlanProfiler> plan_profiler_;
  bool prepared_ = false;
};

}  // namespace gpm::core

#endif  // GAMMA_CORE_GAMMA_H_
