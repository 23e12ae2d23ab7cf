#include "core/gamma.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"
#include "gpusim/profile.h"

namespace gpm::core {

namespace {

// Phase names used for RunProfile attribution. Every primitive call on the
// engine lands in exactly one of these, so the per-phase counter deltas sum
// (with "prepare"/"init-table") to the run totals.
constexpr char kPhasePrepare[] = "prepare";
constexpr char kPhaseInitTable[] = "init-table";
constexpr char kPhaseVertexExtension[] = "vertex-extension";
constexpr char kPhaseEdgeExtension[] = "edge-extension";
constexpr char kPhaseAggregation[] = "aggregation";
constexpr char kPhaseFiltering[] = "filtering";

}  // namespace

GammaEngine::GammaEngine(gpusim::Device* device, const graph::Graph* graph,
                         const GammaOptions& options)
    : device_(device),
      graph_(graph),
      options_(options),
      accessor_(device, graph, options.access) {
  const GraphPlacement placement = options_.access.placement;
  const bool host_resident = placement == GraphPlacement::kHybridAdaptive ||
                             placement == GraphPlacement::kUnifiedOnly ||
                             placement == GraphPlacement::kZeroCopyOnly;
  if (options_.adaptivity_audit && host_resident) {
    audit_ = std::make_unique<AdaptivityAudit>(device_, placement);
    device_->set_access_observer(audit_.get());
    accessor_.set_audit(audit_.get());
  }
  if (options_.plan_profile) {
    plan_profiler_ = std::make_unique<PlanProfiler>();
  }
}

Status GammaEngine::Prepare() {
  GAMMA_CHECK(!prepared_) << "Prepare called twice";
  gpusim::PhaseScope phase(device_, kPhasePrepare);
  Status st = accessor_.Prepare();
  if (!st.ok()) return st;
  prepared_ = true;
  return Status::Ok();
}

Result<std::unique_ptr<EmbeddingTable>> GammaEngine::InitVertexTable(
    graph::Label label) {
  GAMMA_CHECK(prepared_) << "engine not prepared";
  gpusim::PhaseScope phase(device_, kPhaseInitTable);
  auto table = std::make_unique<EmbeddingTable>(
      device_, TableKind::kVertex, options_.device_resident_tables);
  std::vector<Unit> units;
  const std::size_t n = graph_->num_vertices();
  // Scan kernel over the label array: mark, scan, scatter matching ids.
  device_->LaunchKernel(
      std::max<std::size_t>(1, n / 4096),
      [&](gpusim::WarpCtx& w, std::size_t) {
        w.ZeroCopyRead(4096 * sizeof(graph::Label));
        w.ChargeSimtWork(4096);
        w.ChargeWarpScan();
      },
      "init-vertex-scan");
  for (graph::VertexId v = 0; v < n; ++v) {
    if (label == graph::Pattern::kAnyLabel || graph_->label(v) == label) {
      units.push_back(v);
    }
  }
  device_->CopyDeviceToHost(units.size() * sizeof(Unit));
  Status st = table->InitFirstColumn(std::move(units));
  if (!st.ok()) return st;
  return table;
}

Result<std::unique_ptr<EmbeddingTable>> GammaEngine::InitEdgeTable() {
  GAMMA_CHECK(prepared_) << "engine not prepared";
  gpusim::PhaseScope phase(device_, kPhaseInitTable);
  if (graph_->edge_list().empty()) {
    return Status::FailedPrecondition(
        "edge table requires the graph's edge index (EnsureEdgeIndex)");
  }
  auto table = std::make_unique<EmbeddingTable>(
      device_, TableKind::kEdge, options_.device_resident_tables);
  std::vector<Unit> units(graph_->edge_list().size());
  for (std::size_t e = 0; e < units.size(); ++e) {
    units[e] = static_cast<Unit>(e);
  }
  device_->ChargeHostWork(static_cast<double>(units.size()));
  Status st = table->InitFirstColumn(std::move(units));
  if (!st.ok()) return st;
  return table;
}

Result<std::unique_ptr<EmbeddingTable>> GammaEngine::InitVertexPairTable(
    graph::Label first_label, graph::Label second_label, bool ascending) {
  GAMMA_CHECK(prepared_) << "engine not prepared";
  gpusim::PhaseScope phase(device_, kPhaseInitTable);
  if (graph_->edge_list().empty()) {
    return Status::FailedPrecondition(
        "vertex pair table requires the graph's edge index "
        "(EnsureEdgeIndex)");
  }
  auto table = std::make_unique<EmbeddingTable>(
      device_, TableKind::kVertex, options_.device_resident_tables);
  const std::size_t m = graph_->edge_list().size();
  // Scan kernel over the edge list: mark matching pairs, scan, scatter.
  device_->LaunchKernel(
      std::max<std::size_t>(1, m / 4096),
      [&](gpusim::WarpCtx& w, std::size_t) {
        w.ZeroCopyRead(4096 * sizeof(graph::Edge));
        w.ChargeSimtWork(4096);
        w.ChargeWarpScan();
      },
      "init-vertex-pair-scan");
  auto label_ok = [&](graph::VertexId v, graph::Label want) {
    return want == graph::Pattern::kAnyLabel || graph_->label(v) == want;
  };
  std::vector<Unit> first;
  std::vector<Unit> second;
  for (const graph::Edge& e : graph_->edge_list()) {
    const graph::VertexId lo = std::min(e.u, e.v);
    const graph::VertexId hi = std::max(e.u, e.v);
    if (label_ok(lo, first_label) && label_ok(hi, second_label)) {
      first.push_back(lo);
      second.push_back(hi);
    }
    if (ascending) continue;
    if (label_ok(hi, first_label) && label_ok(lo, second_label)) {
      first.push_back(hi);
      second.push_back(lo);
    }
  }
  std::vector<RowIndex> parents(second.size());
  for (std::size_t i = 0; i < parents.size(); ++i) {
    parents[i] = static_cast<RowIndex>(i);
  }
  device_->CopyDeviceToHost((first.size() + second.size()) * sizeof(Unit));
  Status st = table->InitFirstColumn(std::move(first));
  if (!st.ok()) return st;
  st = table->AppendColumn(std::move(second), std::move(parents));
  if (!st.ok()) return st;
  return table;
}

Result<ExtensionStats> GammaEngine::VertexExtension(
    EmbeddingTable* et, const VertexExtensionSpec& spec) {
  GAMMA_CHECK(prepared_) << "engine not prepared";
  gpusim::PhaseScope phase(device_, kPhaseVertexExtension);
  return VertexExtend(et, &accessor_, spec, options_.extension);
}

Result<ExtensionStats> GammaEngine::EdgeExtension(
    EmbeddingTable* et, const EdgeExtensionSpec& spec) {
  GAMMA_CHECK(prepared_) << "engine not prepared";
  gpusim::PhaseScope phase(device_, kPhaseEdgeExtension);
  return EdgeExtend(et, &accessor_, spec, options_.extension);
}

Result<AggregationResult> GammaEngine::Aggregation(const EmbeddingTable& et,
                                                   PatternTable* pt) {
  GAMMA_CHECK(prepared_) << "engine not prepared";
  gpusim::PhaseScope phase(device_, kPhaseAggregation);
  return Aggregate(et, &accessor_, pt, options_.aggregation);
}

FilterStats GammaEngine::Filtering(
    EmbeddingTable* et,
    const std::function<bool(std::span<const Unit>)>& constraint) {
  GAMMA_CHECK(prepared_) << "engine not prepared";
  gpusim::PhaseScope phase(device_, kPhaseFiltering);
  return FilterEmbeddings(et, constraint, options_.filter);
}

FilterStats GammaEngine::Filtering(EmbeddingTable* et,
                                   const std::vector<uint64_t>& codes,
                                   const PatternTable& pt) {
  GAMMA_CHECK(prepared_) << "engine not prepared";
  gpusim::PhaseScope phase(device_, kPhaseFiltering);
  return FilterByPattern(et, codes, pt, options_.filter);
}

std::string GammaEngine::OutputResults(const EmbeddingTable* et,
                                       const PatternTable* pt) const {
  std::ostringstream os;
  if (et != nullptr) {
    os << et->num_embeddings() << " embeddings of length " << et->length();
  }
  if (pt != nullptr) {
    if (et != nullptr) os << "; ";
    os << pt->DebugString();
  }
  return os.str();
}

}  // namespace gpm::core
