// Exact memory-traffic accounting of GraphAccessor's charged read paths.
//
// The batched paths (ChargeEdgeEndpointsBatch, ChargeLabelsBatch) and the
// adjacency+edge-id read each pin the precise DeviceStats deltas across
// placements, with the expected page faults / hits / transactions computed
// by hand from the 4096 B page and 128 B transaction geometry. These
// numbers are the corrected (higher) traffic: a batch that fails to
// advance its offset, or charges one label for a warp-wide gather, passes
// weaker tests but undercounts the paper's central quantity.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/adaptive_access.h"
#include "core/gamma.h"
#include "gpusim/device.h"
#include "graph/csr.h"

namespace gpm::core {
namespace {

// Defaults: 32-lane warps, 4096 B pages, 128 B zero-copy transactions.
gpusim::SimParams SmallParams() {
  gpusim::SimParams p;
  p.device_memory_bytes = 1 << 20;      // 1 MiB
  p.um_device_buffer_bytes = 64 << 10;  // 16 pages
  return p;
}

// Star: vertex 0 adjacent to vertices 1..leaves. Vertex 0's adjacency
// list starts at column-array offset 0 and holds `leaves` entries; the
// edge index assigns edge i-1 = {0, i}, so edges_packed_ holds `leaves`
// consecutive 8-byte records.
graph::Graph MakeStar(graph::VertexId leaves) {
  std::vector<graph::Edge> edges;
  edges.reserve(leaves);
  for (graph::VertexId i = 1; i <= leaves; ++i) edges.push_back({0, i});
  graph::Graph g = graph::Graph::FromEdges(leaves + 1, edges);
  g.EnsureEdgeIndex();
  return g;
}

// Runs `fn` as the body of a single warp task and returns the stats delta
// it caused (the launch itself only touches kernel_launches/warp_tasks).
template <typename Fn>
gpusim::DeviceStats RunWarp(gpusim::Device* device, Fn fn) {
  gpusim::DeviceStats before = device->stats().Snapshot();
  device->LaunchKernel(1,
                       [&](gpusim::WarpCtx& w, std::size_t) { fn(w); });
  return device->stats().Diff(before);
}

GraphAccessor::Options Placed(GraphPlacement placement) {
  GraphAccessor::Options o;
  o.placement = placement;
  return o;
}

// -- ChargeEdgeEndpointsBatch -----------------------------------------------

TEST(EdgeEndpointsBatchTest, UnifiedChargesEveryBatchSpan) {
  // 600 edges x 8 B = 4800 B of packed endpoints: pages 0 and 1 of the
  // edges_packed_ region. 600 lanes = 19 warp batches (18 x 32 + 24);
  // batches 0-15 land in page 0, batches 16-18 in page 1, so the two
  // pages fault once each and every later batch hits.
  graph::Graph g = MakeStar(600);
  gpusim::Device device(SmallParams());
  GraphAccessor accessor(&device, &g,
                         Placed(GraphPlacement::kUnifiedOnly));
  ASSERT_TRUE(accessor.Prepare().ok());
  gpusim::DeviceStats d = RunWarp(&device, [&](gpusim::WarpCtx& w) {
    accessor.ChargeEdgeEndpointsBatch(w, 0, 600);
  });
  EXPECT_EQ(d.um_page_faults, 2u);
  EXPECT_EQ(d.um_page_hits, 17u);
  EXPECT_EQ(d.um_migrated_bytes, 2u * 4096u);
  EXPECT_EQ(d.zc_transactions, 0u);
}

TEST(EdgeEndpointsBatchTest, UnifiedOffsetAdvancesPastFirstPage) {
  // Starting at edge 512 (byte offset 4096), the whole span lies in page 1
  // of the packed-edge region: the buggy non-advancing offset would charge
  // page 1 once and then page... the same bytes again; the fix charges
  // the actual span [4096, 4608), all page 1.
  graph::Graph g = MakeStar(600);
  gpusim::Device device(SmallParams());
  GraphAccessor accessor(&device, &g,
                         Placed(GraphPlacement::kUnifiedOnly));
  ASSERT_TRUE(accessor.Prepare().ok());
  gpusim::DeviceStats d = RunWarp(&device, [&](gpusim::WarpCtx& w) {
    accessor.ChargeEdgeEndpointsBatch(w, 512, 64);
  });
  EXPECT_EQ(d.um_page_faults, 1u);  // page 1, not page 0
  EXPECT_EQ(d.um_page_hits, 1u);    // second batch of 32
  EXPECT_EQ(d.um_migrated_bytes, 4096u);
}

TEST(EdgeEndpointsBatchTest, DeviceResidentClampsTailBatch) {
  // 70 records over 32-lane batches: 32 + 32 + 6, i.e. three coalesced
  // reads totalling 70 x 8 = 560 bytes (not 3 x 32 x 8 = 768).
  graph::Graph g = MakeStar(600);
  gpusim::Device device(SmallParams());
  GraphAccessor accessor(&device, &g,
                         Placed(GraphPlacement::kDeviceResident));
  ASSERT_TRUE(accessor.Prepare().ok());
  gpusim::DeviceStats d = RunWarp(&device, [&](gpusim::WarpCtx& w) {
    accessor.ChargeEdgeEndpointsBatch(w, 5, 70);
  });
  EXPECT_EQ(d.device_reads, 3u);
  EXPECT_EQ(d.device_read_bytes, 560u);
}

// -- ChargeLabelsBatch --------------------------------------------------------

TEST(LabelsBatchTest, UnifiedChargesPerLaneVertexOffsets) {
  // 5001 vertices, 4 B labels (zero-filled by Prepare): ~5 pages. The
  // four gathered vertices sit exactly one page apart, so a single
  // warp batch faults four distinct pages — one label per batch would
  // fault only the first.
  graph::Graph g = MakeStar(5000);
  gpusim::Device device(SmallParams());
  GraphAccessor accessor(&device, &g,
                         Placed(GraphPlacement::kUnifiedOnly));
  ASSERT_TRUE(accessor.Prepare().ok());
  std::vector<graph::VertexId> spread = {0, 1024, 2048, 3072};
  gpusim::DeviceStats d = RunWarp(&device, [&](gpusim::WarpCtx& w) {
    accessor.ChargeLabelsBatch(w, spread);
  });
  EXPECT_EQ(d.um_page_faults, 4u);
  EXPECT_EQ(d.um_page_hits, 0u);
  EXPECT_EQ(d.um_migrated_bytes, 4u * 4096u);

  // Re-reading a resident page: 64 lanes = 64 per-lane hits (two warp
  // batches), zero faults.
  std::vector<graph::VertexId> same(64, 2);
  gpusim::DeviceStats d2 = RunWarp(&device, [&](gpusim::WarpCtx& w) {
    accessor.ChargeLabelsBatch(w, same);
  });
  EXPECT_EQ(d2.um_page_faults, 0u);
  EXPECT_EQ(d2.um_page_hits, 64u);
}

TEST(LabelsBatchTest, DeviceResidentCoalescesPerBatch) {
  graph::Graph g = MakeStar(600);
  gpusim::Device device(SmallParams());
  GraphAccessor accessor(&device, &g,
                         Placed(GraphPlacement::kDeviceResident));
  ASSERT_TRUE(accessor.Prepare().ok());
  std::vector<graph::VertexId> vertices(40, 5);
  gpusim::DeviceStats d = RunWarp(&device, [&](gpusim::WarpCtx& w) {
    accessor.ChargeLabelsBatch(w, vertices);
  });
  EXPECT_EQ(d.device_reads, 2u);  // 32 + 8 lanes
  EXPECT_EQ(d.device_read_bytes, 40u * sizeof(graph::Label));
}

// -- ReadAdjacencyWithEids ----------------------------------------------------

TEST(AdjacencyWithEidsTest, UnifiedMirrorFaultsAsItsOwnRegion) {
  // Vertex 0's adjacency: 600 x 4 B = 2400 B in page 0 of the column
  // region; the edge-id mirror covers the same byte span but in its own
  // region, so the first read faults both pages (charging the column
  // region twice would make the mirror a free hit).
  graph::Graph g = MakeStar(600);
  gpusim::Device device(SmallParams());
  GraphAccessor accessor(&device, &g,
                         Placed(GraphPlacement::kUnifiedOnly));
  ASSERT_TRUE(accessor.Prepare().ok());
  gpusim::DeviceStats d = RunWarp(&device, [&](gpusim::WarpCtx& w) {
    auto [nbrs, eids] = accessor.ReadAdjacencyWithEids(w, 0);
    EXPECT_EQ(nbrs.size(), 600u);
    EXPECT_EQ(eids.size(), 600u);
  });
  EXPECT_EQ(d.um_page_faults, 2u);
  EXPECT_EQ(d.um_page_hits, 0u);
  EXPECT_EQ(d.um_migrated_bytes, 2u * 4096u);

  gpusim::DeviceStats d2 = RunWarp(&device, [&](gpusim::WarpCtx& w) {
    accessor.ReadAdjacencyWithEids(w, 0);
  });
  EXPECT_EQ(d2.um_page_faults, 0u);
  EXPECT_EQ(d2.um_page_hits, 2u);
}

TEST(AdjacencyWithEidsTest, ZeroCopyChargesBothSpans) {
  // 2400 B per span, 128 B transactions: ceil(2400/128) = 19 per region,
  // 38 total, 38 x 128 = 4864 B on the link.
  graph::Graph g = MakeStar(600);
  gpusim::Device device(SmallParams());
  GraphAccessor accessor(&device, &g,
                         Placed(GraphPlacement::kZeroCopyOnly));
  ASSERT_TRUE(accessor.Prepare().ok());
  gpusim::DeviceStats d = RunWarp(&device, [&](gpusim::WarpCtx& w) {
    accessor.ReadAdjacencyWithEids(w, 0);
  });
  EXPECT_EQ(d.zc_transactions, 38u);
  EXPECT_EQ(d.zc_bytes, 38u * 128u);
  EXPECT_EQ(d.um_page_faults, 0u);
}

TEST(AdjacencyWithEidsTest, DeviceResidentReadsBothArrays) {
  graph::Graph g = MakeStar(600);
  gpusim::Device device(SmallParams());
  GraphAccessor accessor(&device, &g,
                         Placed(GraphPlacement::kDeviceResident));
  ASSERT_TRUE(accessor.Prepare().ok());
  gpusim::DeviceStats d = RunWarp(&device, [&](gpusim::WarpCtx& w) {
    accessor.ReadAdjacencyWithEids(w, 0);
  });
  EXPECT_EQ(d.device_reads, 2u);
  EXPECT_EQ(d.device_read_bytes, 2u * 2400u);
}

TEST(AdjacencyWithEidsTest, HybridDefaultsToZeroCopyBeforePlanning) {
  // Without PlanExtension no page is flagged unified, so hybrid routes
  // everything through zero-copy — identical traffic to kZeroCopyOnly.
  graph::Graph g = MakeStar(600);
  gpusim::Device device(SmallParams());
  GraphAccessor accessor(&device, &g,
                         Placed(GraphPlacement::kHybridAdaptive));
  ASSERT_TRUE(accessor.Prepare().ok());
  gpusim::DeviceStats d = RunWarp(&device, [&](gpusim::WarpCtx& w) {
    accessor.ReadAdjacencyWithEids(w, 0);
  });
  EXPECT_EQ(d.zc_transactions, 38u);
  EXPECT_EQ(d.um_page_faults, 0u);
}

// -- Engine-level profile attribution ----------------------------------------

TEST(EngineProfileTest, PhasesAttributeTrafficAndExportJson) {
  graph::Graph g = MakeStar(64);
  // Room for the extension's default 4 MiB write pool.
  gpusim::SimParams params;
  params.device_memory_bytes = 8 << 20;
  params.um_device_buffer_bytes = 512 << 10;
  params.record_commands = true;
  gpusim::Device device(params);
  GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  auto t = engine.InitVertexTable();
  ASSERT_TRUE(t.ok());
  VertexExtensionSpec spec;
  spec.intersect_positions = {0};
  ASSERT_TRUE(engine.VertexExtension(t.value().get(), spec).ok());

  const gpusim::RunProfile& profile = engine.profile();
  const gpusim::PhaseRecord* prep = profile.Find("prepare");
  ASSERT_NE(prep, nullptr);
  EXPECT_EQ(prep->invocations, 1u);
  const gpusim::PhaseRecord* init = profile.Find("init-table");
  ASSERT_NE(init, nullptr);
  EXPECT_EQ(init->invocations, 1u);
  const gpusim::PhaseRecord* ext = profile.Find("vertex-extension");
  ASSERT_NE(ext, nullptr);
  EXPECT_EQ(ext->invocations, 1u);
  EXPECT_GT(ext->cycles, 0.0);
  EXPECT_GE(ext->delta.kernel_launches, 1u);
  // The extension must have read graph data through some host path.
  EXPECT_GT(ext->delta.zc_transactions + ext->delta.um_page_faults +
                ext->delta.um_page_hits,
            0u);

  // Phase cycles partition the run: their sum cannot exceed the clock.
  double phase_cycles = 0;
  for (const gpusim::PhaseRecord& ph : profile.phases()) {
    phase_cycles += ph.cycles;
  }
  EXPECT_LE(phase_cycles, device.now_cycles() * (1 + 1e-12));

  std::string json = profile.ToJson(device);
  EXPECT_NE(json.find("\"schema\": \"gamma.profile.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"totals\""), std::string::npos);
  EXPECT_NE(json.find("\"phases\""), std::string::npos);
  EXPECT_NE(json.find("\"vertex-extension\""), std::string::npos);
  EXPECT_NE(json.find("\"kernel_trace\""), std::string::npos);
  // The command log was on, so the trace array carries named kernel
  // records.
  const auto& cmds = device.critpath().commands();
  EXPECT_TRUE(std::any_of(cmds.begin(), cmds.end(), [](const auto& rec) {
    return rec.kind == prof::CommandRecord::Kind::kKernel;
  }));
  EXPECT_NE(json.find("\"compute_makespan_cycles\""), std::string::npos);
}

}  // namespace
}  // namespace gpm::core
