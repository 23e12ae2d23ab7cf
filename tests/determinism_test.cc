// Determinism guarantees of the simulated device:
//
//  * running the same workload twice in one process yields bit-identical
//    hardware counters and cycle totals (no hidden global state, no
//    address- or hash-order-dependent arithmetic), and
//  * running warp tasks on a host thread pool (SimParams::host_threads)
//    changes nothing: the record/replay executor must reproduce the
//    serial schedule's counters, cycles and recorded timeline instants
//    (UM page events) bit-for-bit, whatever interleaving the pool picked.
//
// Also pins the stream attribution of count-only extension kernels: they
// launch on the pipeline's compute stream like every other extension
// strategy, not on the default stream (a regression a trace comparison
// catches but aggregate counters cannot).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "algos/fpm.h"
#include "algos/kclique.h"
#include "algos/motif.h"
#include "algos/subgraph_matching.h"
#include "core/gamma.h"
#include "core/pattern_table.h"
#include "graph/generators.h"
#include "graph/pattern.h"
#include "gpusim/device.h"

namespace gpm {
namespace {

gpusim::SimParams TestParams(int host_threads, bool timeline = false) {
  gpusim::SimParams p;
  p.device_memory_bytes = 16 << 20;
  p.um_device_buffer_bytes = 2 << 20;
  p.host_threads = host_threads;
  p.record_timeline = timeline;
  return p;
}

graph::Graph TestGraph() {
  Rng rng(7);
  graph::Graph g = graph::ErdosRenyi(80, 400, &rng);
  graph::AssignLabelsZipf(&g, 3, 0.3, &rng);
  g.EnsureEdgeIndex();
  return g;
}

enum class Algo { kKcl, kMotif, kFpm, kSm };

const char* AlgoName(Algo a) {
  switch (a) {
    case Algo::kKcl:
      return "kcl";
    case Algo::kMotif:
      return "motif";
    case Algo::kFpm:
      return "fpm";
    case Algo::kSm:
      return "sm";
  }
  return "?";
}

struct RunOutcome {
  gpusim::DeviceStats stats;
  double cycles = 0;
  std::vector<prof::InstantRecord> instants;  // empty unless timeline on
  uint64_t dropped = 0;
  std::vector<core::PatternEntry> patterns;  // FPM's final pattern table
};

// Runs one algorithm end-to-end on a fresh device and returns the final
// counters, clock, (with `timeline`) the log's instant list and (for FPM)
// the mined pattern table.
RunOutcome RunAlgo(Algo algo, const graph::Graph& g, int host_threads,
                   bool timeline = false) {
  gpusim::Device device(TestParams(host_threads, timeline));
  core::GammaEngine engine(&device, &g, {});
  EXPECT_TRUE(engine.Prepare().ok());
  std::vector<core::PatternEntry> patterns;
  switch (algo) {
    case Algo::kKcl:
      EXPECT_TRUE(algos::CountKCliques(&engine, 4).ok());
      break;
    case Algo::kMotif:
      EXPECT_TRUE(algos::CountMotifs(&engine, 3).ok());
      break;
    case Algo::kFpm: {
      algos::FpmOptions fpm;
      fpm.max_edges = 3;
      fpm.min_support = 20;
      auto mined = algos::MineFrequentPatterns(&engine, fpm);
      EXPECT_TRUE(mined.ok());
      if (mined.ok()) patterns = mined.value().patterns.entries();
      EXPECT_FALSE(patterns.empty());
      break;
    }
    case Algo::kSm: {
      graph::Pattern q = graph::Pattern::SmQuery(1, g.num_labels());
      EXPECT_TRUE(algos::MatchWoj(&engine, q).ok());
      break;
    }
  }
  return {device.stats().Snapshot(), device.now_cycles(),
          device.critpath().instants(), device.critpath().dropped(),
          std::move(patterns)};
}

void ExpectBitIdentical(const RunOutcome& a, const RunOutcome& b,
                        const std::string& label) {
  for (const auto& f : gpusim::DeviceStats::Fields()) {
    EXPECT_EQ(a.stats.*f.member, b.stats.*f.member)
        << label << ": counter " << f.name << " diverged";
  }
  // Exact double equality on purpose: the determinism contract is
  // bit-identity of the cycle arithmetic, not closeness.
  EXPECT_EQ(a.cycles, b.cycles) << label << ": clock diverged";
  EXPECT_EQ(a.dropped, b.dropped) << label << ": log drops diverged";
  ASSERT_EQ(a.instants.size(), b.instants.size())
      << label << ": instant count diverged";
  for (std::size_t i = 0; i < a.instants.size(); ++i) {
    const prof::InstantRecord& x = a.instants[i];
    const prof::InstantRecord& y = b.instants[i];
    ASSERT_TRUE(x.kind == y.kind && x.ts == y.ts && x.region == y.region &&
                x.page == y.page)
        << label << ": instant " << i << " diverged";
  }
  // Entry order, support and the first-wins exemplar all pinned.
  ASSERT_EQ(a.patterns.size(), b.patterns.size())
      << label << ": pattern count diverged";
  for (std::size_t i = 0; i < a.patterns.size(); ++i) {
    const core::PatternEntry& x = a.patterns[i];
    const core::PatternEntry& y = b.patterns[i];
    EXPECT_EQ(x.code, y.code) << label << ": pattern " << i;
    EXPECT_EQ(x.support, y.support) << label << ": pattern " << i;
    EXPECT_EQ(x.exemplar.DebugString(), y.exemplar.DebugString())
        << label << ": pattern " << i;
  }
}

TEST(DeterminismTest, DoubleRunIsBitIdentical) {
  graph::Graph g = TestGraph();
  for (Algo algo : {Algo::kKcl, Algo::kMotif, Algo::kFpm, Algo::kSm}) {
    RunOutcome first = RunAlgo(algo, g, /*host_threads=*/1);
    RunOutcome second = RunAlgo(algo, g, /*host_threads=*/1);
    ExpectBitIdentical(first, second,
                       std::string(AlgoName(algo)) + " serial double-run");
  }
}

TEST(DeterminismTest, HostThreadPoolIsBitIdentical) {
  graph::Graph g = TestGraph();
  for (Algo algo : {Algo::kKcl, Algo::kMotif, Algo::kFpm, Algo::kSm}) {
    RunOutcome serial = RunAlgo(algo, g, /*host_threads=*/1);
    RunOutcome pooled = RunAlgo(algo, g, /*host_threads=*/4);
    ExpectBitIdentical(serial, pooled,
                       std::string(AlgoName(algo)) + " 1 vs 4 host threads");
    // The timeline's instants are replayed in task order too.
    serial = RunAlgo(algo, g, /*host_threads=*/1, /*timeline=*/true);
    pooled = RunAlgo(algo, g, /*host_threads=*/4, /*timeline=*/true);
    EXPECT_EQ(serial.dropped, 0u);
    EXPECT_FALSE(serial.instants.empty());
    ExpectBitIdentical(serial, pooled, std::string(AlgoName(algo)) +
                                           " timeline 1 vs 4 host threads");
  }
}

// With the double-buffered pipeline (num_streams >= 2) every extension
// kernel belongs on the compute stream. Count-only launches used to go
// through the synchronous default-stream API, which skewed stream clocks
// and trace attribution relative to the materializing strategies.
TEST(DeterminismTest, CountOnlyExtensionRunsOnComputeStream) {
  graph::Graph g = TestGraph();
  gpusim::SimParams params = TestParams(/*host_threads=*/1);
  params.record_commands = true;
  gpusim::Device device(params);
  core::GammaOptions options;
  options.extension.num_streams = 2;
  core::GammaEngine engine(&device, &g, options);
  ASSERT_TRUE(engine.Prepare().ok());
  ASSERT_TRUE(algos::CountKCliques(&engine, 3, /*count_only_last=*/true).ok());

  std::set<int> count_only_tracks;
  std::set<int> materializing_tracks;
  // Each kernel's stream is the Chrome trace track it renders on.
  for (const prof::CommandRecord& e : device.critpath().commands()) {
    if (e.kind != prof::CommandRecord::Kind::kKernel) continue;
    if (e.name == "extension-count-only") count_only_tracks.insert(e.stream);
    if (e.name == "extension-dynamic") materializing_tracks.insert(e.stream);
  }
  ASSERT_FALSE(count_only_tracks.empty());
  ASSERT_FALSE(materializing_tracks.empty());
  EXPECT_EQ(count_only_tracks, materializing_tracks)
      << "count-only extension kernels must share the materializing "
         "strategies' compute stream";
}

}  // namespace
}  // namespace gpm
