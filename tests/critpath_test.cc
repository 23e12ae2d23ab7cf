// Tests for the gamma-prof critical-path analyzer: malformed-input
// rejection (forward dependency edges, unbalanced phase markers), the
// structural DAG property (every binding edge points backwards), span
// containment within phase windows, the bit-exact identity between
// critical-path length and the end-to-end clock on single-stream runs
// (and <= on multi-stream), the exact fold-sum decomposition of phase
// attributions, and the what-if factor-1.0 identity projection.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algos/kclique.h"
#include "common/random.h"
#include "core/gamma.h"
#include "graph/generators.h"
#include "gpusim/critpath.h"
#include "gpusim/device.h"
#include "gpusim/resource_class.h"

namespace gpm::prof {
namespace {

using gpusim::kNumResourceClasses;
using gpusim::ResourceClass;
using gpusim::ResourceCycles;
using Kind = CommandRecord::Kind;

gpusim::SimParams RecordingParams() {
  gpusim::SimParams p;
  p.device_memory_bytes = 16ull << 20;
  p.record_commands = true;
  return p;
}

/// The canonical left-to-right fold every exact-sum assertion uses — the
/// same order Analyze closes residuals against.
double FoldSum(const ResourceCycles& a) {
  double s = 0.0;
  for (int c = 0; c < kNumResourceClasses; ++c) {
    s += a[static_cast<std::size_t>(c)];
  }
  return s;
}

CommandRecord HostWork(double start, double charge) {
  CommandRecord rec;
  rec.kind = Kind::kHostWork;
  rec.name = "host-work";
  rec.start = start;
  rec.end = start + charge;
  rec.charge = charge;
  return rec;
}

CommandRecord Marker(Kind kind, const std::string& name, double at) {
  CommandRecord rec;
  rec.kind = kind;
  rec.name = name;
  rec.start = at;
  rec.end = at;
  return rec;
}

TEST(CommandLogTest, CapacityDropsAndCountsExactly) {
  CommandLog log;
  log.set_enabled(true);
  log.set_capacity(2);
  EXPECT_GE(log.Append(HostWork(0, 10)), 0);
  EXPECT_GE(log.Append(HostWork(10, 10)), 0);
  EXPECT_EQ(log.Append(HostWork(20, 10)), -1);
  EXPECT_EQ(log.commands().size(), 2u);
  EXPECT_EQ(log.dropped(), 1u);
  log.Clear();
  EXPECT_EQ(log.dropped(), 0u);
  EXPECT_TRUE(log.commands().empty());
}

TEST(CommandLogTest, DisabledRecordsNothing) {
  CommandLog log;
  EXPECT_EQ(log.Append(HostWork(0, 10)), -1);
  log.AppendInstant(InstantRecord{});
  EXPECT_TRUE(log.commands().empty());
  EXPECT_TRUE(log.instants().empty());
  EXPECT_EQ(log.dropped(), 0u);  // disabled != dropped
}

// Commands and timeline instants share the one capacity and the one drop
// counter.
TEST(CommandLogTest, InstantsShareTheCapacity) {
  CommandLog log;
  log.set_enabled(true);
  log.set_capacity(4);
  for (int i = 0; i < 3; ++i) log.Append(HostWork(i, 1));
  log.AppendInstant(InstantRecord{});
  log.AppendInstant(InstantRecord{});
  EXPECT_EQ(log.Append(HostWork(3, 1)), -1);
  EXPECT_EQ(log.commands().size(), 3u);
  EXPECT_EQ(log.instants().size(), 1u);
  EXPECT_EQ(log.dropped(), 2u);
  log.Clear();
  EXPECT_TRUE(log.instants().empty());
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(CritpathAnalyzeTest, RejectsForwardWaitEdge) {
  CommandLog log;
  log.set_enabled(true);
  CommandRecord wait;
  wait.kind = Kind::kEventWait;
  wait.name = "wait-event";
  wait.wait_pred = 5;  // points past the end of the log
  log.Append(wait);
  auto analyzed = Analyze(log, {});
  ASSERT_FALSE(analyzed.ok());
  EXPECT_NE(analyzed.status().ToString().find("forward"), std::string::npos)
      << analyzed.status().ToString();
}

TEST(CritpathAnalyzeTest, RejectsForwardLinkEdge) {
  CommandLog log;
  log.set_enabled(true);
  CommandRecord copy;
  copy.kind = Kind::kCopy;
  copy.name = "h2d";
  copy.link_transfer = 8;
  copy.link_pred = 0;  // self-reference: still not strictly backwards
  log.Append(copy);
  auto analyzed = Analyze(log, {});
  ASSERT_FALSE(analyzed.ok());
  EXPECT_NE(analyzed.status().ToString().find("forward"), std::string::npos)
      << analyzed.status().ToString();
}

TEST(CritpathAnalyzeTest, RejectsUnbalancedPhaseMarkers) {
  {
    // End without a begin.
    CommandLog log;
    log.set_enabled(true);
    log.Append(Marker(Kind::kPhaseEnd, "lonely", 0));
    auto analyzed = Analyze(log, {});
    ASSERT_FALSE(analyzed.ok());
    EXPECT_NE(analyzed.status().ToString().find("unbalanced"),
              std::string::npos)
        << analyzed.status().ToString();
  }
  {
    // Begin that never closes.
    CommandLog log;
    log.set_enabled(true);
    log.Append(Marker(Kind::kPhaseBegin, "open", 0));
    log.Append(HostWork(0, 10));
    auto analyzed = Analyze(log, {});
    ASSERT_FALSE(analyzed.ok());
    EXPECT_NE(analyzed.status().ToString().find("never closed"),
              std::string::npos)
        << analyzed.status().ToString();
  }
  {
    // Interleaved (non-nesting) markers.
    CommandLog log;
    log.set_enabled(true);
    log.Append(Marker(Kind::kPhaseBegin, "a", 0));
    log.Append(Marker(Kind::kPhaseBegin, "b", 0));
    log.Append(Marker(Kind::kPhaseEnd, "a", 0));
    auto analyzed = Analyze(log, {});
    ASSERT_FALSE(analyzed.ok());
    EXPECT_NE(analyzed.status().ToString().find("nest"), std::string::npos)
        << analyzed.status().ToString();
  }
}

TEST(CritpathAnalyzeTest, HandBuiltSerialChainIsExact) {
  CommandLog log;
  log.set_enabled(true);
  log.Append(Marker(Kind::kPhaseBegin, "p", 0));
  log.Append(HostWork(0, 10));
  log.Append(HostWork(10, 5));
  log.Append(Marker(Kind::kPhaseEnd, "p", 15));
  auto analyzed = Analyze(log, {});
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  const CritpathReport& report = analyzed.value();
  EXPECT_EQ(report.critical_path_cycles, 15.0);
  EXPECT_EQ(report.resource_cycles[static_cast<std::size_t>(
                ResourceClass::kCompute)],
            15.0);
  EXPECT_EQ(FoldSum(report.resource_cycles), report.critical_path_cycles);
  ASSERT_NE(report.FindPhase("p"), nullptr);
  EXPECT_EQ(report.FindPhase("p")->cycles, 15.0);
  EXPECT_EQ(FoldSum(report.FindPhase("p")->attribution), 15.0);
  EXPECT_EQ(report.FindPhase("p")->binding, ResourceClass::kCompute);
  // Both real commands sit on the (only) chain: zero slack.
  for (const SpanInfo& s : report.spans) EXPECT_EQ(s.slack, 0.0);
  // Identity what-if reproduces the total exactly.
  ASSERT_FALSE(report.whatifs.empty());
  EXPECT_EQ(report.whatifs.front().cost_factor, 1.0);
  EXPECT_EQ(report.whatifs.front().projected_cycles,
            report.critical_path_cycles);
}

// Spans carry no phase of their own: Analyze names each one after the
// innermost marker pair open around it.
TEST(CritpathAnalyzeTest, SpanPhaseIsInnermostEnclosingMarker) {
  CommandLog log;
  log.set_enabled(true);
  log.Append(HostWork(0, 1));  // outside every marker
  CommandRecord seg_begin = Marker(Kind::kPhaseBegin, "planprof/0/L1", 1);
  seg_begin.segment = true;
  log.Append(seg_begin);
  log.Append(HostWork(1, 2));  // inside the segment only
  log.Append(Marker(Kind::kPhaseBegin, "extension", 3));
  log.Append(HostWork(3, 4));  // inside the phase nested in the segment
  log.Append(Marker(Kind::kPhaseEnd, "extension", 7));
  CommandRecord seg_end = Marker(Kind::kPhaseEnd, "planprof/0/L1", 7);
  seg_end.segment = true;
  log.Append(seg_end);
  log.Append(HostWork(7, 1));  // outside again
  auto analyzed = Analyze(log, {});
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  const std::vector<SpanInfo>& spans = analyzed.value().spans;
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].phase, "");
  EXPECT_EQ(spans[1].phase, "planprof/0/L1");
  EXPECT_EQ(spans[2].phase, "extension");
  EXPECT_EQ(spans[3].phase, "");
}

TEST(CritpathAnalyzeTest, PartialLogSuppressesWhatIfs) {
  CommandLog log;
  log.set_enabled(true);
  log.set_capacity(1);
  log.Append(HostWork(0, 10));
  log.Append(HostWork(10, 10));  // dropped
  ASSERT_EQ(log.dropped(), 1u);
  auto analyzed = Analyze(log, {});
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_TRUE(analyzed.value().partial);
  EXPECT_EQ(analyzed.value().dropped_commands, 1u);
  EXPECT_TRUE(analyzed.value().whatifs.empty());
}

// Regression: with the log the only recorder, a run past 2^16 kernels
// whose log is complete is analyzed as complete — no second bounded
// kernel list can mark it partial or suppress the what-ifs.
TEST(CritpathDeviceTest, ManyKernelsWithCompleteLogAreNotPartial) {
  gpusim::SimParams p = RecordingParams();
  p.record_timeline = true;
  p.num_warp_slots = 1;  // keep the per-slot vectors small
  gpusim::Device device(p);
  for (int i = 0; i < 70000; ++i) {
    device.LaunchKernel(1, [](gpusim::WarpCtx& w, std::size_t) {
      w.ChargeCompute(1);
    });
  }
  ASSERT_EQ(device.critpath().dropped(), 0u);
  auto analyzed = Analyze(device);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  const CritpathReport& report = analyzed.value();
  EXPECT_FALSE(report.partial);
  EXPECT_EQ(report.dropped_commands, 0u);
  EXPECT_FALSE(report.whatifs.empty());
  EXPECT_EQ(report.critical_path_cycles, device.now_cycles());
}

/// Runs triangle counting through the engine on a recording device and
/// returns the analyzed report (asserting a complete log).
CritpathReport EngineReport(std::size_t streams, gpusim::Device* device) {
  Rng rng(42);
  graph::Graph g = graph::Rmat(10, 6000, &rng);
  core::GammaOptions options;
  if (streams > 1) {
    options.extension.num_streams = streams;
    options.aggregation.sort.num_streams = streams;
  }
  core::GammaEngine engine(device, &g, options);
  EXPECT_TRUE(engine.Prepare().ok());
  auto result = algos::CountTriangles(&engine);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(device->critpath().dropped(), 0u)
      << "raise the capacity: these assertions need a complete log";
  auto analyzed = Analyze(*device);
  EXPECT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  return std::move(analyzed).value();
}

TEST(CritpathEngineTest, SingleStreamIdentityIsBitExact) {
  gpusim::Device device(RecordingParams());
  CritpathReport report = EngineReport(1, &device);
  EXPECT_FALSE(report.partial);

  // The acceptance identity: critical-path length equals the end-to-end
  // simulated cycle count with tolerance zero.
  EXPECT_EQ(report.critical_path_cycles, device.now_cycles());
  EXPECT_EQ(report.total_cycles, device.now_cycles());

  // Whole-run attribution folds exactly to the critical path.
  EXPECT_EQ(FoldSum(report.resource_cycles), report.critical_path_cycles);

  // Per-phase attribution folds exactly to each phase's wall cycles —
  // which in turn match the RunProfile's accounting for the same phase.
  ASSERT_FALSE(report.phases.empty());
  for (const PhaseBottleneck& ph : report.phases) {
    EXPECT_EQ(FoldSum(ph.attribution), ph.cycles) << ph.name;
    const gpusim::PhaseRecord* profiled = device.profile().Find(ph.name);
    ASSERT_NE(profiled, nullptr) << ph.name;
    EXPECT_EQ(ph.cycles, profiled->cycles) << ph.name;
    EXPECT_EQ(ph.invocations, profiled->invocations) << ph.name;
  }

  // What-if identity: factor 1.0 reproduces the actual cycles exactly.
  ASSERT_FALSE(report.whatifs.empty());
  EXPECT_EQ(report.whatifs.front().cost_factor, 1.0);
  EXPECT_EQ(report.whatifs.front().projected_cycles,
            report.critical_path_cycles);
  // Speedup what-ifs are lower bounds: never slower than actual.
  for (const WhatIf& wi : report.whatifs) {
    EXPECT_LE(wi.projected_cycles, report.critical_path_cycles)
        << gpusim::ResourceClassName(wi.resource);
  }
}

TEST(CritpathEngineTest, DagIsAcyclicAndSpansNestInPhases) {
  gpusim::Device device(RecordingParams());
  CritpathReport report = EngineReport(1, &device);

  // Structural DAG property: every dependency edge points backwards.
  for (const SpanInfo& s : report.spans) {
    EXPECT_LT(s.binding_pred, s.index);
    EXPECT_GE(s.start, 0.0);
    EXPECT_LE(s.end, report.total_cycles);
    EXPECT_LE(s.start, s.end);
    EXPECT_GE(s.slack, 0.0);
  }

  // Child spans are contained in their parent phase window: every command
  // tagged with a phase lies inside one of that phase's marker windows.
  const std::vector<CommandRecord>& cmds = device.critpath().commands();
  struct Window {
    std::string name;
    double begin = 0;
    double end = 0;
  };
  std::vector<Window> windows;
  std::vector<Window> open;
  for (const CommandRecord& rec : cmds) {
    if (rec.kind == Kind::kPhaseBegin) {
      open.push_back({rec.name, rec.start, 0});
    } else if (rec.kind == Kind::kPhaseEnd) {
      ASSERT_FALSE(open.empty());
      open.back().end = rec.start;
      windows.push_back(open.back());
      open.pop_back();
    }
  }
  ASSERT_TRUE(open.empty());
  ASSERT_FALSE(windows.empty());
  int contained = 0;
  for (const SpanInfo& s : report.spans) {
    if (s.phase.empty()) continue;
    bool found = false;
    for (const Window& win : windows) {
      if (win.name == s.phase && win.begin <= s.start && s.end <= win.end) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "span " << s.index << " (" << s.name << ") ["
                       << s.start << ", " << s.end
                       << "] escapes its phase '" << s.phase << "'";
    ++contained;
  }
  EXPECT_GT(contained, 0);

  // The critical path itself is ordered and ends at the sink.
  ASSERT_FALSE(report.critical_path.empty());
  for (std::size_t i = 1; i < report.critical_path.size(); ++i) {
    EXPECT_LT(report.critical_path[i - 1], report.critical_path[i]);
  }
}

TEST(CritpathEngineTest, MultiStreamPathBoundedByTotal) {
  gpusim::Device device(RecordingParams());
  CritpathReport report = EngineReport(4, &device);
  EXPECT_GT(report.streams, 1);
  EXPECT_LE(report.critical_path_cycles, device.now_cycles());
  EXPECT_EQ(FoldSum(report.resource_cycles), report.critical_path_cycles);
}

TEST(CritpathEngineTest, ReportJsonCarriesSchemaAndIdentity) {
  gpusim::Device device(RecordingParams());
  CritpathReport report = EngineReport(1, &device);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"schema\": \"gamma.critpath.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"whatif\""), std::string::npos);
  EXPECT_NE(json.find("\"critical_path\""), std::string::npos);
  EXPECT_NE(json.find("\"sync_idle\""), std::string::npos);
}

}  // namespace
}  // namespace gpm::prof
