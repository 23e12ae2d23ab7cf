#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"

#include "algos/kclique.h"
#include "core/extension.h"
#include "core/gamma.h"
#include "graph/generators.h"
#include "gpusim/device.h"
#include "gpusim/profile.h"
#include "gpusim/sanitizer.h"
#include "gpusim/shadow.h"
#include "minijson.h"

namespace gpm::gpusim {
namespace {

SimParams SmallParams() {
  SimParams p;
  p.device_memory_bytes = 1 << 20;
  p.um_device_buffer_bytes = 64 << 10;
  return p;
}

Device* EnableAll(Device& device) {
  device.EnableSanitizer(Sanitizer::Options{});
  return &device;
}

// -- Shadow primitives ------------------------------------------------------

TEST(ByteIntervalSetTest, AddCoalescesAdjacentAndOverlapping) {
  ByteIntervalSet set;
  EXPECT_TRUE(set.empty());
  set.Add(0, 10);
  set.Add(20, 30);
  EXPECT_EQ(set.interval_count(), 2u);
  set.Add(10, 20);  // bridges the gap
  EXPECT_EQ(set.interval_count(), 1u);
  EXPECT_TRUE(set.Covers(0, 30));
  set.Add(25, 40);  // overlap extends
  EXPECT_EQ(set.interval_count(), 1u);
  EXPECT_TRUE(set.Covers(0, 40));
  EXPECT_FALSE(set.Covers(0, 41));
}

TEST(ByteIntervalSetTest, FirstGapFindsUncoveredByte) {
  ByteIntervalSet set;
  EXPECT_EQ(set.FirstGap(5, 10), 5u);
  set.Add(0, 8);
  EXPECT_EQ(set.FirstGap(5, 10), 8u);
  EXPECT_EQ(set.FirstGap(0, 8), 8u);  // fully covered: gap == end
  EXPECT_TRUE(set.Covers(2, 6));
  set.Clear();
  EXPECT_TRUE(set.empty());
}

TEST(ParseCheckListTest, DefaultsAndSubsets) {
  Sanitizer::Options o;
  o.memcheck = o.initcheck = o.racecheck = false;
  EXPECT_TRUE(Sanitizer::ParseCheckList("", &o));
  EXPECT_TRUE(o.memcheck && o.initcheck && o.racecheck);

  for (const char* all : {"1", "on", "true", "all"}) {
    Sanitizer::Options x;
    x.memcheck = x.initcheck = x.racecheck = false;
    EXPECT_TRUE(Sanitizer::ParseCheckList(all, &x)) << all;
    EXPECT_TRUE(x.memcheck && x.initcheck && x.racecheck) << all;
  }

  Sanitizer::Options sub;
  EXPECT_TRUE(Sanitizer::ParseCheckList("memcheck,racecheck", &sub));
  EXPECT_TRUE(sub.memcheck);
  EXPECT_FALSE(sub.initcheck);
  EXPECT_TRUE(sub.racecheck);
}

TEST(ParseCheckListTest, RejectsUnknownTokensAndEmptySelections) {
  Sanitizer::Options o;
  o.initcheck = false;
  EXPECT_FALSE(Sanitizer::ParseCheckList("memcheck,bogus", &o));
  EXPECT_FALSE(o.initcheck) << "failed parse must not touch the options";
  EXPECT_FALSE(Sanitizer::ParseCheckList(",", &o));
  EXPECT_FALSE(Sanitizer::ParseCheckList("off", &o));
}

// -- memcheck ---------------------------------------------------------------

TEST(SanitizerMemcheckTest, OutOfBoundsReadAttributedToKernel) {
  Device device(SmallParams());
  Sanitizer* san = EnableAll(device)->sanitizer();
  auto id = device.memory().Allocate(256);
  ASSERT_TRUE(id.ok());
  device.LaunchKernel(
      1,
      [&](WarpCtx& w, std::size_t) { w.DeviceWrite(id.value(), 0, 256); },
      "filler");
  device.LaunchKernel(
      1,
      [&](WarpCtx& w, std::size_t) { w.DeviceRead(id.value(), 200, 100); },
      "oob-reader");
  ASSERT_EQ(san->findings().size(), 1u);
  const Sanitizer::Finding& f = san->findings()[0];
  EXPECT_EQ(f.kind, Sanitizer::Kind::kOutOfBounds);
  EXPECT_EQ(f.kernel, "oob-reader");
  EXPECT_EQ(f.offset, 200u);
  EXPECT_EQ(f.bytes, 100u);
  device.memory().Free(id.value());
}

TEST(SanitizerMemcheckTest, UseAfterFreeFlagged) {
  Device device(SmallParams());
  Sanitizer* san = EnableAll(device)->sanitizer();
  auto id = device.memory().Allocate(128);
  ASSERT_TRUE(id.ok());
  device.memory().Free(id.value());
  device.LaunchKernel(
      1,
      [&](WarpCtx& w, std::size_t) { w.DeviceRead(id.value(), 0, 64); },
      "stale-reader");
  ASSERT_EQ(san->findings().size(), 1u);
  EXPECT_EQ(san->findings()[0].kind, Sanitizer::Kind::kInvalidAccess);
}

TEST(SanitizerMemcheckTest, DoubleFreeFlagged) {
  Device device(SmallParams());
  Sanitizer* san = EnableAll(device)->sanitizer();
  auto id = device.memory().Allocate(128);
  ASSERT_TRUE(id.ok());
  device.memory().Free(id.value());
  device.memory().Free(id.value());  // would GAMMA_CHECK-fail without -check
  ASSERT_EQ(san->findings().size(), 1u);
  EXPECT_EQ(san->findings()[0].kind, Sanitizer::Kind::kDoubleFree);
}

TEST(SanitizerMemcheckTest, LeakSweepFindsUnfreedAllocation) {
  Device device(SmallParams());
  auto baseline = device.memory().Allocate(64);  // pre-sanitizer: exempt
  ASSERT_TRUE(baseline.ok());
  Sanitizer* san = EnableAll(device)->sanitizer();
  auto leaked = device.memory().Allocate(512);
  ASSERT_TRUE(leaked.ok());
  san->LabelObject(leaked.value(), "leaky-buffer");
  san->FinalizeLeakCheck();
  san->FinalizeLeakCheck();  // idempotent
  ASSERT_EQ(san->findings().size(), 1u);
  const Sanitizer::Finding& f = san->findings()[0];
  EXPECT_EQ(f.kind, Sanitizer::Kind::kLeak);
  EXPECT_EQ(f.object, "leaky-buffer");
  EXPECT_EQ(f.bytes, 512u);
  device.memory().Free(leaked.value());
  device.memory().Free(baseline.value());
}

// -- initcheck --------------------------------------------------------------

TEST(SanitizerInitcheckTest, ReadBeforeWriteFlagged) {
  Device device(SmallParams());
  Sanitizer* san = EnableAll(device)->sanitizer();
  auto id = device.memory().Allocate(256);
  ASSERT_TRUE(id.ok());
  device.LaunchKernel(
      1,
      [&](WarpCtx& w, std::size_t) { w.DeviceRead(id.value(), 0, 64); },
      "early-reader");
  ASSERT_EQ(san->findings().size(), 1u);
  EXPECT_EQ(san->findings()[0].kind, Sanitizer::Kind::kUninitRead);
  EXPECT_EQ(san->findings()[0].kernel, "early-reader");
  device.memory().Free(id.value());
}

TEST(SanitizerInitcheckTest, WrittenBytesReadClean) {
  Device device(SmallParams());
  Sanitizer* san = EnableAll(device)->sanitizer();
  auto id = device.memory().Allocate(256);
  ASSERT_TRUE(id.ok());
  device.LaunchKernel(
      1,
      [&](WarpCtx& w, std::size_t) {
        w.DeviceWrite(id.value(), 0, 128);
        w.DeviceRead(id.value(), 0, 128);
      },
      "write-then-read");
  EXPECT_TRUE(san->findings().empty());
  device.memory().Free(id.value());
}

TEST(SanitizerInitcheckTest, PoisonedUnifiedRegionFlagged) {
  Device device(SmallParams());
  Sanitizer* san = EnableAll(device)->sanitizer();
  UnifiedMemory::RegionId region = device.unified().Register(4096);
  // Registered regions count as host-initialized; forget that so the read
  // below exercises the initcheck path for unified memory.
  san->TestOnlyPoison(Sanitizer::RegionHandle(region));
  device.LaunchKernel(
      1,
      [&](WarpCtx& w, std::size_t) { w.UnifiedRead(region, 0, 512); },
      "um-reader");
  ASSERT_EQ(san->findings().size(), 1u);
  EXPECT_EQ(san->findings()[0].kind, Sanitizer::Kind::kUninitRead);
  EXPECT_EQ(san->activity().unified_accesses, 1u);
}

// -- racecheck --------------------------------------------------------------

TEST(SanitizerRacecheckTest, MissingEventWaitFlagged) {
  Device device(SmallParams());
  Sanitizer* san = EnableAll(device)->sanitizer();
  auto id = device.memory().Allocate(1024);
  ASSERT_TRUE(id.ok());
  StreamId writer = device.CreateStream();
  StreamId reader = device.CreateStream();
  device.LaunchKernelAsync(
      writer, 1,
      [&](WarpCtx& w, std::size_t) { w.DeviceWrite(id.value(), 0, 1024); },
      "producer");
  // No event between the streams: the read races the write.
  device.LaunchKernelAsync(
      reader, 1,
      [&](WarpCtx& w, std::size_t) { w.DeviceRead(id.value(), 0, 512); },
      "consumer");
  ASSERT_EQ(san->findings().size(), 1u);
  const Sanitizer::Finding& f = san->findings()[0];
  EXPECT_EQ(f.kind, Sanitizer::Kind::kRace);
  EXPECT_EQ(f.kernel, "consumer");
  EXPECT_NE(f.message.find("producer"), std::string::npos) << f.message;
  device.memory().Free(id.value());
}

TEST(SanitizerRacecheckTest, EventWaitOrdersStreams) {
  Device device(SmallParams());
  Sanitizer* san = EnableAll(device)->sanitizer();
  auto id = device.memory().Allocate(1024);
  ASSERT_TRUE(id.ok());
  StreamId writer = device.CreateStream();
  StreamId reader = device.CreateStream();
  device.LaunchKernelAsync(
      writer, 1,
      [&](WarpCtx& w, std::size_t) { w.DeviceWrite(id.value(), 0, 1024); },
      "producer");
  Event done = device.RecordEvent(writer);
  device.WaitEvent(reader, done);
  device.LaunchKernelAsync(
      reader, 1,
      [&](WarpCtx& w, std::size_t) { w.DeviceRead(id.value(), 0, 512); },
      "consumer");
  EXPECT_TRUE(san->findings().empty()) << san->ReportText();
  EXPECT_EQ(san->activity().events_recorded, 1u);
  EXPECT_EQ(san->activity().event_waits, 1u);
  device.memory().Free(id.value());
}

TEST(SanitizerRacecheckTest, DisjointRangesDoNotRace) {
  Device device(SmallParams());
  Sanitizer* san = EnableAll(device)->sanitizer();
  auto id = device.memory().Allocate(1024);
  ASSERT_TRUE(id.ok());
  StreamId a = device.CreateStream();
  StreamId b = device.CreateStream();
  device.LaunchKernelAsync(
      a, 1,
      [&](WarpCtx& w, std::size_t) { w.DeviceWrite(id.value(), 0, 512); },
      "low-half");
  device.LaunchKernelAsync(
      b, 1,
      [&](WarpCtx& w, std::size_t) { w.DeviceWrite(id.value(), 512, 512); },
      "high-half");
  EXPECT_TRUE(san->findings().empty()) << san->ReportText();
  device.memory().Free(id.value());
}

// -- Reporting --------------------------------------------------------------

TEST(SanitizerReportTest, RepeatsDedupeIntoOccurrences) {
  Device device(SmallParams());
  Sanitizer* san = EnableAll(device)->sanitizer();
  auto id = device.memory().Allocate(64);
  ASSERT_TRUE(id.ok());
  for (int i = 0; i < 3; ++i) {
    device.LaunchKernel(
        1,
        [&](WarpCtx& w, std::size_t) { w.DeviceRead(id.value(), 64, 32); },
        "repeat-offender");
  }
  ASSERT_EQ(san->findings().size(), 1u);
  EXPECT_EQ(san->findings()[0].occurrences, 3u);
  EXPECT_EQ(san->total_occurrences(), 3u);
  device.memory().Free(id.value());
}

TEST(SanitizerReportTest, PhaseScopeAttribution) {
  Device device(SmallParams());
  Sanitizer* san = EnableAll(device)->sanitizer();
  auto id = device.memory().Allocate(64);
  ASSERT_TRUE(id.ok());
  {
    PhaseScope phase(&device, "suspicious-phase");
    device.LaunchKernel(
        1,
        [&](WarpCtx& w, std::size_t) { w.DeviceRead(id.value(), 64, 8); },
        "oob");
  }
  ASSERT_EQ(san->findings().size(), 1u);
  EXPECT_EQ(san->findings()[0].phase, "suspicious-phase");
  device.memory().Free(id.value());
}

// The sanitizer reads the device's phase stack instead of mirroring it, so
// a phase opened before the sanitizer was attached still attributes.
TEST(SanitizerReportTest, EnabledInsideOpenPhaseAttributesToIt) {
  Device device(SmallParams());
  PhaseScope phase(&device, "already-open");
  Sanitizer* san = EnableAll(device)->sanitizer();
  auto id = device.memory().Allocate(64);
  ASSERT_TRUE(id.ok());
  device.LaunchKernel(
      1, [&](WarpCtx& w, std::size_t) { w.DeviceRead(id.value(), 64, 8); },
      "oob");
  ASSERT_EQ(san->findings().size(), 1u);
  EXPECT_EQ(san->findings()[0].phase, "already-open");
  device.memory().Free(id.value());
}

// Plan-profiler segments window the command log but are not phases: a
// finding inside one names the enclosing PhaseScope.
TEST(SanitizerReportTest, SegmentMarkersAreNotPhases) {
  Device device(SmallParams());
  Sanitizer* san = EnableAll(device)->sanitizer();
  auto id = device.memory().Allocate(64);
  ASSERT_TRUE(id.ok());
  {
    PhaseScope phase(&device, "outer-phase");
    device.BeginPhaseMark("planprof/0/L1", /*segment=*/true);
    device.LaunchKernel(
        1, [&](WarpCtx& w, std::size_t) { w.DeviceRead(id.value(), 64, 8); },
        "oob");
    device.EndPhaseMark();
  }
  ASSERT_EQ(san->findings().size(), 1u);
  EXPECT_EQ(san->findings()[0].phase, "outer-phase");
  device.memory().Free(id.value());
}

TEST(SanitizerReportTest, JsonMatchesSchema) {
  Device device(SmallParams());
  Sanitizer* san = EnableAll(device)->sanitizer();
  auto id = device.memory().Allocate(64);
  ASSERT_TRUE(id.ok());
  device.LaunchKernel(
      1, [&](WarpCtx& w, std::size_t) { w.DeviceRead(id.value(), 64, 8); },
      "oob");
  std::string json = san->ToJson();
  minijson::Value doc;
  ASSERT_TRUE(minijson::Parse(json, &doc)) << json;
  EXPECT_EQ(doc.Find("schema")->str, "gamma.check.v1");
  EXPECT_TRUE(doc.Find("checkers")->Find("memcheck")->boolean);
  const minijson::Value* summary = doc.Find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_DOUBLE_EQ(summary->Find("total")->number, 1.0);
  EXPECT_DOUBLE_EQ(summary->Find("memcheck")->number, 1.0);
  EXPECT_DOUBLE_EQ(summary->Find("initcheck")->number, 0.0);
  const minijson::Value* findings = doc.Find("findings");
  ASSERT_NE(findings, nullptr);
  ASSERT_EQ(findings->array.size(), 1u);
  const minijson::Value& f = findings->array[0];
  EXPECT_EQ(f.Find("kind")->str, "out-of-bounds");
  EXPECT_EQ(f.Find("checker")->str, "memcheck");
  EXPECT_EQ(f.Find("kernel")->str, "oob");
  EXPECT_DOUBLE_EQ(f.Find("offset")->number, 64.0);
  ASSERT_NE(doc.Find("checked"), nullptr);
  EXPECT_GE(doc.Find("checked")->Find("device_accesses")->number, 1.0);
  device.memory().Free(id.value());
}

TEST(SanitizerReportTest, ReportTextListsFindings) {
  Device device(SmallParams());
  Sanitizer* san = EnableAll(device)->sanitizer();
  auto id = device.memory().Allocate(64);
  ASSERT_TRUE(id.ok());
  device.LaunchKernel(
      1, [&](WarpCtx& w, std::size_t) { w.DeviceRead(id.value(), 64, 8); },
      "oob");
  std::string text = san->ReportText();
  EXPECT_NE(text.find("out-of-bounds"), std::string::npos) << text;
  EXPECT_NE(text.find("memcheck"), std::string::npos) << text;
  EXPECT_NE(text.find("oob"), std::string::npos) << text;
  device.memory().Free(id.value());
}

TEST(SanitizerReportTest, MaxFindingsCapCountsDropped) {
  Device device(SmallParams());
  Sanitizer::Options opts;
  opts.max_findings = 2;
  device.EnableSanitizer(opts);
  Sanitizer* san = device.sanitizer();
  auto id = device.memory().Allocate(64);
  ASSERT_TRUE(id.ok());
  for (int i = 0; i < 4; ++i) {
    // Distinct kernel names => distinct findings, not dedupe.
    std::string name = "oob-" + std::to_string(i);
    device.LaunchKernel(
        1, [&](WarpCtx& w, std::size_t) { w.DeviceRead(id.value(), 64, 8); },
        name.c_str());
  }
  EXPECT_EQ(san->findings().size(), 2u);
  EXPECT_EQ(san->dropped_findings(), 2u);
  device.memory().Free(id.value());
}

}  // namespace
}  // namespace gpm::gpusim

namespace gpm::core {
namespace {

gpusim::SimParams EngineParams() {
  gpusim::SimParams p;
  p.device_memory_bytes = 8 << 20;
  p.um_device_buffer_bytes = 1 << 20;
  return p;
}

struct RunOutcome {
  double cycles = 0;
  gpusim::DeviceStats stats;
};

// One engine workload exercising kernels, the pool, flushes, and (with
// streams >= 2) the double-buffered pipeline.
RunOutcome RunWorkload(bool sanitize, std::size_t streams) {
  Rng rng(7);
  graph::Graph g = graph::ErdosRenyi(256, 2048, &rng);
  g.EnsureEdgeIndex();
  gpusim::Device device(EngineParams());
  if (sanitize) device.EnableSanitizer(gpusim::Sanitizer::Options{});
  GammaOptions options;
  options.extension.num_streams = streams;
  options.extension.chunk_rows = 64;
  {
    GammaEngine engine(&device, &g, options);
    EXPECT_TRUE(engine.Prepare().ok());
    auto r = algos::CountKCliques(&engine, 4);
    EXPECT_TRUE(r.ok());
  }
  if (sanitize) {
    device.sanitizer()->FinalizeLeakCheck();
    EXPECT_TRUE(device.sanitizer()->findings().empty())
        << device.sanitizer()->ReportText();
  }
  return {device.now_cycles(), device.stats().Snapshot()};
}

// The tentpole's zero-perturbation guarantee: enabling every checker must
// not move a single cycle or hardware counter.
TEST(SanitizerOverheadTest, CyclesAndStatsBitIdentical) {
  for (std::size_t streams : {std::size_t{1}, std::size_t{2}}) {
    RunOutcome off = RunWorkload(false, streams);
    RunOutcome on = RunWorkload(true, streams);
    EXPECT_EQ(off.cycles, on.cycles) << "streams=" << streams;
    for (const auto& field : gpusim::DeviceStats::Fields()) {
      EXPECT_EQ(off.stats.*(field.member), on.stats.*(field.member))
          << field.name << " streams=" << streams;
    }
  }
}

// The real double-buffered extension pipeline is finding-clean: every
// buffer-half reuse is guarded by its flush event.
TEST(SanitizerPipelineTest, DoubleBufferedPipelineClean) {
  graph::Graph g = graph::Graph::FromEdges(
      5, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}, {3, 4}});
  g.EnsureEdgeIndex();
  gpusim::Device device(EngineParams());
  device.EnableSanitizer(gpusim::Sanitizer::Options{});
  GammaOptions options;
  options.extension.num_streams = 2;
  // Several chunks per extension (one row per task, two rows per chunk),
  // so later chunks genuinely reuse flushed buffer halves.
  options.extension.chunk_rows = 2;
  options.extension.rows_per_warp = 1;
  GammaEngine engine(&device, &g, options);
  ASSERT_TRUE(engine.Prepare().ok());
  auto t = engine.InitVertexTable();
  ASSERT_TRUE(t.ok());
  VertexExtensionSpec spec;
  ASSERT_TRUE(engine.VertexExtension(t.value().get(), spec).ok());
  ASSERT_TRUE(engine.VertexExtension(t.value().get(), spec).ok());
  EXPECT_TRUE(device.sanitizer()->findings().empty())
      << device.sanitizer()->ReportText();
}

// Deliberately break the pipeline: skipping the flush_done wait lets the
// compute stream write a pool half whose flush is still draining on the
// copy stream. racecheck must catch exactly this.
TEST(SanitizerPipelineTest, SkippedBufferGuardRaces) {
  graph::Graph g = graph::Graph::FromEdges(
      5, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}, {3, 4}});
  g.EnsureEdgeIndex();
  gpusim::Device device(EngineParams());
  device.EnableSanitizer(gpusim::Sanitizer::Options{});
  GammaOptions options;
  options.extension.num_streams = 2;
  options.extension.chunk_rows = 2;
  options.extension.rows_per_warp = 1;
  options.extension.unsafe_skip_buffer_guard = true;
  GammaEngine engine(&device, &g, options);
  ASSERT_TRUE(engine.Prepare().ok());
  auto t = engine.InitVertexTable();
  ASSERT_TRUE(t.ok());
  VertexExtensionSpec spec;
  ASSERT_TRUE(engine.VertexExtension(t.value().get(), spec).ok());

  gpusim::Sanitizer* san = device.sanitizer();
  ASSERT_FALSE(san->findings().empty());
  bool saw_pool_race = false;
  for (const auto& f : san->findings()) {
    EXPECT_EQ(f.kind, gpusim::Sanitizer::Kind::kRace) << san->ReportText();
    if (f.object == "memory-pool") saw_pool_race = true;
  }
  EXPECT_TRUE(saw_pool_race) << san->ReportText();
}

}  // namespace
}  // namespace gpm::core
