// Tests for the timeline views over the command log: the log's one
// capacity and drop counter, Chrome trace-event export well-formedness
// (balanced B/E pairs per track, monotonic timestamps), and, on a
// quickstart-style workload, that every kernel span is covered by an
// engine phase span and that the Chrome trace, the profile's kernel
// table and the log agree.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "algos/kclique.h"
#include "common/random.h"
#include "core/gamma.h"
#include "graph/generators.h"
#include "gpusim/device.h"
#include "gpusim/profile.h"
#include "gpusim/trace.h"
#include "minijson.h"

namespace gpm::gpusim {
namespace {

using prof::CommandLog;
using prof::CommandRecord;
using prof::InstantRecord;
using Kind = CommandRecord::Kind;
using Instant = InstantRecord::Kind;

SimParams SmallParams() {
  SimParams p;
  p.device_memory_bytes = 1 << 20;      // 1 MiB
  p.um_device_buffer_bytes = 64 << 10;  // 16 pages
  return p;
}

// One reconstructed span (or instant) from the exported Chrome JSON.
struct JsonSpan {
  double begin = 0;
  double end = 0;
  std::string name;
  std::string cat;
};

using SpanMap = std::map<std::pair<int, int>, std::vector<JsonSpan>>;

// Per-track validation of a parsed Chrome trace document: timestamps are
// monotonic (non-decreasing), every "E" closes an open "B", and every "B"
// is eventually closed. Fills `*spans` with the completed spans per track
// and, when given, `*instants` with the instants ("i" events; begin ==
// end, `cat` holds the event name) per track.
// (void return so ASSERT_* can bail out on malformed documents.)
void ValidateTracks(const minijson::Value& doc, SpanMap* spans,
                    SpanMap* instants = nullptr) {
  SpanMap open;
  std::map<std::pair<int, int>, double> last_ts;
  const minijson::Value* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->type, minijson::Value::kArray);
  for (const minijson::Value& ev : events->array) {
    const minijson::Value* ph = ev.Find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->str == "M") continue;  // metadata carries no timestamp
    const minijson::Value* pid = ev.Find("pid");
    const minijson::Value* tid = ev.Find("tid");
    const minijson::Value* ts = ev.Find("ts");
    ASSERT_NE(pid, nullptr);
    ASSERT_NE(tid, nullptr);
    ASSERT_NE(ts, nullptr);
    std::pair<int, int> track{static_cast<int>(pid->number),
                              static_cast<int>(tid->number)};
    auto it = last_ts.find(track);
    if (it != last_ts.end()) {
      EXPECT_GE(ts->number, it->second)
          << "timestamps ran backwards on track " << track.first << "/"
          << track.second;
    }
    last_ts[track] = ts->number;
    if (ph->str == "B") {
      JsonSpan s;
      s.begin = ts->number;
      const minijson::Value* name = ev.Find("name");
      ASSERT_NE(name, nullptr) << "B event without a name";
      s.name = name->str;
      if (const minijson::Value* cat = ev.Find("cat")) s.cat = cat->str;
      open[track].push_back(std::move(s));
    } else if (ph->str == "E") {
      auto& stack = open[track];
      ASSERT_FALSE(stack.empty())
          << "unbalanced E on track " << track.first << "/" << track.second;
      JsonSpan s = std::move(stack.back());
      stack.pop_back();
      s.end = ts->number;
      EXPECT_GE(s.end, s.begin);
      (*spans)[track].push_back(std::move(s));
    } else {
      EXPECT_EQ(ph->str, "i") << "unexpected event phase " << ph->str;
      const minijson::Value* args = ev.Find("args");
      ASSERT_NE(args, nullptr) << "instant without page args";
      EXPECT_NE(args->Find("region"), nullptr);
      EXPECT_NE(args->Find("page"), nullptr);
      if (instants != nullptr) {
        JsonSpan s;
        s.begin = s.end = ts->number;
        s.cat = ev.Find("name")->str;
        if (const minijson::Value* region = args->Find("region")) {
          s.name = std::to_string(static_cast<uint64_t>(region->number));
        }
        (*instants)[track].push_back(std::move(s));
      }
    }
  }
  for (const auto& [track, stack] : open) {
    EXPECT_TRUE(stack.empty()) << "unclosed B events on track "
                               << track.first << "/" << track.second;
  }
}

CommandRecord Span(Kind kind, const std::string& name, double begin,
                   double end) {
  CommandRecord rec;
  rec.kind = kind;
  rec.name = name;
  rec.start = begin;
  rec.end = end;
  return rec;
}

InstantRecord Page(Instant kind, double ts, uint32_t region, uint64_t page) {
  InstantRecord rec;
  rec.kind = kind;
  rec.ts = ts;
  rec.region = region;
  rec.page = page;
  return rec;
}

// All spans of one category across every track.
std::vector<JsonSpan> SpansOf(const SpanMap& spans, const std::string& cat) {
  std::vector<JsonSpan> out;
  for (const auto& [track, list] : spans) {
    for (const JsonSpan& s : list) {
      if (s.cat == cat) out.push_back(s);
    }
  }
  return out;
}

std::size_t CountKind(const CommandLog& log, Kind kind) {
  std::size_t n = 0;
  for (const CommandRecord& rec : log.commands()) n += rec.kind == kind;
  return n;
}

TEST(CommandLogTimelineTest, ExportReportsCapacityAndDrops) {
  CommandLog log;
  log.set_enabled(true);
  log.set_capacity(4);
  for (int i = 0; i < 7; ++i) {
    log.Append(Span(Kind::kKernel, "k", i * 10.0, i * 10.0 + 5.0));
  }
  EXPECT_EQ(log.commands().size(), 4u);
  EXPECT_EQ(log.dropped(), 3u);
  // The earliest entries win, so a truncated trace still starts at t=0.
  EXPECT_DOUBLE_EQ(log.commands().front().start, 0.0);

  minijson::Value doc;
  ASSERT_TRUE(minijson::Parse(ToChromeTraceJson(log, SimParams()), &doc));
  const minijson::Value* other = doc.Find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->Find("schema")->str, "gamma.trace.v1");
  EXPECT_DOUBLE_EQ(other->Find("dropped_events")->number, 3.0);
  EXPECT_DOUBLE_EQ(other->Find("capacity")->number, 4.0);

  log.Clear();
  EXPECT_TRUE(log.commands().empty());
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(CommandLogTimelineTest, ChromeJsonBalancedWithAwkwardSpans) {
  CommandLog log;
  log.set_enabled(true);
  // Adjacent spans sharing a boundary, a nested span, a zero-length span,
  // and instants at coinciding timestamps — the awkward cases for B/E
  // ordering at equal ts.
  log.Append(Span(Kind::kPhaseBegin, "outer", 0, 0));
  log.Append(Span(Kind::kKernel, "inner", 2, 6));
  log.Append(Span(Kind::kKernel, "adjacent", 6, 10));
  log.Append(Span(Kind::kKernel, "zero", 10, 10));
  log.Append(Span(Kind::kPhaseEnd, "outer", 10, 10));
  log.AppendInstant(Page(Instant::kUmFault, 6, 1, 42));
  log.AppendInstant(Page(Instant::kUmHit, 6, 1, 42));

  minijson::Value doc;
  ASSERT_TRUE(minijson::Parse(ToChromeTraceJson(log, SimParams()), &doc));
  SpanMap spans;
  ASSERT_NO_FATAL_FAILURE(ValidateTracks(doc, &spans));
  std::size_t total = 0;
  for (const auto& [track, list] : spans) total += list.size();
  EXPECT_EQ(total, 4u);  // all four spans closed exactly once
}

// Plan-profiler segment markers window the log but are not phases: the
// phase track shows only PhaseScope spans.
TEST(CommandLogTimelineTest, SegmentMarkersStayOffThePhaseTrack) {
  CommandLog log;
  log.set_enabled(true);
  log.Append(Span(Kind::kPhaseBegin, "extension", 0, 0));
  CommandRecord seg = Span(Kind::kPhaseBegin, "planprof/0/L1", 0, 0);
  seg.segment = true;
  log.Append(seg);
  log.Append(Span(Kind::kKernel, "k", 0, 5));
  seg.kind = Kind::kPhaseEnd;
  seg.start = seg.end = 5;
  log.Append(seg);
  log.Append(Span(Kind::kPhaseEnd, "extension", 5, 5));

  minijson::Value doc;
  ASSERT_TRUE(minijson::Parse(ToChromeTraceJson(log, SimParams()), &doc));
  SpanMap spans;
  ASSERT_NO_FATAL_FAILURE(ValidateTracks(doc, &spans));
  const std::vector<JsonSpan> phases = SpansOf(spans, "phase");
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_EQ(phases[0].name, "extension");
}

TEST(DeviceTraceTest, KernelTableIsBoundedByTheLog) {
  SimParams params = SmallParams();
  params.record_commands = true;
  Device device(params);
  device.critpath().set_capacity(2);
  for (int i = 0; i < 5; ++i) {
    device.LaunchKernel(1, [](WarpCtx& w, std::size_t) {
      w.ChargeCompute(10);
    });
  }
  EXPECT_EQ(CountKind(device.critpath(), Kind::kKernel), 2u);
  EXPECT_EQ(device.critpath().dropped(), 3u);

  minijson::Value doc;
  ASSERT_TRUE(minijson::Parse(device.profile().ToJson(device), &doc));
  EXPECT_DOUBLE_EQ(doc.Find("kernel_trace_dropped")->number, 3.0);
  EXPECT_EQ(doc.Find("kernel_trace")->array.size(), 2u);

  device.critpath().Clear();
  EXPECT_EQ(device.critpath().dropped(), 0u);
}

TEST(DeviceTraceTest, KernelSlotAndUmEventsLandOnTracks) {
  SimParams params = SmallParams();
  params.num_warp_slots = 2;
  params.record_timeline = true;
  Device device(params);
  auto region = device.unified().Register(1 << 18);
  device.LaunchKernel(
      3,
      [&](WarpCtx& w, std::size_t t) {
        w.ChargeCompute(1000);
        w.UnifiedRead(region, t * params.um_page_bytes, 64);
      },
      "traced-kernel");

  minijson::Value doc;
  ASSERT_TRUE(minijson::Parse(
      ToChromeTraceJson(device.critpath(), device.params()), &doc));
  SpanMap spans, instants;
  ASSERT_NO_FATAL_FAILURE(ValidateTracks(doc, &spans, &instants));
  const std::vector<JsonSpan> kernels = SpansOf(spans, "kernel");
  ASSERT_EQ(kernels.size(), 1u);
  EXPECT_EQ(kernels[0].name, "traced-kernel");
  EXPECT_LT(kernels[0].begin, kernels[0].end);
  int slots = 0;
  for (const auto& [track, list] : spans) {
    for (const JsonSpan& s : list) {
      if (s.cat != "warp-slot") continue;
      ++slots;
      EXPECT_GE(track.second, 0);
      EXPECT_LT(track.second, 2);
    }
  }
  EXPECT_EQ(slots, 2);  // 3 tasks over 2 slots: both slots busy
  const std::vector<JsonSpan> faults = SpansOf(instants, "um-fault");
  EXPECT_EQ(faults.size(), 3u);
  for (const JsonSpan& f : faults) EXPECT_EQ(f.name, std::to_string(region));
  EXPECT_EQ(faults.size(), device.stats().um_page_faults);
}

TEST(DeviceTraceTest, EvictionEventsCarryVictimPage) {
  SimParams params = SmallParams();  // 16-page buffer
  params.record_timeline = true;
  Device device(params);
  auto region = device.unified().Register(1 << 20);
  device.LaunchKernel(1, [&](WarpCtx& w, std::size_t) {
    for (int p = 0; p < 17; ++p) {
      w.UnifiedRead(region, p * params.um_page_bytes, 8);
    }
  });
  bool saw_eviction = false;
  for (const InstantRecord& ev : device.critpath().instants()) {
    if (ev.kind == Instant::kUmEviction) {
      saw_eviction = true;
      EXPECT_EQ(ev.region, region);
      EXPECT_EQ(ev.page, 0u);  // LRU victim is the first page touched
    }
  }
  EXPECT_TRUE(saw_eviction);
}

// The acceptance property: a quickstart-style workload (triangle counting
// through the engine) exports a parseable Chrome trace where every track
// is balanced and every kernel span is covered by an engine phase span;
// and the views computed from the one log agree with each other.
TEST(EngineTraceTest, QuickstartTimelinePhasesCoverKernels) {
  Rng rng(42);
  graph::Graph g = graph::Rmat(10, 6000, &rng);
  gpusim::SimParams params;
  params.device_memory_bytes = 16ull << 20;
  params.record_timeline = true;
  Device device(params);

  core::GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  auto result = algos::CountTriangles(&engine);
  ASSERT_TRUE(result.ok());
  const CommandLog& log = device.critpath();
  ASSERT_EQ(log.dropped(), 0u)
      << "raise the capacity: this test requires a complete trace";

  std::string json = ToChromeTraceJson(log, device.params());
  minijson::Value doc;
  ASSERT_TRUE(minijson::Parse(json, &doc));
  SpanMap spans, instants;
  ASSERT_NO_FATAL_FAILURE(ValidateTracks(doc, &spans, &instants));

  const std::vector<JsonSpan> kernels = SpansOf(spans, "kernel");
  const std::vector<JsonSpan> phases = SpansOf(spans, "phase");
  ASSERT_FALSE(kernels.empty());
  ASSERT_FALSE(phases.empty());
  for (const JsonSpan& k : kernels) {
    bool covered = false;
    for (const JsonSpan& p : phases) {
      if (p.begin <= k.begin && k.end <= p.end) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "kernel '" << k.name << "' [" << k.begin << ", "
                         << k.end << "] outside every phase span";
  }

  // The views agree: Chrome kernel spans == the profile's kernel_trace ==
  // the log's kernel records; phase spans == marker pairs.
  minijson::Value profile;
  ASSERT_TRUE(minijson::Parse(device.profile().ToJson(device), &profile));
  EXPECT_EQ(kernels.size(), profile.Find("kernel_trace")->array.size());
  EXPECT_EQ(kernels.size(), CountKind(log, Kind::kKernel));
  EXPECT_DOUBLE_EQ(profile.Find("kernel_trace_dropped")->number, 0.0);
  EXPECT_EQ(phases.size(), CountKind(log, Kind::kPhaseEnd));
  EXPECT_EQ(CountKind(log, Kind::kPhaseBegin), CountKind(log, Kind::kPhaseEnd));

  // Page-event instants agree with the hardware counters.
  EXPECT_EQ(SpansOf(instants, "um-fault").size(),
            device.stats().um_page_faults);
}

}  // namespace
}  // namespace gpm::gpusim
