#include "gpusim/trace.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.h"

namespace gpm::gpusim {

namespace {

// Track layout of the exported trace. Device-level tracks share one
// "process"; warp slots get their own so Perfetto collapses them together.
// Kernel/copy spans from the default stream keep the classic "kernels"
// thread; each additional stream renders as its own thread starting at
// kStreamTidBase + stream, so overlapped streams appear as parallel lanes.
constexpr int kDevicePid = 1;
constexpr int kKernelTid = 1;
constexpr int kPhaseTid = 2;
constexpr int kUmTid = 3;
constexpr int kStreamTidBase = 3;  // stream s >= 1 -> tid kStreamTidBase + s
constexpr int kWarpSlotPid = 2;
// Adaptivity decisions get their own process: stream tids are unbounded
// within kDevicePid, so a fixed device-side tid could collide with one.
constexpr int kAdaptivityPid = 3;
constexpr int kAdaptivityTid = 1;

int StreamTid(int stream) {
  return stream == 0 ? kKernelTid : kStreamTidBase + stream;
}

using Instant = prof::InstantRecord::Kind;

const char* InstantName(Instant kind) {
  switch (kind) {
    case Instant::kUmFault:
      return "um-fault";
    case Instant::kUmHit:
      return "um-hit";
    case Instant::kUmEviction:
      return "um-evict";
    case Instant::kUmPrefetch:
      return "um-prefetch";
    case Instant::kAdaptivity:
      return "adaptivity-plan";
  }
  return "?";
}

// One span read off the log, in [begin, end] cycles on a (pid, tid) track.
struct Span {
  const char* cat;
  std::string_view name;
  double begin;
  double end;
};

// One emitted Chrome event ("B", "E", or "i") awaiting per-track ordering.
struct EmitEvent {
  double ts;
  // Order among equal timestamps: a closing "E" precedes the "B" that
  // starts the next span (adjacent kernels share a boundary), except that
  // a zero-length span keeps its own "B" first so pairs stay balanced.
  int rank;
  // Tie-break among same-ts "B"s (enclosing span first) and "E"s
  // (innermost span first).
  double tie;
  char ph;
  const Span* span;                     // "B"/"E"
  const prof::InstantRecord* instant;  // "i"
};

bool EmitOrder(const EmitEvent& a, const EmitEvent& b) {
  if (a.ts != b.ts) return a.ts < b.ts;
  if (a.rank != b.rank) return a.rank < b.rank;
  return a.tie < b.tie;
}

}  // namespace

std::string ToChromeTraceJson(const prof::CommandLog& log,
                              const SimParams& params) {
  using Kind = prof::CommandRecord::Kind;
  auto to_us = [&params](double cycles) {
    return params.CyclesToSeconds(cycles) * 1e6;
  };

  // Read the spans off the log in log order, which is each track's
  // recording order.
  std::vector<std::pair<std::pair<int, int>, Span>> spans;
  std::set<int> slot_tids;
  std::set<int> stream_tids;  // non-default streams needing a thread name
  std::vector<const prof::CommandRecord*> open_phases;
  for (const prof::CommandRecord& rec : log.commands()) {
    switch (rec.kind) {
      case Kind::kKernel:
      case Kind::kCopy: {
        const bool kernel = rec.kind == Kind::kKernel;
        spans.push_back({{kDevicePid, StreamTid(rec.stream)},
                         {kernel ? "kernel" : "copy", rec.name, rec.start,
                          rec.end}});
        if (rec.stream != kDefaultStream) stream_tids.insert(rec.stream);
        // Slot runs start after the launch overhead; they always nest
        // inside the kernel span.
        const double work_start = rec.start + rec.launch_cycles;
        for (std::size_t s = 0; s < rec.slot_finish.size(); ++s) {
          if (rec.slot_finish[s] <= 0) continue;
          const int slot = static_cast<int>(s);
          slot_tids.insert(slot);
          spans.push_back({{kWarpSlotPid, slot},
                           {"warp-slot", rec.name, work_start,
                            work_start + rec.slot_finish[s]}});
        }
        break;
      }
      case Kind::kPhaseBegin:
        open_phases.push_back(&rec);
        break;
      case Kind::kPhaseEnd: {
        // A log enabled mid-phase holds ends without begins.
        if (open_phases.empty()) break;
        const prof::CommandRecord* begin = open_phases.back();
        open_phases.pop_back();
        if (!rec.segment) {
          spans.push_back({{kDevicePid, kPhaseTid},
                           {"phase", rec.name, begin->start, rec.start}});
        }
        break;
      }
      default:
        break;
    }
  }

  // Bucket events per (pid, tid) track, splitting spans into B/E pairs.
  std::map<std::pair<int, int>, std::vector<EmitEvent>> tracks;
  for (const auto& [track, span] : spans) {
    std::vector<EmitEvent>& out = tracks[track];
    const bool zero_length = span.end <= span.begin;
    out.push_back({span.begin, 2, -span.end, 'B', &span, nullptr});
    out.push_back(
        {span.end, zero_length ? 3 : 0, -span.begin, 'E', &span, nullptr});
  }
  bool has_adaptivity = false;
  for (const prof::InstantRecord& ev : log.instants()) {
    std::pair<int, int> track{kDevicePid, kUmTid};
    if (ev.kind == Instant::kAdaptivity) {
      track = {kAdaptivityPid, kAdaptivityTid};
      has_adaptivity = true;
    }
    tracks[track].push_back({ev.ts, 1, 0.0, 'i', nullptr, &ev});
  }

  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.Key("displayTimeUnit").Value("ms");
  w.Key("otherData").BeginObject();
  w.Key("schema").Value("gamma.trace.v1");
  w.Key("clock_ghz").Value(params.clock_ghz);
  w.Key("capacity").Value(log.capacity());
  w.Key("dropped_events").Value(log.dropped());
  w.EndObject();

  w.Key("traceEvents").BeginArray();

  auto meta = [&w](const char* what, int pid, int tid,
                   const std::string& name) {
    w.BeginObject();
    w.Key("ph").Value("M");
    w.Key("name").Value(what);
    w.Key("pid").Value(pid);
    w.Key("tid").Value(tid);
    w.Key("args").BeginObject().Key("name").Value(name).EndObject();
    w.EndObject();
  };
  meta("process_name", kDevicePid, 0, "gamma-sim");
  meta("thread_name", kDevicePid, kKernelTid, "kernels");
  meta("thread_name", kDevicePid, kPhaseTid, "phases");
  meta("thread_name", kDevicePid, kUmTid, "um-pages");
  for (int stream : stream_tids) {
    meta("thread_name", kDevicePid, StreamTid(stream),
         "stream " + std::to_string(stream));
  }
  if (!slot_tids.empty()) {
    meta("process_name", kWarpSlotPid, 0, "warp-slots");
    for (int slot : slot_tids) {
      meta("thread_name", kWarpSlotPid, slot,
           "slot " + std::to_string(slot));
    }
  }
  if (has_adaptivity) {
    meta("process_name", kAdaptivityPid, 0, "adaptivity");
    meta("thread_name", kAdaptivityPid, kAdaptivityTid, "decisions");
  }

  for (auto& [track, emits] : tracks) {
    std::stable_sort(emits.begin(), emits.end(), EmitOrder);
    for (const EmitEvent& e : emits) {
      w.BeginObject();
      w.Key("ph").Value(std::string_view(&e.ph, 1));
      w.Key("ts").Value(to_us(e.ts));
      w.Key("pid").Value(track.first);
      w.Key("tid").Value(track.second);
      if (e.ph == 'B') {
        w.Key("name").Value(e.span->name);
        w.Key("cat").Value(e.span->cat);
      } else if (e.ph == 'i') {
        const prof::InstantRecord& ev = *e.instant;
        const bool adaptivity = ev.kind == Instant::kAdaptivity;
        w.Key("name").Value(InstantName(ev.kind));
        w.Key("cat").Value(adaptivity ? "adaptivity" : "um");
        w.Key("s").Value("t");
        w.Key("args").BeginObject();
        if (adaptivity) {
          // The region/page slots carry the decision payload instead.
          w.Key("extension").Value(ev.region);
          w.Key("unified_pages").Value(ev.page);
        } else {
          w.Key("region").Value(ev.region);
          w.Key("page").Value(ev.page);
        }
        w.EndObject();
      }
      w.EndObject();
    }
  }

  w.EndArray();
  w.EndObject();
  os << '\n';
  return os.str();
}

}  // namespace gpm::gpusim
