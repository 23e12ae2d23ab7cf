#ifndef GAMMA_GPUSIM_CRITPATH_H_
#define GAMMA_GPUSIM_CRITPATH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "gpusim/resource_class.h"
#include "gpusim/stream.h"

namespace gpm::gpusim {
class Device;
}  // namespace gpm::gpusim

/// gamma-prof: critical-path and resource-bottleneck analysis over the
/// simulated stream/event/kernel timeline.
///
/// The Device records one CommandRecord per timeline command (kernel
/// launch, explicit copy, host work, event wait, synchronize, ...) into a
/// CommandLog when enabled, plus a zero-duration begin/end marker wherever
/// a phase or plan-profiler segment opens or closes. The log is the
/// device's only timeline recorder: the Chrome trace (gpusim/trace.h), the
/// profile's kernel table and the plan profiler are views computed from it
/// after the run. `Analyze` rebuilds the dependency DAG from the log —
/// stream order, event edges, PCIe-link serialization — and computes the
/// critical path, per-span slack, per-phase binding resource, and what-if
/// projections that rescale one resource class and replay the DAG. A
/// command's phase is not stored on it: `Analyze` walks the markers and
/// gives each span the innermost phase open around it.
///
/// Exactness contract: the replay reuses the simulator's own arithmetic
/// (the same `max(ready, link_free) + transfer` / `work_start + makespan`
/// expressions on the same recorded doubles), so with all factors at 1.0
/// it reproduces every command end time — and the end-to-end total —
/// bit-exactly. Critical-path length is the replayed end-to-end time, so
/// on a complete single-stream log it equals the device clock with
/// tolerance zero.
namespace gpm::prof {

/// One command on the simulated timeline, captured at submission with the
/// cost decomposition the replay needs. Records are plain data so tests
/// can hand-build logs; `Analyze` validates the dependency indices.
struct CommandRecord {
  enum class Kind : uint8_t {
    kKernel,        // LaunchKernelAsync: launch + makespan + link window
    kCopy,          // explicit H2D/D2H transfer
    kHostWork,      // ChargeHostWork
    kEventWait,     // WaitEvent: max-join with a recorded event
    kSynchronize,   // device-wide join of all stream clocks
    kFastForward,   // FastForwardStream: max-join with "now"
    kCreateStream,  // stream creation (clock starts at the join point)
    kPhaseBegin,    // phase or segment open marker (zero duration)
    kPhaseEnd,      // phase or segment close marker (zero duration)
  };

  Kind kind = Kind::kHostWork;
  gpusim::StreamId stream = gpusim::kDefaultStream;
  std::string name;  ///< the command's label; a marker's phase name
  double start = 0;
  double end = 0;

  // Kernel decomposition.
  double launch_cycles = 0;  // fixed dispatch overhead (compute class)
  double makespan = 0;       // greedy-list-scheduling makespan over slots
  /// Per-class cycle sums of the *busiest* warp slot — the slot whose
  /// finish time is the makespan. Scaling these (against the recorded
  /// makespan) is what a what-if does to kernel compute time.
  gpusim::ResourceCycles busy{};

  // Host-work decomposition.
  double charge = 0;    // the exact cycles argument, for replay
  int8_t host_class =
      static_cast<int8_t>(gpusim::ResourceClass::kCompute);

  // Shared-link window (kernels with folded traffic, and copies).
  double latency = 0;        // copy pre-link latency (pcie_latency_cycles)
  double link_transfer = 0;  // transfer cycles on the link (0 = no window)
  double link_ready = 0;     // when the window could start
  double link_start = 0;     // when it did start (after contention)
  double link_end = 0;
  int32_t link_pred = -1;    // previous link-window command, -1 = none

  // Event-wait edge.
  int32_t wait_pred = -1;   // command whose completion the event marks
  double wait_cycles = 0;   // raw event timestamp (fallback when pred -1)

  // Per-slot work distribution (kernels only). slot_busy_cycles[s] is the
  // total busy cycles of warp slot s (folded over resource classes), one
  // entry per resident-warp slot; the per-task extremes feed the plan
  // profiler's load-imbalance histogram. Observation only: `Analyze`
  // replays the timeline from the fields above and never reads these.
  std::vector<double> slot_busy_cycles;
  uint64_t tasks = 0;
  double task_max_cycles = 0;
  double task_total_cycles = 0;
  /// Finish time of each warp slot in the greedy list schedule, relative
  /// to `start + launch_cycles`; filled only while the timeline is armed
  /// (SimParams::record_timeline). Every slot takes its next task the
  /// moment it frees up, so its busy time is the single run
  /// [0, slot_finish[s]] (empty when 0) — the Chrome trace's slot track.
  std::vector<double> slot_finish;

  /// Phase markers only: true for a plan-profiler segment, false for a
  /// PhaseScope. A segment is a phase like any other to `Analyze` (spans
  /// inside it take its name as their `phase`); the sanitizer and the
  /// trace's phase track skip segments.
  bool segment = false;
};

/// One instantaneous timeline event, recorded only while the timeline is
/// armed (SimParams::record_timeline): a unified-memory page event or a
/// hybrid placement decision, stamped with the device clock
/// (kernel-boundary resolution: all events of one kernel share its start).
/// Adaptivity decisions reuse `region`/`page` for the 1-based extension
/// index and the number of pages flagged for unified access.
struct InstantRecord {
  enum class Kind : uint8_t {
    kUmFault,     // page fault + migration
    kUmHit,       // access to a resident page
    kUmEviction,  // LRU eviction from the page buffer
    kUmPrefetch,  // bulk migration without fault penalty
    kAdaptivity,  // one hybrid placement decision
  };

  double ts = 0;
  uint64_t page = 0;
  uint32_t region = 0;
  Kind kind = Kind::kUmFault;
};

/// Bounded recorder for CommandRecords and InstantRecords, owned by the
/// Device. Appends are O(1); both lists share one capacity, and overflow
/// is counted in one drop counter (not silently truncated) that marks
/// every later analysis `partial`. The earliest entries win, so a
/// truncated log still starts at t=0. Pure observation: recording never
/// changes simulated results, and the records are bit-identical across
/// host-thread counts (ordered replay fills them on the launching thread).
class CommandLog {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 20;

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Bounds commands + instants together.
  void set_capacity(std::size_t capacity) { capacity_ = capacity; }
  std::size_t capacity() const { return capacity_; }

  const std::vector<CommandRecord>& commands() const { return commands_; }
  const std::vector<InstantRecord>& instants() const { return instants_; }
  uint64_t dropped() const { return dropped_; }

  void Clear() {
    commands_.clear();
    instants_.clear();
    last_on_stream_.clear();
    last_sync_ = -1;
    last_link_ = -1;
    dropped_ = 0;
  }

  /// Index of the last command that advanced `stream`'s clock (possibly a
  /// device-wide synchronize), or -1. This is what an event recorded on
  /// the stream depends on.
  int32_t last_on_stream(gpusim::StreamId stream) const {
    int32_t last = -1;
    if (stream >= 0 &&
        static_cast<std::size_t>(stream) < last_on_stream_.size()) {
      last = last_on_stream_[static_cast<std::size_t>(stream)];
    }
    return std::max(last, last_sync_);
  }

  /// Index of the last command holding a link window, or -1.
  int32_t last_link() const { return last_link_; }

  /// Appends `rec` and updates the per-stream / link bookkeeping. Returns
  /// the record's index, or -1 when the log is full (counted as dropped).
  int32_t Append(CommandRecord rec) {
    if (!Admit()) return -1;
    const int32_t idx = static_cast<int32_t>(commands_.size());
    switch (rec.kind) {
      case CommandRecord::Kind::kSynchronize:
        last_sync_ = idx;
        break;
      case CommandRecord::Kind::kPhaseBegin:
      case CommandRecord::Kind::kPhaseEnd:
        break;  // markers never carry a clock edge
      default: {
        const auto s = static_cast<std::size_t>(rec.stream);
        if (last_on_stream_.size() <= s) {
          last_on_stream_.resize(s + 1, -1);
        }
        last_on_stream_[s] = idx;
        break;
      }
    }
    // Copies always pass through AcquireLink (even zero-byte ones advance
    // the link head); kernels only do when they have folded traffic.
    if (rec.kind == CommandRecord::Kind::kCopy || rec.link_transfer > 0) {
      last_link_ = idx;
    }
    commands_.push_back(std::move(rec));
    return idx;
  }

  /// Appends an instant (no clock edge; `Analyze` never reads these).
  void AppendInstant(const InstantRecord& rec) {
    if (Admit()) instants_.push_back(rec);
  }

 private:
  /// False while disabled (uncounted) or full (counted as dropped).
  bool Admit() {
    if (!enabled_) return false;
    if (commands_.size() + instants_.size() >= capacity_) {
      ++dropped_;
      return false;
    }
    return true;
  }

  bool enabled_ = false;
  std::size_t capacity_ = kDefaultCapacity;
  std::vector<CommandRecord> commands_;
  std::vector<InstantRecord> instants_;
  std::vector<int32_t> last_on_stream_;
  int32_t last_sync_ = -1;
  int32_t last_link_ = -1;
  uint64_t dropped_ = 0;
};

/// How one replayed command's end time was determined.
enum class BindingEdge : int8_t {
  kNone = 0,   // external: the command's own recorded start (log prefix)
  kStream,     // program order on its stream
  kWait,       // an event-wait dependency
  kLink,       // serialization behind the previous PCIe-link window
};

/// One analyzed timeline node: actual times plus the dependency that bound
/// it and its first-order slack (how far its end could slip before some
/// successor chain pushes the end-to-end total).
struct SpanInfo {
  int32_t index = -1;
  CommandRecord::Kind kind = CommandRecord::Kind::kHostWork;
  std::string name;
  /// Innermost phase or segment whose markers enclose the command ("" when
  /// none does).
  std::string phase;
  gpusim::StreamId stream = gpusim::kDefaultStream;
  double start = 0;
  double end = 0;
  int32_t binding_pred = -1;
  BindingEdge binding_edge = BindingEdge::kNone;
  double slack = 0;
};

/// Per-phase attribution: class cycles fold-sum exactly to `cycles` (the
/// sync-idle residual closes the decomposition), and `binding` is the
/// class holding the largest share.
struct PhaseBottleneck {
  std::string name;
  uint64_t invocations = 0;
  double cycles = 0;
  gpusim::ResourceCycles attribution{};
  gpusim::ResourceClass binding = gpusim::ResourceClass::kSyncIdle;
};

/// One what-if projection: every charge of `resource` rescaled by
/// `cost_factor` (0.5 = "twice as fast") and the DAG replayed. The
/// projection is a lower bound: it keeps the recorded schedule shape
/// (slot assignment, link grant order) and only shrinks/stretches costs.
struct WhatIf {
  gpusim::ResourceClass resource = gpusim::ResourceClass::kCompute;
  double cost_factor = 1.0;
  double projected_cycles = 0;
  double speedup = 1.0;
};

struct CritpathReport {
  /// True when the command log overflowed: the DAG is a prefix of the
  /// run, the identity between critical path and end-to-end time no
  /// longer holds, and what-if projections are suppressed rather than
  /// computed from a truncated DAG.
  bool partial = false;
  uint64_t dropped_commands = 0;

  double total_cycles = 0;          // device end-to-end simulated time
  double critical_path_cycles = 0;  // replayed DAG end time (== total
                                    // bit-exactly on complete logs)
  std::size_t commands = 0;
  int streams = 0;

  /// Whole-run attribution along the critical chain (residual in
  /// sync_idle); folds exactly to `critical_path_cycles`.
  gpusim::ResourceCycles resource_cycles{};
  gpusim::ResourceClass binding = gpusim::ResourceClass::kSyncIdle;
  double pcie_link_utilization = 0;

  /// Every non-marker node with its binding edge and slack, in log order.
  std::vector<SpanInfo> spans;
  /// Node indices on the critical chain, source to sink.
  std::vector<int32_t> critical_path;

  std::vector<PhaseBottleneck> phases;
  std::vector<WhatIf> whatifs;  // empty when partial

  const PhaseBottleneck* FindPhase(const std::string& name) const {
    for (const PhaseBottleneck& ph : phases) {
      if (ph.name == name) return &ph;
    }
    return nullptr;
  }

  /// gamma.critpath.v1 JSON document.
  std::string ToJson() const;
};

struct AnalyzeOptions {
  double total_cycles = 0;       // device end-to-end clock
  double link_busy_cycles = 0;   // for the link-utilization gauge
  /// Cost factors applied per class for the what-if panel, in addition to
  /// the always-present factor-1.0 identity row. Empty = default panel
  /// (each scalable class at 0.5).
  std::vector<WhatIf> whatifs;
};

/// Rebuilds the dependency DAG from `log` and analyzes it. Fails with
/// InvalidArgument on malformed input: unbalanced phase begin/end markers
/// or dependency indices that point forward (which would make the "DAG"
/// cyclic).
Result<CritpathReport> Analyze(const CommandLog& log,
                               const AnalyzeOptions& options);

/// Convenience overload pulling log, clock, and link occupancy from a
/// finished device.
Result<CritpathReport> Analyze(const gpusim::Device& device);

}  // namespace gpm::prof

#endif  // GAMMA_GPUSIM_CRITPATH_H_
