#ifndef GAMMA_GPUSIM_PROFILE_H_
#define GAMMA_GPUSIM_PROFILE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "gpusim/stats.h"

namespace gpm::gpusim {

class Device;

/// One entry of the Device's open-phase stack (innermost last): a
/// PhaseScope phase, or a plan-profiler segment (`segment` = true) that
/// is not recorded into the RunProfile. It holds where its window starts.
struct OpenPhase {
  std::string name;
  bool segment = false;
  double start_cycles = 0;
  DeviceStats start_stats;
  std::size_t first_command = 0;  ///< first log index after the begin marker
};

/// What a closed phase covered: its simulated cycles, its counter deltas,
/// and the command-log index range [first_command, end_command) between
/// its begin and end markers.
struct PhaseWindow {
  double cycles = 0;
  DeviceStats delta;
  std::size_t first_command = 0;
  std::size_t end_command = 0;
};

/// One named slice of a run: simulated cycles spent inside the phase and
/// the hardware-counter deltas (UM faults/hits, ZC transactions, pool
/// traffic, ...) attributed to it. Same-named scopes accumulate.
struct PhaseRecord {
  std::string name;
  uint64_t invocations = 0;
  double cycles = 0;
  DeviceStats delta;
};

/// Per-run attribution of simulated time and memory traffic to named
/// phases (extension / filtering / aggregation / ...).
///
/// GAMMA's claims are about memory traffic per phase — page faults vs
/// 128 B zero-copy transactions during extension, pool behaviour during
/// writes — so the engine records every primitive call here via PhaseScope,
/// and ToJson() exports the breakdown (plus run totals and the kernel
/// table read from the command log) for offline diffing.
class RunProfile {
 public:
  /// Merges `cycles` and `delta` into the phase named `name` (created on
  /// first use; insertion order is preserved).
  void Record(std::string_view name, double cycles, const DeviceStats& delta);

  const std::vector<PhaseRecord>& phases() const { return phases_; }

  /// The record for `name`, or nullptr if that phase never ran.
  const PhaseRecord* Find(std::string_view name) const;

  void Clear() { phases_.clear(); }

  /// Full JSON document: run totals (clock, counters, peak memory), the
  /// per-phase breakdown, and the kernel table derived from the device's
  /// command log (empty unless the log was enabled). Pass the device the
  /// phases ran on.
  std::string ToJson(const Device& device) const;

 private:
  std::vector<PhaseRecord> phases_;
};

/// RAII phase bracket: opens `name` on the device's phase stack at
/// construction and closes it at destruction, which records the window's
/// clock and counter deltas into the device's RunProfile. While open, the
/// phase is what sanitizer findings and (while the log is enabled) the
/// command log's phase markers see.
class PhaseScope {
 public:
  PhaseScope(Device* device, std::string name);
  ~PhaseScope();

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  Device* device_;
};

}  // namespace gpm::gpusim

#endif  // GAMMA_GPUSIM_PROFILE_H_
