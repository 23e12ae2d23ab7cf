#ifndef MINEBENCH_WORKLOADS_H_
#define MINEBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "gpusim/stats.h"

namespace minebench {

enum class Task { kFrequentMining, kKClique, kMatch };

/// One benchmark workload: a dataset proxy, a mining task compiled the way
/// a user would compile it, and the host threads of the simulated device.
/// Every workload runs on the bench-scale device (4 MiB device, 256 KiB
/// page buffer, 2 MiB extension pool, hybrid placement).
struct Workload {
  std::string name;
  std::string dataset;
  Task task;
  int host_threads;
  /// Proxy graphs mined per run. One proxy's result size swings by up to a
  /// third from seed to seed, so a run averages over a batch of them.
  int graphs;
};

const std::vector<Workload>& Workloads();
/// nullptr when `name` names no workload.
const Workload* FindWorkload(std::string_view name);

/// The MakeDataset seeds of a run's batch: `seed` itself first, then
/// seeds derived from it.
std::vector<uint64_t> GraphSeeds(const Workload& workload, uint64_t seed);

/// The CPU reference result a workload's mining call must reproduce.
struct Oracle {
  uint64_t count = 0;  ///< cliques / embeddings / frequent patterns
  /// Frequent mining only: canonical pattern code -> support.
  std::map<uint64_t, uint64_t> supports;
  /// Host time of the oracle call itself, taken when the oracle is computed
  /// and kept with its result.
  double host_s = 0;
};

/// Generates the workload's graph from `seed` and runs the CPU oracle
/// (CpuFpmEmbeddingCentric / CpuKClique / CpuSubgraphMatch) on it.
Oracle ComputeOracle(const Workload& workload, uint64_t seed);
std::string FormatOracle(const Workload& workload, uint64_t seed,
                         const Oracle& oracle);
/// Fails unless `text` is a FormatOracle document for this workload and
/// seed.
gpm::Result<Oracle> ParseOracle(const std::string& text,
                                const Workload& workload, uint64_t seed);

/// Everything a mining call produces on the simulated side. Two runs on the
/// same inputs must agree on all of it, whatever the host threads and
/// whether tracing is on.
struct SimOutputs {
  uint64_t count = 0;
  std::map<uint64_t, uint64_t> supports;
  double sim_ms = 0;
  gpm::gpusim::DeviceStats stats;
  std::size_t peak_device_bytes = 0;
  std::size_t peak_host_bytes = 0;
  double link_busy_cycles = 0;
};

/// Empty when `a` and `b` are bit-identical; otherwise names the first
/// field that differs.
std::string DescribeSimDifference(const SimOutputs& a, const SimOutputs& b);

/// Empty when `sim` carries the oracle's result; otherwise describes the
/// first disagreement.
std::string CheckAgainstOracle(const Workload& workload,
                               const SimOutputs& sim, const Oracle& oracle);

/// Host wall-time spans, in seconds, around the public calls of one
/// repetition.
struct Spans {
  double generate_s = 0;  ///< MakeDataset + EnsureEdgeIndex
  double prepare_s = 0;   ///< GammaEngine::Prepare
  double setup_s = 0;     ///< generate + Device/engine construction + prepare
  double compile_s = 0;   ///< PatternCompiler::Compile*
  double verify_s = 0;    ///< VerifiedPlan::Make
  double run_s = 0;       ///< CompiledEngine::Run
  double host_s = 0;      ///< compile + verify + run, one span
};

/// One timed repetition: fresh graph, fresh device, one mining call.
struct Repetition {
  gpm::Status status;
  Spans spans;
  SimOutputs sim;
  /// Per-layer counters read through public accessors after the call. The
  /// plan-profiler, adaptivity-audit and critical-path fields are present
  /// only for traced repetitions.
  std::map<std::string, double> layers;
};

struct RepOptions {
  /// Turns on record_commands, plan_profile and adaptivity_audit.
  bool traced = false;
};

Repetition RunRepetition(const Workload& workload, uint64_t seed,
                         const RepOptions& options);

}  // namespace minebench

#endif  // MINEBENCH_WORKLOADS_H_
