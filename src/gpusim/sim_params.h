#ifndef GAMMA_GPUSIM_SIM_PARAMS_H_
#define GAMMA_GPUSIM_SIM_PARAMS_H_

#include <cstddef>
#include <cstdint>

namespace gpm::gpusim {

/// Cost-model parameters of the simulated CPU-GPU heterogeneous platform.
///
/// All latencies are expressed in simulated device cycles; the clock runs at
/// `clock_ghz`, so with the default 1 GHz one cycle equals one nanosecond.
/// Defaults are first-order approximations of a Tesla-V100-class device on
/// PCIe 3.0 x16, scaled so that the *relative* costs the paper exploits hold:
///  - a unified-memory page fault (fault handling + 4 KB migration) is two to
///    three orders of magnitude more expensive than a device-memory access;
///  - a zero-copy access pays per 128 B transaction but no fault and no
///    migration of unrequested bytes;
///  - device memory bandwidth is ~30x PCIe bandwidth.
struct SimParams {
  /// Clock rate used to convert cycles to seconds.
  double clock_ghz = 1.0;

  /// Threads per warp (SIMT width).
  int warp_size = 32;

  /// Number of warps resident on the device at once. Kernel latency is the
  /// makespan of warp tasks scheduled greedily onto this many slots.
  int num_warp_slots = 64;

  /// Fixed cost of launching a kernel (driver + dispatch).
  double kernel_launch_cycles = 2000.0;

  /// Host threads executing warp tasks. 1 = serial. With N > 1 the Device
  /// runs each kernel's task functions on a thread pool and then replays
  /// their recorded side effects in ascending task order on the launching
  /// thread, so every simulated quantity (cycles, DeviceStats, UM page
  /// state, traces, sanitizer findings) is bit-identical to the serial
  /// schedule. Purely a wall-clock knob; never changes simulation results.
  int host_threads = 1;

  // -- Device memory ------------------------------------------------------
  /// Total device ("global") memory. In-core systems must fit everything
  /// here; GAMMA only places write buffers and the UM page buffer here.
  std::size_t device_memory_bytes = 64ull << 20;  // 64 MiB

  /// Effective cost of one coalesced warp access to device memory. On a
  /// real device the ~400-cycle raw latency is hidden by warp-level
  /// parallelism and outstanding loads; the makespan model charges the
  /// *effective occupancy* of the access instead.
  double device_mem_latency_cycles = 40.0;

  /// Device memory streaming throughput in bytes per cycle (~512 GB/s).
  double device_bytes_per_cycle = 512.0;

  /// Per-thread-block synchronization cost (warp sync is free under SIMT).
  double block_sync_cycles = 100.0;

  /// Cost of one global atomic operation (memory-pool block grabbing).
  double atomic_cycles = 30.0;

  // -- PCIe link -----------------------------------------------------------
  /// Host-device link throughput in bytes per cycle (~16 GB/s).
  double pcie_bytes_per_cycle = 16.0;

  /// Effective per-request overhead on the link (first transaction of a
  /// zero-copy access; raw latency is partially hidden by outstanding
  /// requests).
  double pcie_latency_cycles = 250.0;

  // -- Unified memory ------------------------------------------------------
  /// Migration granularity on a page fault.
  std::size_t um_page_bytes = 4096;

  /// Page-fault handling cost (fault + driver + TLB shootdown), excluding
  /// the migration itself which is charged by size over the link.
  double page_fault_cycles = 20000.0;

  /// Device-side buffer for migrated pages (carved out of device memory by
  /// the Device at construction).
  std::size_t um_device_buffer_bytes = 8ull << 20;  // 8 MiB

  // -- Zero-copy memory ----------------------------------------------------
  /// Transaction granularity for zero-copy accesses.
  std::size_t zc_transaction_bytes = 128;

  /// Additional warp stall per zero-copy transaction beyond the first
  /// (transactions pipeline on the link).
  double zc_pipelined_cycles = 8.0;

  // -- Observability -------------------------------------------------------
  /// Arms the gamma-prof command log at construction (see
  /// gpusim/critpath.h). Pure observation: recording never changes
  /// simulated results.
  bool record_commands = false;

  /// Arms the command log at construction with its timeline detail (UM
  /// page and adaptivity instants, per-slot finish times), so harnesses
  /// that build the Device behind a helper can export traces.
  bool record_timeline = false;

  double CyclesToSeconds(double cycles) const {
    return cycles * 1e-9 / clock_ghz;
  }
  double CyclesToMillis(double cycles) const {
    return CyclesToSeconds(cycles) * 1e3;
  }

  /// A Tesla-V100-class configuration (the paper's card): 16 GB device
  /// memory, a 1 GB managed-page buffer, 1024 resident warp slots. Use for
  /// full-scale runs; the benches use scaled-down proxies instead so that
  /// the data-to-device ratio matches the paper's at laptop scale.
  static SimParams V100() {
    SimParams p;
    p.device_memory_bytes = 16ull << 30;
    p.um_device_buffer_bytes = 1ull << 30;
    p.num_warp_slots = 1024;
    return p;
  }

  /// The bench-scale configuration: 4 MiB device, 256 KiB page buffer —
  /// the same ratios against the Table II proxies as V100-vs-paper-data.
  static SimParams BenchScale() {
    SimParams p;
    p.device_memory_bytes = 4ull << 20;
    p.um_device_buffer_bytes = 256ull << 10;
    return p;
  }
};

}  // namespace gpm::gpusim

#endif  // GAMMA_GPUSIM_SIM_PARAMS_H_
