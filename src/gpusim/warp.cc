#include "gpusim/warp.h"

#include <cmath>
#include <utility>

#include "gpusim/access_observer.h"
#include "gpusim/device.h"
#include "gpusim/sanitizer.h"

namespace gpm::gpusim {

const char* AccessModeName(AccessMode mode) {
  switch (mode) {
    case AccessMode::kDeviceResident:
      return "device";
    case AccessMode::kUnified:
      return "unified";
    case AccessMode::kZeroCopy:
      return "zero-copy";
  }
  return "?";
}

WarpCtx::WarpCtx(Device* device, std::size_t task_id)
    : device_(device), task_id_(task_id) {}

WarpCtx::WarpCtx(Device* device, std::size_t task_id, WarpTaskLog* log)
    : device_(device), task_id_(task_id), log_(log) {}

void WarpCtx::ChargeCompute(double cycles) {
  if (log_ != nullptr) {
    log_->ops.push_back({WarpOp::kChargeCompute, 0, 0, 0, cycles});
    return;
  }
  cycles_ += cycles;
  AddClassCycles(device_->EffectiveClass(ResourceClass::kCompute), cycles);
}

void WarpCtx::ChargeSimtWork(std::size_t elems, double cycles_per_step) {
  if (elems == 0) return;
  if (log_ != nullptr) {
    log_->ops.push_back({WarpOp::kChargeSimtWork, 0, elems, 0,
                         cycles_per_step});
    return;
  }
  const int w = device_->params().warp_size;
  std::size_t steps = (elems + w - 1) / w;
  const double charge = static_cast<double>(steps) * cycles_per_step;
  cycles_ += charge;
  AddClassCycles(device_->EffectiveClass(ResourceClass::kCompute), charge);
}

void WarpCtx::ChargeWarpScan() {
  if (log_ != nullptr) {
    log_->ops.push_back({WarpOp::kChargeWarpScan, 0, 0, 0, 0});
    return;
  }
  // log2(warp_size) shuffle rounds, one cycle each.
  const double charge =
      std::log2(static_cast<double>(device_->params().warp_size));
  cycles_ += charge;
  AddClassCycles(device_->EffectiveClass(ResourceClass::kCompute), charge);
}

void WarpCtx::ChargeAtomic() {
  if (log_ != nullptr) {
    log_->ops.push_back({WarpOp::kChargeAtomic, 0, 0, 0, 0});
    return;
  }
  cycles_ += device_->params().atomic_cycles;
  AddClassCycles(ResourceClass::kDram, device_->params().atomic_cycles);
}

void WarpCtx::ChargeBlockSync() {
  if (log_ != nullptr) {
    log_->ops.push_back({WarpOp::kChargeBlockSync, 0, 0, 0, 0});
    return;
  }
  cycles_ += device_->params().block_sync_cycles;
  AddClassCycles(device_->EffectiveClass(ResourceClass::kCompute),
                 device_->params().block_sync_cycles);
}

void WarpCtx::DeviceRead(std::size_t bytes) { DeviceRead(0, 0, bytes); }

void WarpCtx::DeviceWrite(std::size_t bytes) { DeviceWrite(0, 0, bytes); }

void WarpCtx::DeviceRead(DeviceMemory::AllocId alloc, std::size_t offset,
                         std::size_t bytes) {
  if (log_ != nullptr) {
    log_->ops.push_back({WarpOp::kDeviceRead, alloc, offset, bytes, 0});
    return;
  }
  const SimParams& p = device_->params();
  ++device_->stats().device_reads;
  device_->stats().device_read_bytes += bytes;
  const double charge = p.device_mem_latency_cycles +
                        static_cast<double>(bytes) / p.device_bytes_per_cycle;
  cycles_ += charge;
  AddClassCycles(ResourceClass::kDram, charge);
  if (alloc == 0) return;
  if (Sanitizer* san = device_->sanitizer()) {
    san->OnWarpAccess(task_id_, alloc, offset, bytes, /*is_write=*/false);
  }
}

void WarpCtx::DeviceWrite(DeviceMemory::AllocId alloc, std::size_t offset,
                          std::size_t bytes) {
  if (log_ != nullptr) {
    log_->ops.push_back({WarpOp::kDeviceWrite, alloc, offset, bytes, 0});
    return;
  }
  const SimParams& p = device_->params();
  ++device_->stats().device_writes;
  device_->stats().device_write_bytes += bytes;
  const double charge = p.device_mem_latency_cycles +
                        static_cast<double>(bytes) / p.device_bytes_per_cycle;
  cycles_ += charge;
  AddClassCycles(ResourceClass::kDram, charge);
  if (alloc == 0) return;
  if (Sanitizer* san = device_->sanitizer()) {
    san->OnWarpAccess(task_id_, alloc, offset, bytes, /*is_write=*/true);
  }
}

void WarpCtx::ZeroCopyRead(std::size_t bytes) {
  if (bytes == 0) return;
  if (log_ != nullptr) {
    log_->ops.push_back({WarpOp::kZeroCopyRead, 0, 0, bytes, 0});
    return;
  }
  const AccessCharge charge =
      ZeroCopyCharge(device_->params(), bytes, &device_->stats());
  cycles_ += charge.cycles;
  AddClassCycles(ResourceClass::kPcie, charge.cycles);
  AddPcieBytes(charge.pcie_bytes);
  if (AccessObserver* obs = device_->access_observer()) {
    obs->OnZeroCopy(bytes, charge.cycles);
  }
}

void WarpCtx::ZeroCopyWrite(std::size_t bytes) {
  // Symmetric cost model for writes from device to host memory.
  ZeroCopyRead(bytes);
}

void WarpCtx::UnifiedRead(UnifiedMemory::RegionId region, std::size_t offset,
                          std::size_t bytes) {
  if (log_ != nullptr) {
    log_->ops.push_back({WarpOp::kUnifiedRead, region, offset, bytes, 0});
    return;
  }
  if (Sanitizer* san = device_->sanitizer()) {
    san->OnUnifiedWarpAccess(task_id_, region, offset, bytes);
  }
  AccessCharge charge = device_->unified().Access(region, offset, bytes);
  cycles_ += charge.cycles;
  AddClassCycles(ResourceClass::kDram, charge.hit_cycles);
  AddClassCycles(ResourceClass::kUm, charge.fault_cycles);
  if (charge.pcie_bytes > 0) AddPcieBytes(charge.pcie_bytes);
}

void WarpCtx::Defer(std::function<void(WarpCtx&)> fn) {
  if (log_ != nullptr) {
    log_->ops.push_back(
        {WarpOp::kCallback, 0, log_->callbacks.size(), 0, 0});
    log_->callbacks.push_back(std::move(fn));
    return;
  }
  fn(*this);
}

void WarpCtx::Replay(const WarpTaskLog& log) {
  for (const WarpOp& op : log.ops) {
    switch (op.kind) {
      case WarpOp::kChargeCompute:
        ChargeCompute(op.d);
        break;
      case WarpOp::kChargeSimtWork:
        ChargeSimtWork(op.a, op.d);
        break;
      case WarpOp::kChargeWarpScan:
        ChargeWarpScan();
        break;
      case WarpOp::kChargeAtomic:
        ChargeAtomic();
        break;
      case WarpOp::kChargeBlockSync:
        ChargeBlockSync();
        break;
      case WarpOp::kDeviceRead:
        DeviceRead(op.id, op.a, op.b);
        break;
      case WarpOp::kDeviceWrite:
        DeviceWrite(op.id, op.a, op.b);
        break;
      case WarpOp::kZeroCopyRead:
        ZeroCopyRead(op.b);
        break;
      case WarpOp::kUnifiedRead:
        UnifiedRead(static_cast<UnifiedMemory::RegionId>(op.id), op.a, op.b);
        break;
      case WarpOp::kAddPcieBytes:
        AddPcieBytes(op.b);
        break;
      case WarpOp::kCallback:
        log.callbacks[op.a](*this);
        break;
    }
  }
}

}  // namespace gpm::gpusim
