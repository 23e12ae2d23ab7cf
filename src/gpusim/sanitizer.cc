#include "gpusim/sanitizer.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/json.h"
#include "gpusim/device.h"

namespace gpm::gpusim {
namespace {

// Bound on remembered accesses per object. Racecheck compares each new
// access against this window; older records are evicted (and counted) like
// real racecheck's bounded shadow memory.
constexpr std::size_t kHistoryCap = 512;
// Adjacent same-epoch records coalesce against the most recent few entries,
// which keeps sequential fills (pool blocks, column writes) at O(1) records.
constexpr std::size_t kCoalesceWindow = 8;

}  // namespace

const char* Sanitizer::KindName(Kind kind) {
  switch (kind) {
    case Kind::kOutOfBounds:
      return "out-of-bounds";
    case Kind::kInvalidAccess:
      return "invalid-access";
    case Kind::kUninitRead:
      return "uninitialized-read";
    case Kind::kRace:
      return "race";
    case Kind::kLeak:
      return "leak";
    case Kind::kDoubleFree:
      return "double-free";
  }
  return "?";
}

const char* Sanitizer::CheckerName(Kind kind) {
  switch (kind) {
    case Kind::kOutOfBounds:
    case Kind::kInvalidAccess:
    case Kind::kLeak:
    case Kind::kDoubleFree:
      return "memcheck";
    case Kind::kUninitRead:
      return "initcheck";
    case Kind::kRace:
      return "racecheck";
  }
  return "?";
}

bool Sanitizer::ParseCheckList(std::string_view spec, Options* out) {
  Options opts;
  if (spec.empty() || spec == "1" || spec == "on" || spec == "true" ||
      spec == "all") {
    *out = opts;
    return true;
  }
  opts.memcheck = opts.initcheck = opts.racecheck = false;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    std::string_view tok =
        spec.substr(pos, comma == std::string_view::npos ? std::string_view::npos
                                                         : comma - pos);
    if (tok == "memcheck") {
      opts.memcheck = true;
    } else if (tok == "initcheck") {
      opts.initcheck = true;
    } else if (tok == "racecheck") {
      opts.racecheck = true;
    } else if (!tok.empty()) {
      return false;
    }
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  if (!opts.memcheck && !opts.initcheck && !opts.racecheck) return false;
  *out = opts;
  return true;
}

// -- Allocation lifetime -------------------------------------------------------

void Sanitizer::OnAlloc(uint64_t handle, std::size_t bytes, bool baseline) {
  if (handle == 0) return;
  ShadowObject& obj = objects_[handle];
  obj = ShadowObject();
  obj.handle = handle;
  obj.bytes = bytes;
  obj.baseline = baseline;
  if (baseline) obj.init.Add(0, bytes);
  if (!baseline) ++activity_.allocations;
}

void Sanitizer::OnFree(uint64_t handle) {
  ShadowObject* obj = FindObject(handle);
  if (obj == nullptr) return;
  obj->live = false;
  obj->history.clear();
  ++activity_.frees;
}

void Sanitizer::OnResize(uint64_t handle, std::size_t new_bytes) {
  ShadowObject* obj = FindObject(handle);
  if (obj == nullptr) return;
  obj->bytes = new_bytes;
}

void Sanitizer::OnBadFree(uint64_t handle) {
  ShadowObject* obj = FindObject(handle);
  if (obj != nullptr && !obj->live) {
    AddFinding(Kind::kDoubleFree, obj, /*context=*/"", /*task=*/0,
               kDefaultStream, 0, obj->bytes,
               "double free of " + ObjectName(obj));
  } else {
    AddFinding(Kind::kInvalidAccess, obj, /*context=*/"", /*task=*/0,
               kDefaultStream, 0, 0,
               "free of unknown device allocation handle " +
                   std::to_string(handle));
  }
}

void Sanitizer::OnRegionRegister(UnifiedMemory::RegionId region,
                                 std::size_t bytes, bool baseline) {
  uint64_t handle = RegionHandle(region);
  ShadowObject& obj = objects_[handle];
  obj = ShadowObject();
  obj.handle = handle;
  obj.bytes = bytes;
  obj.baseline = baseline;
  obj.is_region = true;
  obj.label = "region#" + std::to_string(region);
  // Regions are host arrays: their contents exist before device code runs.
  obj.init.Add(0, bytes);
}

void Sanitizer::OnRegionResize(UnifiedMemory::RegionId region,
                               std::size_t new_bytes) {
  ShadowObject* obj = FindObject(RegionHandle(region));
  if (obj == nullptr) return;
  obj->bytes = new_bytes;
  // Growth comes from a host-side Assign/Resize: initialized host data.
  obj->init.Add(0, new_bytes);
}

void Sanitizer::LabelObject(uint64_t handle, std::string label) {
  ShadowObject* obj = FindObject(handle);
  if (obj != nullptr) obj->label = std::move(label);
}

void Sanitizer::MarkInitialized(uint64_t handle) {
  ShadowObject* obj = FindObject(handle);
  if (obj != nullptr) obj->init.Add(0, obj->bytes);
}

uint64_t Sanitizer::RegisterScratch(std::string label, std::size_t bytes) {
  uint64_t handle = next_scratch_++;
  OnAlloc(handle, bytes);
  LabelObject(handle, std::move(label));
  return handle;
}

void Sanitizer::ReleaseScratch(uint64_t handle) { OnFree(handle); }

// -- Execution context ---------------------------------------------------------

void Sanitizer::EnsureStream(StreamId stream) {
  auto want = static_cast<std::size_t>(stream) + 1;
  if (vc_.size() >= want) return;
  for (auto& row : vc_) row.resize(want, 0);
  while (vc_.size() < want) vc_.emplace_back(want, 0);
}

bool Sanitizer::OrderedBefore(StreamId t, uint64_t k, StreamId s) const {
  if (t == s) return true;  // Same stream: program order.
  const auto& row = vc_[static_cast<std::size_t>(s)];
  uint64_t seen = static_cast<std::size_t>(t) < row.size()
                      ? row[static_cast<std::size_t>(t)]
                      : 0;
  return seen >= k;
}

void Sanitizer::BeginKernel(StreamId stream, const char* name) {
  EnsureStream(stream);
  ++vc_[static_cast<std::size_t>(stream)][static_cast<std::size_t>(stream)];
  in_kernel_ = true;
  kernel_stream_ = stream;
  kernel_name_ = name != nullptr ? name : "kernel";
}

void Sanitizer::EndKernel() {
  in_kernel_ = false;
  kernel_name_.clear();
  kernel_stream_ = kDefaultStream;
}

void Sanitizer::OnCommand(StreamId stream) {
  EnsureStream(stream);
  ++vc_[static_cast<std::size_t>(stream)][static_cast<std::size_t>(stream)];
}

uint64_t Sanitizer::OnEventRecord(StreamId stream) {
  EnsureStream(stream);
  ++activity_.events_recorded;
  event_snapshots_.emplace_back(stream, vc_[static_cast<std::size_t>(stream)]);
  return event_snapshots_.size();  // 1-based; 0 means "never recorded".
}

void Sanitizer::OnEventWait(StreamId stream, uint64_t seq) {
  if (seq == 0 || seq > event_snapshots_.size()) return;
  EnsureStream(stream);
  ++activity_.event_waits;
  const auto& snapshot = event_snapshots_[seq - 1].second;
  auto& row = vc_[static_cast<std::size_t>(stream)];
  for (std::size_t t = 0; t < snapshot.size(); ++t) {
    row[t] = std::max(row[t], snapshot[t]);
  }
}

void Sanitizer::OnSynchronize() {
  // Every stream joins every other: all rows become the pointwise max.
  if (vc_.empty()) return;
  std::vector<uint64_t> join(vc_.size(), 0);
  for (const auto& row : vc_) {
    for (std::size_t t = 0; t < row.size(); ++t) {
      join[t] = std::max(join[t], row[t]);
    }
  }
  for (auto& row : vc_) row = join;
}

void Sanitizer::OnFastForward(StreamId stream) {
  // FastForward places the stream after everything already submitted — the
  // same join as Synchronize, but only this stream's row learns it.
  EnsureStream(stream);
  auto& row = vc_[static_cast<std::size_t>(stream)];
  for (const auto& other : vc_) {
    for (std::size_t t = 0; t < other.size() && t < row.size(); ++t) {
      row[t] = std::max(row[t], other[t]);
    }
  }
}

// -- Accesses -------------------------------------------------------------------

void Sanitizer::OnWarpAccess(std::size_t task, uint64_t handle,
                             std::size_t offset, std::size_t bytes,
                             bool is_write) {
  if (handle == 0) return;
  ++activity_.device_accesses;
  StreamId stream = in_kernel_ ? kernel_stream_ : kDefaultStream;
  CheckAccess(handle, offset, bytes, is_write, /*check_init=*/true, stream,
              in_kernel_ ? kernel_name_ : std::string(), task);
}

void Sanitizer::OnUnifiedWarpAccess(std::size_t task,
                                    UnifiedMemory::RegionId region,
                                    std::size_t offset, std::size_t bytes) {
  ++activity_.unified_accesses;
  StreamId stream = in_kernel_ ? kernel_stream_ : kDefaultStream;
  CheckAccess(RegionHandle(region), offset, bytes, /*is_write=*/false,
              /*check_init=*/true, stream,
              in_kernel_ ? kernel_name_ : std::string(), task);
}

void Sanitizer::OnBulkAccess(StreamId stream, uint64_t handle,
                             std::size_t offset, std::size_t bytes,
                             bool is_write, const char* what) {
  // The transfer is its own command: bump the epoch *before* recording so
  // the access is not ordered before events recorded earlier on `stream`.
  OnCommand(stream);
  if (handle == 0) return;
  ++activity_.bulk_accesses;
  CheckAccess(handle, offset, bytes, is_write, /*check_init=*/false, stream,
              what != nullptr ? what : "copy", /*task=*/0);
}

void Sanitizer::OnKernelBulkAccess(uint64_t handle, std::size_t offset,
                                   std::size_t bytes, bool is_write,
                                   const char* what) {
  if (handle == 0) return;
  ++activity_.bulk_accesses;
  StreamId stream = in_kernel_ ? kernel_stream_ : kDefaultStream;
  CheckAccess(handle, offset, bytes, is_write, /*check_init=*/false, stream,
              what != nullptr ? what : "copy", /*task=*/0);
}

void Sanitizer::CheckAccess(uint64_t handle, std::size_t offset,
                            std::size_t bytes, bool is_write, bool check_init,
                            StreamId stream, const std::string& context,
                            std::size_t task) {
  ShadowObject* obj = FindObject(handle);
  const char* rw = is_write ? "write" : "read";
  if (options_.memcheck) {
    if (obj == nullptr) {
      AddFinding(Kind::kInvalidAccess, nullptr, context, task, stream, offset,
                 bytes,
                 std::string(rw) + " through unknown allocation handle " +
                     std::to_string(handle));
      return;
    }
    if (!obj->live) {
      AddFinding(Kind::kInvalidAccess, obj, context, task, stream, offset,
                 bytes,
                 std::string(rw) + " of freed allocation " + ObjectName(obj));
      return;
    }
    if (offset + bytes > obj->bytes) {
      AddFinding(Kind::kOutOfBounds, obj, context, task, stream, offset,
                 bytes,
                 std::string(rw) + " of [" + std::to_string(offset) + ", " +
                     std::to_string(offset + bytes) + ") overruns " +
                     ObjectName(obj) + " of " + std::to_string(obj->bytes) +
                     " bytes");
      return;
    }
  }
  if (obj == nullptr || !obj->live) return;
  // With memcheck off an out-of-range access must not corrupt the shadow.
  if (offset > obj->bytes) return;
  std::size_t end = std::min(offset + bytes, obj->bytes);
  if (options_.initcheck && check_init) {
    if (is_write) {
      obj->init.Add(offset, end);
    } else {
      std::size_t gap = obj->init.FirstGap(offset, end);
      if (gap < end) {
        AddFinding(Kind::kUninitRead, obj, context, task, stream, gap,
                   end - gap,
                   "read of never-written bytes of " + ObjectName(obj) +
                       " starting at offset " + std::to_string(gap));
        // Report each stale range once: later reads of the same bytes
        // dedupe anyway, and marking keeps the shadow cheap.
        obj->init.Add(offset, end);
      }
    }
  } else if (is_write) {
    obj->init.Add(offset, end);
  }
  if (options_.racecheck) {
    RecordAccess(obj, stream, offset, end, is_write, task, context);
  }
}

void Sanitizer::RecordAccess(ShadowObject* obj, StreamId stream,
                             std::size_t begin, std::size_t end,
                             bool is_write, std::size_t task,
                             const std::string& context) {
  EnsureStream(stream);
  uint64_t clock =
      vc_[static_cast<std::size_t>(stream)][static_cast<std::size_t>(stream)];
  for (const ShadowAccess& a : obj->history) {
    if (a.stream == stream) continue;
    if (!(a.is_write || is_write)) continue;
    if (a.end <= begin || end <= a.begin) continue;
    if (OrderedBefore(a.stream, a.clock, stream)) continue;
    std::ostringstream msg;
    msg << "unsynchronized " << (is_write ? "write" : "read")
        << " on stream " << stream << " overlaps "
        << (a.is_write ? "write" : "read") << " by '" << a.context
        << "' on stream " << a.stream << " in " << ObjectName(obj)
        << " (bytes [" << std::max(begin, a.begin) << ", "
        << std::min(end, a.end) << "))";
    AddFinding(Kind::kRace, obj, context, task, stream, begin, end - begin,
               msg.str(), /*extra_key=*/a.context);
    break;  // One finding per access; more pairs add nothing new.
  }
  // Coalesce into a recent record when this access extends it.
  std::size_t n = obj->history.size();
  for (std::size_t i = n; i-- > 0 && i + kCoalesceWindow >= n;) {
    ShadowAccess& r = obj->history[i];
    if (r.stream == stream && r.clock == clock && r.is_write == is_write &&
        r.context == context && begin <= r.end && end >= r.begin) {
      r.begin = std::min(r.begin, begin);
      r.end = std::max(r.end, end);
      return;
    }
  }
  if (obj->history.size() >= kHistoryCap) {
    std::size_t drop = kHistoryCap / 2;
    obj->history.erase(obj->history.begin(),
                       obj->history.begin() +
                           static_cast<std::ptrdiff_t>(drop));
    obj->history_dropped += drop;
  }
  ShadowAccess rec;
  rec.stream = stream;
  rec.clock = clock;
  rec.begin = begin;
  rec.end = end;
  rec.is_write = is_write;
  rec.task = task;
  rec.context = context;
  obj->history.push_back(std::move(rec));
}

// -- Reporting -------------------------------------------------------------------

void Sanitizer::FinalizeLeakCheck() {
  if (leak_check_done_ || !options_.memcheck) {
    leak_check_done_ = true;
    return;
  }
  leak_check_done_ = true;
  std::vector<const ShadowObject*> leaked;
  for (const auto& [handle, obj] : objects_) {
    if (obj.live && !obj.baseline && !obj.is_region) leaked.push_back(&obj);
  }
  std::sort(leaked.begin(), leaked.end(),
            [](const ShadowObject* a, const ShadowObject* b) {
              return a->handle < b->handle;
            });
  for (const ShadowObject* obj : leaked) {
    AddFinding(Kind::kLeak, obj, /*context=*/"", /*task=*/0, kDefaultStream,
               0, obj->bytes,
               "leaked device allocation " + ObjectName(obj) + " (" +
                   std::to_string(obj->bytes) + " bytes)");
  }
}

std::string Sanitizer::CurrentPhase() const {
  if (phases_ == nullptr) return std::string();
  for (auto it = phases_->rbegin(); it != phases_->rend(); ++it) {
    if (!it->segment) return it->name;
  }
  return std::string();
}

void Sanitizer::AddFinding(Kind kind, const ShadowObject* obj,
                           const std::string& context, std::size_t task,
                           StreamId stream, std::size_t offset,
                           std::size_t bytes, std::string message,
                           const std::string& extra_key) {
  ++total_occurrences_;
  std::string object = ObjectName(obj);
  std::string phase = CurrentPhase();
  std::string key = std::string(KindName(kind)) + '|' + object + '|' +
                    context + '|' + phase;
  if (!extra_key.empty()) key += '|' + extra_key;
  auto it = finding_index_.find(key);
  if (it != finding_index_.end()) {
    ++findings_[it->second].occurrences;
    return;
  }
  if (findings_.size() >= options_.max_findings) {
    ++dropped_findings_;
    return;
  }
  Finding f;
  f.kind = kind;
  f.message = std::move(message);
  f.object = std::move(object);
  f.kernel = context;
  f.phase = std::move(phase);
  f.task = task;
  f.stream = stream;
  f.offset = offset;
  f.bytes = bytes;
  f.first_cycles = now_cycles_ != nullptr ? *now_cycles_ : 0.0;
  finding_index_.emplace(std::move(key), findings_.size());
  findings_.push_back(std::move(f));
}

std::string Sanitizer::ObjectName(const ShadowObject* obj) const {
  if (obj == nullptr) return "<unknown>";
  if (!obj->label.empty()) return obj->label;
  return "alloc#" + std::to_string(obj->handle);
}

ShadowObject* Sanitizer::FindObject(uint64_t handle) {
  auto it = objects_.find(handle);
  return it != objects_.end() ? &it->second : nullptr;
}

void Sanitizer::TestOnlyPoison(uint64_t handle) {
  ShadowObject* obj = FindObject(handle);
  if (obj != nullptr) obj->init.Clear();
}

std::string Sanitizer::ReportText() const {
  std::ostringstream os;
  os << "gpusim-check: " << findings_.size() << " finding(s), "
     << total_occurrences_ << " occurrence(s)";
  if (dropped_findings_ > 0) os << ", " << dropped_findings_ << " dropped";
  os << '\n';
  for (const Finding& f : findings_) {
    os << "  [" << CheckerName(f.kind) << "] " << KindName(f.kind) << ": "
       << f.message;
    if (!f.kernel.empty()) os << " | kernel '" << f.kernel << "'";
    if (!f.phase.empty()) os << " | phase '" << f.phase << "'";
    os << " | task " << f.task << " stream " << f.stream;
    if (f.occurrences > 1) os << " | x" << f.occurrences;
    os << '\n';
  }
  return os.str();
}

std::string Sanitizer::ToJson() const {
  uint64_t per_checker[3] = {0, 0, 0};
  for (const Finding& f : findings_) {
    std::string_view checker = CheckerName(f.kind);
    if (checker == "memcheck") ++per_checker[0];
    if (checker == "initcheck") ++per_checker[1];
    if (checker == "racecheck") ++per_checker[2];
  }
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.Key("schema").Value("gamma.check.v1");
  w.Key("checkers").BeginObject();
  w.Key("memcheck").Value(options_.memcheck);
  w.Key("initcheck").Value(options_.initcheck);
  w.Key("racecheck").Value(options_.racecheck);
  w.EndObject();
  w.Key("summary").BeginObject();
  w.Key("total").Value(findings_.size());
  w.Key("memcheck").Value(per_checker[0]);
  w.Key("initcheck").Value(per_checker[1]);
  w.Key("racecheck").Value(per_checker[2]);
  w.Key("occurrences").Value(total_occurrences_);
  w.Key("dropped_findings").Value(dropped_findings_);
  w.EndObject();
  w.Key("checked").BeginObject();
  w.Key("device_accesses").Value(activity_.device_accesses);
  w.Key("unified_accesses").Value(activity_.unified_accesses);
  w.Key("bulk_accesses").Value(activity_.bulk_accesses);
  w.Key("allocations").Value(activity_.allocations);
  w.Key("frees").Value(activity_.frees);
  w.Key("events_recorded").Value(activity_.events_recorded);
  w.Key("event_waits").Value(activity_.event_waits);
  w.EndObject();
  w.Key("findings").BeginArray();
  for (const Finding& f : findings_) {
    w.BeginObject();
    w.Key("kind").Value(KindName(f.kind));
    w.Key("checker").Value(CheckerName(f.kind));
    w.Key("message").Value(f.message);
    w.Key("object").Value(f.object);
    w.Key("kernel").Value(f.kernel);
    w.Key("phase").Value(f.phase);
    w.Key("task").Value(f.task);
    w.Key("stream").Value(f.stream);
    w.Key("offset").Value(f.offset);
    w.Key("bytes").Value(f.bytes);
    w.Key("occurrences").Value(f.occurrences);
    w.Key("first_cycles").Value(f.first_cycles);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  os << '\n';
  return os.str();
}

SanitizerScratch::SanitizerScratch(Device* device, std::string label,
                                   std::size_t bytes) {
  sanitizer_ = device != nullptr ? device->sanitizer() : nullptr;
  if (sanitizer_ != nullptr) {
    handle_ = sanitizer_->RegisterScratch(std::move(label), bytes);
  }
}

SanitizerScratch::~SanitizerScratch() {
  if (sanitizer_ != nullptr && handle_ != 0) {
    sanitizer_->ReleaseScratch(handle_);
  }
}

}  // namespace gpm::gpusim
