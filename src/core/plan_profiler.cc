#include "core/plan_profiler.h"

#include <algorithm>
#include <atomic>
#include <sstream>

#include "common/json.h"
#include "common/logging.h"
#include "gpusim/critpath.h"

namespace gpm::core {
namespace {

// Process-wide marker-name sequence: several runs may share one device
// command log (benches reuse a device across iterations), and the critpath
// analyzer accumulates same-named phase instances, so every run's markers
// get a fresh prefix.
std::atomic<uint64_t> g_planprof_seq{0};

// Q-error with both sides clamped at one row, so empty levels and
// sub-row estimates stay finite and hand-computable: q(est, act) =
// max(est', act') / min(est', act') >= 1.
double QError(double est_rows, uint64_t rows) {
  const double e = std::max(est_rows, 1.0);
  const double r = std::max(static_cast<double>(rows), 1.0);
  return std::max(e / r, r / e);
}

// Canonical left-to-right fold, mirrored by tools/validate_bench_json.py.
double FoldSum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

// max/mean over a slot histogram; 0 when the histogram carries no work.
double Imbalance(const std::vector<double>& hist, double* max_out,
                 double* mean_out) {
  *max_out = 0.0;
  *mean_out = 0.0;
  if (hist.empty()) return 0.0;
  double max = 0.0;
  for (double v : hist) max = std::max(max, v);
  const double mean = FoldSum(hist) / static_cast<double>(hist.size());
  *max_out = max;
  *mean_out = mean;
  if (max <= 0.0 || mean <= 0.0) return 0.0;
  return max / mean;
}

std::string MarkerName(uint64_t seq, const std::string& label) {
  std::ostringstream os;
  os << "planprof/" << seq << "/" << label;
  return os.str();
}

void WriteCounters(JsonWriter& w, const gpusim::DeviceStats& counters) {
  w.BeginObject();
  for (const auto& f : gpusim::DeviceStats::Fields()) {
    w.Key(f.name).Value(counters.*(f.member));
  }
  w.EndObject();
}

void WriteAttribution(JsonWriter& w,
                      const gpusim::ResourceCycles& attribution) {
  w.BeginObject();
  for (int c = 0; c < gpusim::kNumResourceClasses; ++c) {
    w.Key(gpusim::ResourceClassName(static_cast<gpusim::ResourceClass>(c)))
        .Value(attribution[static_cast<std::size_t>(c)]);
  }
  w.EndObject();
}

}  // namespace

void PlanProfiler::BeginRun(const CompiledPlan& plan,
                            gpusim::Device* device) {
  device_ = device;
  kind_ = PlanKindName(plan.kind);
  start_mode_ = plan.kind == PlanKind::kSubgraphMatch ||
                        plan.kind == PlanKind::kMotifCensus
                    ? StartModeName(plan.start)
                    : "edge-table";
  order_ = plan.order;
  segments_.clear();
  run_seq_ = g_planprof_seq.fetch_add(1, std::memory_order_relaxed);
  in_run_ = true;
  finished_ = false;
  attribution_available_ = false;
  partial_ = false;
  dropped_commands_ = 0;
  segment_open_ = false;
  run_begin_cycles_ = device_->now_cycles();
  total_cycles_ = 0;
}

void PlanProfiler::BeginSegment(PlanProfLevelInput input) {
  GAMMA_CHECK(in_run_) << "BeginSegment outside a run";
  GAMMA_CHECK(!segment_open_) << "nested planprof segments";
  PlanProfSegment seg;
  seg.label = std::move(input.label);
  seg.depth = input.depth;
  seg.has_estimate = input.has_estimate;
  seg.est_rows = input.est_rows;
  seg.intersect_width = input.intersect_width;
  seg.union_extension = input.union_extension;
  seg.has_strategy = input.has_strategy;
  seg.strategy = std::move(input.strategy);
  segments_.push_back(std::move(seg));
  segment_open_ = true;
  // The device's phase entry holds the segment's window. Its markers
  // carry no clock edge and are skipped by the critpath replay; they only
  // let the analyzer window this segment's commands.
  device_->BeginPhaseMark(MarkerName(run_seq_, segments_.back().label),
                          /*segment=*/true);
}

void PlanProfiler::EndSegment(uint64_t input_rows, uint64_t candidates,
                              uint64_t rows) {
  GAMMA_CHECK(segment_open_) << "EndSegment without BeginSegment";
  PlanProfSegment& seg = segments_.back();
  const gpusim::PhaseWindow window = device_->EndPhaseMark();
  segment_open_ = false;
  seg.cycles = window.cycles;
  seg.counters = window.delta;

  seg.input_rows = input_rows;
  seg.candidates = candidates;
  seg.rows = rows;
  seg.q_error = seg.has_estimate ? QError(seg.est_rows, rows) : 0.0;
  seg.selectivity = candidates > 0 ? static_cast<double>(rows) /
                                         static_cast<double>(candidates)
                                   : 0.0;

  // Per-warp-slot histogram over the window's kernel records.
  const auto& cmds = device_->critpath().commands();
  for (std::size_t i = window.first_command; i < window.end_command; ++i) {
    const prof::CommandRecord& rec = cmds[i];
    if (rec.kind != prof::CommandRecord::Kind::kKernel) continue;
    ++seg.kernels;
    seg.tasks += rec.tasks;
    seg.task_max_cycles = std::max(seg.task_max_cycles, rec.task_max_cycles);
    seg.task_total_cycles += rec.task_total_cycles;
    if (seg.slot_busy_cycles.size() < rec.slot_busy_cycles.size()) {
      seg.slot_busy_cycles.resize(rec.slot_busy_cycles.size(), 0.0);
    }
    for (std::size_t s = 0; s < rec.slot_busy_cycles.size(); ++s) {
      seg.slot_busy_cycles[s] += rec.slot_busy_cycles[s];
    }
  }
  seg.imbalance = Imbalance(seg.slot_busy_cycles, &seg.slot_max_cycles,
                            &seg.slot_mean_cycles);
}

void PlanProfiler::CloseOpenSegment() {
  if (!segment_open_) return;
  device_->EndPhaseMark();
  segment_open_ = false;
}

void PlanProfiler::AbortRun() {
  if (!in_run_) return;
  CloseOpenSegment();
  in_run_ = false;
  finished_ = false;
  segments_.clear();
}

void PlanProfiler::FinishRun() {
  GAMMA_CHECK(in_run_) << "FinishRun outside a run";
  GAMMA_CHECK(!segment_open_) << "FinishRun with an open segment";
  in_run_ = false;
  finished_ = true;
  total_cycles_ = device_->now_cycles() - run_begin_cycles_;
  dropped_commands_ = device_->critpath().dropped();
  partial_ = dropped_commands_ > 0;
  if (!device_->critpath().enabled()) return;

  // Windowed resource attribution: the critpath analyzer replays the
  // whole log (bit-exact) and attributes each marker-bracketed window;
  // the fold over classes equals the window's cycles exactly.
  auto report = prof::Analyze(*device_);
  if (!report.ok()) return;
  attribution_available_ = true;
  partial_ = partial_ || report.value().partial;
  for (PlanProfSegment& seg : segments_) {
    const prof::PhaseBottleneck* ph =
        report.value().FindPhase(MarkerName(run_seq_, seg.label));
    if (ph == nullptr) continue;
    seg.attributed = true;
    seg.attribution = ph->attribution;
    seg.binding = ph->binding;
  }
}

PlanProfSummary PlanProfiler::Summary() const {
  PlanProfSummary s;
  if (!finished_) return s;
  s.enabled = true;
  std::vector<double> run_hist;
  for (const PlanProfSegment& seg : segments_) {
    if (seg.has_estimate && seg.q_error > s.worst_q_error) {
      s.worst_q_error = seg.q_error;
      s.worst_q_error_depth = seg.depth;
    }
    if (run_hist.size() < seg.slot_busy_cycles.size()) {
      run_hist.resize(seg.slot_busy_cycles.size(), 0.0);
    }
    for (std::size_t i = 0; i < seg.slot_busy_cycles.size(); ++i) {
      run_hist[i] += seg.slot_busy_cycles[i];
    }
    PlanProfSummary::Level level;
    level.label = seg.label;
    level.depth = seg.depth;
    level.has_estimate = seg.has_estimate;
    level.est_rows = seg.est_rows;
    level.rows = seg.rows;
    level.q_error = seg.q_error;
    s.levels.push_back(std::move(level));
  }
  double max = 0.0;
  double mean = 0.0;
  s.imbalance = Imbalance(run_hist, &max, &mean);
  return s;
}

std::string PlanProfiler::ToJson() const {
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.Key("schema").Value("gamma.planprof.v1");
  w.Key("kind").Value(kind_);
  w.Key("start_mode").Value(start_mode_);
  w.Key("order").BeginArray();
  for (int v : order_) w.Value(v);
  w.EndArray();
  w.Key("finished").Value(finished_);
  w.Key("partial").Value(partial_);
  w.Key("dropped_commands").Value(dropped_commands_);
  w.Key("attribution_available").Value(attribution_available_);
  w.Key("total_cycles").Value(total_cycles_);
  w.Key("levels").BeginArray();
  for (const PlanProfSegment& seg : segments_) {
    w.BeginObject();
    w.Key("label").Value(seg.label);
    w.Key("depth").Value(seg.depth);
    w.Key("has_estimate").Value(seg.has_estimate);
    w.Key("est_rows").Value(seg.est_rows);
    w.Key("input_rows").Value(seg.input_rows);
    w.Key("candidates").Value(seg.candidates);
    w.Key("rows").Value(seg.rows);
    w.Key("q_error").Value(seg.q_error);
    w.Key("selectivity").Value(seg.selectivity);
    w.Key("intersect_width").Value(seg.intersect_width);
    w.Key("union_extension").Value(seg.union_extension);
    if (seg.has_strategy) {
      w.Key("strategy").BeginObject();
      w.Key("write_strategy").Value(seg.strategy.write_strategy);
      w.Key("write_strategy_source")
          .Value(seg.strategy.write_strategy_from_plan ? "plan" : "inherit");
      w.Key("pre_merge").Value(seg.strategy.pre_merge);
      w.Key("pre_merge_source")
          .Value(seg.strategy.pre_merge_from_plan ? "plan" : "inherit");
      w.Key("count_only").Value(seg.strategy.count_only);
      w.EndObject();
    }
    w.Key("cycles").Value(seg.cycles);
    w.Key("counters");
    WriteCounters(w, seg.counters);
    if (seg.attributed) {
      w.Key("attribution");
      WriteAttribution(w, seg.attribution);
      w.Key("binding").Value(gpusim::ResourceClassName(seg.binding));
    }
    w.Key("kernels").Value(seg.kernels);
    w.Key("tasks").Value(seg.tasks);
    w.Key("task_max_cycles").Value(seg.task_max_cycles);
    w.Key("task_total_cycles").Value(seg.task_total_cycles);
    w.Key("slots").BeginObject();
    w.Key("count").Value(seg.slot_busy_cycles.size());
    w.Key("busy_cycles").BeginArray();
    for (double v : seg.slot_busy_cycles) w.Value(v);
    w.EndArray();
    w.Key("max").Value(seg.slot_max_cycles);
    w.Key("mean").Value(seg.slot_mean_cycles);
    w.Key("imbalance").Value(seg.imbalance);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  const PlanProfSummary summary = Summary();
  w.Key("summary").BeginObject();
  w.Key("worst_q_error").Value(summary.worst_q_error);
  w.Key("worst_q_error_depth").Value(summary.worst_q_error_depth);
  w.Key("imbalance").Value(summary.imbalance);
  w.Key("levels").BeginArray();
  for (const PlanProfSummary::Level& level : summary.levels) {
    w.BeginObject();
    w.Key("label").Value(level.label);
    w.Key("depth").Value(level.depth);
    w.Key("has_estimate").Value(level.has_estimate);
    w.Key("est_rows").Value(level.est_rows);
    w.Key("rows").Value(level.rows);
    w.Key("q_error").Value(level.q_error);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  w.EndObject();
  os << "\n";
  return os.str();
}

}  // namespace gpm::core
