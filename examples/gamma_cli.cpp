// gamma_cli — command-line driver for the framework: pick a dataset proxy
// (or load an edge list), a workload, and platform/framework options, run
// it on the simulated device, and print results plus hardware counters.
//
// Examples:
//   gamma_cli --dataset CL --task kcl --k 4
//   gamma_cli --dataset CP --task sm --query 2 --placement zerocopy
//   gamma_cli --dataset ER --task fpm --minsup 300 --strategy naive
//   gamma_cli --graph my_edges.txt --task motif --k 3
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "algos/fpm.h"
#include "algos/kclique.h"
#include "algos/motif.h"
#include "algos/subgraph_matching.h"
#include "baselines/presets.h"
#include "core/compiled_engine.h"
#include "core/gamma.h"
#include "core/pattern_compiler.h"
#include "core/plan_io.h"
#include "core/plan_verifier.h"
#include "graph/datasets.h"
#include "graph/loader.h"
#include "gpusim/critpath.h"
#include "gpusim/device.h"
#include "gpusim/profile.h"
#include "gpusim/trace.h"

namespace {

using namespace gpm;

struct CliOptions {
  std::string dataset = "CP";
  std::string graph_path;
  std::string task = "kcl";
  bool task_set = false;
  int k = 3;
  int query = 1;
  std::string pattern_text;
  std::string pattern_preset;
  std::string plan_out;
  std::string verify_plan_path;
  bool verify_plan = false;
  bool verify_json = false;
  bool plan_auto = false;
  std::string planprof_out;
  bool explain = false;
  bool explain_analyze = false;
  int fpm_edges = 3;
  uint64_t minsup = 0;  // 0 = |E|/10
  std::string placement = "hybrid";
  std::string strategy = "dynamic";
  bool pre_merge = true;
  std::size_t streams = 1;
  std::size_t extension_chunk_rows = 0;  // 0 = keep the default
  bool symmetric = false;
  std::size_t device_mb = 16;
  int warps = 64;
  int host_threads = 1;
  bool show_stats = false;
  bool trace = false;
  std::string profile_json;
  std::string trace_out;
  std::string critpath_out;
  std::string metrics_out;
  std::string adaptivity_out;
  std::size_t trace_capacity = 0;  // 0 = keep the default
  double metrics_interval = 100000;
  bool check = false;
  std::string check_list;  // empty = all checkers
  std::string check_out;
};

void Usage() {
  std::puts(
      "usage: gamma_cli [options]\n"
      "  --dataset NAME     Table II proxy: CP CL CO EA ER CL8 SL5 UK IT TW\n"
      "  --graph PATH       edge-list file instead of a proxy\n"
      "  --task T           kcl | sm | fpm | motif\n"
      "  --k N              clique/motif size (default 3)\n"
      "  --query N          SM query 1..3 (Fig. 13)\n"
      "  --pattern P        custom SM pattern: an inline spec like\n"
      "                     0-1,1-2,2-0;labels=0,1,* or the path of a\n"
      "                     pattern file ('u v' edge lines, optional\n"
      "                     'labels l0 l1 ...' line with * wildcards,\n"
      "                     # comments). Implies --task sm\n"
      "  --pattern-preset N canned pattern: triangle | clique4 | clique5 |\n"
      "                     path3 | path4 | cycle4 | cycle5 | star3 |\n"
      "                     diamond | tailed-triangle | q1 | q2 | q3.\n"
      "                     Implies --task sm\n"
      "  --plan-out F       write the compiled gamma.plan.v1 plan JSON\n"
      "                     (any task) to F\n"
      "  --verify-plan F    load a gamma.plan.v1 document from F and run\n"
      "                     the static soundness verifier against the\n"
      "                     selected graph without executing anything.\n"
      "                     Prints the obligation report and exits 0 if\n"
      "                     the plan is verified, 2 if it is refuted or\n"
      "                     malformed. --verify-plan=json F emits the\n"
      "                     gamma.verify.v1 JSON report on stdout instead\n"
      "  --plan-auto        input-aware compilation for SM: greedy\n"
      "                     cardinality order, automatic symmetry\n"
      "                     breaking, statistics-driven start mode and\n"
      "                     per-level write strategies\n"
      "  --planprof-out F   write a gamma.planprof.v1 plan-execution\n"
      "                     audit: per-level estimated vs actual rows\n"
      "                     (Q-error), candidates and selectivity,\n"
      "                     strategy provenance, resource-class cycle\n"
      "                     attribution, and warp-slot load imbalance.\n"
      "                     Observation only: a profiled run is\n"
      "                     bit-identical in cycles and counters\n"
      "  --explain          print the compiled plan as an aligned table\n"
      "                     (levels, estimates, strategies) and exit\n"
      "                     without running\n"
      "  --explain-analyze  run, then print the plan table joined with\n"
      "                     actual rows, Q-error, binding resource class,\n"
      "                     and per-level load imbalance\n"
      "  --fpm-edges N      FPM pattern size in edges (default 3)\n"
      "  --minsup N         FPM support threshold (default |E|/10)\n"
      "  --placement P      hybrid | unified | zerocopy | device | explicit\n"
      "  --strategy S       dynamic | naive | prealloc (write strategy)\n"
      "  --no-premerge      disable Optimization 2 grouping\n"
      "  --streams N        execution streams (default 1 = synchronous;\n"
      "                     >= 2 double-buffers the extension pipeline and\n"
      "                     overlaps segment sorts with transfers)\n"
      "  --extension-chunk-rows N  embedding rows per extension kernel\n"
      "                     (out-of-core chunk size; default 65536)\n"
      "  --symmetric        SM with automorphism symmetry breaking\n"
      "  --device-mb N      simulated device memory (default 16)\n"
      "  --warps N          resident warp slots (default 64)\n"
      "  --host-threads N   host threads executing warp tasks (default 1;\n"
      "                     > 1 runs task functions on a thread pool and\n"
      "                     replays their side effects in task order, so\n"
      "                     all simulated output stays bit-identical)\n"
      "  --stats            print hardware counters\n"
      "  --trace            print per-kernel cycle breakdown\n"
      "  --profile-json F   write the run profile (per-phase cycles and\n"
      "                     memory traffic, totals, kernel trace) to F\n"
      "  --trace-out F      write a Chrome trace-event JSON timeline\n"
      "                     (kernels, phases, warp slots, UM page events;\n"
      "                     open in Perfetto or chrome://tracing)\n"
      "  --trace-capacity N cap the command log, the one timeline record\n"
      "                     behind --trace, --profile-json, --trace-out,\n"
      "                     --critpath-out and --planprof-out, at N\n"
      "                     entries (commands plus UM/adaptivity\n"
      "                     instants; default 2^20). Overflow is counted\n"
      "                     in one drop counter, not stored\n"
      "  --critpath-out F   write a gamma.critpath.v1 analysis: critical\n"
      "                     path over the stream/event/kernel DAG, per-span\n"
      "                     slack, per-phase binding resource, and what-if\n"
      "                     projections (PCIe x2, sort x2, ...). On a\n"
      "                     single-stream run the critical path equals the\n"
      "                     end-to-end cycle count exactly\n"
      "  --metrics-out F    write a gamma.metrics.v1 counter time-series\n"
      "  --metrics-interval N  metrics sampling interval in simulated\n"
      "                     cycles (default 100000)\n"
      "  --adaptivity-out F write a gamma.adaptivity.v1 audit: one record\n"
      "                     per extension with the hybrid's heat/N_u\n"
      "                     decision, actual traffic, and counterfactual\n"
      "                     unified-only / zerocopy-only shadow costs\n"
      "                     (host placements only; also enables the\n"
      "                     --stats adaptivity summary line)\n"
      "  --check[=LIST]     run under gpusim-check (the compute-sanitizer\n"
      "                     analog); LIST is a comma-separated subset of\n"
      "                     memcheck,initcheck,racecheck (default all).\n"
      "                     Prints a report and exits 2 on any finding\n"
      "  --check-out F      write the gamma.check.v1 report JSON to F\n"
      "                     (implies --check)");
}

bool Parse(int argc, char** argv, CliOptions* o) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--dataset") {
      o->dataset = next();
    } else if (a == "--graph") {
      o->graph_path = next();
    } else if (a == "--task") {
      o->task = next();
      o->task_set = true;
    } else if (a == "--k") {
      o->k = std::atoi(next());
    } else if (a == "--query") {
      o->query = std::atoi(next());
    } else if (a == "--pattern") {
      o->pattern_text = next();
    } else if (a == "--pattern-preset") {
      o->pattern_preset = next();
    } else if (a == "--plan-out") {
      o->plan_out = next();
    } else if (a == "--verify-plan") {
      o->verify_plan = true;
      o->verify_plan_path = next();
    } else if (a == "--verify-plan=json") {
      o->verify_plan = true;
      o->verify_json = true;
      o->verify_plan_path = next();
    } else if (a == "--plan-auto") {
      o->plan_auto = true;
    } else if (a == "--planprof-out") {
      o->planprof_out = next();
    } else if (a == "--explain") {
      o->explain = true;
    } else if (a == "--explain-analyze") {
      o->explain_analyze = true;
    } else if (a == "--fpm-edges") {
      o->fpm_edges = std::atoi(next());
    } else if (a == "--minsup") {
      o->minsup = std::strtoull(next(), nullptr, 10);
    } else if (a == "--placement") {
      o->placement = next();
    } else if (a == "--strategy") {
      o->strategy = next();
    } else if (a == "--no-premerge") {
      o->pre_merge = false;
    } else if (a == "--streams") {
      o->streams = std::strtoull(next(), nullptr, 10);
    } else if (a == "--extension-chunk-rows") {
      o->extension_chunk_rows = std::strtoull(next(), nullptr, 10);
    } else if (a == "--symmetric") {
      o->symmetric = true;
    } else if (a == "--device-mb") {
      o->device_mb = std::strtoull(next(), nullptr, 10);
    } else if (a == "--warps") {
      o->warps = std::atoi(next());
    } else if (a == "--host-threads") {
      o->host_threads = std::atoi(next());
      if (o->host_threads < 1) {
        std::fprintf(stderr, "--host-threads wants N >= 1\n");
        return false;
      }
    } else if (a == "--stats") {
      o->show_stats = true;
    } else if (a == "--trace") {
      o->trace = true;
    } else if (a == "--profile-json") {
      o->profile_json = next();
    } else if (a == "--trace-out") {
      o->trace_out = next();
    } else if (a == "--critpath-out") {
      o->critpath_out = next();
    } else if (a == "--trace-capacity") {
      o->trace_capacity = std::strtoull(next(), nullptr, 10);
    } else if (a == "--metrics-out") {
      o->metrics_out = next();
    } else if (a == "--metrics-interval") {
      o->metrics_interval = std::strtod(next(), nullptr);
    } else if (a == "--adaptivity-out") {
      o->adaptivity_out = next();
    } else if (a == "--check") {
      o->check = true;
    } else if (a.rfind("--check=", 0) == 0) {
      o->check = true;
      o->check_list = a.substr(std::strlen("--check="));
    } else if (a == "--check-out") {
      o->check = true;
      o->check_out = next();
    } else if (a == "--help" || a == "-h") {
      Usage();
      return false;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      Usage();
      return false;
    }
  }
  // A user-supplied pattern is a subgraph-matching query unless a task
  // was named explicitly.
  if (!o->task_set &&
      (!o->pattern_text.empty() || !o->pattern_preset.empty())) {
    o->task = "sm";
  }
  return true;
}

Result<graph::Pattern> ResolvePattern(const CliOptions& o,
                                      const graph::Graph& g) {
  if (!o.pattern_preset.empty()) {
    const std::string& n = o.pattern_preset;
    if (n == "triangle") return graph::Pattern::Triangle();
    if (n == "clique4") return graph::Pattern::Clique(4);
    if (n == "clique5") return graph::Pattern::Clique(5);
    if (n == "path3") return graph::Pattern::Path(3);
    if (n == "path4") return graph::Pattern::Path(4);
    if (n == "cycle4") return graph::Pattern::Cycle(4);
    if (n == "cycle5") return graph::Pattern::Cycle(5);
    if (n == "star3") return graph::Pattern::Star(3);
    if (n == "diamond") return graph::Pattern::Diamond();
    if (n == "tailed-triangle") return graph::Pattern::TailedTriangle();
    if (n == "q1") return graph::Pattern::SmQuery(1, g.num_labels());
    if (n == "q2") return graph::Pattern::SmQuery(2, g.num_labels());
    if (n == "q3") return graph::Pattern::SmQuery(3, g.num_labels());
    return Status::InvalidArgument("unknown pattern preset: " + n);
  }
  if (!o.pattern_text.empty()) {
    // A path on disk wins; anything else is an inline spec.
    if (std::ifstream probe(o.pattern_text); probe) {
      return graph::ParsePatternFile(o.pattern_text);
    }
    return graph::ParsePattern(o.pattern_text);
  }
  return graph::Pattern::SmQuery(o.query, g.num_labels());
}

// Writes the gamma.plan.v1 document of the run's compiled plan.
bool WritePlan(const std::string& path, const core::CompiledPlan& plan) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  out << plan.ToJson();
  std::printf("plan written to %s (%s)\n", path.c_str(),
              plan.DebugString().c_str());
  return true;
}

// Compiles the plan the chosen task would run — the same preset entry
// points the run path drives — without executing it (--explain).
Result<core::CompiledPlan> CompileTaskPlan(const CliOptions& o,
                                           const graph::Graph& g) {
  core::PatternCompiler compiler(&g);
  if (o.task == "kcl") {
    return compiler.CompileKClique(o.k, /*count_only_last=*/false);
  }
  if (o.task == "motif") return compiler.CompileMotifCensus(o.k);
  if (o.task == "fpm") {
    const uint64_t minsup = o.minsup ? o.minsup : g.num_edges() / 10;
    return compiler.CompileFpm(o.fpm_edges, minsup);
  }
  if (o.task == "sm") {
    auto pattern = ResolvePattern(o, g);
    if (!pattern.ok()) return pattern.status();
    core::CompileOptions copts;
    if (o.plan_auto) {
      copts.plan_strategy = core::PlanStrategy::kGreedyCardinality;
      copts.break_symmetry = true;
      copts.fold_ascending = true;
      copts.input_aware = true;
    } else if (o.symmetric) {
      copts.break_symmetry = true;
    }
    return compiler.CompileMatch(pattern.value(), copts);
  }
  return Status::InvalidArgument("unknown task: " + o.task);
}

std::string IntersectText(const std::vector<int>& positions) {
  if (positions.empty()) return "union";
  std::string s = "[";
  for (std::size_t i = 0; i < positions.size(); ++i) {
    if (i > 0) s += ",";
    s += std::to_string(positions[i]);
  }
  return s + "]";
}

std::string LabelText(graph::Label label) {
  return label == graph::Pattern::kAnyLabel ? "*" : std::to_string(label);
}

void PrintPlanHeadline(const core::CompiledPlan& plan) {
  std::printf("plan: %s", core::PlanKindName(plan.kind));
  if (!plan.order.empty()) {
    std::printf("  order=[");
    for (std::size_t i = 0; i < plan.order.size(); ++i) {
      std::printf(i > 0 ? " %d" : "%d", plan.order[i]);
    }
    std::printf("]");
  }
  if (plan.kind == core::PlanKind::kSubgraphMatch ||
      plan.kind == core::PlanKind::kMotifCensus) {
    std::printf("  start=%s", core::StartModeName(plan.start));
  }
  if (plan.symmetry_broken) std::printf("  symmetry-broken");
  if (plan.kind == core::PlanKind::kFrequentMining) {
    std::printf("  max_edges=%d  min_support=%llu", plan.max_edges,
                static_cast<unsigned long long>(plan.min_support));
  }
  std::printf("\n");
}

// --explain: the compiled plan as an aligned per-level table.
void PrintExplain(const core::CompiledPlan& plan) {
  PrintPlanHeadline(plan);
  if (plan.kind == core::PlanKind::kFrequentMining) {
    std::printf("  %d aggregate/filter/extend iterations over the edge "
                "table\n",
                plan.max_edges);
    return;
  }
  if (plan.kind == core::PlanKind::kEdgeJoin) {
    std::printf("  edge order:");
    for (auto [a, b] : plan.edge_order) std::printf(" (%d,%d)", a, b);
    std::printf("\n");
    return;
  }
  std::printf("  %-7s %5s  %-10s %5s  %-14s %-9s %12s\n", "level", "depth",
              "intersect", "label", "write", "pre-merge", "est_rows");
  const double start_est = plan.start == core::StartMode::kEdgeParallel
                               ? plan.est_pair_rows
                               : plan.est_start_rows;
  std::printf("  %-7s %5d  %-10s %5s  %-14s %-9s %12.6g\n", "start",
              plan.first_depth() - 1, "-",
              LabelText(plan.start_label).c_str(), "-", "-", start_est);
  for (std::size_t i = 0; i < plan.levels.size(); ++i) {
    const core::CompiledLevel& level = plan.levels[i];
    const int depth = plan.first_depth() + static_cast<int>(i);
    std::string name = "L";
    name += std::to_string(depth);
    std::printf("  %-7s %5d  %-10s %5s  %-14s %-9s %12.6g\n", name.c_str(),
                depth, IntersectText(level.intersect_positions).c_str(),
                LabelText(level.candidate_label).c_str(),
                level.write_strategy
                    ? core::WriteStrategyName(*level.write_strategy)
                    : "inherit",
                level.pre_merge ? (*level.pre_merge ? "yes" : "no")
                                : "inherit",
                level.est_rows);
  }
}

// --explain-analyze: the profiled run as an aligned per-level table
// joining estimates with actuals.
void PrintExplainAnalyze(core::PlanProfiler* prof) {
  const core::PlanProfSummary summary = prof->Summary();
  std::printf("  %-9s %5s %12s %12s %8s %12s %7s  %-17s %-9s %6s\n",
              "level", "depth", "est_rows", "rows", "q_error", "candidates",
              "select", "strategy", "binding", "imbal");
  for (const core::PlanProfSegment& seg : prof->segments()) {
    std::string strategy = "-";
    if (seg.has_strategy) {
      strategy = seg.strategy.write_strategy;
      if (seg.strategy.pre_merge) strategy += "+pm";
      if (seg.strategy.count_only) strategy += "+cnt";
    }
    char est[24];
    char q[16];
    if (seg.has_estimate) {
      std::snprintf(est, sizeof(est), "%12.6g", seg.est_rows);
      std::snprintf(q, sizeof(q), "%8.2f", seg.q_error);
    } else {
      std::snprintf(est, sizeof(est), "%12s", "-");
      std::snprintf(q, sizeof(q), "%8s", "-");
    }
    std::printf("  %-9s %5d %s %12llu %s %12llu %7.3f  %-17s %-9s %6.2f\n",
                seg.label.c_str(), seg.depth, est,
                static_cast<unsigned long long>(seg.rows), q,
                static_cast<unsigned long long>(seg.candidates),
                seg.selectivity, strategy.c_str(),
                seg.attributed ? gpusim::ResourceClassName(seg.binding)
                               : "-",
                seg.imbalance);
  }
  if (summary.worst_q_error > 0) {
    std::printf("  worst Q-error %.2f at depth %d; run imbalance %.2f\n",
                summary.worst_q_error, summary.worst_q_error_depth,
                summary.imbalance);
  } else {
    std::printf("  no cardinality estimates; run imbalance %.2f\n",
                summary.imbalance);
  }
}

core::GammaOptions FrameworkOptions(const CliOptions& o) {
  core::GammaOptions options = baselines::GammaDefaultOptions();
  if (o.placement == "unified") {
    options.access.placement = core::GraphPlacement::kUnifiedOnly;
  } else if (o.placement == "zerocopy") {
    options.access.placement = core::GraphPlacement::kZeroCopyOnly;
  } else if (o.placement == "device") {
    options.access.placement = core::GraphPlacement::kDeviceResident;
  } else if (o.placement == "explicit") {
    options.access.placement = core::GraphPlacement::kExplicitTransfer;
  }
  if (o.strategy == "naive") {
    options.extension.write_strategy = core::WriteStrategy::kNaiveTwoPass;
  } else if (o.strategy == "prealloc") {
    options.extension.write_strategy = core::WriteStrategy::kPreAlloc;
  }
  options.extension.pre_merge = o.pre_merge;
  if (o.streams > 0) {
    options.extension.num_streams = o.streams;
    options.aggregation.sort.num_streams = o.streams;
  }
  if (o.extension_chunk_rows > 0) {
    options.extension.chunk_rows = o.extension_chunk_rows;
  }
  // The audit also feeds the --stats summary line, so either flag turns
  // it on (the engine ignores it for placements with no host traffic).
  options.adaptivity_audit = !o.adaptivity_out.empty() || o.show_stats;
  options.plan_profile = !o.planprof_out.empty() || o.explain_analyze;
  return options;
}

// --verify-plan: load an external gamma.plan.v1 document and run the
// static soundness verifier against the selected graph. Pure host-side
// analysis — no device, no engine, no simulated cycles. Returns the
// process exit code: 0 verified, 2 refuted or malformed.
int VerifyPlanFile(const CliOptions& o, const graph::Graph& g) {
  std::ifstream in(o.verify_plan_path);
  if (!in) {
    std::fprintf(stderr, "verify-plan: cannot open %s\n",
                 o.verify_plan_path.c_str());
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto plan = core::ParsePlanJson(buffer.str());
  if (!plan.ok()) {
    std::fprintf(stderr, "verify-plan: %s\n",
                 plan.status().ToString().c_str());
    return 2;
  }
  // Verify with the same inherited strategies a run with these CLI flags
  // would resolve, so tier-3 reservation findings match the run path.
  core::GammaOptions fw = FrameworkOptions(o);
  core::VerifyOptions vopts;
  vopts.graph = &g;
  vopts.engine_extension = &fw.extension;
  const core::VerifyReport report =
      core::PlanVerifier(vopts).Verify(plan.value());
  if (o.verify_json) {
    std::fputs(report.ToJson().c_str(), stdout);
  } else {
    std::fputs(report.ReportText().c_str(), stdout);
  }
  return report.verified ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions o;
  if (!Parse(argc, argv, &o)) return 1;

  graph::Graph g;
  if (!o.graph_path.empty()) {
    auto loaded = graph::LoadEdgeListText(o.graph_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    g = std::move(loaded).value();
  } else {
    g = graph::MakeDataset(o.dataset);
  }
  g.EnsureEdgeIndex();
  // In --verify-plan=json mode stdout carries exactly one JSON document
  // so the report can be piped or redirected; the banner moves to stderr.
  if (o.verify_plan && o.verify_json)
    std::fprintf(stderr, "graph: %s\n", g.DebugString().c_str());
  else
    std::printf("graph: %s\n", g.DebugString().c_str());

  if (o.verify_plan) return VerifyPlanFile(o, g);

  if (o.explain) {
    // Plan only — compile the task's plan and print it without running.
    auto plan = CompileTaskPlan(o, g);
    if (!plan.ok()) {
      std::fprintf(stderr, "explain: %s\n",
                   plan.status().ToString().c_str());
      return 2;
    }
    PrintExplain(plan.value());
    if (!o.plan_out.empty() && !WritePlan(o.plan_out, plan.value())) {
      return 1;
    }
    return 0;
  }

  gpusim::SimParams params;
  params.device_memory_bytes = o.device_mb << 20;
  params.um_device_buffer_bytes = params.device_memory_bytes / 8;
  params.num_warp_slots = o.warps;
  params.host_threads = o.host_threads;
  // The command log is the one timeline record: the --trace table, the
  // profile's kernel table, the Chrome trace, the critpath analysis and
  // the plan profiler's attribution columns are all views over it.
  // Recording stays observation-only.
  params.record_commands = o.trace || !o.profile_json.empty() ||
                           !o.critpath_out.empty() ||
                           !o.planprof_out.empty() || o.explain_analyze;
  params.record_timeline = !o.trace_out.empty();
  gpusim::Device device(params);
  if (o.trace_capacity > 0) device.critpath().set_capacity(o.trace_capacity);
  if (!o.metrics_out.empty()) {
    device.metrics().set_interval_cycles(o.metrics_interval);
  }
  if (o.check) {
    gpusim::Sanitizer::Options copts;
    if (!gpusim::Sanitizer::ParseCheckList(o.check_list, &copts)) {
      std::fprintf(stderr,
                   "--check: bad checker list '%s' (want a comma-separated "
                   "subset of memcheck,initcheck,racecheck)\n",
                   o.check_list.c_str());
      return 1;
    }
    device.EnableSanitizer(copts);
  }
  // Held in a unique_ptr so the leak sweep below can run after the engine
  // (and every DeviceBuffer it owns) has been destroyed.
  auto engine =
      std::make_unique<core::GammaEngine>(&device, &g, FrameworkOptions(o));
  if (Status st = engine->Prepare(); !st.ok()) {
    std::fprintf(stderr, "prepare: %s\n", st.ToString().c_str());
    return 1;
  }

  if (o.task == "kcl") {
    auto r = algos::CountKCliques(engine.get(), o.k);
    if (!r.ok()) {
      std::fprintf(stderr, "kcl: %s\n", r.status().ToString().c_str());
      return 1;
    }
    std::printf("%d-cliques: %llu (%.3f ms simulated)\n", o.k,
                static_cast<unsigned long long>(r.value().cliques),
                r.value().sim_millis);
    if (!o.plan_out.empty() && !WritePlan(o.plan_out, r.value().plan)) {
      return 1;
    }
  } else if (o.task == "sm") {
    auto pattern = ResolvePattern(o, g);
    if (!pattern.ok()) {
      std::fprintf(stderr, "pattern: %s\n",
                   pattern.status().ToString().c_str());
      return 2;
    }
    const graph::Pattern& q = pattern.value();
    std::printf("query: %s\n", q.DebugString().c_str());
    // Drive the pattern compiler directly: any connected (optionally
    // labeled) pattern becomes a CompiledPlan the generic engine runs.
    core::PatternCompiler compiler(&g);
    core::CompileOptions copts;
    if (o.plan_auto) {
      copts.plan_strategy = core::PlanStrategy::kGreedyCardinality;
      copts.break_symmetry = true;
      copts.fold_ascending = true;
      copts.input_aware = true;
    } else if (o.symmetric) {
      copts.break_symmetry = true;
    }
    auto compiled = compiler.CompileMatch(q, copts);
    if (!compiled.ok()) {
      std::fprintf(stderr, "sm: %s\n",
                   compiled.status().ToString().c_str());
      return 2;
    }
    const core::CompiledPlan& plan = compiled.value();
    auto r = core::CompiledEngine(engine.get()).Run(plan);
    if (!r.ok()) {
      std::fprintf(stderr, "sm: %s\n", r.status().ToString().c_str());
      return 1;
    }
    std::printf("embeddings: %llu, instances: %llu (%.3f ms simulated)\n",
                static_cast<unsigned long long>(r.value().embeddings),
                static_cast<unsigned long long>(r.value().instances),
                r.value().sim_millis);
    if (!o.plan_out.empty() && !WritePlan(o.plan_out, plan)) return 1;
  } else if (o.task == "fpm") {
    uint64_t minsup = o.minsup ? o.minsup : g.num_edges() / 10;
    auto r = algos::MineFrequentPatterns(
        engine.get(), {.max_edges = o.fpm_edges, .min_support = minsup});
    if (!r.ok()) {
      std::fprintf(stderr, "fpm: %s\n", r.status().ToString().c_str());
      return 1;
    }
    auto maximal = r.value().patterns.MaximalPatterns();
    std::printf("frequent patterns: %zu (%zu maximal), sup >= %llu "
                "(%.3f ms simulated)\n",
                r.value().patterns.size(), maximal.size(),
                static_cast<unsigned long long>(minsup),
                r.value().sim_millis);
    for (const auto& e : r.value().patterns.TopPatterns()) {
      std::printf("  sup=%8llu  %s\n",
                  static_cast<unsigned long long>(e.support),
                  e.exemplar.DebugString().c_str());
    }
    if (!o.plan_out.empty() && !WritePlan(o.plan_out, r.value().plan)) {
      return 1;
    }
  } else if (o.task == "motif") {
    auto r = algos::CountMotifs(engine.get(), o.k);
    if (!r.ok()) {
      std::fprintf(stderr, "motif: %s\n", r.status().ToString().c_str());
      return 1;
    }
    std::printf("%d-vertex motifs (%.3f ms simulated):\n", o.k,
                r.value().sim_millis);
    for (const auto& [pattern, count] : r.value().motifs) {
      std::printf("  %12llu x %s\n",
                  static_cast<unsigned long long>(count),
                  pattern.DebugString().c_str());
    }
    if (!o.plan_out.empty() && !WritePlan(o.plan_out, r.value().plan)) {
      return 1;
    }
  } else {
    std::fprintf(stderr, "unknown task: %s\n", o.task.c_str());
    Usage();
    return 1;
  }

  const prof::CommandLog& log = device.critpath();
  std::size_t kernel_records = 0;
  for (const prof::CommandRecord& rec : log.commands()) {
    if (rec.kind == prof::CommandRecord::Kind::kKernel) ++kernel_records;
  }
  if (o.trace) {
    // Aggregate the log's kernel records by kernel name.
    std::map<std::string, std::pair<std::size_t, double>> by_name;
    for (const prof::CommandRecord& rec : log.commands()) {
      if (rec.kind != prof::CommandRecord::Kind::kKernel) continue;
      auto& agg = by_name[rec.name];
      agg.first += 1;
      agg.second += rec.end - rec.start;
    }
    std::printf("kernel breakdown:\n");
    for (const auto& [name, agg] : by_name) {
      std::printf("  %-22s %6zu launches  %10.3f ms\n", name.c_str(),
                  agg.first, agg.second * 1e-6);
    }
  }
  if (o.show_stats) {
    std::printf("device counters: %s\n", device.stats().ToString().c_str());
    std::printf("peak device: %.2f MiB, peak host: %.2f MiB\n",
                device.PeakDeviceBytes() / 1048576.0,
                device.host_tracker().peak_bytes() / 1048576.0);
    if (engine->audit() != nullptr) {
      core::AdaptivitySummary s = engine->audit()->Summary();
      std::printf(
          "adaptivity: %llu extensions, mean N_u %.1f pages, "
          "regret %+.0f cycles vs best pure (%s)\n",
          static_cast<unsigned long long>(s.extensions),
          s.mean_unified_pages, s.regret_cycles,
          s.est_unified_cycles <= s.est_zerocopy_cycles ? "unified"
                                                        : "zerocopy");
    }
  }
  if (!o.profile_json.empty()) {
    std::ofstream out(o.profile_json);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   o.profile_json.c_str());
      return 1;
    }
    out << device.profile().ToJson(device);
    std::printf("profile written to %s (%zu phases, %zu kernel records",
                o.profile_json.c_str(), device.profile().phases().size(),
                kernel_records);
    if (log.dropped() > 0) {
      std::printf(", %llu dropped",
                  static_cast<unsigned long long>(log.dropped()));
    }
    std::printf(")\n");
  }
  if (!o.trace_out.empty()) {
    std::ofstream out(o.trace_out);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   o.trace_out.c_str());
      return 1;
    }
    out << gpusim::ToChromeTraceJson(log, device.params());
    std::printf("timeline written to %s (%zu commands, %zu instants, %llu "
                "dropped; open in Perfetto)\n",
                o.trace_out.c_str(), log.commands().size(),
                log.instants().size(),
                static_cast<unsigned long long>(log.dropped()));
  }
  if (!o.metrics_out.empty()) {
    // Pin the final state so the series always covers the whole run.
    device.metrics().ForceSample(device);
    std::ofstream out(o.metrics_out);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   o.metrics_out.c_str());
      return 1;
    }
    out << device.metrics().ToJson(device);
    std::printf("metrics written to %s (%zu samples every %.0f cycles)\n",
                o.metrics_out.c_str(), device.metrics().samples().size(),
                device.metrics().interval_cycles());
  }
  if (!o.critpath_out.empty()) {
    auto analyzed = prof::Analyze(device);
    if (!analyzed.ok()) {
      std::fprintf(stderr, "critpath: %s\n",
                   analyzed.status().ToString().c_str());
      return 1;
    }
    const prof::CritpathReport& report = analyzed.value();
    std::ofstream out(o.critpath_out);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   o.critpath_out.c_str());
      return 1;
    }
    out << report.ToJson();
    std::printf(
        "critpath written to %s (%zu commands, %d streams%s)\n",
        o.critpath_out.c_str(), report.commands, report.streams,
        report.partial ? "; PARTIAL: command log overflowed" : "");
    std::printf(
        "  critical path %.0f of %.0f cycles, bound on %s "
        "(link utilization %.1f%%)\n",
        report.critical_path_cycles, report.total_cycles,
        gpusim::ResourceClassName(report.binding),
        report.pcie_link_utilization * 100.0);
    for (const prof::WhatIf& wi : report.whatifs) {
      if (wi.cost_factor == 1.0) continue;  // calibration row
      std::printf("  what-if %s x%.2g: %.0f cycles (%.2fx)\n",
                  gpusim::ResourceClassName(wi.resource), wi.cost_factor,
                  wi.projected_cycles, wi.speedup);
    }
  }
  if (!o.adaptivity_out.empty()) {
    if (engine->audit() == nullptr) {
      std::fprintf(stderr,
                   "--adaptivity-out: placement %s has no host-memory "
                   "traffic to audit\n",
                   o.placement.c_str());
      return 1;
    }
    std::ofstream out(o.adaptivity_out);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   o.adaptivity_out.c_str());
      return 1;
    }
    out << engine->audit()->ToJson();
    std::printf("adaptivity audit written to %s (%zu extension records)\n",
                o.adaptivity_out.c_str(), engine->audit()->records().size());
  }
  if (o.explain_analyze || !o.planprof_out.empty()) {
    core::PlanProfiler* prof = engine->plan_profiler();
    if (prof == nullptr || !prof->has_run()) {
      std::fprintf(stderr, "planprof: task produced no profiled run\n");
      return 1;
    }
    if (o.explain_analyze) PrintExplainAnalyze(prof);
    if (!o.planprof_out.empty()) {
      std::ofstream out(o.planprof_out);
      if (!out) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     o.planprof_out.c_str());
        return 1;
      }
      out << prof->ToJson();
      std::printf("planprof written to %s (%zu levels)\n",
                  o.planprof_out.c_str(), prof->segments().size());
    }
  }
  if (o.check) {
    // Tear the engine down first so buffers it still owns are released and
    // the leak sweep only reports real leaks.
    engine.reset();
    gpusim::Sanitizer* san = device.sanitizer();
    san->FinalizeLeakCheck();
    if (!o.check_out.empty()) {
      std::ofstream out(o.check_out);
      if (!out) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     o.check_out.c_str());
        return 1;
      }
      out << san->ToJson();
      std::printf("check report written to %s\n", o.check_out.c_str());
    }
    if (!san->findings().empty()) {
      std::fputs(san->ReportText().c_str(), stderr);
      return 2;
    }
    std::printf(
        "gpusim-check: clean (%llu device, %llu unified, %llu bulk "
        "accesses; %llu allocs, %llu frees checked)\n",
        static_cast<unsigned long long>(san->activity().device_accesses),
        static_cast<unsigned long long>(san->activity().unified_accesses),
        static_cast<unsigned long long>(san->activity().bulk_accesses),
        static_cast<unsigned long long>(san->activity().allocations),
        static_cast<unsigned long long>(san->activity().frees));
  }
  return 0;
}
