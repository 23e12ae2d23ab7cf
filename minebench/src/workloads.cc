#include "workloads.h"

#include <chrono>
#include <memory>
#include <sstream>
#include <utility>

#include "baselines/cpu_ref.h"
#include "baselines/presets.h"
#include "common/random.h"
#include "core/compiled_engine.h"
#include "core/gamma.h"
#include "core/pattern_compiler.h"
#include "core/plan_verifier.h"
#include "gpusim/critpath.h"
#include "gpusim/device.h"
#include "gpusim/resource_class.h"
#include "graph/datasets.h"
#include "graph/pattern.h"

namespace minebench {
namespace {

using gpm::Result;
using gpm::Status;
namespace core = gpm::core;
namespace gpusim = gpm::gpusim;
namespace graph = gpm::graph;
using Clock = std::chrono::steady_clock;

constexpr int kFpmMaxEdges = 3;
constexpr int kCliqueSize = 5;
constexpr int kPaperQuery = 2;
constexpr char kOracleSchema[] = "minebench.oracle.v1";

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

uint64_t MinSupport(const graph::Graph& g) { return g.num_edges() / 10; }

graph::Pattern Query(const graph::Graph& g) {
  return graph::Pattern::SmQuery(kPaperQuery, g.num_labels());
}

graph::Graph Generate(const Workload& w, uint64_t seed) {
  graph::Graph g = graph::MakeDataset(w.dataset, seed);
  g.EnsureEdgeIndex();
  return g;
}

// The bench-scale device of bench/bench_common.h. Tracing switches are the
// only thing a traced repetition changes.
gpusim::SimParams DeviceParams(int host_threads, bool traced) {
  gpusim::SimParams p;
  p.device_memory_bytes = 4ull << 20;
  p.um_device_buffer_bytes = 256ull << 10;
  p.host_threads = host_threads;
  p.record_commands = traced;
  p.record_timeline = false;
  return p;
}

core::GammaOptions EngineOptions(bool traced) {
  core::GammaOptions options = gpm::baselines::GammaDefaultOptions();
  options.extension.pool_bytes = 2ull << 20;
  options.plan_profile = traced;
  options.adaptivity_audit = traced;
  return options;
}

// Graph, device and engine of one repetition. Members are destroyed in
// reverse order, so the engine goes before the device and the graph.
struct Staged {
  graph::Graph graph;
  std::unique_ptr<gpusim::Device> device;
  std::unique_ptr<core::GammaEngine> engine;
};

Status Stage(const Workload& w, uint64_t seed, const RepOptions& options,
             Staged* staged, Spans* spans) {
  const Clock::time_point start = Clock::now();
  staged->graph = Generate(w, seed);
  spans->generate_s = SecondsSince(start);
  staged->device = std::make_unique<gpusim::Device>(
      DeviceParams(w.host_threads, options.traced));
  staged->engine = std::make_unique<core::GammaEngine>(
      staged->device.get(), &staged->graph, EngineOptions(options.traced));
  const Clock::time_point prepare = Clock::now();
  Status st = staged->engine->Prepare();
  spans->prepare_s = SecondsSince(prepare);
  spans->setup_s = SecondsSince(start);
  return st;
}

Result<core::CompiledPlan> Compile(const Workload& w,
                                   const graph::Graph& g) {
  core::PatternCompiler compiler(&g);
  switch (w.task) {
    case Task::kFrequentMining:
      return compiler.CompileFpm(kFpmMaxEdges, MinSupport(g));
    case Task::kKClique:
      return compiler.CompileKClique(kCliqueSize,
                                     /*count_only_last=*/false);
    case Task::kMatch:
      // What `gamma_cli --plan-auto` compiles.
      return compiler.CompileMatch(
          Query(g),
          {.plan_strategy = core::PlanStrategy::kGreedyCardinality,
           .break_symmetry = true,
           .fold_ascending = true,
           .input_aware = true});
  }
  return Status::InvalidArgument("unknown task");
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

void CollectLayers(const core::CompiledPlan& plan,
                   const core::CompiledRunResult& run, bool traced,
                   Staged* staged, std::map<std::string, double>* layers) {
  gpusim::Device& device = *staged->device;
  const gpusim::SimParams& params = device.params();
  const gpusim::DeviceStats& s = device.stats();
  auto& out = *layers;

  int prealloc = 0;
  for (const core::CompiledLevel& level : plan.levels) {
    if (level.write_strategy == core::WriteStrategy::kPreAlloc) ++prealloc;
  }
  out["compile.prealloc_levels"] = prealloc;

  double extension_cycles = 0;
  for (const gpusim::PhaseRecord& ph : device.profile().phases()) {
    if (ph.name == "vertex-extension" || ph.name == "edge-extension") {
      extension_cycles += ph.cycles;
    } else if (ph.name == "aggregation") {
      out["aggregation.sim_ms"] = params.CyclesToMillis(ph.cycles);
    } else if (ph.name == "filtering") {
      out["filtering.sim_ms"] = params.CyclesToMillis(ph.cycles);
    }
  }
  out["extension.sim_ms"] = params.CyclesToMillis(extension_cycles);
  out.try_emplace("aggregation.sim_ms", 0.0);
  out.try_emplace("filtering.sim_ms", 0.0);

  double candidates = 0, results = 0, chunks = 0;
  for (const core::ExtensionStats& step : run.steps) {
    candidates += static_cast<double>(step.candidates);
    results += static_cast<double>(step.results);
    chunks += static_cast<double>(step.chunks);
  }
  out["extension.candidates"] = candidates;
  out["extension.selectivity"] = Ratio(results, candidates);
  out["extension.chunks"] = chunks;
  out["extension.pool_waste_ratio"] =
      Ratio(static_cast<double>(s.pool_blocks_wasted),
            static_cast<double>(s.pool_block_requests));

  double sort_cycles = 0, embeddings = 0, distinct = 0;
  for (const core::AggregationResult& agg : run.aggregations) {
    sort_cycles += agg.sort_stats.cycles;
    embeddings += static_cast<double>(agg.codes.size());
    distinct += static_cast<double>(agg.distinct_patterns);
  }
  out["aggregation.sort_sim_ms"] = params.CyclesToMillis(sort_cycles);
  out["aggregation.embeddings"] = embeddings;
  out["aggregation.distinct_ratio"] = Ratio(distinct, embeddings);

  out["gpusim.kernel_launches"] = static_cast<double>(s.kernel_launches);
  out["gpusim.warp_tasks"] = static_cast<double>(s.warp_tasks);
  out["gpusim.um_page_faults"] = static_cast<double>(s.um_page_faults);
  out["gpusim.um_hit_ratio"] =
      Ratio(static_cast<double>(s.um_page_hits),
            static_cast<double>(s.um_page_hits + s.um_page_faults));
  out["gpusim.um_migrated_mib"] =
      static_cast<double>(s.um_migrated_bytes) / (1 << 20);
  out["gpusim.zc_transactions"] = static_cast<double>(s.zc_transactions);
  out["gpusim.link_busy_ratio"] =
      Ratio(device.streams().link_busy_cycles(), device.now_cycles());

  if (!traced) return;
  core::GammaEngine& engine = *staged->engine;
  if (engine.plan_profiler() != nullptr) {
    const core::PlanProfSummary prof = engine.plan_profiler()->Summary();
    out["compile.worst_q_error"] = prof.worst_q_error;
    out["gpusim.slot_imbalance"] = prof.imbalance;
  }
  if (engine.audit() != nullptr) {
    const core::AdaptivitySummary audit = engine.audit()->Summary();
    out["access.regret_sim_ms"] = params.CyclesToMillis(audit.regret_cycles);
    out["access.mean_unified_pages"] = audit.mean_unified_pages;
  }
  auto analyzed = gpm::prof::Analyze(device);
  if (analyzed.ok()) {
    for (int c = 0; c < gpusim::kNumResourceClasses; ++c) {
      const auto cls = static_cast<gpusim::ResourceClass>(c);
      out[std::string("gpusim.res.") + gpusim::ResourceClassName(cls) +
          "_ms"] = params.CyclesToMillis(
          analyzed.value().resource_cycles[static_cast<std::size_t>(c)]);
    }
  }
}

SimOutputs Outputs(const Workload& w, const core::CompiledPlan& plan,
                   const core::CompiledRunResult& run,
                   const gpusim::Device& device) {
  SimOutputs sim;
  switch (w.task) {
    case Task::kFrequentMining:
      for (const core::PatternEntry& e : run.patterns.entries()) {
        if (e.valid) sim.supports[e.code] = e.support;
      }
      sim.count = sim.supports.size();
      break;
    case Task::kKClique:
      sim.count = run.embeddings;
      break;
    case Task::kMatch:
      // The oracle counts every embedding; a symmetry-broken plan keeps
      // one per automorphism orbit.
      sim.count = run.embeddings *
                  (plan.symmetry_broken ? plan.automorphisms : 1);
      break;
  }
  sim.sim_ms = run.sim_millis;
  sim.stats = device.stats().Snapshot();
  sim.peak_device_bytes = device.PeakDeviceBytes();
  sim.peak_host_bytes = device.host_tracker().peak_bytes();
  sim.link_busy_cycles = device.streams().link_busy_cycles();
  return sim;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload>* all = new std::vector<Workload>{
      {"fpm3-er", "ER", Task::kFrequentMining, 1, 4},
      {"kcl5-cl", "CL", Task::kKClique, 2, 8},
      {"sm-q2-cl8-auto", "CL8", Task::kMatch, 1, 8},
  };
  return *all;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<uint64_t> GraphSeeds(const Workload& w, uint64_t seed) {
  std::vector<uint64_t> seeds = {seed};
  for (int i = 1; i < w.graphs; ++i) {
    seeds.push_back(gpm::Mix64(seed * static_cast<uint64_t>(w.graphs) +
                               static_cast<uint64_t>(i)));
  }
  return seeds;
}

Oracle ComputeOracle(const Workload& w, uint64_t seed) {
  const graph::Graph g = Generate(w, seed);
  const gpm::baselines::CpuModel model;
  Oracle oracle;
  const Clock::time_point start = Clock::now();
  switch (w.task) {
    case Task::kFrequentMining: {
      gpm::baselines::CpuFpmResult r = gpm::baselines::CpuFpmEmbeddingCentric(
          g, kFpmMaxEdges, MinSupport(g), model);
      for (const core::PatternEntry& e : r.patterns.entries()) {
        if (e.valid) oracle.supports[e.code] = e.support;
      }
      oracle.count = oracle.supports.size();
      break;
    }
    case Task::kKClique:
      oracle.count = gpm::baselines::CpuKClique(g, kCliqueSize, model).count;
      break;
    case Task::kMatch:
      oracle.count = gpm::baselines::CpuSubgraphMatch(
                         g, Query(g), model, /*symmetry_breaking=*/false)
                         .count;
      break;
  }
  oracle.host_s = SecondsSince(start);
  return oracle;
}

std::string FormatOracle(const Workload& w, uint64_t seed,
                         const Oracle& oracle) {
  std::ostringstream os;
  os.precision(17);
  os << kOracleSchema << "\n"
     << "workload " << w.name << "\n"
     << "seed " << seed << "\n"
     << "host_s " << oracle.host_s << "\n"
     << "count " << oracle.count << "\n";
  for (const auto& [code, support] : oracle.supports) {
    os << "pattern " << code << " " << support << "\n";
  }
  return os.str();
}

Result<Oracle> ParseOracle(const std::string& text, const Workload& w,
                           uint64_t seed) {
  std::istringstream in(text);
  std::string schema, key, name;
  uint64_t file_seed = 0;
  Oracle oracle;
  if (!(in >> schema) || schema != kOracleSchema) {
    return Status::InvalidArgument("not a " + std::string(kOracleSchema) +
                                   " document");
  }
  if (!(in >> key >> name) || key != "workload" || name != w.name ||
      !(in >> key >> file_seed) || key != "seed" || file_seed != seed) {
    return Status::InvalidArgument("oracle is for another workload or seed");
  }
  if (!(in >> key >> oracle.host_s) || key != "host_s" ||
      !(in >> key >> oracle.count) || key != "count") {
    return Status::InvalidArgument("oracle header is malformed");
  }
  uint64_t code = 0, support = 0;
  while (in >> key) {
    if (key != "pattern" || !(in >> code >> support) ||
        !oracle.supports.emplace(code, support).second) {
      return Status::InvalidArgument("oracle pattern line is malformed");
    }
  }
  if (w.task == Task::kFrequentMining &&
      oracle.supports.size() != oracle.count) {
    return Status::InvalidArgument("oracle pattern count disagrees");
  }
  return oracle;
}

std::string DescribeSimDifference(const SimOutputs& a, const SimOutputs& b) {
  std::ostringstream os;
  os.precision(17);
  if (a.count != b.count) {
    os << "count " << a.count << " vs " << b.count;
  } else if (a.supports != b.supports) {
    os << "pattern supports differ";
  } else if (a.sim_ms != b.sim_ms) {
    os << "sim_ms " << a.sim_ms << " vs " << b.sim_ms;
  } else if (a.peak_device_bytes != b.peak_device_bytes) {
    os << "peak_device_bytes " << a.peak_device_bytes << " vs "
       << b.peak_device_bytes;
  } else if (a.peak_host_bytes != b.peak_host_bytes) {
    os << "peak_host_bytes " << a.peak_host_bytes << " vs "
       << b.peak_host_bytes;
  } else if (a.link_busy_cycles != b.link_busy_cycles) {
    os << "link_busy_cycles " << a.link_busy_cycles << " vs "
       << b.link_busy_cycles;
  } else {
    for (const gpusim::DeviceStats::Field& f : gpusim::DeviceStats::Fields()) {
      if (a.stats.*f.member != b.stats.*f.member) {
        os << f.name << " " << a.stats.*f.member << " vs "
           << b.stats.*f.member;
        break;
      }
    }
  }
  return os.str();
}

std::string CheckAgainstOracle(const Workload& w, const SimOutputs& sim,
                               const Oracle& oracle) {
  std::ostringstream os;
  if (sim.count != oracle.count) {
    os << w.name << ": result " << sim.count << ", oracle " << oracle.count;
  } else if (sim.supports != oracle.supports) {
    for (const auto& [code, support] : oracle.supports) {
      auto it = sim.supports.find(code);
      if (it == sim.supports.end() || it->second != support) {
        os << w.name << ": pattern " << code << " support "
           << (it == sim.supports.end() ? 0 : it->second) << ", oracle "
           << support;
        break;
      }
    }
  }
  return os.str();
}

Repetition RunRepetition(const Workload& w, uint64_t seed,
                         const RepOptions& options) {
  Repetition rep;
  Staged staged;
  rep.status = Stage(w, seed, options, &staged, &rep.spans);
  if (!rep.status.ok()) return rep;

  const Clock::time_point start = Clock::now();
  Result<core::CompiledPlan> plan = Compile(w, staged.graph);
  rep.spans.compile_s = SecondsSince(start);
  if (!plan.ok()) {
    rep.status = plan.status();
    return rep;
  }
  core::CompiledEngine engine(staged.engine.get());
  const Clock::time_point verify = Clock::now();
  Result<core::VerifiedPlan> verified =
      core::VerifiedPlan::Make(plan.value(), engine.MakeVerifyOptions());
  rep.spans.verify_s = SecondsSince(verify);
  if (!verified.ok()) {
    rep.status = verified.status();
    return rep;
  }
  const Clock::time_point run_start = Clock::now();
  Result<core::CompiledRunResult> run = engine.Run(verified.value());
  rep.spans.run_s = SecondsSince(run_start);
  rep.spans.host_s = SecondsSince(start);
  if (!run.ok()) {
    rep.status = run.status();
    return rep;
  }
  rep.sim = Outputs(w, plan.value(), run.value(), *staged.device);
  CollectLayers(plan.value(), run.value(), options.traced, &staged,
                &rep.layers);
  return rep;
}

}  // namespace minebench
