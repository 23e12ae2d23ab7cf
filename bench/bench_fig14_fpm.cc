// Fig. 14: frequent pattern mining running time — GAMMA vs GraphMiner
// (multi-core CPU library), Peregrine (pattern-centric CPU framework),
// Pangolin-ST and Pangolin-GPU. Expected shape: GAMMA ahead of all
// (modestly ahead of GraphMiner, as in the paper's 24.7%), Pangolin-GPU
// crashing once the embedding table or the pattern-table sort no longer
// fits in device memory.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"

namespace {

using namespace gpm;

enum class System {
  kGamma,
  kPangolinGpu,
  kPangolinSt,
  kPeregrine,
  kGraphMiner
};

void BM_Fpm(benchmark::State& state, std::string dataset, System sys) {
  const graph::Graph& g = bench::Dataset(dataset);
  const int max_edges = 3;
  const uint64_t min_support = g.num_edges() / 10;
  for (auto _ : state) {
    double sim_millis = 0;
    uint64_t patterns = 0;
    switch (sys) {
      case System::kPangolinSt: {
        auto r = baselines::PangolinStFpm(g, max_edges, min_support);
        sim_millis = r.sim_millis;
        patterns = r.patterns.size();
        break;
      }
      case System::kPeregrine: {
        auto r = baselines::PeregrineFpm(g, max_edges, min_support);
        sim_millis = r.sim_millis;
        patterns = r.patterns.size();
        break;
      }
      case System::kGraphMiner: {
        auto r = baselines::GraphMinerFpm(g, max_edges, min_support);
        sim_millis = r.sim_millis;
        patterns = r.patterns.size();
        break;
      }
      case System::kGamma:
      case System::kPangolinGpu: {
        gpusim::Device device(sys == System::kGamma
                                   ? bench::BenchDeviceParams()
                                   : bench::InCoreDeviceParams());
        Result<baselines::GpuRunResult> r =
            sys == System::kGamma
                ? baselines::GammaFpm(&device, g, max_edges, min_support,
                                      bench::BenchGammaOptions())
                : baselines::PangolinGpuFpm(&device, g, max_edges,
                                            min_support);
        if (!r.ok()) {
          bench::SkipCrashed(state, r.status());
          return;
        }
        bench::ReportProfile(state, device);
        sim_millis = r.value().sim_millis;
        patterns = r.value().count;
        break;
      }
    }
    state.counters["patterns"] = static_cast<double>(patterns);
    bench::ReportSimMillis(state, sim_millis);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const char* datasets[] = {"ER", "CP"};
  struct {
    System sys;
    const char* name;
  } systems[] = {{System::kGamma, "GAMMA"},
                 {System::kPangolinGpu, "Pangolin-GPU"},
                 {System::kPangolinSt, "Pangolin-ST"},
                 {System::kPeregrine, "Peregrine"},
                 {System::kGraphMiner, "GraphMiner"}};
  for (const char* name : datasets) {
    for (const auto& sys : systems) {
      std::string ds = name;
      System which = sys.sys;
      bench::RegisterSim(
          std::string("Fig14/FPM-3/") + sys.name + "/" + ds,
          [ds, which](benchmark::State& s) { BM_Fpm(s, ds, which); });
    }
  }
  return bench::Main(argc, argv);
}
