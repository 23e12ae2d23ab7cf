// minebench: times one mining workload through the public API on both
// clocks (host wall time and simulated time) and checks every result
// against the CPU oracle. See minebench/README.md.
//
//   minebench oracle  --workload W --seed S --oracle-dir DIR
//   minebench measure --workload W --seed S --seconds T --trace 0|1
//                     --oracle-dir DIR
//
// A run mines a batch of proxy graphs generated from --seed (see
// GraphSeeds). `oracle` writes the CPU oracle's result for each graph of
// the batch that has none in DIR yet; `measure` reads them.
//
// `measure` prints a summary table and, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "workloads.h"

namespace minebench {
namespace {

using Clock = std::chrono::steady_clock;

// The fpm3-er oracle takes ~10 s and ~0.7 GiB per graph. Each oracle's
// host time is therefore taken while another one may run beside it.
constexpr int kOracleThreads = 2;

struct Args {
  std::string mode;
  std::string workload;
  uint64_t seed = 7;
  double seconds = 10;
  int trace = 0;
  std::string oracle_dir;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc < 2 || argc % 2 != 0) return false;  // a flag without its value
  a->mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = value;
    } else if (key == "--seed") {
      a->seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      a->trace = static_cast<int>(std::strtol(value, &end, 10));
    } else if (key == "--oracle-dir") {
      a->oracle_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return (a->mode == "oracle" || a->mode == "measure") &&
         !a->workload.empty() && !a->oracle_dir.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string OraclePath(const Args& a, uint64_t graph_seed) {
  return a.oracle_dir + "/" + a.workload + "-" + std::to_string(graph_seed) +
         ".txt";
}

// Computes the oracle of every graph in the batch that has no file in
// --oracle-dir yet, kOracleThreads graphs at a time.
int WriteOracles(const Workload& w, const Args& a) {
  std::vector<uint64_t> missing;
  for (uint64_t graph_seed : GraphSeeds(w, a.seed)) {
    if (!std::ifstream(OraclePath(a, graph_seed))) {
      missing.push_back(graph_seed);
    }
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> ok{true};
  auto worker = [&] {
    for (std::size_t i = next++; i < missing.size(); i = next++) {
      const std::string path = OraclePath(a, missing[i]);
      const std::string tmp = path + ".tmp";
      std::ofstream out(tmp);
      out << FormatOracle(w, missing[i], ComputeOracle(w, missing[i]));
      out.close();
      if (!out || std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::fprintf(stderr, "oracle: cannot write %s\n", path.c_str());
        ok = false;
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kOracleThreads; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  return ok ? 0 : 1;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-30s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

// The highest percentile with at least ten samples beyond it, or a note
// that the run had too few samples for one.
std::string TailNote(std::vector<double> samples) {
  const std::size_t n = samples.size();
  if (n < 11) return "no tail percentile (fewer than 11 samples)";
  std::sort(samples.begin(), samples.end());
  char buf[96];
  std::snprintf(buf, sizeof(buf), "p%.1f = %.6f s",
                100.0 * static_cast<double>(n - 10) / static_cast<double>(n),
                samples[n - 11]);
  return buf;
}

std::string ResultLine(bool correct, int attempted, int failed,
                       const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
       << value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

// One graph of the run's batch: its oracle and the simulated outputs of
// the first repetition on it that passed, which every later one must
// reproduce exactly.
struct BatchGraph {
  uint64_t seed = 0;
  Oracle oracle;
  std::optional<SimOutputs> reference;
};

// passes[p][g] is pass p's repetition on batch graph g.
using Passes = std::vector<std::vector<Repetition>>;

// The batch mean of f(repetition), one per pass.
template <typename F>
std::vector<double> PassMeans(const Passes& passes, F f) {
  std::vector<double> per_pass;
  for (const std::vector<Repetition>& pass : passes) {
    double sum = 0;
    for (const Repetition& rep : pass) sum += f(rep);
    per_pass.push_back(sum / static_cast<double>(pass.size()));
  }
  return per_pass;
}

template <typename F>
double PassStat(const Passes& passes, F f) {
  return Median(PassMeans(passes, f));
}

double Mib(std::size_t bytes) {
  return static_cast<double>(bytes) / (1 << 20);
}

// The per-layer metrics of a --trace 1 run: host spans around each public
// call and the counters read after it, from the traced repetitions.
std::vector<Metric> PerLayerMetrics(const Passes& plain, const Passes& traced,
                                    const std::vector<BatchGraph>& batch) {
  auto span = [&](double Spans::*field, double scale) {
    return PassStat(
        traced, [&](const Repetition& r) { return r.spans.*field * scale; });
  };
  auto layer = [&](const std::string& name) {
    return PassStat(traced, [&](const Repetition& r) {
      auto it = r.layers.find(name);
      return it == r.layers.end() ? 0.0 : it->second;
    });
  };
  const double run_s = span(&Spans::run_s, 1);
  std::vector<Metric> metrics = {
      {"graph.generate_s", span(&Spans::generate_s, 1), "s"},
      {"prepare.host_ms", span(&Spans::prepare_s, 1e3), "ms"},
      {"compile.host_ms", span(&Spans::compile_s, 1e3), "ms"},
      {"compile.worst_q_error", layer("compile.worst_q_error"), "ratio"},
      {"compile.prealloc_levels", layer("compile.prealloc_levels"), "count"},
      {"verify.host_ms", span(&Spans::verify_s, 1e3), "ms"},
      {"run.host_s", run_s, "s"},
      {"run.host_us_per_warp_task",
       PassStat(traced,
                [](const Repetition& r) {
                  const double tasks =
                      static_cast<double>(r.sim.stats.warp_tasks);
                  return tasks > 0 ? r.spans.run_s * 1e6 / tasks : 0.0;
                }),
       "us"},
  };
  const std::vector<std::pair<const char*, const char*>> counters = {
      {"extension.sim_ms", "ms"},
      {"extension.candidates", "count"},
      {"extension.selectivity", "ratio"},
      {"extension.chunks", "count"},
      {"extension.pool_waste_ratio", "ratio"},
      {"aggregation.sim_ms", "ms"},
      {"aggregation.sort_sim_ms", "ms"},
      {"aggregation.embeddings", "count"},
      {"aggregation.distinct_ratio", "ratio"},
      {"filtering.sim_ms", "ms"},
      {"access.regret_sim_ms", "ms"},
      {"access.mean_unified_pages", "pages"},
      {"gpusim.kernel_launches", "count"},
      {"gpusim.warp_tasks", "count"},
      {"gpusim.um_page_faults", "count"},
      {"gpusim.um_hit_ratio", "ratio"},
      {"gpusim.um_migrated_mib", "MiB"},
      {"gpusim.zc_transactions", "count"},
      {"gpusim.link_busy_ratio", "ratio"},
      {"gpusim.res.compute_ms", "ms"},
      {"gpusim.res.dram_ms", "ms"},
      {"gpusim.res.pcie_ms", "ms"},
      {"gpusim.res.um_ms", "ms"},
      {"gpusim.res.sort_ms", "ms"},
      {"gpusim.res.sync_idle_ms", "ms"},
      {"gpusim.slot_imbalance", "ratio"},
  };
  for (const auto& [name, unit] : counters) {
    metrics.push_back({name, layer(name), unit});
  }
  const double plain_run_s =
      PassStat(plain, [](const Repetition& r) { return r.spans.run_s; });
  metrics.push_back({"trace.overhead_ratio",
                     plain_run_s > 0 ? run_s / plain_run_s : 0.0, "ratio"});
  // Read from the oracle files: timed when each was computed, which need
  // not be in this run.
  double oracle_s = 0;
  for (const BatchGraph& g : batch) oracle_s += g.oracle.host_s;
  metrics.push_back(
      {"oracle.host_s", oracle_s / static_cast<double>(batch.size()), "s"});
  return metrics;
}

int Measure(const Workload& w, const Args& a) {
  std::vector<BatchGraph> batch;
  for (uint64_t graph_seed : GraphSeeds(w, a.seed)) {
    const std::string path = OraclePath(a, graph_seed);
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    auto parsed = ParseOracle(text.str(), w, graph_seed);
    if (!parsed.ok()) {
      std::fprintf(stderr, "measure: cannot use oracle %s: %s\n",
                   path.c_str(), parsed.status().ToString().c_str());
      return 2;
    }
    batch.push_back({graph_seed, std::move(parsed).value(), std::nullopt});
  }
  const bool traced_mode = a.trace == 1;

  int attempted = 0, failed = 0;
  auto account = [&](BatchGraph& g, const Repetition& rep, const char* kind) {
    ++attempted;
    std::string why = rep.status.ok()
                          ? CheckAgainstOracle(w, rep.sim, g.oracle)
                          : rep.status.ToString();
    if (why.empty() && !g.reference) g.reference = rep.sim;
    if (why.empty()) {
      const std::string diff = DescribeSimDifference(*g.reference, rep.sim);
      if (!diff.empty()) why = "simulated output differs across runs: " + diff;
    }
    if (!why.empty()) {
      ++failed;
      std::fprintf(stderr, "%s repetition on graph seed %llu failed: %s\n",
                   kind, static_cast<unsigned long long>(g.seed),
                   why.c_str());
    }
  };

  // Whole passes only, so every graph weighs the same.
  Passes plain, traced;
  const Clock::time_point start = Clock::now();
  do {
    plain.emplace_back();
    if (traced_mode) traced.emplace_back();
    for (BatchGraph& g : batch) {
      plain.back().push_back(RunRepetition(w, g.seed, {.traced = false}));
      account(g, plain.back().back(), "untraced");
      if (!traced_mode) continue;
      traced.back().push_back(RunRepetition(w, g.seed, {.traced = true}));
      const Repetition& t = traced.back().back();
      // Tracing promises to observe only. A traced run that differs from
      // the untraced one invalidates every per-layer number it would give.
      const Repetition& p = plain.back().back();
      if (t.status.ok() && p.status.ok()) {
        const std::string diff = DescribeSimDifference(p.sim, t.sim);
        if (!diff.empty()) {
          std::fprintf(stderr,
                       "traced run differs from the untraced run on graph "
                       "seed %llu (%s); no per-layer metrics reported\n",
                       static_cast<unsigned long long>(g.seed), diff.c_str());
          return 1;
        }
      }
      account(g, t, "traced");
    }
  } while (SecondsSince(start) < a.seconds);

  std::vector<double> setup;
  for (const std::vector<Repetition>& pass : plain) {
    for (const Repetition& rep : pass) setup.push_back(rep.spans.setup_s);
  }

  const std::vector<double> pass_host =
      PassMeans(plain, [](const Repetition& r) { return r.spans.host_s; });
  const std::vector<Metric> end_to_end = {
      {"host_s", Median(pass_host), "s"},
      {"sim_ms",
       PassStat(plain, [](const Repetition& r) { return r.sim.sim_ms; }),
       "ms"},
      {"setup_s", Median(setup), "s"},
      {"sim_peak_device_mib",
       PassStat(plain,
                [](const Repetition& r) {
                  return Mib(r.sim.peak_device_bytes);
                }),
       "MiB"},
      {"sim_peak_host_mib",
       PassStat(plain,
                [](const Repetition& r) { return Mib(r.sim.peak_host_bytes); }),
       "MiB"},
      {"host_rss_mib", PeakRssMib(), "MiB"},
      {"pass_ratio",
       static_cast<double>(attempted - failed) / static_cast<double>(attempted),
       "ratio"},
  };
  std::printf("workload %s, seed %llu: %zu graphs x %zu untraced passes\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              batch.size(), plain.size());
  for (const BatchGraph& g : batch) {
    std::printf("  graph seed %-20llu result %llu\n",
                static_cast<unsigned long long>(g.seed),
                static_cast<unsigned long long>(g.oracle.count));
  }
  std::printf("host_s: median of %zu pass means, %s\n", pass_host.size(),
              TailNote(pass_host).c_str());
  PrintTable("end-to-end (tracing off; batch means):", end_to_end);

  std::vector<Metric> reported = end_to_end;
  if (traced_mode) {
    std::printf("traced passes: %zu\n", traced.size());
    reported = PerLayerMetrics(plain, traced, batch);
    PrintTable("per-layer (traced run; batch means):", reported);
  }
  std::printf("%s\n",
              ResultLine(failed == 0, attempted, failed, reported).c_str());
  return 0;
}

}  // namespace
}  // namespace minebench

int main(int argc, char** argv) {
  minebench::Args args;
  if (!minebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: minebench oracle --workload W --seed S "
                 "--oracle-dir DIR\n"
                 "       minebench measure --workload W --seed S --seconds T "
                 "--trace 0|1 --oracle-dir DIR\n");
    return 2;
  }
  const minebench::Workload* w = minebench::FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  return args.mode == "oracle" ? minebench::WriteOracles(*w, args)
                               : minebench::Measure(*w, args);
}
