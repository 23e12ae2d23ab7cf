#include "algos/fpm.h"

#include <utility>

#include "core/compiled_engine.h"

namespace gpm::algos {

Result<FpmResult> MineFrequentPatterns(core::GammaEngine* engine,
                                       const FpmOptions& options) {
  core::PatternCompiler compiler(&engine->graph());
  auto plan = compiler.CompileFpm(options.max_edges, options.min_support);
  if (!plan.ok()) return plan.status();
  auto run = core::CompiledEngine(engine).Run(plan.value());
  if (!run.ok()) return run.status();

  FpmResult result;
  result.patterns = std::move(run.value().patterns);
  result.sim_millis = run.value().sim_millis;
  result.steps = std::move(run.value().steps);
  result.aggregations = std::move(run.value().aggregations);
  result.plan = std::move(plan).value();
  return result;
}

}  // namespace gpm::algos
