#ifndef GAMMA_GPUSIM_TRACE_H_
#define GAMMA_GPUSIM_TRACE_H_

#include <string>

#include "gpusim/critpath.h"
#include "gpusim/sim_params.h"

namespace gpm::gpusim {

/// Renders the command log's timeline as a Chrome trace-event JSON
/// document (`gamma.trace.v1`), loadable in Perfetto (ui.perfetto.dev) or
/// chrome://tracing.
///
/// Where `DeviceStats` answers *how much* and `RunProfile` answers *which
/// phase*, the timeline answers *when*. It is a view computed after the
/// run, never a second recorder:
///  - kernel and copy spans come from kKernel/kCopy records. Default-stream
///    spans land on the classic "kernels" track; each further stream gets
///    its own "stream N" track, so overlapped work renders as parallel
///    lanes;
///  - phase spans come from PhaseScope begin/end markers (plan-profiler
///    segment markers are skipped), each emitted at its end marker;
///  - each warp slot's busy run `work_start + [0, slot_finish[s]]` comes
///    from the kernel record, when the timeline was armed;
///  - UM page events and adaptivity decisions come from the log's
///    instants, with region/page (or extension/unified_pages) args.
///
/// Spans are emitted as balanced "B"/"E" pairs per track. Timestamps
/// convert from cycles to microseconds via `params`; the log's one
/// capacity and drop counter are reported in `otherData`.
std::string ToChromeTraceJson(const prof::CommandLog& log,
                              const SimParams& params);

}  // namespace gpm::gpusim

#endif  // GAMMA_GPUSIM_TRACE_H_
