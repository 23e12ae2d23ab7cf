#ifndef GAMMA_CORE_INTERSECTION_H_
#define GAMMA_CORE_INTERSECTION_H_

#include <span>
#include <vector>

#include "gpusim/warp.h"
#include "graph/csr.h"

namespace gpm::core {

/// Warp-parallel sorted-list primitives. Each helper both computes the
/// functional result and charges the calling warp with the SIMT cost of the
/// operation (merge-style intersection: one step per element pair scanned;
/// binary-search probes: log2 of the searched list per probe).
///
/// Charges depend only on the input sizes, never on the values or on how
/// the host computes the result, so the host kernels below may use any exact
/// algorithm without moving simulated time. Both intersections run the
/// same host kernel, a skip merge: the shorter list drives, and whole
/// 8-element blocks of the longer list are skipped while their last element
/// is below the current value, then the value is tested against the one
/// block that can hold it (SSE2, with a scalar merge for the tail and as
/// the whole kernel without SSE2).
///
/// Preconditions of the intersections: both inputs are strictly increasing
/// (graph adjacency lists and intersections of them are), and `out` aliases
/// neither input (CHECKed). Any previous contents of `out` are replaced.

/// out = a ∩ b. Charged as a warp merge over |a| + |b| elements.
void IntersectSorted(gpusim::WarpCtx& warp,
                     std::span<const graph::VertexId> a,
                     std::span<const graph::VertexId> b,
                     std::vector<graph::VertexId>* out);

/// out = a ∩ b via galloping: every element of the smaller list searches the
/// larger one. Charged |small| x log2(|large| + 1) — the right primitive
/// when the lists are very different sizes (hub adjacency vs a short
/// intersection prefix).
void IntersectGalloping(gpusim::WarpCtx& warp,
                        std::span<const graph::VertexId> a,
                        std::span<const graph::VertexId> b,
                        std::vector<graph::VertexId>* out);

/// Picks merge vs galloping by size ratio (gallop when the larger list is
/// >= kGallopRatio times the smaller; the classic adaptive intersection).
inline constexpr std::size_t kGallopRatio = 16;
void IntersectAdaptive(gpusim::WarpCtx& warp,
                       std::span<const graph::VertexId> a,
                       std::span<const graph::VertexId> b,
                       std::vector<graph::VertexId>* out);

/// out = a ∪ b (both sorted ascending, dedup). Charged as a warp merge.
void UnionSorted(gpusim::WarpCtx& warp, std::span<const graph::VertexId> a,
                 std::span<const graph::VertexId> b,
                 std::vector<graph::VertexId>* out);

/// True iff `x` is in sorted `list`; charged as one binary-search probe.
bool BinaryContains(gpusim::WarpCtx& warp,
                    std::span<const graph::VertexId> list,
                    graph::VertexId x);

}  // namespace gpm::core

#endif  // GAMMA_CORE_INTERSECTION_H_
