#include "core/intersection.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

#ifdef __SSE2__
#include <emmintrin.h>
#endif

namespace gpm::core {
namespace {

using graph::VertexId;

void CheckNoAlias(std::span<const VertexId> a, std::span<const VertexId> b,
                  const std::vector<VertexId>& out) {
  // An empty input has nothing to overwrite, whatever its pointer.
  GAMMA_CHECK((a.empty() || a.data() != out.data()) &&
              (b.empty() || b.data() != out.data()))
      << "intersection output aliases an input";
}

/// Branchless merge of two strictly increasing ranges. `out` has room for
/// min of the two remaining lengths; returns one past the last match.
VertexId* MergeTail(const VertexId* a, const VertexId* a_end,
                    const VertexId* b, const VertexId* b_end, VertexId* out) {
  while (a != a_end && b != b_end) {
    const VertexId x = *a;
    const VertexId y = *b;
    *out = x;
    out += x == y;
    a += x <= y;
    b += y <= x;
  }
  return out;
}

/// Skip merge: the loop walks the shorter list `s`. For each `x`, whole
/// 8-element blocks of the longer list `l` are skipped while their last
/// element is below `x`; `x` is then tested against the one block that can
/// hold it and written branchlessly. `s` increases, so `l` only moves
/// forward. Values past the last full block, and the elements of `l`
/// after it, go to MergeTail.
VertexId* SkipMerge(const VertexId* s, const VertexId* s_end,
                    const VertexId* l, const VertexId* l_end, VertexId* out) {
#ifdef __SSE2__
  const VertexId* l_blocks = l + ((l_end - l) & ~std::ptrdiff_t{7});
  if (l != l_blocks) {
    const VertexId last = l_blocks[-1];
    for (; s != s_end && *s <= last; ++s) {
      const VertexId x = *s;
      // x <= last keeps the skips inside the full blocks. The first skip
      // is branchless: most values skip no block or one.
      l += 8 * (l[7] < x);
      while (l[7] < x) l += 8;
      const __m128i vx = _mm_set1_epi32(static_cast<int>(x));
      const __m128i lo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(l));
      const __m128i hi =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(l + 4));
      const __m128i hit =
          _mm_or_si128(_mm_cmpeq_epi32(vx, lo), _mm_cmpeq_epi32(vx, hi));
      *out = x;
      out += _mm_movemask_epi8(hit) != 0;
    }
    l = l_blocks;
  }
#endif
  return MergeTail(s, s_end, l, l_end, out);
}

/// out = a ∩ b through SkipMerge, the shorter list driving.
void SkipIntersect(std::span<const VertexId> a, std::span<const VertexId> b,
                   std::vector<VertexId>* out) {
  std::span<const VertexId> small = a.size() <= b.size() ? a : b;
  std::span<const VertexId> large = a.size() <= b.size() ? b : a;
  out->resize(small.size());
  VertexId* end = SkipMerge(small.data(), small.data() + small.size(),
                            large.data(), large.data() + large.size(),
                            out->data());
  out->resize(static_cast<std::size_t>(end - out->data()));
}

}  // namespace

void IntersectSorted(gpusim::WarpCtx& warp,
                     std::span<const graph::VertexId> a,
                     std::span<const graph::VertexId> b,
                     std::vector<graph::VertexId>* out) {
  CheckNoAlias(a, b, *out);
  warp.ChargeSimtWork(a.size() + b.size());
  SkipIntersect(a, b, out);
}

void UnionSorted(gpusim::WarpCtx& warp, std::span<const graph::VertexId> a,
                 std::span<const graph::VertexId> b,
                 std::vector<graph::VertexId>* out) {
  out->clear();
  warp.ChargeSimtWork(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(*out));
}

void IntersectGalloping(gpusim::WarpCtx& warp,
                        std::span<const graph::VertexId> a,
                        std::span<const graph::VertexId> b,
                        std::vector<graph::VertexId>* out) {
  CheckNoAlias(a, b, *out);
  const std::size_t small = std::min(a.size(), b.size());
  const std::size_t large = std::max(a.size(), b.size());
  double probes =
      large == 0 ? 1.0 : std::log2(static_cast<double>(large) + 1);
  warp.ChargeSimtWork(small, probes);
  SkipIntersect(a, b, out);
}

void IntersectAdaptive(gpusim::WarpCtx& warp,
                       std::span<const graph::VertexId> a,
                       std::span<const graph::VertexId> b,
                       std::vector<graph::VertexId>* out) {
  std::size_t small = std::min(a.size(), b.size());
  std::size_t large = std::max(a.size(), b.size());
  if (small == 0) {
    out->clear();
    return;
  }
  if (large / small >= kGallopRatio) {
    IntersectGalloping(warp, a, b, out);
  } else {
    IntersectSorted(warp, a, b, out);
  }
}

bool BinaryContains(gpusim::WarpCtx& warp,
                    std::span<const graph::VertexId> list,
                    graph::VertexId x) {
  double probes =
      list.empty() ? 1.0 : std::log2(static_cast<double>(list.size()) + 1);
  warp.ChargeCompute(probes);
  return std::binary_search(list.begin(), list.end(), x);
}

}  // namespace gpm::core
