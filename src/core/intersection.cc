#include "core/intersection.h"

#include <algorithm>
#include <bit>
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

/// 4x4 block merge: each step compares four elements of `a` against all
/// four of `b` (the four lane rotations of `b`), writes the matched `a`
/// lanes in order, and advances whichever block ends lower (both on a tie).
/// Strict increase makes every match unique to one block pair, so the
/// output equals the set intersection. Leftover elements go to MergeTail.
VertexId* BlockMerge(const VertexId* a, const VertexId* a_end,
                     const VertexId* b, const VertexId* b_end, VertexId* out) {
#ifdef __SSE2__
  const VertexId* a_blocks = a + ((a_end - a) & ~std::ptrdiff_t{3});
  const VertexId* b_blocks = b + ((b_end - b) & ~std::ptrdiff_t{3});
  while (a != a_blocks && b != b_blocks) {
    const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a));
    const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
    const __m128i rot1 = _mm_shuffle_epi32(vb, _MM_SHUFFLE(0, 3, 2, 1));
    const __m128i rot2 = _mm_shuffle_epi32(vb, _MM_SHUFFLE(1, 0, 3, 2));
    const __m128i rot3 = _mm_shuffle_epi32(vb, _MM_SHUFFLE(2, 1, 0, 3));
    const __m128i hit = _mm_or_si128(
        _mm_or_si128(_mm_cmpeq_epi32(va, vb), _mm_cmpeq_epi32(va, rot1)),
        _mm_or_si128(_mm_cmpeq_epi32(va, rot2), _mm_cmpeq_epi32(va, rot3)));
    for (unsigned mask = static_cast<unsigned>(
             _mm_movemask_ps(_mm_castsi128_ps(hit)));
         mask != 0; mask &= mask - 1) {
      *out++ = a[std::countr_zero(mask)];
    }
    const VertexId a_max = a[3];
    const VertexId b_max = b[3];
    a += 4 * (a_max <= b_max);
    b += 4 * (b_max <= a_max);
  }
#endif
  return MergeTail(a, a_end, b, b_end, out);
}

}  // namespace

void IntersectSorted(gpusim::WarpCtx& warp,
                     std::span<const graph::VertexId> a,
                     std::span<const graph::VertexId> b,
                     std::vector<graph::VertexId>* out) {
  CheckNoAlias(a, b, *out);
  warp.ChargeSimtWork(a.size() + b.size());
  out->resize(std::min(a.size(), b.size()));
  VertexId* end = BlockMerge(a.data(), a.data() + a.size(), b.data(),
                             b.data() + b.size(), out->data());
  out->resize(static_cast<std::size_t>(end - out->data()));
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
  std::span<const graph::VertexId> small = a.size() <= b.size() ? a : b;
  std::span<const graph::VertexId> large = a.size() <= b.size() ? b : a;
  double probes =
      large.empty() ? 1.0 : std::log2(static_cast<double>(large.size()) + 1);
  warp.ChargeSimtWork(small.size(), probes);
  out->resize(small.size());
  VertexId* dst = out->data();
  // Every element of `large` before `pos` is below the current `x`.
  const std::size_t n = large.size();
  std::size_t pos = 0;
  for (VertexId x : small) {
    // Gallop from the previous hit until large[hi] >= x, then bisect the
    // last stride.
    std::size_t hi = pos;
    for (std::size_t step = 1; hi < n && large[hi] < x; step <<= 1) {
      pos = hi + 1;
      hi = pos + step;
    }
    pos = static_cast<std::size_t>(
        std::lower_bound(large.begin() + pos,
                         large.begin() + std::min(hi, n), x) -
        large.begin());
    if (pos == n) break;
    if (large[pos] == x) {
      *dst++ = x;
      ++pos;
    }
  }
  out->resize(static_cast<std::size_t>(dst - out->data()));
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
