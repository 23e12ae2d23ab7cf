#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/intersection.h"
#include "gpusim/device.h"

namespace gpm::core {
namespace {

using graph::VertexId;

gpusim::SimParams SmallParams() {
  gpusim::SimParams p;
  p.device_memory_bytes = 1 << 20;
  p.um_device_buffer_bytes = 0;
  return p;
}

std::vector<VertexId> Evens(std::size_t n) {
  std::vector<VertexId> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<VertexId>(2 * i);
  return v;
}

std::vector<VertexId> Multiples(std::size_t n, VertexId step) {
  std::vector<VertexId> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<VertexId>(step * i);
  }
  return v;
}

template <typename Fn>
std::pair<std::vector<VertexId>, double> RunIntersect(
    Fn&& fn, const std::vector<VertexId>& a,
    const std::vector<VertexId>& b) {
  gpusim::Device device(SmallParams());
  std::vector<VertexId> out;
  double cycles = 0;
  device.LaunchKernel(1, [&](gpusim::WarpCtx& w, std::size_t) {
    fn(w, a, b, &out);
    cycles = w.cycles();
  });
  return {out, cycles};
}

TEST(IntersectionTest, MergeAndGallopingAgree) {
  auto a = Evens(100);                // 0,2,...,198
  auto b = Multiples(40, 3);          // 0,3,...,117
  auto [merge_out, merge_cycles] = RunIntersect(IntersectSorted, a, b);
  auto [gallop_out, gallop_cycles] =
      RunIntersect(IntersectGalloping, a, b);
  EXPECT_EQ(merge_out, gallop_out);
  // Multiples of 6 up to min(198, 117).
  std::vector<VertexId> expected;
  for (VertexId x = 0; x <= 117; x += 6) expected.push_back(x);
  EXPECT_EQ(merge_out, expected);
}

TEST(IntersectionTest, GallopingCheaperWhenLopsided) {
  auto small = Multiples(8, 100);     // 8 elements
  auto large = Evens(100000);         // 100k elements
  auto [m_out, merge_cycles] = RunIntersect(IntersectSorted, small, large);
  auto [g_out, gallop_cycles] =
      RunIntersect(IntersectGalloping, small, large);
  EXPECT_EQ(m_out, g_out);
  EXPECT_LT(gallop_cycles, merge_cycles / 10);
}

TEST(IntersectionTest, MergeCheaperWhenBalanced) {
  auto a = Evens(5000);
  auto b = Multiples(5000, 3);
  auto [m_out, merge_cycles] = RunIntersect(IntersectSorted, a, b);
  auto [g_out, gallop_cycles] =
      RunIntersect(IntersectGalloping, a, b);
  EXPECT_EQ(m_out, g_out);
  EXPECT_LT(merge_cycles, gallop_cycles);
}

TEST(IntersectionTest, AdaptivePicksTheCheaper) {
  // Lopsided: adaptive should cost like galloping.
  auto small = Multiples(8, 100);
  auto large = Evens(100000);
  auto [a_out, adaptive_cycles] =
      RunIntersect(IntersectAdaptive, small, large);
  auto [g_out, gallop_cycles] =
      RunIntersect(IntersectGalloping, small, large);
  EXPECT_EQ(a_out, g_out);
  EXPECT_DOUBLE_EQ(adaptive_cycles, gallop_cycles);

  // Balanced: adaptive should cost like merge.
  auto a = Evens(5000);
  auto b = Multiples(5000, 3);
  auto [a2_out, adaptive2] = RunIntersect(IntersectAdaptive, a, b);
  auto [m2_out, merge2] = RunIntersect(IntersectSorted, a, b);
  EXPECT_EQ(a2_out, m2_out);
  EXPECT_DOUBLE_EQ(adaptive2, merge2);
}

TEST(IntersectionTest, EmptyInputs) {
  std::vector<VertexId> empty;
  auto a = Evens(10);
  auto [out1, c1] = RunIntersect(IntersectAdaptive, empty, a);
  EXPECT_TRUE(out1.empty());
  auto [out2, c2] = RunIntersect(IntersectAdaptive, a, empty);
  EXPECT_TRUE(out2.empty());
  auto [out3, c3] = RunIntersect(IntersectSorted, empty, empty);
  EXPECT_TRUE(out3.empty());
}

TEST(IntersectionTest, UnionSortedDedups) {
  gpusim::Device device(SmallParams());
  std::vector<VertexId> a{1, 3, 5}, b{3, 4, 5, 6}, out;
  device.LaunchKernel(1, [&](gpusim::WarpCtx& w, std::size_t) {
    UnionSorted(w, a, b, &out);
  });
  EXPECT_EQ(out, (std::vector<VertexId>{1, 3, 4, 5, 6}));
}

TEST(IntersectionTest, BinaryContainsProbes) {
  gpusim::Device device(SmallParams());
  auto list = Evens(1000);
  device.LaunchKernel(1, [&](gpusim::WarpCtx& w, std::size_t) {
    EXPECT_TRUE(BinaryContains(w, list, 500));
    EXPECT_FALSE(BinaryContains(w, list, 501));
    EXPECT_GT(w.cycles(), 0.0);
  });
}

// ---- Property test against std::set_intersection -------------------------

struct Case {
  std::string name;
  std::vector<VertexId> a;
  std::vector<VertexId> b;
};

// `n` distinct values from [base, base + universe), ascending.
std::vector<VertexId> RandomSet(std::mt19937& rng, std::size_t n,
                                uint64_t base, uint64_t universe) {
  std::vector<uint64_t> all(universe);
  std::iota(all.begin(), all.end(), base);
  std::vector<uint64_t> picked;
  std::sample(all.begin(), all.end(), std::back_inserter(picked), n, rng);
  return {picked.begin(), picked.end()};
}

std::vector<Case> PropertyCases() {
  std::mt19937 rng(20231);
  std::vector<Case> cases;
  // Every pair of lengths 0..67: each block count and each tail length mod
  // 4 on both sides. Universes just above the longer list keep the lists
  // dense enough that matches land in every lane and in the tails.
  for (std::size_t na = 0; na <= 67; ++na) {
    for (std::size_t nb = 0; nb <= 67; ++nb) {
      uint64_t universe = std::max(na, nb) + 1 + rng() % 64;
      cases.push_back({"len " + std::to_string(na) + "x" + std::to_string(nb),
                       RandomSet(rng, na, 0, universe),
                       RandomSet(rng, nb, 0, universe)});
    }
  }
  // 1:100 lopsided, both orders; the small list half inside the large.
  for (std::size_t small : {1u, 3u, 17u, 40u}) {
    std::vector<VertexId> large = RandomSet(rng, 100 * small, 0,
                                            300 * small);
    std::vector<VertexId> picks;
    std::sample(large.begin(), large.end(), std::back_inserter(picks),
                small / 2, rng);
    std::vector<VertexId> others = RandomSet(rng, small - small / 2, 0,
                                             300 * small);
    std::vector<VertexId> mixed;
    std::set_union(picks.begin(), picks.end(), others.begin(), others.end(),
                   std::back_inserter(mixed));
    cases.push_back({"lopsided small-first " + std::to_string(small), mixed,
                     large});
    cases.push_back({"lopsided large-first " + std::to_string(small), large,
                     mixed});
  }
  // Identical lists (copies, not aliases).
  for (std::size_t n : {1u, 4u, 5u, 31u, 64u, 1000u}) {
    std::vector<VertexId> v = RandomSet(rng, n, 0, 3 * n);
    cases.push_back({"identical " + std::to_string(n), v, v});
  }
  // Disjoint: one list entirely below the other, and interleaved evens/odds.
  cases.push_back({"disjoint ranges", RandomSet(rng, 50, 0, 100),
                   RandomSet(rng, 70, 100, 200)});
  cases.push_back({"disjoint ranges reversed", RandomSet(rng, 70, 100, 200),
                   RandomSet(rng, 50, 0, 100)});
  {
    std::vector<VertexId> evens, odds;
    for (VertexId x = 0; x < 200; ++x) (x % 2 ? odds : evens).push_back(x);
    cases.push_back({"interleaved evens/odds", evens, odds});
  }
  // Interleaved runs: alternating stretches owned by one list, the other,
  // or both, so block advances alternate sides and skip long runs.
  {
    std::vector<VertexId> a, b;
    VertexId x = 0;
    for (int run = 0; run < 40; ++run) {
      int owner = static_cast<int>(rng() % 3);
      int len = 1 + static_cast<int>(rng() % 11);
      for (int i = 0; i < len; ++i, ++x) {
        if (owner != 1) a.push_back(x);
        if (owner != 0) b.push_back(x);
      }
    }
    cases.push_back({"interleaved runs", a, b});
  }
  // Skip-merge shapes (the shorter list walks 8-element blocks of the
  // longer one), each in both argument orders.
  auto both_orders = [&cases](const std::string& name,
                              const std::vector<VertexId>& short_list,
                              const std::vector<VertexId>& long_list) {
    cases.push_back({name + " short-first", short_list, long_list});
    cases.push_back({name + " long-first", long_list, short_list});
  };
  // `n_hits` values drawn from `long_list` plus `n - n_hits` values of
  // [0, universe) outside it, ascending.
  auto mixed = [&rng](const std::vector<VertexId>& long_list, std::size_t n,
                      std::size_t n_hits, uint64_t universe) {
    std::vector<VertexId> all(universe), outside, hits, misses, out;
    std::iota(all.begin(), all.end(), VertexId{0});
    std::set_difference(all.begin(), all.end(), long_list.begin(),
                        long_list.end(), std::back_inserter(outside));
    std::sample(long_list.begin(), long_list.end(), std::back_inserter(hits),
                n_hits, rng);
    std::sample(outside.begin(), outside.end(), std::back_inserter(misses),
                n - n_hits, rng);
    std::merge(hits.begin(), hits.end(), misses.begin(), misses.end(),
               std::back_inserter(out));
    return out;
  };
  // Sizes of profiled vertex-extension traffic: short x long, about half
  // of the short list inside the long one.
  for (auto [ns, nl] : {std::pair<std::size_t, std::size_t>{90, 300},
                        {60, 180},
                        {13, 540},
                        {1, 943}}) {
    std::vector<VertexId> long_list = RandomSet(rng, nl, 0, 3 * nl);
    both_orders("profiled " + std::to_string(ns) + "x" + std::to_string(nl),
                mixed(long_list, ns, (ns + 1) / 2, 3 * nl), long_list);
  }
  // The short list is exactly the long list's block-last elements, the
  // values a skip test must not skip past.
  for (std::size_t nl : {64u, 203u}) {
    std::vector<VertexId> long_list = RandomSet(rng, nl, 0, 2 * nl);
    std::vector<VertexId> lasts;
    for (std::size_t i = 7; i < nl; i += 8) lasts.push_back(long_list[i]);
    both_orders("block lasts " + std::to_string(nl), lasts, long_list);
  }
  // The short list lies entirely past the long list's last full block:
  // hits only in the long list's tail, and none at all when it has none.
  for (std::size_t nl : {96u, 101u, 103u}) {
    std::vector<VertexId> long_list = RandomSet(rng, nl, 0, 4 * nl);
    const std::size_t full = nl & ~std::size_t{7};
    std::vector<VertexId> past;
    for (VertexId x = long_list[full - 1] + 1;
         past.size() < 9 && x < long_list.back() + 20; x += 1 + rng() % 2) {
      past.push_back(x);
    }
    both_orders("past last block " + std::to_string(nl), past, long_list);
  }
  // Long-list lengths 1..7 (mod 8), the last element always a hit.
  for (std::size_t r = 1; r <= 7; ++r) {
    const std::size_t nl = 48 + r;
    std::vector<VertexId> long_list = RandomSet(rng, nl, 0, 2 * nl);
    std::vector<VertexId> short_list = mixed(long_list, 11, 5, 2 * nl);
    short_list.push_back(long_list.back());
    std::sort(short_list.begin(), short_list.end());
    short_list.erase(std::unique(short_list.begin(), short_list.end()),
                     short_list.end());
    both_orders("long mod 8 = " + std::to_string(r), short_list, long_list);
  }
  // Values at the top of the unsigned range, UINT32_MAX included.
  constexpr uint64_t kMax = std::numeric_limits<VertexId>::max();
  for (std::size_t n : {5u, 37u, 66u}) {
    std::vector<VertexId> a = RandomSet(rng, n, kMax - 2 * n + 1, 2 * n);
    std::vector<VertexId> b = RandomSet(rng, n + 3, kMax - 2 * n + 1, 2 * n);
    b.back() = static_cast<VertexId>(kMax);
    a.back() = static_cast<VertexId>(kMax);
    cases.push_back({"near max " + std::to_string(n), a, b});
  }
  return cases;
}

// Size-only charges: a merge is ceil((|a| + |b|) / warp) steps of one
// cycle; galloping is ceil(|small| / warp) steps of log2(|large| + 1).
double SimtCharge(std::size_t elems, double cycles_per_step) {
  const std::size_t warp = static_cast<std::size_t>(SmallParams().warp_size);
  return static_cast<double>((elems + warp - 1) / warp) * cycles_per_step;
}
double MergeCharge(const Case& c) {
  return SimtCharge(c.a.size() + c.b.size(), 1.0);
}
double GallopCharge(const Case& c) {
  std::size_t small = std::min(c.a.size(), c.b.size());
  std::size_t large = std::max(c.a.size(), c.b.size());
  return SimtCharge(small, large == 0 ? 1.0
                                      : std::log2(static_cast<double>(large) +
                                                  1));
}
double AdaptiveCharge(const Case& c) {
  std::size_t small = std::min(c.a.size(), c.b.size());
  std::size_t large = std::max(c.a.size(), c.b.size());
  if (small == 0) return 0;
  return large / small >= kGallopRatio ? GallopCharge(c) : MergeCharge(c);
}

template <typename Fn, typename Charge>
void CheckAgainstStd(const char* label, Fn&& fn, Charge&& charge) {
  std::vector<Case> cases = PropertyCases();
  std::vector<std::vector<VertexId>> outs(cases.size());
  std::vector<double> cycles(cases.size());
  // Every other case reuses a non-empty `out` holding stale values.
  for (std::size_t i = 1; i < outs.size(); i += 2) {
    outs[i].assign(1 + i % 90, 0xdeadbeefu);
  }
  gpusim::Device device(SmallParams());
  device.LaunchKernel(cases.size(), [&](gpusim::WarpCtx& w, std::size_t i) {
    fn(w, cases[i].a, cases[i].b, &outs[i]);
    cycles[i] = w.cycles();
  });
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    std::vector<VertexId> expected;
    std::set_intersection(c.a.begin(), c.a.end(), c.b.begin(), c.b.end(),
                          std::back_inserter(expected));
    EXPECT_EQ(outs[i], expected) << label << ": " << c.name;
    EXPECT_EQ(cycles[i], charge(c)) << label << ": " << c.name;
  }
}

TEST(IntersectionPropertyTest, SortedMatchesStdSetIntersection) {
  CheckAgainstStd("IntersectSorted", IntersectSorted, MergeCharge);
}

TEST(IntersectionPropertyTest, GallopingMatchesStdSetIntersection) {
  CheckAgainstStd("IntersectGalloping", IntersectGalloping, GallopCharge);
}

TEST(IntersectionPropertyTest, AdaptiveMatchesStdSetIntersection) {
  CheckAgainstStd("IntersectAdaptive", IntersectAdaptive, AdaptiveCharge);
}

}  // namespace
}  // namespace gpm::core
