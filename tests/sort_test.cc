#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/multimerge_sort.h"

namespace gpm::core {
namespace {

gpusim::SimParams TinyDevice() {
  gpusim::SimParams p;
  p.device_memory_bytes = 256 << 10;   // small device => many segments
  p.um_device_buffer_bytes = 32 << 10;
  return p;
}

std::vector<uint64_t> RandomKeys(std::size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> keys(n);
  for (auto& k : keys) k = rng.Next();
  return keys;
}

TEST(MatchedIndexTest, Definition51Cases) {
  std::vector<uint64_t> s{10, 20, 20, 30};
  EXPECT_EQ(MatchedIndex(s, 5), 0u);    // x <= s[0]
  EXPECT_EQ(MatchedIndex(s, 10), 0u);
  EXPECT_EQ(MatchedIndex(s, 15), 1u);   // s[0] < x <= s[1]
  EXPECT_EQ(MatchedIndex(s, 20), 1u);
  EXPECT_EQ(MatchedIndex(s, 25), 3u);
  EXPECT_EQ(MatchedIndex(s, 31), 4u);   // x > all
}

class SortMethodTest : public ::testing::TestWithParam<SortMethod> {};

TEST_P(SortMethodTest, SortsRandomKeys) {
  gpusim::Device device(TinyDevice());
  auto keys = RandomKeys(50000, 7);
  auto expected = keys;
  std::sort(expected.begin(), expected.end());
  SortOptions options;
  options.method = GetParam();
  auto r = SortKeys(&device, &keys, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(keys, expected);
  EXPECT_EQ(r.value().keys, 50000u);
}

TEST_P(SortMethodTest, SortsWithDuplicates) {
  gpusim::Device device(TinyDevice());
  Rng rng(11);
  std::vector<uint64_t> keys(20000);
  for (auto& k : keys) k = rng.NextBounded(50);  // heavy duplication
  auto expected = keys;
  std::sort(expected.begin(), expected.end());
  SortOptions options;
  options.method = GetParam();
  options.p_size = 512;
  ASSERT_TRUE(SortKeys(&device, &keys, options).ok());
  EXPECT_EQ(keys, expected);
}

TEST_P(SortMethodTest, HandlesTinyInputs) {
  gpusim::Device device(TinyDevice());
  SortOptions options;
  options.method = GetParam();
  std::vector<uint64_t> empty;
  ASSERT_TRUE(SortKeys(&device, &empty, options).ok());
  std::vector<uint64_t> one{42};
  ASSERT_TRUE(SortKeys(&device, &one, options).ok());
  EXPECT_EQ(one, (std::vector<uint64_t>{42}));
  std::vector<uint64_t> two{9, 3};
  ASSERT_TRUE(SortKeys(&device, &two, options).ok());
  EXPECT_EQ(two, (std::vector<uint64_t>{3, 9}));
}

TEST_P(SortMethodTest, AlreadySortedStaysSorted) {
  gpusim::Device device(TinyDevice());
  std::vector<uint64_t> keys(30000);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = i;
  auto expected = keys;
  SortOptions options;
  options.method = GetParam();
  ASSERT_TRUE(SortKeys(&device, &keys, options).ok());
  EXPECT_EQ(keys, expected);
}

// Merge-shape inputs for the multi-merge methods. `segments` and
// `subtasks` are pinned: they follow from the segmentation and the
// checkpoints alone, so no change to the functional merge may move them.
struct MergeCase {
  const char* name;
  std::vector<uint64_t> keys;
  std::size_t segment_bytes;
  std::size_t p_size;
  std::size_t segments;
  std::size_t subtasks;
};

std::vector<MergeCase> MergeCases() {
  std::vector<MergeCase> cases;
  // 1024 keys per 8 KiB segment.
  cases.push_back({"odd-segments", RandomKeys(5 * 1024 - 100, 29), 8192,
                   256, 5, 16});
  {
    // Each segment holds its own value range, so every checkpoint interval
    // but one is empty in every segment but one.
    Rng rng(31);
    std::vector<uint64_t> keys;
    for (uint64_t seg = 0; seg < 4; ++seg) {
      for (int i = 0; i < 1024; ++i) {
        keys.push_back((seg << 40) | rng.NextBounded(1u << 20));
      }
    }
    cases.push_back({"empty-slices", std::move(keys), 8192, 128, 4, 29});
  }
  cases.push_back(
      {"all-equal", std::vector<uint64_t>(10000, 7), 8192, 256, 10, 2});
  {
    Rng rng(37);
    std::vector<uint64_t> keys(100000);
    for (auto& k : keys) k = rng.NextBounded(20) * 0x9e3779b97f4a7c15ull;
    cases.push_back({"heavy-duplicates", std::move(keys), 64 << 10, 1024, 13,
                     12});
  }
  return cases;
}

class MultiMergeTest : public ::testing::TestWithParam<SortMethod> {};

TEST_P(MultiMergeTest, MatchesStdSortWithUnchangedShape) {
  for (MergeCase& c : MergeCases()) {
    gpusim::Device device(TinyDevice());
    std::vector<uint64_t> expected = c.keys;
    std::sort(expected.begin(), expected.end());
    SortOptions options;
    options.method = GetParam();
    options.segment_bytes = c.segment_bytes;
    options.p_size = c.p_size;
    auto r = SortKeys(&device, &c.keys, options);
    ASSERT_TRUE(r.ok()) << c.name << ": " << r.status().ToString();
    EXPECT_EQ(c.keys, expected) << c.name;
    EXPECT_EQ(r.value().segments, c.segments) << c.name;
    EXPECT_EQ(r.value().subtasks, c.subtasks) << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    MergeMethods, MultiMergeTest,
    ::testing::Values(SortMethod::kGammaMultiMerge, SortMethod::kNaiveMerge),
    [](const ::testing::TestParamInfo<SortMethod>& info) {
      std::string name = SortMethodName(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

INSTANTIATE_TEST_SUITE_P(
    AllMethods, SortMethodTest,
    ::testing::Values(SortMethod::kGammaMultiMerge, SortMethod::kNaiveMerge,
                      SortMethod::kXtr2Sort, SortMethod::kCpuSort),
    [](const ::testing::TestParamInfo<SortMethod>& info) {
      std::string name = SortMethodName(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// The segment phase's radix sort on shapes where a digit pass could go
// wrong: empty and tiny inputs, one shared value (no pass at all), keys at
// the top of the range, keys that differ only in the narrow top digit, and
// segment sizes that leave a short last segment.
std::vector<std::pair<std::string, std::vector<uint64_t>>> RadixCases() {
  std::vector<std::pair<std::string, std::vector<uint64_t>>> cases;
  cases.push_back({"empty", {}});
  cases.push_back({"one", {UINT64_MAX}});
  cases.push_back({"two", {UINT64_MAX, 0}});
  cases.push_back({"all-equal", std::vector<uint64_t>(3000, 0xabcdefull)});
  Rng rng(43);
  {
    std::vector<uint64_t> keys(3000);
    for (auto& k : keys) k = UINT64_MAX - rng.NextBounded(5000);
    cases.push_back({"near-max", std::move(keys)});
  }
  {
    // Bits 55..63 vary, the 55 bits below are one shared pattern.
    std::vector<uint64_t> keys(3000);
    for (auto& k : keys) {
      k = (rng.NextBounded(512) << 55) | 0x12345678abcdeull;
    }
    cases.push_back({"top-digit-only", std::move(keys)});
  }
  {
    // Only the top bit of digits 0, 1 and 5 varies.
    std::vector<uint64_t> keys(3000);
    for (auto& k : keys) {
      k = (rng.NextBounded(2) << 10) | (rng.NextBounded(2) << 21) |
          (rng.NextBounded(2) << 63) | 0x5555ull;
    }
    cases.push_back({"digit-top-bits", std::move(keys)});
  }
  {
    // Dense ranks below one digit, as aggregation sorts them.
    std::vector<uint64_t> keys(5000);
    for (auto& k : keys) k = rng.NextBounded(300);
    cases.push_back({"small-ranks", std::move(keys)});
  }
  cases.push_back({"random-1", RandomKeys(1, 47)});
  cases.push_back({"random-2", RandomKeys(2, 53)});
  cases.push_back({"random-multi-segment", RandomKeys(2 * 512 + 7, 59)});
  return cases;
}

TEST_P(MultiMergeTest, RadixSegmentsMatchStdSort) {
  // 512 keys per 4 KiB segment, and one segment for the whole input.
  for (std::size_t segment_bytes : {std::size_t{4096}, std::size_t{1} << 20}) {
    for (auto& [name, input] : RadixCases()) {
      gpusim::Device device(TinyDevice());
      std::vector<uint64_t> keys = input;
      std::vector<uint64_t> expected = input;
      std::sort(expected.begin(), expected.end());
      SortOptions options;
      options.method = GetParam();
      options.segment_bytes = segment_bytes;
      options.p_size = 64;
      auto r = SortKeys(&device, &keys, options);
      ASSERT_TRUE(r.ok()) << name << ": " << r.status().ToString();
      EXPECT_EQ(keys, expected) << name << ", segment_bytes " << segment_bytes;
    }
  }
}

TEST_P(MultiMergeTest, ChargesDependOnlyOnKeyOrder) {
  // Sorting keys or a strictly increasing relabel of them (here their dense
  // ranks) must charge identically: aggregation sorts ranks in place of
  // pattern codes and relies on this.
  Rng rng(61);
  std::vector<uint64_t> keys(20000);
  for (auto& k : keys) k = rng.NextBounded(400) * 0x9e3779b97f4a7c15ull;
  std::vector<uint64_t> distinct = keys;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  std::vector<uint64_t> ranks(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ranks[i] = std::lower_bound(distinct.begin(), distinct.end(), keys[i]) -
               distinct.begin();
  }
  for (std::size_t streams : {std::size_t{1}, std::size_t{2}}) {
    SortOptions options;
    options.method = GetParam();
    options.segment_bytes = 16 << 10;
    options.p_size = 256;
    options.num_streams = streams;
    gpusim::Device code_device(TinyDevice());
    auto by_code = SortKeys(&code_device, &keys, options);
    gpusim::Device rank_device(TinyDevice());
    auto by_rank = SortKeys(&rank_device, &ranks, options);
    ASSERT_TRUE(by_code.ok() && by_rank.ok());
    EXPECT_EQ(by_rank.value().keys, by_code.value().keys);
    EXPECT_EQ(by_rank.value().segments, by_code.value().segments);
    EXPECT_GT(by_code.value().segments, 1u);
    EXPECT_EQ(by_rank.value().subtasks, by_code.value().subtasks);
    EXPECT_EQ(by_rank.value().cycles, by_code.value().cycles);
    EXPECT_EQ(rank_device.now_cycles(), code_device.now_cycles());
    EXPECT_EQ(gpusim::StatsJson(rank_device.stats()),
              gpusim::StatsJson(code_device.stats()));
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(distinct[ranks[i]], keys[i]) << "streams " << streams;
    }
  }
}

TEST_P(MultiMergeTest, ZeroCheckpointSpacingRejected) {
  // Several segments, so the checkpoint collection would run.
  gpusim::Device device(TinyDevice());
  auto keys = RandomKeys(2000, 67);
  SortOptions options;
  options.method = GetParam();
  options.segment_bytes = 4096;
  options.p_size = 0;
  auto r = SortKeys(&device, &keys, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);
}

TEST(SortCostTest, OutOfCoreUsesMultipleSegments) {
  gpusim::Device device(TinyDevice());
  auto keys = RandomKeys(100000, 13);  // 800 KB >> device
  SortOptions options;
  options.p_size = 4096;  // below the segment size => real checkpoints
  auto r = SortKeys(&device, &keys, options);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.value().segments, 1u);
  EXPECT_GT(r.value().subtasks, 1u);
}

TEST(SortCostTest, GammaFasterThanNaive) {
  auto run = [](SortMethod m) {
    gpusim::Device device(TinyDevice());
    auto keys = RandomKeys(200000, 17);
    SortOptions options;
    options.method = m;
    EXPECT_TRUE(SortKeys(&device, &keys, options).ok());
    return device.now_cycles();
  };
  double gamma_cycles = run(SortMethod::kGammaMultiMerge);
  double naive_cycles = run(SortMethod::kNaiveMerge);
  double cpu_cycles = run(SortMethod::kCpuSort);
  EXPECT_LT(gamma_cycles, naive_cycles);
  EXPECT_LT(gamma_cycles, cpu_cycles);
}

TEST(SortCostTest, InCoreOnlyFailsWhenTooLarge) {
  gpusim::Device device(TinyDevice());
  auto keys = RandomKeys(100000, 19);  // 800 KB
  SortOptions options;
  options.in_core_only = true;
  auto r = SortKeys(&device, &keys, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kDeviceOutOfMemory);
}

TEST(SortCostTest, InCoreOnlySucceedsWhenItFits) {
  gpusim::Device device(TinyDevice());
  auto keys = RandomKeys(1000, 23);
  auto expected = keys;
  std::sort(expected.begin(), expected.end());
  SortOptions options;
  options.in_core_only = true;
  ASSERT_TRUE(SortKeys(&device, &keys, options).ok());
  EXPECT_EQ(keys, expected);
}

}  // namespace
}  // namespace gpm::core
