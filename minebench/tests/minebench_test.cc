// The benchmark's own checks: its workloads stay correct and do work at a
// seed other than the default, a wrong expected result is caught, and the
// simulated outputs do not depend on host threads or tracing.
#include <gtest/gtest.h>

#include "workloads.h"

namespace minebench {
namespace {

constexpr uint64_t kDefaultSeed = 7;
constexpr uint64_t kSecondSeed = 8;

const Workload& Get(const char* name) {
  const Workload* w = FindWorkload(name);
  EXPECT_NE(w, nullptr) << name;
  return *w;
}

TEST(MinebenchTest, SecondSeedRunsCleanAndWrongExpectationsFail) {
  for (const Workload& w : Workloads()) {
    SCOPED_TRACE(w.name);
    const Oracle oracle = ComputeOracle(w, kSecondSeed);
    const Repetition rep = RunRepetition(w, kSecondSeed, {});
    ASSERT_TRUE(rep.status.ok()) << rep.status.ToString();
    EXPECT_GT(rep.sim.count, 0u);
    EXPECT_GT(rep.sim.sim_ms, 0.0);
    EXPECT_GT(rep.sim.stats.warp_tasks, 0u);
    EXPECT_EQ(CheckAgainstOracle(w, rep.sim, oracle), "");

    Oracle wrong = oracle;
    if (wrong.supports.empty()) {
      wrong.count += 1;
    } else {
      wrong.supports.begin()->second += 1;
    }
    EXPECT_NE(CheckAgainstOracle(w, rep.sim, wrong), "");
  }
}

TEST(MinebenchTest, HostThreadsDoNotChangeSimulatedOutput) {
  const Workload& two_threads = Get("kcl5-cl");
  ASSERT_EQ(two_threads.host_threads, 2);
  Workload one_thread = two_threads;
  one_thread.host_threads = 1;
  const Repetition one = RunRepetition(one_thread, kDefaultSeed, {});
  const Repetition two = RunRepetition(two_threads, kDefaultSeed, {});
  ASSERT_TRUE(one.status.ok()) << one.status.ToString();
  ASSERT_TRUE(two.status.ok()) << two.status.ToString();
  EXPECT_EQ(DescribeSimDifference(one.sim, two.sim), "");
  EXPECT_EQ(one.layers, two.layers);
}

TEST(MinebenchTest, TracingDoesNotChangeSimulatedOutput) {
  const Workload& w = Get("kcl5-cl");
  const Repetition plain = RunRepetition(w, kDefaultSeed, {});
  const Repetition traced = RunRepetition(w, kDefaultSeed, {.traced = true});
  ASSERT_TRUE(plain.status.ok()) << plain.status.ToString();
  ASSERT_TRUE(traced.status.ok()) << traced.status.ToString();
  EXPECT_EQ(DescribeSimDifference(plain.sim, traced.sim), "");
  for (const auto& [name, value] : plain.layers) {
    EXPECT_EQ(traced.layers.at(name), value) << name;
  }
  EXPECT_GT(traced.layers.size(), plain.layers.size());
}

TEST(MinebenchTest, OracleDocumentRoundTrips) {
  const Workload& w = Get("fpm3-er");
  Oracle oracle;
  oracle.count = 2;
  oracle.supports = {{11, 400}, {42, 377}};
  oracle.host_s = 1.25;
  const std::string text = FormatOracle(w, kDefaultSeed, oracle);
  auto parsed = ParseOracle(text, w, kDefaultSeed);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().count, 2u);
  EXPECT_EQ(parsed.value().supports, oracle.supports);
  EXPECT_EQ(parsed.value().host_s, 1.25);
  EXPECT_FALSE(ParseOracle(text, w, kSecondSeed).ok());
  EXPECT_FALSE(ParseOracle(text, Get("kcl5-cl"), kDefaultSeed).ok());
  EXPECT_FALSE(ParseOracle(text + "pattern 7\n", w, kDefaultSeed).ok());
}

}  // namespace
}  // namespace minebench
