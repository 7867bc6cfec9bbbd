// Failpoint framework: trigger grammar, firing schedules, and env-style
// configuration.

#include "common/failpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace corra::fail {
namespace {

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { ClearAll(); }
  void TearDown() override { ClearAll(); }
};

TEST_F(FailpointTest, UnarmedSiteNeverFires) {
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(CORRA_FAILPOINT("test.unarmed"));
  }
  EXPECT_EQ(Evaluations("test.unarmed"), 0u);
}

TEST_F(FailpointTest, OffSpecParksButCounts) {
  ASSERT_TRUE(Configure("test.off", "off").ok());
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(CORRA_FAILPOINT("test.off"));
  }
  EXPECT_EQ(Evaluations("test.off"), 10u);
  EXPECT_EQ(Fires("test.off"), 0u);
}

TEST_F(FailpointTest, EveryNthFiresOnSchedule) {
  ASSERT_TRUE(Configure("test.every", "every:3").ok());
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) {
    fired.push_back(CORRA_FAILPOINT("test.every"));
  }
  // Fires on evaluations 3, 6, 9 (every 3rd).
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false,
                                      true, false, false, true}));
  EXPECT_EQ(Evaluations("test.every"), 9u);
  EXPECT_EQ(Fires("test.every"), 3u);
}

TEST_F(FailpointTest, EveryOneFiresAlways) {
  ASSERT_TRUE(Configure("test.always", "every:1").ok());
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(CORRA_FAILPOINT("test.always"));
  }
}

TEST_F(FailpointTest, TimesNFiresExactlyNThenStops) {
  ASSERT_TRUE(Configure("test.times", "times:2").ok());
  EXPECT_TRUE(CORRA_FAILPOINT("test.times"));
  EXPECT_TRUE(CORRA_FAILPOINT("test.times"));
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(CORRA_FAILPOINT("test.times"));
  }
  EXPECT_EQ(Fires("test.times"), 2u);
}

TEST_F(FailpointTest, ProbZeroNeverProbOneAlways) {
  ASSERT_TRUE(Configure("test.p0", "prob:0").ok());
  ASSERT_TRUE(Configure("test.p1", "prob:1").ok());
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(CORRA_FAILPOINT("test.p0"));
    EXPECT_TRUE(CORRA_FAILPOINT("test.p1"));
  }
}

TEST_F(FailpointTest, SeededProbIsDeterministic) {
  auto run = [] {
    EXPECT_TRUE(Configure("test.seeded", "prob:0.5:42").ok());
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(CORRA_FAILPOINT("test.seeded"));
    }
    return fired;
  };
  const std::vector<bool> first = run();
  const std::vector<bool> second = run();  // Reconfigure resets the RNG.
  EXPECT_EQ(first, second);
  // A fair-ish coin: both outcomes occur in 64 draws.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 64);
}

TEST_F(FailpointTest, ReconfigureReplacesAndResetsCounters) {
  ASSERT_TRUE(Configure("test.re", "every:1").ok());
  EXPECT_TRUE(CORRA_FAILPOINT("test.re"));
  ASSERT_TRUE(Configure("test.re", "off").ok());
  EXPECT_FALSE(CORRA_FAILPOINT("test.re"));
  EXPECT_EQ(Evaluations("test.re"), 1u);  // Reset by the reconfigure.
}

TEST_F(FailpointTest, ClearDisarms) {
  ASSERT_TRUE(Configure("test.clear", "every:1").ok());
  EXPECT_TRUE(CORRA_FAILPOINT("test.clear"));
  Clear("test.clear");
  EXPECT_FALSE(CORRA_FAILPOINT("test.clear"));
  EXPECT_EQ(Evaluations("test.clear"), 0u);  // Counters discarded.
}

TEST_F(FailpointTest, ConfigureFromStringArmsEveryPair) {
  ASSERT_TRUE(
      ConfigureFromString("test.a=every:1;test.b=times:1").ok());
  EXPECT_TRUE(CORRA_FAILPOINT("test.a"));
  EXPECT_TRUE(CORRA_FAILPOINT("test.b"));
  EXPECT_FALSE(CORRA_FAILPOINT("test.b"));
}

TEST_F(FailpointTest, MalformedSpecsRejected) {
  EXPECT_TRUE(Configure("test.bad", "bogus").IsInvalidArgument());
  EXPECT_TRUE(Configure("test.bad", "every:0").IsInvalidArgument());
  EXPECT_TRUE(Configure("test.bad", "prob:1.5").IsInvalidArgument());
  EXPECT_TRUE(Configure("test.bad", "prob:nan").IsInvalidArgument());
  EXPECT_TRUE(Configure("", "every:1").IsInvalidArgument());
  EXPECT_TRUE(ConfigureFromString("no-equals-sign").IsInvalidArgument());
  // A rejected spec arms nothing.
  EXPECT_FALSE(CORRA_FAILPOINT("test.bad"));
}

TEST_F(FailpointTest, ScopedFailpointClearsOnExit) {
  {
    ScopedFailpoint fp("test.scoped", "every:1");
    ASSERT_TRUE(fp.status().ok());
    EXPECT_TRUE(CORRA_FAILPOINT("test.scoped"));
  }
  EXPECT_FALSE(CORRA_FAILPOINT("test.scoped"));
}

TEST_F(FailpointTest, SchedulesStayExactUnderConcurrency) {
  // every:5 across 8 threads x 1000 evaluations: exactly 1/5 of the
  // 8000 evaluations fire, because evaluation is mutex-serialized.
  ASSERT_TRUE(Configure("test.mt", "every:5").ok());
  std::atomic<uint64_t> fires{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&fires] {
      for (int i = 0; i < 1000; ++i) {
        if (CORRA_FAILPOINT("test.mt")) {
          fires.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(fires.load(), 8000u / 5u);
  EXPECT_EQ(Evaluations("test.mt"), 8000u);
  EXPECT_EQ(Fires("test.mt"), 8000u / 5u);
}

}  // namespace
}  // namespace corra::fail
