// relock-check randomized suite: PCT-style priority schedules over the
// larger fault-injection scenarios. Fully reproducible: the seed is printed
// on start and can be pinned with RELOCK_CHECK_SEED; the per-scenario
// schedule budget can be scaled with RELOCK_CHECK_SCHEDULES.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include "check_scenarios.hpp"
#include "relock/check/strategies.hpp"

namespace {

using namespace relock::chk;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::strtoull(v, nullptr, 0)
                                    : fallback;
}

class RelockCheckRandom : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    seed_ = env_u64("RELOCK_CHECK_SEED", 0xC0FFEEull);
    schedules_ = env_u64("RELOCK_CHECK_SCHEDULES", 2000);
    std::printf("[relock-check] RELOCK_CHECK_SEED=%llu "
                "RELOCK_CHECK_SCHEDULES=%llu (env-overridable)\n",
                static_cast<unsigned long long>(seed_),
                static_cast<unsigned long long>(schedules_));
  }

  static void explore_clean(const Scenario& s) {
    Engine eng;
    PctStrategy st(seed_, schedules_, /*depth=*/3);
    const ExploreResult r = eng.explore(s, st);
    EXPECT_FALSE(r.failed) << s.name << " under " << st.describe() << ":\n"
                           << r.summary();
    std::printf("[relock-check] %-16s %-24s %8llu schedules %10llu points\n",
                s.name.c_str(), st.describe().c_str(),
                static_cast<unsigned long long>(r.schedules),
                static_cast<unsigned long long>(r.steps));
  }

  static std::uint64_t seed_;
  static std::uint64_t schedules_;
};

std::uint64_t RelockCheckRandom::seed_ = 0;
std::uint64_t RelockCheckRandom::schedules_ = 0;

// Each FIFO scenario runs on kFcfs (cell pop) and on its stack twin (cell
// drain + module select).
TEST_F(RelockCheckRandom, Fanout3) {
  explore_clean(scenarios::fanout3());
  explore_clean(scenarios::fanout3(scenarios::kStackFifo));
}

TEST_F(RelockCheckRandom, Churn3WithInjections) {
  explore_clean(scenarios::churn3());
  explore_clean(scenarios::churn3(scenarios::kStackFifo));
}

TEST_F(RelockCheckRandom, AdvisoryFanout3) {
  explore_clean(scenarios::advisory3());
  explore_clean(scenarios::advisory3(scenarios::kStackFifo));
}

TEST_F(RelockCheckRandom, GuardedHandoff3) {
  explore_clean(scenarios::guarded3());
  explore_clean(scenarios::guarded3(scenarios::kStackFifo));
}

TEST_F(RelockCheckRandom, PriorityFairness4) {
  explore_clean(scenarios::prio4());
}

TEST_F(RelockCheckRandom, ThresholdFairness3) {
  explore_clean(scenarios::threshold3());
}

}  // namespace
