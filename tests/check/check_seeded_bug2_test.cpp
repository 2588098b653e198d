// Seeded-bug regression 2: this binary is compiled with
// -DRELOCK_CHECK_SEEDED_BUG_2, which re-introduces the PR 2 parker bug -
// the unpark token deposit split into a relaxed load + separate store
// instead of one atomic exchange. If the target's kPkEmpty -> kPkParked
// transition lands between the two halves, the store overwrites kPkParked
// while the stale load still reads kPkEmpty, so no notify is sent: a lost
// wakeup. relock-check must report it as a deadlock (parked thread, no
// enabled action), and the trace must replay.
//
// Unlike bug 1 this window needs only 2 preemptions in the parked-handoff
// scenario, so exhaustive DFS at bound 2 finds it deterministically.
#include <gtest/gtest.h>

#include <cstdio>

#include "check_scenarios.hpp"
#include "relock/check/strategies.hpp"

#ifndef RELOCK_CHECK_SEEDED_BUG_2
#error "this regression must be compiled with -DRELOCK_CHECK_SEEDED_BUG_2"
#endif

namespace {

using namespace relock::chk;

TEST(RelockCheckSeededBug2, DfsFindsLostWakeupAndReplays) {
  const Scenario s = scenarios::parked_handoff2();
  Engine eng;
  DfsStrategy st(/*preemption_bound=*/2);
  const ExploreResult r = eng.explore(s, st);

  ASSERT_TRUE(r.failed)
      << "seeded lost-wakeup not detected by exhaustive DFS(2): "
      << r.summary();
  EXPECT_NE(r.failure.find("deadlock"), std::string::npos) << r.summary();
  // Detection is deterministic: schedule 18 in the current enumeration
  // order. Assert only a generous bound so engine-order tweaks don't churn
  // this test.
  EXPECT_LE(r.schedules, 500u) << r.summary();
  EXPECT_FALSE(r.trace.empty());
  std::printf("[relock-check] detected at schedule %llu\n%s\n",
              static_cast<unsigned long long>(r.schedules),
              r.summary().c_str());

  Engine replay_eng;
  const ExploreResult rep = replay_eng.replay(s, r.trace);
  ASSERT_TRUE(rep.failed) << "replay did not reproduce the failure";
  EXPECT_EQ(rep.failure, r.failure);
  EXPECT_EQ(rep.failure_tag, r.failure_tag);
  EXPECT_EQ(rep.events, r.events) << "replay event log diverged";
}

// The bug only bites the parker path: the pure-spin handoff still passes
// every oracle exhaustively, pinning the defect to the park/unpark
// handshake rather than the lock algorithm.
TEST(RelockCheckSeededBug2, SpinHandoffStillClean) {
  Engine eng;
  DfsStrategy st(/*preemption_bound=*/2);
  const ExploreResult r = eng.explore(scenarios::handoff2(), st);
  EXPECT_FALSE(r.failed) << r.summary();
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(st.exhausted());
}

}  // namespace
