// Seeded-bug regression 4: this binary is compiled with
// -DRELOCK_CHECK_SEEDED_BUG_4, which makes the fast release retire its
// in-flight count right after its grant store - as it did before grantee
// handover - while it still grants linked (kGrantLinked). The count is
// the grantee's to retire once it has moved the cell's cursor past its
// own record; retired early, it lets a configuration begin while the
// cursor still names the granted record, and the grantee's own retire
// later drives the count below zero. relock-check must report the
// overlap through the epoch-safety oracle, and the trace must replay.
#include <gtest/gtest.h>

#include <cstdio>

#include "check_scenarios.hpp"
#include "relock/check/strategies.hpp"

#ifndef RELOCK_CHECK_SEEDED_BUG_4
#error "this regression must be compiled with -DRELOCK_CHECK_SEEDED_BUG_4"
#endif

namespace {

using namespace relock::chk;

TEST(RelockCheckSeededBug4, DfsFindsConfigurationDuringHandoverAndReplays) {
  const Scenario s = scenarios::handover_quiesce3();
  Engine eng;
  DfsStrategy st(/*preemption_bound=*/2);
  const ExploreResult r = eng.explore(s, st);

  ASSERT_TRUE(r.failed)
      << "seeded early-retire bug not detected by DFS(2): " << r.summary();
  EXPECT_NE(r.failure.find("epoch safety violated"), std::string::npos)
      << r.summary();
  // Assert only a generous bound so engine-order tweaks don't churn this
  // test.
  EXPECT_LE(r.schedules, 1000u) << r.summary();
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

// The bug only bites linked grants: a fast release that unlinks its
// grantee first (a timed waiter's record, or any module-selected kind)
// retires at once either way, so the stack twin's handoff, which grants
// through the priority module, passes every oracle exhaustively.
TEST(RelockCheckSeededBug4, UnlinkedGrantsStillClean) {
  Engine eng;
  DfsStrategy st(/*preemption_bound=*/2);
  const ExploreResult r =
      eng.explore(scenarios::epoch2(scenarios::kStackFifo), st);
  EXPECT_FALSE(r.failed) << r.summary();
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(st.exhausted());
}

}  // namespace
