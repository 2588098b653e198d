// Seeded-bug regression 4: this binary is compiled with
// -DRELOCK_CHECK_SEEDED_BUG_4, which makes the queue cell's drain enlist
// a linked holder's record like a waiter's. Under holder-side handover a
// fast release's grantee keeps its record as the cell's front for its
// whole hold; a drain that meets it (here the install of a priority
// module, moving the cell onto the orphan queue) must unlink it and
// enlist it nowhere. Enlisted, the record is granted again by a later
// release - a second grant to the holder's thread, which the checker's
// conservation oracle reports - while its release has already put it
// back in its pool. relock-check must find it and the trace must replay.
#include <gtest/gtest.h>

#include <cstdio>

#include "check_scenarios.hpp"
#include "relock/check/strategies.hpp"

#ifndef RELOCK_CHECK_SEEDED_BUG_4
#error "this regression must be compiled with -DRELOCK_CHECK_SEEDED_BUG_4"
#endif

namespace {

using namespace relock::chk;

TEST(RelockCheckSeededBug4, DfsFindsDrainEnlistingTheHolderAndReplays) {
  const Scenario s = scenarios::holder_drain3();
  Engine eng;
  DfsStrategy st(/*preemption_bound=*/2);
  const ExploreResult r = eng.explore(s, st);

  ASSERT_TRUE(r.failed)
      << "seeded holder-enlisting drain not detected by DFS(2): "
      << r.summary();
  EXPECT_NE(r.failure.find("not a registered waiter"), std::string::npos)
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

// The bug only bites a drain that meets a linked holder's record: with
// no drain at all (a cell-served kind throughout), linked grants and the
// holder's own unlinking release pass every oracle exhaustively.
TEST(RelockCheckSeededBug4, UndrainedLinkedHoldsStillClean) {
  Engine eng;
  DfsStrategy st(/*preemption_bound=*/2);
  const ExploreResult r = eng.explore(scenarios::handover_tail3(), st);
  EXPECT_FALSE(r.failed) << r.summary();
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(st.exhausted());
}

}  // namespace
