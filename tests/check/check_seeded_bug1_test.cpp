// Seeded-bug regression 1: this binary is compiled with
// -DRELOCK_CHECK_SEEDED_BUG_1, which re-introduces the PR 2 data race where
// an exclusive handoff published the grant flag *before* clearing the
// shared grant scratch (the clear happens after the new owner may already
// be running its own fast release). The successor pick and the grant
// publication are shared by the fast and the guarded release, so the bug
// sits in the one copy both take. relock-check must find it:
// the shared-scratch session oracle reports the new owner's scratch
// mutation landing inside the old releaser's still-open session.
//
// The window needs ~4 preemptions in the 3-thread advisory fanout - beyond
// the affordable exhaustive DFS bound - so this is the PCT showcase:
// a randomized priority-schedule search with a pinned, printed seed finds
// it within a small schedule budget, and the recorded trace replays to the
// byte-identical event log.
//
// advisory3 (not fanout3) because the fissile fast path closed fanout3's
// route into the window: with no quiescence breaker armed, the releaser
// that used to take the select-empty guarded detour now frees the lock
// with one CAS and never reaches grant_or_free. Advisory locks are not
// fissile-eligible, so they still walk the detour on every such release.
// And its stack twin (not the kFcfs scenario) because kFcfs is served from
// the MCS queue cell: the cell's fast release pops the cell and never
// touches the grant scratch, so only a module-selected kind (the twin's
// priority queue, fed by the cell's drain) can overlap the late clear.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include "check_scenarios.hpp"
#include "relock/check/strategies.hpp"

#ifndef RELOCK_CHECK_SEEDED_BUG_1
#error "this regression must be compiled with -DRELOCK_CHECK_SEEDED_BUG_1"
#endif

namespace {

using namespace relock::chk;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::strtoull(v, nullptr, 0)
                                    : fallback;
}

TEST(RelockCheckSeededBug1, PctFindsSharedScratchAndReplays) {
  // Seed 1 finds the race at schedule 59; seeds 2-5 all find it within
  // 562 schedules, so the 5000-schedule budget has ample margin for
  // env-overridden seeds.
  const std::uint64_t seed = env_u64("RELOCK_CHECK_SEED", 1);
  const std::uint64_t budget = env_u64("RELOCK_CHECK_SCHEDULES", 5000);
  std::printf("[relock-check] RELOCK_CHECK_SEED=%llu (env-overridable)\n",
              static_cast<unsigned long long>(seed));

  const Scenario s = scenarios::advisory3(scenarios::kStackFifo);
  Engine eng;
  PctStrategy st(seed, budget, /*depth=*/3);
  const ExploreResult r = eng.explore(s, st);

  ASSERT_TRUE(r.failed)
      << "seeded scratch race not detected within "
      << budget << " PCT schedules (seed " << seed << ")";
  EXPECT_NE(r.failure.find("grant scratch shared"), std::string::npos)
      << r.summary();
  EXPECT_FALSE(r.trace.empty());
  std::printf("[relock-check] detected at schedule %llu\n%s\n",
              static_cast<unsigned long long>(r.schedules),
              r.summary().c_str());

  // The printed trace is the whole reproducer: replaying it on a fresh
  // engine must hit the same oracle with the identical event log.
  Engine replay_eng;
  const ExploreResult rep = replay_eng.replay(s, r.trace);
  ASSERT_TRUE(rep.failed) << "replay did not reproduce the failure";
  EXPECT_EQ(rep.failure, r.failure);
  EXPECT_EQ(rep.failure_tag, r.failure_tag);
  EXPECT_EQ(rep.events, r.events) << "replay event log diverged";
}

}  // namespace
