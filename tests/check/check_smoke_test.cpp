// relock-check smoke suite: exhaustive preemption-bounded DFS over the
// 2-thread scenarios (and bounded-depth passes over the 3-thread one),
// asserting every schedule satisfies every oracle and that the bounded
// schedule space was explored *completely*. Schedule counts are printed so
// EXPERIMENTS.md can cite real exploration sizes.
#include <gtest/gtest.h>

#include <cstdio>

#include "check_async_scenarios.hpp"
#include "check_engine_scenarios.hpp"
#include "check_scenarios.hpp"
#include "relock/check/strategies.hpp"

namespace {

using namespace relock::chk;

void expect_exhaustive(const Scenario& s, std::uint32_t bound) {
  Engine eng;
  DfsStrategy st(bound, /*max_schedules=*/0);
  const ExploreResult r = eng.explore(s, st);
  EXPECT_FALSE(r.failed) << r.summary();
  EXPECT_TRUE(r.complete) << r.summary();
  EXPECT_TRUE(st.exhausted()) << "bounded space not exhausted: "
                              << r.summary();
  std::printf("[relock-check] %-16s %-12s %8llu schedules %10llu points\n",
              s.name.c_str(), st.describe().c_str(),
              static_cast<unsigned long long>(r.schedules),
              static_cast<unsigned long long>(r.steps));
}

// Every scheduled arrival publishes into the queue cell on the check
// platform, and kFcfs is served straight from it; each kFcfs scenario
// whose protocol a module-selected kind also runs has a stack twin
// (kStackFifo) covering the cell's drain and the module select.
TEST(RelockCheckSmoke, Handoff2Exhaustive) {
  expect_exhaustive(scenarios::handoff2(), 2);
  expect_exhaustive(scenarios::handoff2(scenarios::kStackFifo), 2);
}

TEST(RelockCheckSmoke, ParkedHandoff2Exhaustive) {
  expect_exhaustive(scenarios::parked_handoff2(), 2);
  expect_exhaustive(scenarios::parked_handoff2(scenarios::kStackFifo), 2);
}

TEST(RelockCheckSmoke, Epoch2Exhaustive) {
  expect_exhaustive(scenarios::epoch2(), 2);
  expect_exhaustive(scenarios::epoch2(scenarios::kStackFifo), 2);
}

TEST(RelockCheckSmoke, Possess2Exhaustive) {
  expect_exhaustive(scenarios::possess2(), 2);
}

TEST(RelockCheckSmoke, Timeout2Exhaustive) {
  expect_exhaustive(scenarios::timeout2(), 2);
  expect_exhaustive(scenarios::timeout2(scenarios::kStackFifo), 2);
}

TEST(RelockCheckSmoke, Degenerate2Exhaustive) {
  // A timed waiter under (0, 0, 0, 0) on each waiting engine: the grant
  // flag behind the cell's drain (the twin) and its pop (kFcfs and
  // kQueue), and the centralized claim.
  expect_exhaustive(scenarios::degenerate2(scenarios::kStackFifo), 2);
  expect_exhaustive(scenarios::degenerate2(relock::SchedulerKind::kFcfs), 2);
  expect_exhaustive(scenarios::degenerate2(relock::SchedulerKind::kQueue), 2);
  expect_exhaustive(scenarios::degenerate2(relock::SchedulerKind::kNone), 2);
}

TEST(RelockCheckSmoke, Swap2Exhaustive) {
  expect_exhaustive(scenarios::swap2(), 2);
}

TEST(RelockCheckSmoke, FissileArrival2Exhaustive) {
  // fu.cas vs arr.mark: the held->free CAS of a fissile release against
  // the first waiter's push + contended-bit mark, every ordering.
  expect_exhaustive(scenarios::fissile_arrival2(), 2);
}

TEST(RelockCheckSmoke, FissileConfig2Exhaustive) {
  // Fissile cycles against a scheduler swap's quiescence epoch, including
  // fast-mode re-entry after the install.
  expect_exhaustive(scenarios::fissile_config2(), 2);
}

TEST(RelockCheckSmoke, QueueArrival2Exhaustive) {
  // qa.swap/qa.first vs fu.cas vs qc.first: the MCS enqueue against the
  // fissile release and the queued fast release's cell pop.
  expect_exhaustive(scenarios::queue_arrival2(), 2);
}

TEST(RelockCheckSmoke, QueueTimeout2Exhaustive) {
  // MCS-with-timeout node self-removal racing the holder's release.
  expect_exhaustive(scenarios::queue_timeout2(), 2);
}

TEST(RelockCheckSmoke, QueueStagedTimeout3Bound2Exhaustive) {
  // A timed waiter's record withdrawn right behind the holder's, or as
  // the cell's front, racing the holder's release that unlinks its own
  // record and would grant the timed one.
  expect_exhaustive(scenarios::queue_staged_timeout3(), 2);
}

TEST(RelockCheckSmoke, HandoverTail3Bound2Exhaustive) {
  // A linked holder's record is the cell's tail while a third thread
  // arrives: its release's tail CAS against the arrival's swap and link.
  expect_exhaustive(scenarios::handover_tail3(), 2);
}

TEST(RelockCheckSmoke, HandoverQuiesce3Bound2Exhaustive) {
  // configure_waiting and a lock_for waiter's expiry quiesce the epoch
  // while a linked holder holds: neither may wait on the hold or overlap a
  // fast release.
  expect_exhaustive(scenarios::handover_quiesce3(), 2);
}

TEST(RelockCheckSmoke, HolderDrain3Bound2Exhaustive) {
  // The holder's release, a cell -> kPriorityQueue drain and a timed
  // waiter's withdrawal behind the holder's linked record.
  expect_exhaustive(scenarios::holder_drain3(), 2);
}

TEST(RelockCheckSmoke, QueueConfig2Exhaustive) {
  // kQueue -> kFcfs -> kQueue reconfiguration with linked waiters: two
  // immediate cell -> cell installs. The twin goes through a
  // module-selected kind: the immediate cell -> module install (linked
  // waiters orphaned), the cell's drain, the module -> cell configuration
  // delay, and FIFO across the generations.
  expect_exhaustive(scenarios::queue_config2(), 2);
  expect_exhaustive(scenarios::queue_config2(scenarios::kStackFifo), 2);
}

TEST(RelockCheckSmoke, CellFlip2Exhaustive) {
  // kFcfs -> kQueue -> kFcfs by the holder with a waiter linked in the
  // cell: immediate install, FIFO through the switch, nothing stranded.
  expect_exhaustive(scenarios::cell_flip2(), 2);
}

TEST(RelockCheckSmoke, CellRetire2Exhaustive) {
  // kFcfs -> kPriorityQueue by the holder with a waiter linked in the cell
  // or racing the switch: the pre-registered generation moves onto the
  // orphan queue, the install is immediate, and later arrivals reach the
  // priority module through the cell's drain.
  expect_exhaustive(scenarios::cell_retire2(), 2);
}

TEST(RelockCheckSmoke, ThresholdCellPending3Bound1Exhaustive) {
  // A pending kFcfs behind a threshold module that holds only an
  // ineligible timed waiter, with an eligible arrival in the cell: the
  // release publishes free instead of re-grabbing for the incoming
  // generation, and the waiter's timeout completes the delay. Bound 1:
  // three threads and a timer that may fire at every step (bound 2 is
  // ~100k schedules, in the deep pass).
  expect_exhaustive(scenarios::threshold_cell_pending3(), 1);
}

TEST(RelockCheckSmoke, StackedCell3Bound2Exhaustive) {
  // Stacked reconfiguration kPriorityQueue -> kHandoff -> kFcfs with a
  // waiter in each module: the pending kHandoff module's waiter migrates
  // into the queue cell, behind the priority module's, in order. Bound 2
  // is ~12k schedules (~0.4 s); bound 3 (~243k) is in the deep pass.
  expect_exhaustive(scenarios::stacked_cell3(), 2);
}

TEST(RelockCheckSmoke, EngineTick2Exhaustive) {
  // PolicyEngine::tick() flipping the waiting policy (flip-flop forcer)
  // against a worker's timed acquire and plain cycle: the governor's
  // possess/configure footprint racing the lock paths, with an end-state
  // oracle on the applied count and final configuration.
  expect_exhaustive(scenarios::engine_tick2(), 2);
}

TEST(RelockCheckSmoke, EngineStorm2Exhaustive) {
  // Two engines force opposing scheduler kinds on one lock: possession
  // fast-fail contention, back-to-back scheduler swaps with the
  // configuration delay, and lock cycles threading through whichever
  // module is installed or pending.
  expect_exhaustive(scenarios::engine_storm2(), 2);
}

#if RELOCK_ASYNC_ENABLED
TEST(RelockCheckSmoke, AsyncGrant2Exhaustive) {
  // A coroutine's timed wait (manager executor: inbox post, timer
  // withdrawal, resume) races the holder's grant and a scheduler swap.
  expect_exhaustive(scenarios::async_grant2(), 2);
}

TEST(RelockCheckSmoke, AsyncInline2Exhaustive) {
  // Regression: an inline-resumed frame's unlock vs a timed waiter
  // draining the fast-release epoch under meta - deadlocks if the grant
  // hook fires before the in-flight count retires.
  expect_exhaustive(scenarios::async_inline2(), 2);
}
#endif

TEST(RelockCheckSmoke, MonitorReset2Exhaustive) {
  // Snapshot-coherent monitor reset racing a lock/unlock stream: the
  // scenario body asserts that no explored schedule sees a counter window
  // wrapped below zero.
  expect_exhaustive(scenarios::monitor_reset2(), 2);
}

// 3 threads: bound 2 is ~57k schedules (~2s); bound 3 (~2.1M schedules,
// ~1 min) runs under the `stress` ctest label, see check_deep_test.
TEST(RelockCheckSmoke, Fanout3Bound2Exhaustive) {
  expect_exhaustive(scenarios::fanout3(), 2);
  expect_exhaustive(scenarios::fanout3(scenarios::kStackFifo), 2);
}

TEST(RelockCheckSmoke, Guarded3Bound2Exhaustive) {
  // Possession window forcing a fissile releaser onto the guarded handoff
  // path - the fast->full->fast round trip with a waiter in flight.
  expect_exhaustive(scenarios::guarded3(), 2);
  expect_exhaustive(scenarios::guarded3(scenarios::kStackFifo), 2);
}

// The engine is deterministic: the same strategy explores the identical
// schedule space, point for point.
TEST(RelockCheckSmoke, ExplorationIsDeterministic) {
  ExploreResult runs[2];
  for (auto& r : runs) {
    Engine eng;
    DfsStrategy st(2);
    r = eng.explore(scenarios::handoff2(), st);
  }
  EXPECT_EQ(runs[0].schedules, runs[1].schedules);
  EXPECT_EQ(runs[0].steps, runs[1].steps);
  EXPECT_FALSE(runs[0].failed);
}

// Replaying a trace that does not belong to the scenario is flagged as
// divergence instead of silently exploring something else.
TEST(RelockCheckSmoke, ReplayFlagsDivergence) {
  Engine eng;
  const ExploreResult r = eng.replay(scenarios::handoff2(), "r0.r0");
  EXPECT_TRUE(r.failed);
  EXPECT_NE(r.failure.find("diverged"), std::string::npos) << r.failure;
}

}  // namespace
