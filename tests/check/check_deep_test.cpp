// Deep exploration pass, run under the `stress` ctest label (nightly /
// ctest -L stress with RELOCK_CHECK_DEEP=1): raises the DFS preemption
// bound to 3 across the scenario library. fanout3 at bound 3 alone is
// ~2.1M schedules (~1 min); the 2-thread scenarios add a long tail of
// higher-preemption interleavings the per-PR smoke bound cannot afford.
// Without RELOCK_CHECK_DEEP the tests skip, keeping the default (tier-1)
// ctest run fast.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include "check_async_scenarios.hpp"
#include "check_engine_scenarios.hpp"
#include "check_scenarios.hpp"
#include "check_table_scenarios.hpp"
#include "relock/check/strategies.hpp"

namespace {

using namespace relock::chk;

void expect_exhaustive(const Scenario& s, std::uint32_t bound) {
  if (std::getenv("RELOCK_CHECK_DEEP") == nullptr) {
    GTEST_SKIP() << "set RELOCK_CHECK_DEEP=1 for the deep pass "
                    "(the stress CI job does)";
  }
  Engine eng;
  DfsStrategy st(bound);
  const ExploreResult r = eng.explore(s, st);
  EXPECT_FALSE(r.failed) << r.summary();
  EXPECT_TRUE(r.complete) << r.summary();
  EXPECT_TRUE(st.exhausted()) << r.summary();
  std::printf("[relock-check] %-16s %-12s %8llu schedules %10llu points\n",
              s.name.c_str(), st.describe().c_str(),
              static_cast<unsigned long long>(r.schedules),
              static_cast<unsigned long long>(r.steps));
}

TEST(RelockCheckDeep, Handoff2Bound3) {
  expect_exhaustive(scenarios::handoff2(), 3);
}

TEST(RelockCheckDeep, StackHandoff2Bound3) {
  expect_exhaustive(scenarios::handoff2(scenarios::kStackFifo), 3);
}

TEST(RelockCheckDeep, ParkedHandoff2Bound3) {
  expect_exhaustive(scenarios::parked_handoff2(), 3);
}

TEST(RelockCheckDeep, StackParkedHandoff2Bound3) {
  expect_exhaustive(scenarios::parked_handoff2(scenarios::kStackFifo), 3);
}

TEST(RelockCheckDeep, Epoch2Bound3) {
  expect_exhaustive(scenarios::epoch2(), 3);
}

TEST(RelockCheckDeep, StackEpoch2Bound3) {
  expect_exhaustive(scenarios::epoch2(scenarios::kStackFifo), 3);
}

TEST(RelockCheckDeep, Possess2Bound3) {
  expect_exhaustive(scenarios::possess2(), 3);
}

TEST(RelockCheckDeep, Timeout2Bound3) {
  expect_exhaustive(scenarios::timeout2(), 3);
}

TEST(RelockCheckDeep, StackTimeout2Bound3) {
  expect_exhaustive(scenarios::timeout2(scenarios::kStackFifo), 3);
}

TEST(RelockCheckDeep, Swap2Bound3) {
  expect_exhaustive(scenarios::swap2(), 3);
}

TEST(RelockCheckDeep, QueueArrival2Bound3) {
  expect_exhaustive(scenarios::queue_arrival2(), 3);
}

TEST(RelockCheckDeep, QueueTimeout2Bound3) {
  expect_exhaustive(scenarios::queue_timeout2(), 3);
}

TEST(RelockCheckDeep, QueueStagedTimeout3Bound3) {
  expect_exhaustive(scenarios::queue_staged_timeout3(), 3);
}

TEST(RelockCheckDeep, HandoverTail3Bound3) {
  expect_exhaustive(scenarios::handover_tail3(), 3);
}

TEST(RelockCheckDeep, HandoverQuiesce3Bound3) {
  expect_exhaustive(scenarios::handover_quiesce3(), 3);
}

TEST(RelockCheckDeep, HolderDrain3Bound3) {
  expect_exhaustive(scenarios::holder_drain3(), 3);
}

TEST(RelockCheckDeep, QueueConfig2Bound3) {
  expect_exhaustive(scenarios::queue_config2(), 3);
}

TEST(RelockCheckDeep, QueueStackConfig2Bound3) {
  expect_exhaustive(scenarios::queue_config2(scenarios::kStackFifo), 3);
}

TEST(RelockCheckDeep, CellFlip2Bound3) {
  expect_exhaustive(scenarios::cell_flip2(), 3);
}

TEST(RelockCheckDeep, CellRetire2Bound3) {
  expect_exhaustive(scenarios::cell_retire2(), 3);
}

TEST(RelockCheckDeep, ThresholdCellPending3Bound2) {
  expect_exhaustive(scenarios::threshold_cell_pending3(), 2);
}

TEST(RelockCheckDeep, StackedCell3Bound3) {
  expect_exhaustive(scenarios::stacked_cell3(), 3);
}

#if RELOCK_ASYNC_ENABLED
TEST(RelockCheckDeep, AsyncGrant2Bound3) {
  expect_exhaustive(scenarios::async_grant2(), 3);
}

TEST(RelockCheckDeep, AsyncInline2Bound3) {
  expect_exhaustive(scenarios::async_inline2(), 3);
}
#endif

TEST(RelockCheckDeep, Fanout3Bound3) {
  expect_exhaustive(scenarios::fanout3(), 3);
}

TEST(RelockCheckDeep, StackFanout3Bound3) {
  expect_exhaustive(scenarios::fanout3(scenarios::kStackFifo), 3);
}

TEST(RelockCheckDeep, TableInflate2Bound3) {
  expect_exhaustive(scenarios::table_inflate2(), 3);
}

TEST(RelockCheckDeep, TableDeflate2Bound3) {
  expect_exhaustive(scenarios::table_deflate2(), 3);
}

TEST(RelockCheckDeep, TableShared2Bound3) {
  expect_exhaustive(scenarios::table_shared2(), 3);
}

TEST(RelockCheckDeep, TableShared3Bound3) {
  expect_exhaustive(scenarios::table_shared3(), 3);
}

TEST(RelockCheckDeep, EngineTick2Bound3) {
  expect_exhaustive(scenarios::engine_tick2(), 3);
}

TEST(RelockCheckDeep, EngineStorm2Bound3) {
  expect_exhaustive(scenarios::engine_storm2(), 3);
}

}  // namespace
