// LockMonitor details and the human-readable reporter.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "relock/adapt/policies.hpp"
#include "relock/monitor/lock_monitor.hpp"
#include "relock/monitor/reporter.hpp"

namespace relock {
namespace {

TEST(LockMonitorUnit, SnapshotReflectsEvents) {
  LockMonitor mon;
  mon.set_enabled(true);
  mon.on_acquire(false);
  mon.on_acquire(true);
  mon.on_wait_complete(1000);
  mon.on_release(500);
  mon.on_release(2000);
  mon.on_handoff();
  mon.on_block();
  mon.on_wakeup();
  mon.on_timeout();
  mon.on_spin_probe();
  mon.on_reconfiguration(true);
  mon.on_shared_acquire();
  const LockStats s = mon.snapshot();
  EXPECT_EQ(s.acquisitions, 3u);  // 2 exclusive + 1 shared
  EXPECT_EQ(s.contended_acquisitions, 1u);
  EXPECT_EQ(s.releases, 2u);
  EXPECT_EQ(s.handoffs, 1u);
  EXPECT_EQ(s.blocks, 1u);
  EXPECT_EQ(s.wakeups, 1u);
  EXPECT_EQ(s.timeouts, 1u);
  EXPECT_EQ(s.spin_probes, 1u);
  EXPECT_EQ(s.reconfigurations, 1u);
  EXPECT_EQ(s.scheduler_changes, 1u);
  EXPECT_EQ(s.shared_acquisitions, 1u);
  EXPECT_EQ(s.total_wait_ns, 1000u);
  EXPECT_EQ(s.total_hold_ns, 2500u);
  EXPECT_EQ(s.max_hold_ns, 2000u);
  EXPECT_DOUBLE_EQ(s.mean_hold_ns(), 1250.0);
  EXPECT_DOUBLE_EQ(s.mean_wait_ns(), 1000.0);
}

TEST(LockMonitorUnit, ResetClearsEverything) {
  LockMonitor mon;
  mon.set_enabled(true);
  mon.on_acquire(true);
  mon.on_release(100);
  mon.reset();
  const LockStats s = mon.snapshot();
  EXPECT_EQ(s.acquisitions, 0u);
  EXPECT_EQ(s.releases, 0u);
  EXPECT_EQ(s.total_hold_ns, 0u);
  for (const auto b : s.hold_histogram) EXPECT_EQ(b, 0u);
}

TEST(LockMonitorUnit, ResetStartsAFreshWindowAndBumpsGeneration) {
  LockMonitor mon;
  mon.set_enabled(true);
  mon.on_acquire(true);
  mon.on_acquire(false);
  mon.on_release(700);
  const std::uint64_t gen0 = mon.snapshot().reset_generation;
  mon.reset();
  const LockStats after = mon.snapshot();
  EXPECT_EQ(after.reset_generation, gen0 + 1);
  EXPECT_EQ(after.acquisitions, 0u);
  EXPECT_EQ(after.releases, 0u);
  EXPECT_EQ(after.max_hold_ns, 0u);  // maxima restart, not subtract
  // Post-reset events count from zero.
  mon.on_acquire(false);
  mon.on_release(300);
  const LockStats s = mon.snapshot();
  EXPECT_EQ(s.acquisitions, 1u);
  EXPECT_EQ(s.releases, 1u);
  EXPECT_EQ(s.max_hold_ns, 300u);
}

TEST(LockMonitorUnit, DeltaAcrossResetNeverUnderflows) {
  LockMonitor mon;
  mon.set_enabled(true);
  for (int i = 0; i < 10; ++i) {
    mon.on_acquire(true);
    mon.on_release(100);
  }
  const LockStats prev = mon.snapshot();
  mon.reset();
  // A smaller post-reset window than the pre-reset one: naive subtraction
  // would wrap to ~2^64.
  mon.on_acquire(true);
  mon.on_release(100);
  const LockStats cur = mon.snapshot();
  ASSERT_NE(cur.reset_generation, prev.reset_generation);
  const adapt::StatsDelta d = adapt::delta_between(prev, cur);
  EXPECT_EQ(d.acquisitions, 1u);
  EXPECT_EQ(d.contended, 1u);
  EXPECT_LT(d.acquisitions, 1u << 20);  // no wraparound
}

TEST(LockMonitorUnit, ConcurrentResetNeverShowsNegativeWindows) {
  // Writers hammer the sharded counters while the main thread repeatedly
  // resets and snapshots. Every snapshot must be a sane small window -
  // before snapshot-coherent reset, a racing reset could zero some shards
  // after they were merged, and later snapshots saw raw < baseline wrap
  // to astronomically large values.
  LockMonitor mon;
  mon.set_enabled(true);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int i = 0; i < 2; ++i) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        mon.on_acquire(true);
        mon.on_release(100);
        mon.on_block();
        mon.on_wakeup();
      }
    });
  }
  constexpr std::uint64_t kSane = std::uint64_t{1} << 60;
  for (int i = 0; i < 2'000; ++i) {
    mon.reset();
    const LockStats s = mon.snapshot();
    EXPECT_LT(s.acquisitions, kSane) << "iteration " << i;
    EXPECT_LT(s.releases, kSane) << "iteration " << i;
    EXPECT_LT(s.blocks, kSane) << "iteration " << i;
    EXPECT_LT(s.total_hold_ns, kSane) << "iteration " << i;
    for (const auto b : s.hold_histogram) EXPECT_LT(b, kSane);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : writers) t.join();
}

TEST(LockMonitorUnit, NeverEnabledMonitorReportsZerosUntilEnabled) {
  // A monitor that was never switched on has no counter block: events are
  // dropped, and snapshot and reset see nothing.
  LockMonitor mon;
  EXPECT_FALSE(mon.enabled());
  mon.on_acquire(true);
  mon.on_release(100);
  mon.on_timeout();
  mon.on_reconfiguration(true);
  mon.reset();
  LockStats s = mon.snapshot();
  EXPECT_EQ(s.acquisitions, 0u);
  EXPECT_EQ(s.releases, 0u);
  EXPECT_EQ(s.timeouts, 0u);
  EXPECT_EQ(s.reconfigurations, 0u);
  EXPECT_EQ(s.total_hold_ns, 0u);
  EXPECT_EQ(s.reset_generation, 0u);
  for (const auto b : s.hold_histogram) EXPECT_EQ(b, 0u);

  // Once enabled it counts; switched off again it stops counting but
  // keeps what it gathered.
  mon.set_enabled(true);
  EXPECT_TRUE(mon.enabled());
  mon.on_acquire(true);
  mon.on_release(100);
  mon.on_timeout();
  mon.set_enabled(false);
  mon.on_acquire(true);
  s = mon.snapshot();
  EXPECT_EQ(s.acquisitions, 1u);
  EXPECT_EQ(s.contended_acquisitions, 1u);
  EXPECT_EQ(s.releases, 1u);
  EXPECT_EQ(s.timeouts, 1u);
  EXPECT_EQ(s.total_hold_ns, 100u);
  mon.set_enabled(true);
  mon.on_acquire(false);
  EXPECT_EQ(mon.snapshot().acquisitions, 2u);
}

TEST(LockMonitorUnit, ConcurrentEnablersShareOneBlock) {
  // Every thread switches the monitor on and counts at once: the block one
  // of them publishes is the block all of them count into.
  LockMonitor mon;
  constexpr int kThreads = 4, kEvents = 1'000;
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      mon.set_enabled(true);
      for (int j = 0; j < kEvents; ++j) mon.on_handoff();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mon.snapshot().handoffs,
            static_cast<std::uint64_t>(kThreads) * kEvents);
}

TEST(LockMonitorUnit, HistogramBucketsPopulate) {
  LockMonitor mon;
  mon.set_enabled(true);
  mon.on_release(1);        // bucket 0
  mon.on_release(1024);     // bucket 10
  mon.on_release(1500);     // bucket 10
  const LockStats s = mon.snapshot();
  EXPECT_EQ(s.hold_histogram[0], 1u);
  EXPECT_EQ(s.hold_histogram[10], 2u);
}

TEST(LockMonitorUnit, ConcurrentUpdatesDoNotLoseCounts) {
  LockMonitor mon;
  mon.set_enabled(true);
  std::vector<std::thread> threads;
  constexpr int kThreads = 4, kEvents = 10'000;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      for (int j = 0; j < kEvents; ++j) {
        mon.on_acquire(true);
        mon.on_release(100);
      }
    });
  }
  for (auto& t : threads) t.join();
  const LockStats s = mon.snapshot();
  EXPECT_EQ(s.acquisitions, static_cast<std::uint64_t>(kThreads) * kEvents);
  EXPECT_EQ(s.releases, static_cast<std::uint64_t>(kThreads) * kEvents);
}

TEST(LockMonitorUnit, MaxTrackerIsMonotone) {
  LockMonitor mon;
  mon.set_enabled(true);
  mon.on_release(500);
  mon.on_release(100);  // smaller: max unchanged
  mon.on_release(900);
  EXPECT_EQ(mon.snapshot().max_hold_ns, 900u);
}

TEST(Reporter, FormatsNonEmptyStats) {
  LockMonitor mon;
  mon.set_enabled(true);
  mon.on_acquire(true);
  mon.on_wait_complete(5000);
  mon.on_release(123'456);
  const std::string out = format_stats(mon.snapshot());
  EXPECT_NE(out.find("acquisitions: 1"), std::string::npos);
  EXPECT_NE(out.find("wait-time histogram:"), std::string::npos);
  EXPECT_NE(out.find('#'), std::string::npos) << "histogram bars expected";
}

TEST(Reporter, EmptyHistogramRendersPlaceholder) {
  LockStats s;
  const std::string out = format_histogram(s.wait_histogram, "empty:");
  EXPECT_NE(out.find("(empty)"), std::string::npos);
}

TEST(Reporter, HistogramRangeCoversOnlyPopulatedBuckets) {
  LockStats s;
  s.wait_histogram[4] = 10;
  s.wait_histogram[6] = 5;
  const std::string out = format_histogram(s.wait_histogram, "t:");
  EXPECT_NE(out.find("2^04"), std::string::npos);
  EXPECT_NE(out.find("2^05"), std::string::npos);  // in-range zero bucket
  EXPECT_NE(out.find("2^06"), std::string::npos);
  EXPECT_EQ(out.find("2^03"), std::string::npos);
  EXPECT_EQ(out.find("2^07"), std::string::npos);
}

}  // namespace
}  // namespace relock
