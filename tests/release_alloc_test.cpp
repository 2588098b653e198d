// Asserts the release module is allocation-free in steady state: after a
// short warm-up (lazy scratch growth, thread spawning), a measurement
// window of contended lock/unlock cycles must execute ZERO heap
// allocations. Global operator new/delete are replaced with counting
// versions, which is why this suite lives in its own test binary.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <thread>
#include <vector>

#include "relock/adapt/policy_engine.hpp"
#include "relock/core/configurable_lock.hpp"
#include "relock/platform/native.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace relock {
namespace {

using native::NativePlatform;
using Lock = ConfigurableLock<NativePlatform>;

// Phases: 0 = warm-up, 1 = measuring, 2 = done.
void run_zero_alloc_window(Lock& lock, native::Domain& dom,
                           const LockAttributes& attrs) {
  std::atomic<int> phase{0};
  std::atomic<std::uint64_t> window_ops{0};
  constexpr unsigned kWorkers = 4;

  {
    native::Context ctx(dom);
    lock.configure_waiting(ctx, attrs);
  }

  std::vector<std::thread> threads;
  threads.reserve(kWorkers);
  for (unsigned t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&] {
      native::Context ctx(dom);
      std::uint64_t in_window = 0;
      for (;;) {
        const int ph = phase.load(std::memory_order_acquire);
        if (ph == 2) break;
        lock.lock(ctx);
        lock.unlock(ctx);
        if (ph == 1) ++in_window;
      }
      window_ops.fetch_add(in_window, std::memory_order_relaxed);
    });
  }

  // Warm-up: grow any lazily-sized scratch (GrantBatch spill capacity,
  // parker init) before counting.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const std::uint64_t before = g_allocations.load(std::memory_order_acquire);
  phase.store(1, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const std::uint64_t after = g_allocations.load(std::memory_order_acquire);
  phase.store(2, std::memory_order_release);
  for (auto& th : threads) th.join();

  EXPECT_EQ(after - before, 0u)
      << "heap allocations during steady-state lock/unlock window";
  EXPECT_GT(window_ops.load(), 0u);
}

TEST(ReleaseAllocation, FcfsSpinSteadyStateIsAllocationFree) {
  native::Domain dom(16);
  Lock lock(dom, {.scheduler = SchedulerKind::kFcfs});
  run_zero_alloc_window(lock, dom, LockAttributes::spin());
}

TEST(ReleaseAllocation, FcfsBlockingSteadyStateIsAllocationFree) {
  native::Domain dom(16);
  Lock lock(dom, {.scheduler = SchedulerKind::kFcfs});
  run_zero_alloc_window(lock, dom, LockAttributes::blocking());
}

TEST(ReleaseAllocation, CentralizedSteadyStateIsAllocationFree) {
  native::Domain dom(16);
  Lock lock(dom, {.scheduler = SchedulerKind::kNone});
  run_zero_alloc_window(lock, dom, LockAttributes::combined(200));
}

// The monitor's counter block is allocated once, when the lock is built
// with the monitor on. After that, an uncontended lock and unlock, and a
// contended handoff window, allocate nothing, and the monitor counts them.
TEST(ReleaseAllocation, MonitoredLockAllocatesOnlyAtConstruction) {
  native::Domain dom(16);
  native::Context ctx(dom);
  Lock lock(dom, {.scheduler = SchedulerKind::kFcfs, .monitor_enabled = true});
  const std::uint64_t before = g_allocations.load(std::memory_order_acquire);
  for (int i = 0; i < 1'000; ++i) {
    lock.lock(ctx);
    lock.unlock(ctx);
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_acquire) - before, 0u)
      << "heap allocations on a monitored lock's uncontended path";
  run_zero_alloc_window(lock, dom, LockAttributes::spin());
  const LockStats s = lock.monitor().snapshot();
  EXPECT_GE(s.acquisitions, 1'000u);
  EXPECT_GT(s.handoffs, 0u);
}

// Each worker holds two cell-served locks at once, both usually through
// linked grants, so its thread keeps up to two pooled waiter records
// linked in two cells while it waits for or holds the second. However
// long the workers run, and however the host schedules them, the pools
// may allocate only what the nesting needs - one pool and two records per
// worker - and reuse them for every later cycle: a record that never went
// back to its pool would show as one allocation per cycle.
TEST(ReleaseAllocation, NestedLinkedHoldsReuseThePooledRecords) {
  native::Domain dom(16);
  Lock outer(dom, {.scheduler = SchedulerKind::kFcfs});
  Lock inner(dom, {.scheduler = SchedulerKind::kQueue});
  constexpr unsigned kWorkers = 4;
  constexpr std::uint64_t kCycles = 20'000;
  std::atomic<unsigned> ready{0};
  std::atomic<unsigned> finished{0};
  std::atomic<bool> go{false};
  std::atomic<bool> leave{false};
  std::vector<std::thread> threads;
  threads.reserve(kWorkers);
  for (unsigned t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&] {
      native::Context ctx(dom);
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      for (std::uint64_t i = 0; i < kCycles; ++i) {
        outer.lock(ctx);
        inner.lock(ctx);
        outer.unlock(ctx);  // non-LIFO: the outer record returns first
        // Keeps inner past outer's handoff: the next outer holder then
        // queues on inner, the nesting that needs two records.
        NativePlatform::compute(ctx, 2'000);
        inner.unlock(ctx);
      }
      finished.fetch_add(1);
      // The Context (and its pool) outlives the count below.
      while (!leave.load()) std::this_thread::yield();
    });
  }
  while (ready.load() < kWorkers) std::this_thread::yield();
  const std::uint64_t before = g_allocations.load(std::memory_order_acquire);
  go.store(true);
  while (finished.load() < kWorkers) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_acquire);
  leave.store(true);
  for (auto& th : threads) th.join();
  EXPECT_LE(after - before, kWorkers * (1 + 2))
      << "pooled waiter records were not reused across "
      << kWorkers * kCycles << " nested cycles";
}

// Alternates two waiting policies so every tick carries a real
// reconfiguration - the engine's full snapshot/evaluate/possess/configure
// path runs each pass. Waiting-policy flips only: a scheduler-kind change
// legitimately allocates the new module, so it has no place in a
// steady-state window.
class AllocFreeFlipPolicy final : public adapt::AdaptationPolicy {
 public:
  std::optional<adapt::AdaptAction> evaluate(
      const adapt::StatsDelta&) override {
    flip_ = !flip_;
    return adapt::AdaptAction{adapt::SetWaitingPolicy{
        flip_ ? LockAttributes::combined(8, kForever)
              : LockAttributes::spin()}};
  }

 private:
  bool flip_ = false;
};

// The governor's tick loop in steady state - snapshot_into() consuming the
// sharded monitor, policy evaluation, and applied waiting-policy
// reconfigurations - must execute ZERO heap allocations: a per-tick
// allocation would turn a large registry into an allocator hot spot.
TEST(ReleaseAllocation, PolicyEngineTickSteadyStateIsAllocationFree) {
  native::Domain dom(16);
  native::Context ctx(dom);
  Lock lock(dom, {.scheduler = SchedulerKind::kFcfs, .monitor_enabled = true});
  adapt::PolicyEngine<native::NativePlatform>::Options eopts;
  eopts.cooldown_ticks = 0;  // every tick applies: maximum per-tick work
  adapt::PolicyEngine<native::NativePlatform> engine(eopts);
  ASSERT_TRUE(
      engine.register_lock(lock, std::make_unique<AllocFreeFlipPolicy>()));

  auto feed = [&] {
    for (int i = 0; i < 16; ++i) {
      lock.monitor().on_acquire(/*contended=*/true);
      lock.monitor().on_wait_complete(10'000);
    }
  };
  // Warm-up: one flip in each direction grows anything lazily sized.
  feed();
  engine.tick(ctx);
  feed();
  engine.tick(ctx);

  const std::uint64_t before = g_allocations.load(std::memory_order_acquire);
  for (int t = 0; t < 64; ++t) {
    feed();
    engine.tick(ctx);
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_acquire);
  EXPECT_EQ(after - before, 0u)
      << "heap allocations during steady-state governor ticks";
  EXPECT_GE(engine.counters().applied, 64u);
}

}  // namespace
}  // namespace relock
