// Async-waiter scalability: how many SUSPENDED COROUTINES one lock can
// carry, against how few threads. A thread waiter costs a stack and a
// kernel-schedulable entity; an async waiter is a heap frame plus a
// WaiterRecord riding the same arrival path - so "waiters >> threads"
// regimes (10,000+ pending acquisitions on <= 4 threads) become
// representable at all. Every cell is oracle-checked: each launched
// waiter must be granted exactly once (a lost grant parks the drain
// forever and fails the cell), the critical-section counter must equal
// the waiter count, FIFO cells must grant in launch order, and the lock
// must still cycle afterwards.
//
// Cells (the JSON `scheduler` column carries the executor, `policy` the
// waiter count):
//   inline         grants chain inside the releasers' unlock calls - one
//                  nested unlock per waiter, so the chain is kept short
//                  (kInlineWaiters) to bound stack depth
//   manager        one thread is launcher AND manager (paper Fig. 10):
//                  grants post to the manager inbox and drain iteratively,
//                  so 10k-50k waiters run on ONE thread
//   manager_timed  same, but every waiter is a timed wait with a deadline
//                  it must win: adds the manager timer bookkeeping to
//                  every grant
//   pool           3 workers resume frames (launcher makes 4 threads);
//                  the grant chain hops releaser -> queue -> worker
//
// Modes: --smoke  trims the sweep for CI, where the JSON diffs against
//                 bench/baselines/async_waiters_smoke.json.
//
// Single-core caveat: the pool cell's 4 threads oversubscribe a 1-core
// host; its tag records that and the baseline diff skips regime
// mismatches. The single-thread manager cells have no such regime - they
// are the numbers to trust everywhere.
#include "relock/async/config.hpp"

#include <cstdio>

#if !RELOCK_ASYNC_ENABLED

int main() {
  std::printf("async_waiters: built without coroutine support "
              "(RELOCK_ASYNC off); nothing to measure\n");
  return 0;
}

#else

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "relock/async/awaiter.hpp"
#include "relock/async/manager.hpp"
#include "relock/async/task.hpp"
#include "relock/core/configurable_lock.hpp"
#include "relock/platform/clock.hpp"
#include "relock/platform/native.hpp"

namespace {

using namespace relock;
using NP = native::NativePlatform;
using Lock = ConfigurableLock<NP>;
using relock::async::AsyncGrant;
using relock::async::AsyncLock;
using relock::async::InlineExecutor;
using relock::async::ManagerExecutor;
using relock::async::Task;
using relock::async::ThreadPoolExecutor;

constexpr std::uint32_t kInlineWaiters = 512;  // bounds the unlock recursion

struct CellResult {
  std::uint32_t threads = 0;
  const char* executor = nullptr;
  std::uint32_t waiters = 0;
  double ops_per_sec = 0.0;     // grants per second, launch + drain
  double launch_us = 0.0;       // per-waiter enqueue cost
  double drain_us = 0.0;        // per-waiter grant-to-grant cost
  bool oversubscribed = false;
};

Lock::Options fcfs_opts() {
  Lock::Options o;
  o.scheduler = SchedulerKind::kFcfs;
  o.attributes = LockAttributes::spin();
  return o;
}

[[noreturn]] void die(const char* executor, std::uint32_t waiters,
                      const char* what) {
  std::fprintf(stderr, "FATAL: %s/w%u: %s\n", executor, waiters, what);
  std::exit(1);
}

void check_order(const char* executor, const std::vector<std::uint32_t>& order,
                 std::uint32_t waiters) {
  if (order.size() != waiters) die(executor, waiters, "lost grants");
  for (std::uint32_t i = 0; i < waiters; ++i) {
    if (order[i] != i) die(executor, waiters, "FIFO order broken");
  }
}

void check_cycles(Lock& lock, native::Context& ctx, const char* executor,
                  std::uint32_t waiters) {
  if (!lock.try_lock(ctx)) die(executor, waiters, "lock wedged after drain");
  lock.unlock(ctx);
}

CellResult make_result(const char* executor, std::uint32_t threads,
                       std::uint32_t waiters, Nanos launch_ns,
                       Nanos drain_ns, bool oversub) {
  CellResult r;
  r.threads = threads;
  r.executor = executor;
  r.waiters = waiters;
  const Nanos total = launch_ns + drain_ns;
  r.ops_per_sec = total == 0 ? 0.0
                             : static_cast<double>(waiters) * 1e9 /
                                   static_cast<double>(total);
  r.launch_us = static_cast<double>(launch_ns) / 1000.0 /
                static_cast<double>(waiters);
  r.drain_us = static_cast<double>(drain_ns) / 1000.0 /
               static_cast<double>(waiters);
  r.oversubscribed = oversub;
  return r;
}

/// Inline executor: every grant resumes inside the previous holder's
/// unlock, so the whole drain is ONE call chain on the launcher's stack.
CellResult run_inline_cell(std::uint32_t waiters) {
  native::Domain domain;
  native::Context ctx(domain);
  Lock lock(domain, fcfs_opts());
  InlineExecutor<NP> exec;
  AsyncLock<NP> alk(lock, exec);

  std::uint64_t cs_counter = 0;
  std::vector<std::uint32_t> order;
  order.reserve(waiters);
  std::vector<Task> tasks;
  tasks.reserve(waiters);
  auto waiter = [&](std::uint32_t id) -> Task {
    AsyncGrant<NP> g = co_await alk.lock_async(ctx);
    ++cs_counter;
    order.push_back(id);
    g.unlock();
  };

  lock.lock(ctx);
  const Nanos t0 = monotonic_now();
  for (std::uint32_t i = 0; i < waiters; ++i) tasks.push_back(waiter(i));
  const Nanos t1 = monotonic_now();
  lock.unlock(ctx);  // the entire chain drains inside this call
  const Nanos t2 = monotonic_now();

  for (auto& t : tasks) {
    if (!t.done()) die("inline", waiters, "undrained frame");
    t.rethrow();
  }
  check_order("inline", order, waiters);
  if (cs_counter != waiters) die("inline", waiters, "CS count mismatch");
  check_cycles(lock, ctx, "inline", waiters);
  return make_result("inline", 1, waiters, t1 - t0, t2 - t1, false);
}

/// Manager executor, one thread total: grants post to the inbox and the
/// run_until loop resumes them iteratively - constant stack depth no
/// matter how many waiters. `timed` routes every waiter through
/// try_lock_for_async with a deadline it must beat (zero timeouts
/// allowed), exercising the manager timer per op.
CellResult run_manager_cell(std::uint32_t waiters, bool timed) {
  constexpr Nanos kGenerousTimeout = 3'600'000'000'000;  // 1 hour
  const char* const name = timed ? "manager_timed" : "manager";

  native::Domain domain;
  native::Context ctx(domain);
  Lock lock(domain, fcfs_opts());
  ManagerExecutor<NP> mgr;
  AsyncLock<NP> alk(lock, mgr);

  std::uint64_t cs_counter = 0;
  std::uint32_t timeouts = 0;
  std::vector<std::uint32_t> order;
  order.reserve(waiters);
  std::vector<Task> tasks;
  tasks.reserve(waiters);
  auto waiter = [&](std::uint32_t id) -> Task {
    AsyncGrant<NP> g = timed
        ? co_await alk.try_lock_for_async(ctx, kGenerousTimeout)
        : co_await alk.lock_async(ctx);
    if (!g) {
      ++timeouts;
      co_return;
    }
    ++cs_counter;
    order.push_back(id);
    g.unlock();
  };

  lock.lock(ctx);
  const Nanos t0 = monotonic_now();
  for (std::uint32_t i = 0; i < waiters; ++i) tasks.push_back(waiter(i));
  const Nanos t1 = monotonic_now();
  lock.unlock(ctx);
  mgr.run_until(ctx, [&] {
    return order.size() + timeouts == waiters;
  });
  const Nanos t2 = monotonic_now();

  for (auto& t : tasks) {
    if (!t.done()) die(name, waiters, "undrained frame");
    t.rethrow();
  }
  if (timeouts != 0) die(name, waiters, "spurious timeout");
  check_order(name, order, waiters);
  if (cs_counter != waiters) die(name, waiters, "CS count mismatch");
  check_cycles(lock, ctx, name, waiters);
  return make_result(name, 1, waiters, t1 - t0, t2 - t1, false);
}

/// Thread-pool executor: 3 workers + the launcher. Frames resume on
/// whichever worker dequeues the grant; the lock's FCFS order still holds
/// because each frame appends while it owns the lock.
CellResult run_pool_cell(std::uint32_t waiters) {
  constexpr std::size_t kWorkers = 3;

  native::Domain domain;
  native::Context ctx(domain);
  // Computed from the team size, not Domain::oversubscribed(): the pool
  // workers have not registered their contexts yet at this point.
  const bool oversub =
      1 + kWorkers > std::max(1u, std::thread::hardware_concurrency());
  Lock lock(domain, fcfs_opts());
  ThreadPoolExecutor<NP> exec(domain, kWorkers);
  AsyncLock<NP> alk(lock, exec);

  std::uint64_t cs_counter = 0;
  std::vector<std::uint32_t> order;
  order.reserve(waiters);
  std::atomic<std::uint32_t> granted{0};
  std::vector<Task> tasks;
  tasks.reserve(waiters);
  auto waiter = [&](std::uint32_t id) -> Task {
    AsyncGrant<NP> g = co_await alk.lock_async(ctx);
    ++cs_counter;  // guarded by the lock
    order.push_back(id);
    g.unlock();
    granted.fetch_add(1, std::memory_order_release);
  };

  lock.lock(ctx);
  const Nanos t0 = monotonic_now();
  for (std::uint32_t i = 0; i < waiters; ++i) tasks.push_back(waiter(i));
  const Nanos t1 = monotonic_now();
  lock.unlock(ctx);
  const Nanos deadline = monotonic_now() + 60'000'000'000;  // 60s budget
  while (granted.load(std::memory_order_acquire) != waiters) {
    if (monotonic_now() > deadline) die("pool", waiters, "lost grants");
    std::this_thread::yield();
  }
  const Nanos t2 = monotonic_now();

  for (auto& t : tasks) {
    while (!t.done()) std::this_thread::yield();
    t.rethrow();
  }
  check_order("pool", order, waiters);
  if (cs_counter != waiters) die("pool", waiters, "CS count mismatch");
  check_cycles(lock, ctx, "pool", waiters);
  return make_result("pool", 1 + kWorkers, waiters, t1 - t0, t2 - t1,
                     oversub);
}

void print_row(const CellResult& r) {
  std::printf("%8u %-14s %8u %14.0f %12.3f %12.3f %8s\n", r.threads,
              r.executor, r.waiters, r.ops_per_sec, r.launch_us, r.drain_us,
              r.oversubscribed ? "yes" : "no");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  const std::uint32_t hw =
      std::max(1u, std::thread::hardware_concurrency());

  std::printf("==============================================================================\n");
  std::printf("Async waiters: suspended-coroutine scalability (waiters >> threads)\n");
  std::printf("hw_concurrency=%u%s\n", hw, smoke ? "  [smoke]" : "");
  std::printf("==============================================================================\n");
  std::printf("%8s %-14s %8s %14s %12s %12s %8s\n", "threads", "executor",
              "waiters", "grants/sec", "launch_us", "drain_us", "oversub");

  std::vector<CellResult> results;
  results.push_back(run_inline_cell(kInlineWaiters));
  print_row(results.back());
  const std::vector<std::uint32_t> manager_sweep =
      smoke ? std::vector<std::uint32_t>{1'000, 10'000}
            : std::vector<std::uint32_t>{1'000, 10'000, 50'000};
  for (const std::uint32_t n : manager_sweep) {
    results.push_back(run_manager_cell(n, /*timed=*/false));
    print_row(results.back());
  }
  results.push_back(run_manager_cell(smoke ? 2'000 : 10'000, /*timed=*/true));
  print_row(results.back());
  results.push_back(run_pool_cell(10'000));
  print_row(results.back());

  const char* json_name = "BENCH_async_waiters.json";
  FILE* f = std::fopen(json_name, "w");
  if (f == nullptr) {
    std::perror(json_name);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"async_waiters\",\n");
  std::fprintf(f, "  \"hw_concurrency\": %u,\n", hw);
  std::fprintf(f, "  \"oversubscribed_sweep\": %s,\n",
               4 > hw ? "true" : "false");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CellResult& r = results[i];
    std::fprintf(f,
                 "    {\"threads\": %u, \"scheduler\": \"%s\", \"policy\": "
                 "\"w%u\", \"ops_per_sec\": %.1f, \"launch_us\": %.3f, "
                 "\"drain_us\": %.3f, \"oversubscribed\": %s}%s\n",
                 r.threads, r.executor, r.waiters, r.ops_per_sec,
                 r.launch_us, r.drain_us,
                 r.oversubscribed ? "true" : "false",
                 i + 1 == results.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s (%zu cells, zero lost grants)\n", json_name,
              results.size());
  return 0;
}

#endif  // RELOCK_ASYNC_ENABLED
