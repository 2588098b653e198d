// Deterministic seeded tests for the 2PL transaction driver: acquisition
// discipline (ordering, upgrade rules, phase rules), wait-die / no-wait
// resolution of induced cycles (two transactions taking the same two keys
// in reversed order must never deadlock - the victim observes an abort,
// the survivor commits; a reader-writer cycle dies by age, not at the
// wait bound), the wait-die stamp board's oldest-holder rule, and Zipfian
// generator distribution sanity.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <thread>
#include <vector>

#include "relock/platform/native.hpp"
#include "relock/table/lock_table.hpp"
#include "relock/table/twopl.hpp"
#include "relock/workload/zipf.hpp"
#include "stress_seed.hpp"

namespace relock::table {
namespace {

using native::NativePlatform;
using Table = LockTable<NativePlatform>;
using Txn = TxnLockSet<NativePlatform>;

Table::Options table_options(bool rw = false) {
  Table::Options o;
  o.capacity = 1024;
  o.partitions = 8;
  o.lock_options.scheduler =
      rw ? SchedulerKind::kReaderWriter : SchedulerKind::kFcfs;
  o.lock_options.attributes = LockAttributes::spin();
  return o;
}

TEST(TwoPhaseLocking, CommitReleasesEverythingAndIsReusable) {
  native::Domain dom(16);
  Table t(dom, table_options());
  native::Context ctx(dom);
  Txn txn(t, {.policy = DeadlockPolicy::kOrdered});

  for (int round = 0; round < 3; ++round) {
    txn.begin(static_cast<std::uint64_t>(round) + 1);
    EXPECT_TRUE(txn.acquire(ctx, 1, AccessMode::kWrite));
    EXPECT_TRUE(txn.acquire(ctx, 5, AccessMode::kRead));
    EXPECT_TRUE(txn.acquire(ctx, 9, AccessMode::kWrite));
    EXPECT_EQ(txn.held_count(), 3u);
    txn.release_all(ctx);
    EXPECT_EQ(txn.held_count(), 0u);
  }
  // Everything came back: all three keys lock inline again.
  for (const Table::Key k : {1ull, 5ull, 9ull}) {
    EXPECT_TRUE(t.try_lock(ctx, k));
    t.unlock(ctx, k);
  }
}

TEST(TwoPhaseLocking, ReacquireIsIdempotentAcrossCoveredModes) {
  native::Domain dom(16);
  Table t(dom, table_options(/*rw=*/true));
  native::Context ctx(dom);
  Txn txn(t, {.policy = DeadlockPolicy::kOrdered});

  txn.begin(1);
  EXPECT_TRUE(txn.acquire(ctx, 2, AccessMode::kWrite));
  EXPECT_TRUE(txn.acquire(ctx, 2, AccessMode::kWrite));  // same mode
  EXPECT_TRUE(txn.acquire(ctx, 2, AccessMode::kRead));   // weaker mode
  EXPECT_TRUE(txn.acquire(ctx, 4, AccessMode::kRead));
  EXPECT_TRUE(txn.acquire(ctx, 4, AccessMode::kRead));
  EXPECT_EQ(txn.held_count(), 2u);  // one entry per key
  txn.release_all(ctx);
}

TEST(TwoPhaseLocking, OrderingDisciplineThrows) {
  native::Domain dom(16);
  Table t(dom, table_options());
  native::Context ctx(dom);
  Txn txn(t, {.policy = DeadlockPolicy::kOrdered});

  txn.begin(1);
  EXPECT_TRUE(txn.acquire(ctx, 10, AccessMode::kWrite));
  EXPECT_THROW((void)txn.acquire(ctx, 3, AccessMode::kWrite),
               LockUsageError);
  // The violation aborted nothing: the held set is intact and usable.
  EXPECT_EQ(txn.held_count(), 1u);
  EXPECT_TRUE(txn.acquire(ctx, 11, AccessMode::kWrite));
  txn.release_all(ctx);
}

TEST(TwoPhaseLocking, PhaseRulesThrow) {
  native::Domain dom(16);
  Table t(dom, table_options());
  native::Context ctx(dom);
  Txn txn(t, {.policy = DeadlockPolicy::kOrdered});

  txn.begin(1);
  EXPECT_TRUE(txn.acquire(ctx, 1, AccessMode::kWrite));
  txn.release_all(ctx);
  // Strict 2PL: the shrinking phase is terminal until the next begin().
  EXPECT_THROW((void)txn.acquire(ctx, 2, AccessMode::kWrite),
               LockUsageError);
  txn.begin(2);
  EXPECT_TRUE(txn.acquire(ctx, 2, AccessMode::kWrite));
  EXPECT_THROW(txn.begin(3), LockUsageError);  // begin with locks held
  txn.release_all(ctx);
}

TEST(TwoPhaseLocking, ReadToWriteUpgradeThrows) {
  native::Domain dom(16);
  Table t(dom, table_options(/*rw=*/true));
  native::Context ctx(dom);
  Txn txn(t, {.policy = DeadlockPolicy::kOrdered});

  txn.begin(1);
  EXPECT_TRUE(txn.acquire(ctx, 7, AccessMode::kRead));
  EXPECT_THROW((void)txn.acquire(ctx, 7, AccessMode::kWrite),
               LockUsageError);
  txn.release_all(ctx);
}

TEST(TwoPhaseLocking, WaitDieRequiresStamps) {
  native::Domain dom(16);
  Table t(dom, table_options());
  EXPECT_THROW(Txn(t, {.policy = DeadlockPolicy::kWaitDie}), LockUsageError);
}

// The canonical induced cycle, resolved by wait-die: T1 (older, ts=1)
// holds A and wants B; T2 (younger, ts=2) holds B and wants A. The
// timestamp rule is deterministic: T2 must die (T1's stamp on A is
// older), T1 must survive and commit. Barriers pin the interleaving.
TEST(TwoPhaseLocking, WaitDieResolvesReversedOrderCycle) {
  native::Domain dom(16);
  Table t(dom, table_options());
  WaitDieStamps stamps(64);
  const Table::Key A = 100, B = 200;
  std::atomic<bool> t1_has_a{false};
  std::atomic<bool> t2_has_b{false};
  std::atomic<int> t1_aborts{0}, t2_aborts{0};
  std::atomic<int> t1_commits{0}, t2_commits{0};

  std::thread th1([&] {
    native::Context ctx(dom);
    Txn txn(t, {.policy = DeadlockPolicy::kWaitDie,
                .wait_timeout = 100'000,  // 100 us slices while older waits
                .stamps = &stamps});
    txn.begin(1);
    ASSERT_TRUE(txn.acquire(ctx, A, AccessMode::kWrite));
    t1_has_a.store(true);
    while (!t2_has_b.load()) std::this_thread::yield();
    // Older transaction: waits (in bounded slices) until T2 dies and
    // releases B - never aborts.
    if (txn.acquire(ctx, B, AccessMode::kWrite)) {
      ++t1_commits;
    } else {
      ++t1_aborts;
    }
    txn.release_all(ctx);
  });

  std::thread th2([&] {
    native::Context ctx(dom);
    Txn txn(t, {.policy = DeadlockPolicy::kWaitDie,
                .wait_timeout = 100'000,
                .stamps = &stamps});
    txn.begin(2);
    ASSERT_TRUE(txn.acquire(ctx, B, AccessMode::kWrite));
    t2_has_b.store(true);
    while (!t1_has_a.load()) std::this_thread::yield();
    // Younger transaction against the older holder of A: must die.
    bool got = txn.acquire(ctx, A, AccessMode::kWrite);
    if (!got) {
      ++t2_aborts;
      txn.release_all(ctx);  // frees B, unblocking T1
      // Retry with the same timestamp until T1 commits and retracts.
      for (;;) {
        txn.begin(2);
        if (txn.acquire(ctx, A, AccessMode::kWrite)) break;
        ++t2_aborts;
        txn.release_all(ctx);
        std::this_thread::yield();
      }
    }
    ++t2_commits;
    txn.release_all(ctx);
  });

  th1.join();
  th2.join();
  EXPECT_EQ(t1_aborts.load(), 0) << "the older transaction must not die";
  EXPECT_EQ(t1_commits.load(), 1);
  EXPECT_GE(t2_aborts.load(), 1) << "the younger transaction must die";
  EXPECT_EQ(t2_commits.load(), 1) << "the victim retries and commits";
  // Quiescence: the cycle left nothing held.
  native::Context ctx(dom);
  for (const Table::Key k : {A, B}) {
    EXPECT_TRUE(t.try_lock(ctx, k));
    t.unlock(ctx, k);
  }
}

// The reader-writer cycle: T1 (older, ts=1) read-holds A and wants to
// write B; T2 (younger, ts=2) read-holds B and wants to write A. Readers
// publish their stamps too, so T2 sees T1's stamp on A and dies by age at
// once; T1 waits inside its first slice until T2's abort frees B. Slices
// are 20 ms, so a cycle left to the wait bound would spin 16 x 20 ms and
// end in a bound death, which the counters would show.
TEST(TwoPhaseLocking, WaitDieResolvesReaderWriterCycleByAge) {
  native::Domain dom(16);
  Table t(dom, table_options(/*rw=*/true));
  WaitDieStamps stamps(64);
  const Table::Key A = 100, B = 200;
  constexpr Nanos kSlice = 20'000'000;
  std::barrier both_read(2);
  Txn::Stats s1, s2;
  int t1_commits = 0, t1_aborts = 0;
  int t2_commits = 0, t2_aborts = 0;

  std::thread th1([&] {
    native::Context ctx(dom);
    Txn txn(t, {.policy = DeadlockPolicy::kWaitDie,
                .wait_timeout = kSlice,
                .stamps = &stamps});
    txn.begin(1);
    const bool read = txn.acquire(ctx, A, AccessMode::kRead);
    both_read.arrive_and_wait();
    if (read && txn.acquire(ctx, B, AccessMode::kWrite)) {
      ++t1_commits;
    } else {
      ++t1_aborts;
    }
    txn.release_all(ctx);
    s1 = txn.stats();
  });

  std::thread th2([&] {
    native::Context ctx(dom);
    Txn txn(t, {.policy = DeadlockPolicy::kWaitDie,
                .wait_timeout = kSlice,
                .stamps = &stamps});
    txn.begin(2);
    bool ok = txn.acquire(ctx, B, AccessMode::kRead);
    both_read.arrive_and_wait();
    ok = ok && txn.acquire(ctx, A, AccessMode::kWrite);
    // Retry the whole transaction with the same timestamp until it commits.
    while (!ok) {
      ++t2_aborts;
      txn.release_all(ctx);  // the first abort frees B, unblocking T1
      std::this_thread::yield();
      txn.begin(2);
      ok = txn.acquire(ctx, B, AccessMode::kRead) &&
           txn.acquire(ctx, A, AccessMode::kWrite);
    }
    ++t2_commits;
    txn.release_all(ctx);
    s2 = txn.stats();
  });

  th1.join();
  th2.join();
  EXPECT_EQ(t1_aborts, 0) << "the older transaction must not die";
  EXPECT_EQ(t1_commits, 1);
  EXPECT_GE(t2_aborts, 1) << "the younger transaction must die";
  EXPECT_EQ(t2_commits, 1) << "the victim retries and commits";
  EXPECT_EQ(s1.age_deaths, 0u);
  EXPECT_GE(s2.age_deaths, 1u) << "T2 dies by the age rule";
  EXPECT_EQ(s1.bound_deaths + s2.bound_deaths, 0u)
      << "nothing may die at the slice bound";
  EXPECT_EQ(stamps.holder(A), 0u);
  EXPECT_EQ(stamps.holder(B), 0u);
  native::Context ctx(dom);
  for (const Table::Key k : {A, B}) {
    EXPECT_TRUE(t.try_lock(ctx, k));
    t.unlock(ctx, k);
  }
}

// Same reversed-order cycle under no-wait: nobody ever blocks, so the
// deadlock cannot form; with abort-and-retry both sides eventually commit.
TEST(TwoPhaseLocking, NoWaitResolvesReversedOrderCycle) {
  native::Domain dom(16);
  Table t(dom, table_options());
  const Table::Key A = 100, B = 200;
  std::atomic<int> aborts{0};
  std::atomic<int> commits{0};

  auto worker = [&](std::uint64_t ts, Table::Key first, Table::Key second) {
    native::Context ctx(dom);
    Txn txn(t, {.policy = DeadlockPolicy::kNoWait});
    for (;;) {
      txn.begin(ts);
      if (txn.acquire(ctx, first, AccessMode::kWrite) &&
          txn.acquire(ctx, second, AccessMode::kWrite)) {
        ++commits;
        txn.release_all(ctx);
        return;
      }
      ++aborts;  // try_lock failed somewhere: abort, release, retry
      txn.release_all(ctx);
      std::this_thread::yield();
    }
  };
  std::thread th1(worker, 1, A, B);
  std::thread th2(worker, 2, B, A);
  th1.join();
  th2.join();

  EXPECT_EQ(commits.load(), 2);
  native::Context ctx(dom);
  for (const Table::Key k : {A, B}) {
    EXPECT_TRUE(t.try_lock(ctx, k));
    t.unlock(ctx, k);
  }
}

// A seeded multi-thread 2PL mix: every transaction acquires its keys in
// ascending order under kOrdered (sorted sets, unbounded waits) - the
// classical deadlock-free discipline - with a per-key write-exclusivity
// oracle, as a soak of the driver + table stack.
TEST(TwoPhaseLocking, SeededOrderedWorkloadSoak) {
  native::Domain dom(32);
  Table t(dom, table_options());
  constexpr int kThreads = 4;
  constexpr int kTxns = 500;
  constexpr std::uint64_t kKeys = 32;
  std::atomic<int> owners[kKeys] = {};
  std::atomic<std::uint64_t> committed{0};

  std::vector<std::thread> team;
  team.reserve(kThreads);
  for (int ti = 0; ti < kThreads; ++ti) {
    team.emplace_back([&, ti] {
      native::Context ctx(dom);
      Xoshiro256 rng(relock::testing::stress_seed() ^
                     (0xab54u + static_cast<unsigned>(ti)));
      Txn txn(t, {.policy = DeadlockPolicy::kOrdered});
      for (int i = 0; i < kTxns; ++i) {
        txn.begin(static_cast<std::uint64_t>(ti * kTxns + i) + 1);
        // 2-5 distinct keys, ascending.
        const std::uint64_t want = 2 + rng.next_below(4);
        std::uint64_t k = rng.next_below(8);
        std::uint64_t taken = 0;
        for (; taken < want && k < kKeys; ++taken, k += 1 + rng.next_below(8)) {
          ASSERT_TRUE(txn.acquire(ctx, k, AccessMode::kWrite));
          const int inside =
              owners[k].fetch_add(1, std::memory_order_acq_rel);
          EXPECT_EQ(inside, 0) << "write overlap on key " << k;
          owners[k].fetch_sub(1, std::memory_order_acq_rel);
        }
        committed.fetch_add(1, std::memory_order_relaxed);
        txn.release_all(ctx);
      }
    });
  }
  for (auto& th : team) th.join();
  EXPECT_EQ(committed.load(), kThreads * kTxns);
  EXPECT_EQ(t.inflated_count(), 0u);
}

TEST(WaitDieStamps, OldestPublisherWins) {
  WaitDieStamps stamps(64);
  stamps.publish(7, 5);
  EXPECT_EQ(stamps.holder(7), 5u);
  stamps.publish(7, 3);  // older: replaces
  EXPECT_EQ(stamps.holder(7), 3u);
  stamps.publish(7, 1);
  EXPECT_EQ(stamps.holder(7), 1u);
}

TEST(WaitDieStamps, YoungerPublishDoesNotOverwriteAnOlderStamp) {
  WaitDieStamps stamps(64);
  stamps.publish(7, 3);
  stamps.publish(7, 9);
  stamps.publish(7, 4);
  EXPECT_EQ(stamps.holder(7), 3u);
}

TEST(WaitDieStamps, RetractClearsOnlyItsOwnStamp) {
  WaitDieStamps stamps(64);
  stamps.publish(7, 3);
  stamps.publish(7, 5);
  stamps.retract(7, 5);  // 5 never owned the slot
  EXPECT_EQ(stamps.holder(7), 3u);
  stamps.retract(7, 8);  // never published at all
  EXPECT_EQ(stamps.holder(7), 3u);
  stamps.retract(7, 3);
  EXPECT_EQ(stamps.holder(7), 0u);
}

// Holders publish and retract one slot concurrently, each with a
// timestamp of its own, in every interleaving the threads produce; a
// stamp only ever leaves the slot through its own retract, so once
// everyone has retracted the slot is empty.
TEST(WaitDieStamps, SlotReadsZeroAfterAllHoldersRetract) {
  WaitDieStamps stamps(64);
  constexpr std::uint64_t kThreads = 4;
  constexpr std::uint64_t kRounds = 20'000;
  std::vector<std::thread> threads;
  for (std::uint64_t id = 0; id < kThreads; ++id) {
    threads.emplace_back([&stamps, id] {
      for (std::uint64_t r = 0; r < kRounds; ++r) {
        // Unique, interleaved ages: neighbours are older and younger.
        const std::uint64_t ts = (r * kThreads) + ((id * 3 + r) % kThreads) + 1;
        stamps.publish(7, ts);
        stamps.retract(7, ts);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(stamps.holder(7), 0u);
}

// Two keys hashing to one slot: the board can report the wrong key's
// holder, which only ever makes wait-die abort more, never grant more.
// An older requester (ts=2) dies against key K2's true holder (ts=3,
// younger - textbook wait-die would let it wait) because K1's holder
// (ts=1) shares the slot; the table still excludes, and an uncontended
// acquisition never consults the board at all.
TEST(WaitDieStamps, HashCollisionIsOnlyConservative) {
  native::Domain dom(16);
  Table t(dom, table_options());
  WaitDieStamps stamps(2);  // two slots: collisions are easy to find
  const Table::Key K1 = 1;
  stamps.publish(K1, 99);
  Table::Key K2 = K1 + 1;
  while (stamps.holder(K2) != 99) ++K2;
  stamps.retract(K1, 99);
  ASSERT_EQ(stamps.holder(K2), 0u);

  native::Context ca(dom), cb(dom), cc(dom);
  const Txn::Config cfg{.policy = DeadlockPolicy::kWaitDie,
                        .wait_timeout = 1'000'000,
                        .stamps = &stamps};
  Txn a(t, cfg), b(t, cfg), c(t, cfg);
  a.begin(1);
  ASSERT_TRUE(a.acquire(ca, K1, AccessMode::kWrite));
  b.begin(3);
  ASSERT_TRUE(b.acquire(cb, K2, AccessMode::kWrite))
      << "a free key is granted whatever its slot shows";
  EXPECT_EQ(stamps.holder(K2), 1u) << "the older stamp keeps the slot";

  c.begin(2);
  EXPECT_FALSE(c.acquire(cc, K2, AccessMode::kWrite));
  EXPECT_EQ(c.stats().age_deaths, 1u);
  EXPECT_EQ(c.stats().timed_waits, 0u);
  c.release_all(cc);
  EXPECT_FALSE(t.try_lock(cc, K2)) << "the table still excludes";

  b.release_all(cb);
  a.release_all(ca);
  EXPECT_EQ(stamps.holder(K1), 0u);
  for (const Table::Key k : {K1, K2}) {
    EXPECT_TRUE(t.try_lock(cc, k));
    t.unlock(cc, k);
  }
}

TEST(ZipfianSampler, ThetaZeroIsUniform) {
  Xoshiro256 rng(relock::testing::stress_seed() ^ 0x51f0u);
  workload::ZipfianSampler z(100, 0.0);
  constexpr int kSamples = 100'000;
  std::vector<int> counts(100, 0);
  for (int i = 0; i < kSamples; ++i) {
    const std::uint64_t r = z.sample(rng);
    ASSERT_LT(r, 100u);
    ++counts[r];
  }
  // Every bin within 3x of the uniform expectation (1000 +- noise).
  for (int c : counts) {
    EXPECT_GT(c, 1000 / 3);
    EXPECT_LT(c, 3000);
  }
}

TEST(ZipfianSampler, SkewConcentratesOnLowRanks) {
  Xoshiro256 rng(relock::testing::stress_seed() ^ 0x21f0u);
  workload::ZipfianSampler z(1000, 0.99);
  constexpr int kSamples = 100'000;
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < kSamples; ++i) ++counts[z.sample(rng)];
  // YCSB-grade skew: rank 0 draws a few percent of all samples, the top
  // 10 ranks dominate the median rank by an order of magnitude.
  EXPECT_GT(counts[0], kSamples / 50);
  int top10 = 0;
  for (std::size_t r = 0; r < 10; ++r) top10 += counts[r];
  EXPECT_GT(top10, kSamples / 5);
  EXPECT_GT(counts[0], counts[500] * 10 + 1);
}

TEST(ZipfianSampler, ScrambledPreservesSkewMass) {
  Xoshiro256 rng(relock::testing::stress_seed() ^ 0x5c3au);
  workload::ZipfianSampler z(1000, 0.9);
  constexpr int kSamples = 100'000;
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < kSamples; ++i) ++counts[z.sample_scrambled(rng)];
  // The same mass concentrates on *some* 10 keys - just not 0..9.
  std::vector<int> sorted = counts;
  std::sort(sorted.rbegin(), sorted.rend());
  int top10 = 0;
  for (std::size_t r = 0; r < 10; ++r) top10 += sorted[r];
  EXPECT_GT(top10, kSamples / 6);
}

}  // namespace
}  // namespace relock::table
