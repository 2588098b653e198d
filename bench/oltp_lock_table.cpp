// OLTP lock-table suite: transaction-shaped workloads (2PL acquire/release
// sets) over relock::LockTable - the "millions of locks, few hot" regime
// the single-lock benches cannot reach. Each cell runs `threads` workers
// executing fixed-shape transactions against one striped table:
//
//   workload (JSON "scheduler" column)   key-choice + read/write shape
//     uniform      uniformly random keys, all writes
//     zipf_0.9     Zipfian theta=0.9 hotspot (scrambled), all writes
//     zipf_0.99    YCSB-grade theta=0.99 hotspot, all writes
//     rw_mix       theta=0.9 hotspot, 80% reads (reader-writer table)
//   policy (JSON "policy" column)        deadlock handling
//     ordered      sorted acquisition, unbounded waits (no aborts)
//     nowait       try-lock everywhere, abort + retry on any failure
//     waitdie      timestamp wait-die, victims retry with their old stamp
//
// Transactions are 90% short (4 ops) / 10% long (16 ops). ops_per_sec
// counts COMMITTED transactions; p50/p99 are commit latencies (including
// a victim's abort-retry loop). Every committed write increments its
// key's plain (non-atomic) counter while write-locked - the sum must
// equal the committed write count or mutual exclusion is broken and the
// run aborts, mirroring native_throughput's lost-update check. Each cell
// also reports its table's entries_allocated and bytes_per_key
// (footprint_bytes() over the distinct keys touched): informational, not
// gated - bench/diff_baseline.py compares ops_per_sec only.
//
// Knobs: RELOCK_OLTP_MS (window per cell, default 200),
//        RELOCK_OLTP_MAX_THREADS (sweep ceiling, default 8).
// Modes: --smoke  reduced matrix (1/2/4 threads, uniform+zipf_0.9+rw_mix,
//                 100 ms windows) for CI, diffed against
//                 bench/baselines/oltp_lock_table_smoke.json.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "relock/platform/clock.hpp"
#include "relock/platform/native.hpp"
#include "relock/platform/rng.hpp"
#include "relock/table/lock_table.hpp"
#include "relock/table/twopl.hpp"
#include "relock/workload/zipf.hpp"

namespace {

using namespace relock;
using NP = native::NativePlatform;
using Table = table::LockTable<NP>;
using Txn = table::TxnLockSet<NP>;
using table::AccessMode;
using table::DeadlockPolicy;

constexpr std::uint64_t kKeySpace = 8192;
constexpr std::uint32_t kTableCapacity = 1u << 14;
constexpr std::uint32_t kPartitions = 16;
constexpr std::size_t kShortOps = 4;
constexpr std::size_t kLongOps = 16;

struct WorkloadSpec {
  const char* name;
  double theta;        ///< <= 0: uniform
  double read_ratio;   ///< > 0 needs a reader-writer table
};

struct PolicySpec {
  const char* name;
  DeadlockPolicy policy;
};

struct CellResult {
  std::uint32_t threads = 0;
  const char* scheduler = nullptr;  ///< workload name (baseline cell key)
  const char* policy = nullptr;
  double ops_per_sec = 0.0;         ///< committed txns/sec
  std::uint64_t total_ops = 0;      ///< committed txns
  std::uint64_t p50_wait_ns = 0;    ///< commit latency percentiles
  std::uint64_t p99_wait_ns = 0;
  std::uint64_t aborts = 0;
  bool oversubscribed = false;
  /// Table footprint (informational, not gated): entries ever inflated,
  /// and footprint_bytes() over the distinct keys the cell touched.
  std::uint64_t entries_allocated = 0;
  double bytes_per_key = 0.0;
};

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* e = std::getenv(name);
  if (e == nullptr) return fallback;
  const long long v = std::strtoll(e, nullptr, 10);
  return v > 0 ? static_cast<std::uint64_t>(v) : fallback;
}

std::uint64_t percentile(std::vector<std::uint64_t>& sorted, unsigned pct) {
  if (sorted.empty()) return 0;
  const std::size_t idx =
      std::min(sorted.size() - 1, sorted.size() * pct / 100);
  return sorted[idx];
}

/// One transaction's access set: sampled keys with duplicate keys merged
/// (a write subsumes a read - the 2PL driver's upgrade rule demands the
/// strongest mode up front) and, under kOrdered, sorted ascending.
struct OpSet {
  std::array<table::TxnOp, kLongOps> ops;
  std::size_t count = 0;

  void add(std::uint64_t key, AccessMode mode) {
    for (std::size_t i = 0; i < count; ++i) {
      if (ops[i].key == key) {
        if (mode == AccessMode::kWrite) ops[i].mode = AccessMode::kWrite;
        return;
      }
    }
    ops[count++] = {key, mode};
  }
};

CellResult run_cell(std::uint32_t threads, const WorkloadSpec& wl,
                    const PolicySpec& po, Nanos window_ns) {
  constexpr std::size_t kMaxSamplesPerThread = 1 << 15;

  native::Domain domain;
  Table::Options topts;
  topts.capacity = kTableCapacity;
  topts.partitions = kPartitions;
  topts.lock_options.scheduler = wl.read_ratio > 0.0
                                     ? SchedulerKind::kReaderWriter
                                     : SchedulerKind::kFcfs;
  topts.lock_options.attributes = LockAttributes::combined(100);
  Table tbl(domain, topts);
  table::WaitDieStamps stamps(kKeySpace);
  const workload::ZipfianSampler zipf(kKeySpace,
                                      wl.theta > 0.0 ? wl.theta : 0.0);

  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<std::uint32_t> ready{0};
  std::atomic<std::uint64_t> next_ts{1};
  // Per-key datum, touched only under that key's write lock: the sum of
  // all cells must equal the committed write-op count at the end.
  std::vector<std::uint64_t> datum(kKeySpace, 0);

  std::vector<std::uint64_t> committed(threads, 0);
  std::vector<std::uint64_t> aborted(threads, 0);
  std::vector<std::uint64_t> writes_done(threads, 0);
  std::vector<std::vector<std::uint64_t>> samples(threads);
  for (auto& s : samples) s.reserve(kMaxSamplesPerThread);

  std::vector<std::thread> team;
  team.reserve(threads);
  for (std::uint32_t i = 0; i < threads; ++i) {
    team.emplace_back([&, i] {
      native::Context ctx(domain);
      Xoshiro256 rng(0x0017a8feull * (i + 1) + 0x9e37ull);
      Txn txn(tbl, {.policy = po.policy,
                    .wait_timeout = 500'000,  // 500 us slices
                    .stamps = po.policy == DeadlockPolicy::kWaitDie
                                  ? &stamps
                                  : nullptr});
      std::uint64_t my_commits = 0, my_aborts = 0, my_writes = 0;
      auto& my_samples = samples[i];
      ready.fetch_add(1, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      while (!stop.load(std::memory_order_relaxed)) {
        // Shape the transaction: 90% short, 10% long; per-op read/write.
        OpSet set;
        const std::size_t want =
            rng.next_below(10) == 0 ? kLongOps : kShortOps;
        for (std::size_t k = 0; k < want; ++k) {
          const std::uint64_t key = wl.theta > 0.0
                                        ? zipf.sample_scrambled(rng)
                                        : rng.next_below(kKeySpace);
          const AccessMode mode =
              rng.next_double() < wl.read_ratio ? AccessMode::kRead
                                                : AccessMode::kWrite;
          set.add(key, mode);
        }
        if (po.policy == DeadlockPolicy::kOrdered) {
          std::sort(set.ops.begin(), set.ops.begin() +
                        static_cast<std::ptrdiff_t>(set.count),
                    [](const table::TxnOp& a, const table::TxnOp& b) {
                      return a.key < b.key;
                    });
        }
        const std::uint64_t ts =
            next_ts.fetch_add(1, std::memory_order_relaxed);
        const Nanos t0 = monotonic_now();
        for (;;) {  // abort-retry loop, same timestamp throughout
          txn.begin(ts);
          bool ok = true;
          for (std::size_t k = 0; ok && k < set.count; ++k) {
            ok = txn.acquire(ctx, set.ops[k].key, set.ops[k].mode);
          }
          if (!ok) {
            ++my_aborts;
            txn.release_all(ctx);
            if (stop.load(std::memory_order_relaxed)) break;
            std::this_thread::yield();
            continue;
          }
          for (std::size_t k = 0; k < set.count; ++k) {
            if (set.ops[k].mode == AccessMode::kWrite) {
              ++datum[set.ops[k].key];  // the protected update
              ++my_writes;
            }
          }
          txn.release_all(ctx);
          ++my_commits;
          if (my_samples.size() < kMaxSamplesPerThread) {
            my_samples.push_back(monotonic_now() - t0);
          }
          break;
        }
      }
      committed[i] = my_commits;
      aborted[i] = my_aborts;
      writes_done[i] = my_writes;
    });
  }

  while (ready.load(std::memory_order_acquire) != threads) {
    std::this_thread::yield();
  }
  const bool oversubscribed = domain.oversubscribed();
  const Nanos start = monotonic_now();
  go.store(true, std::memory_order_release);
  while (monotonic_now() - start < window_ns) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : team) t.join();
  const Nanos elapsed = monotonic_now() - start;

  CellResult r;
  r.threads = threads;
  r.scheduler = wl.name;
  r.policy = po.name;
  r.oversubscribed = oversubscribed;
  r.entries_allocated = tbl.entries_allocated();
  r.bytes_per_key = tbl.size() == 0
                        ? 0.0
                        : static_cast<double>(tbl.footprint_bytes()) /
                              static_cast<double>(tbl.size());
  std::uint64_t writes = 0;
  std::vector<std::uint64_t> all;
  for (std::uint32_t i = 0; i < threads; ++i) {
    r.total_ops += committed[i];
    r.aborts += aborted[i];
    writes += writes_done[i];
    all.insert(all.end(), samples[i].begin(), samples[i].end());
  }
  std::sort(all.begin(), all.end());
  r.p50_wait_ns = percentile(all, 50);
  r.p99_wait_ns = percentile(all, 99);
  r.ops_per_sec = elapsed == 0 ? 0.0
                               : static_cast<double>(r.total_ops) * 1e9 /
                                     static_cast<double>(elapsed);
  std::uint64_t datum_sum = 0;
  for (const std::uint64_t d : datum) datum_sum += d;
  if (datum_sum != writes) {
    std::fprintf(stderr,
                 "FATAL: lost updates (%llu write ops vs %llu increments) "
                 "in %u/%s/%s\n",
                 static_cast<unsigned long long>(writes),
                 static_cast<unsigned long long>(datum_sum), threads,
                 wl.name, po.name);
    std::exit(1);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  const std::uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::uint32_t max_threads = static_cast<std::uint32_t>(
      env_u64("RELOCK_OLTP_MAX_THREADS", smoke ? 4u : 8u));
  const Nanos window_ns =
      env_u64("RELOCK_OLTP_MS", smoke ? 100 : 200) * 1'000'000;

  const std::vector<WorkloadSpec> workloads =
      smoke ? std::vector<WorkloadSpec>{{"uniform", 0.0, 0.0},
                                        {"zipf_0.9", 0.9, 0.0},
                                        {"rw_mix", 0.9, 0.8}}
            : std::vector<WorkloadSpec>{{"uniform", 0.0, 0.0},
                                        {"zipf_0.7", 0.7, 0.0},
                                        {"zipf_0.9", 0.9, 0.0},
                                        {"zipf_0.99", 0.99, 0.0},
                                        {"rw_mix", 0.9, 0.8}};
  const std::vector<PolicySpec> policies =
      smoke ? std::vector<PolicySpec>{{"ordered", DeadlockPolicy::kOrdered},
                                      {"nowait", DeadlockPolicy::kNoWait},
                                      {"waitdie", DeadlockPolicy::kWaitDie}}
            : std::vector<PolicySpec>{{"ordered", DeadlockPolicy::kOrdered},
                                      {"nowait", DeadlockPolicy::kNoWait},
                                      {"waitdie", DeadlockPolicy::kWaitDie},
                                      {"timeout", DeadlockPolicy::kTimeout}};

  std::vector<std::uint32_t> sweep;
  for (std::uint32_t n = 1; n < max_threads; n *= 2) sweep.push_back(n);
  sweep.push_back(max_threads);

  std::printf("==============================================================================\n");
  std::printf("OLTP lock table: 2PL transactions over a striped %u-slot table\n",
              kTableCapacity);
  std::printf("hw_concurrency=%u  window=%llu ms/cell  key space %llu  "
              "sweep up to %u threads%s\n",
              hw, static_cast<unsigned long long>(window_ns / 1'000'000),
              static_cast<unsigned long long>(kKeySpace), max_threads,
              smoke ? "  [smoke]" : "");
  std::printf("==============================================================================\n");
  std::printf("%8s %-12s %-10s %14s %12s %12s %10s %8s %8s %8s\n",
              "threads", "workload", "policy", "txns/sec", "p50_us", "p99_us",
              "aborts", "oversub", "entries", "B/key");

  std::vector<CellResult> results;
  for (const std::uint32_t n : sweep) {
    for (const WorkloadSpec& wl : workloads) {
      for (const PolicySpec& po : policies) {
        const CellResult r = run_cell(n, wl, po, window_ns);
        std::printf(
            "%8u %-12s %-10s %14.0f %12.1f %12.1f %10llu %8s %8llu %8.1f\n",
            r.threads, r.scheduler, r.policy, r.ops_per_sec,
            static_cast<double>(r.p50_wait_ns) / 1000.0,
            static_cast<double>(r.p99_wait_ns) / 1000.0,
            static_cast<unsigned long long>(r.aborts),
            r.oversubscribed ? "yes" : "no",
            static_cast<unsigned long long>(r.entries_allocated),
            r.bytes_per_key);
        std::fflush(stdout);
        results.push_back(r);
      }
    }
  }

  const char* json_name = "BENCH_oltp_lock_table.json";
  FILE* f = std::fopen(json_name, "w");
  if (f == nullptr) {
    std::perror(json_name);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"oltp_lock_table\",\n");
  std::fprintf(f, "  \"hw_concurrency\": %u,\n", hw);
  std::fprintf(f, "  \"oversubscribed_sweep\": %s,\n",
               max_threads > hw ? "true" : "false");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"window_ms_per_cell\": %llu,\n",
               static_cast<unsigned long long>(window_ns / 1'000'000));
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CellResult& r = results[i];
    std::fprintf(f,
                 "    {\"threads\": %u, \"scheduler\": \"%s\", \"policy\": "
                 "\"%s\", \"ops_per_sec\": %.1f, \"total_ops\": %llu, "
                 "\"p50_wait_ns\": %llu, \"p99_wait_ns\": %llu, "
                 "\"aborts\": %llu, \"oversubscribed\": %s, "
                 "\"entries_allocated\": %llu, \"bytes_per_key\": %.1f}%s\n",
                 r.threads, r.scheduler, r.policy, r.ops_per_sec,
                 static_cast<unsigned long long>(r.total_ops),
                 static_cast<unsigned long long>(r.p50_wait_ns),
                 static_cast<unsigned long long>(r.p99_wait_ns),
                 static_cast<unsigned long long>(r.aborts),
                 r.oversubscribed ? "true" : "false",
                 static_cast<unsigned long long>(r.entries_allocated),
                 r.bytes_per_key, i + 1 == results.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s (%zu cells)\n", json_name, results.size());
  return 0;
}
