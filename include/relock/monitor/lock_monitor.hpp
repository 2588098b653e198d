// The lock monitor module (paper section 3.2): a lightweight, always-safe
// statistics collector attached to a lock object. The information it gathers
// feeds the internal reconfiguration policy and/or an external agent (the
// adaptation policies in relock/adapt) that decides on new configurations.
//
// Counters use relaxed atomics: they are monotone event counts whose
// cross-thread ordering does not matter, and the collection path must not
// perturb the lock it observes. Counters on the lock's hot edges (acquire,
// release, handoff, spin probe, block, wakeup) are additionally sharded
// into cache-padded per-thread slots: a single shared counter line bouncing
// between a releaser and its spinning successor would re-serialize the very
// transfer edge the direct-handoff release keeps to a single store.
// `snapshot()` merges the shards.
//
// The shards exist only once the monitor is enabled. They, the cold
// counters and the reset baseline live in one heap block (11,008 B)
// that the first switch-on allocates; a monitor that was never enabled is
// two null pointers, so a lock that leaves it off - every LockTable entry
// by default - pays 16 bytes for it, not the block.
//
// Hot-shard increments are plain load+store pairs on relaxed atomics, not
// read-modify-writes: a lock-prefixed RMW costs a sizable fraction of an
// entire uncontended lock+unlock, and three of them per operation is where
// an "observability tax" turns into a throughput regression. The trade is
// that when more threads than shards use one lock, two threads sharing a
// slot can occasionally overwrite each other's increment. Lost counts are
// rare, bounded by one per interleaving, and harmless to the consumer: the
// adaptation policies act on ratios and trends of monotone counters, never
// on exact totals. Cold counters (timeouts, reconfigurations) stay exact
// RMWs, and everything is exact on the single-host-thread simulator.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>

#include "relock/platform/cacheline.hpp"
#include "relock/platform/types.hpp"

namespace relock {

namespace monitor_detail {
/// Process-wide monitor shard slot of the calling thread, assigned round-
/// robin on first use. Constant-initialized (no per-access TLS init guard:
/// these reads sit on the lock's hottest edges). kUnassigned is the
/// sentinel; LockMonitor resolves it lazily.
inline constexpr std::size_t kUnassignedShard = ~std::size_t{0};
inline thread_local std::size_t tls_shard_index = kUnassignedShard;
}  // namespace monitor_detail

/// Snapshot of a lock's monitored state (plain values, safe to copy around).
struct LockStats {
  std::uint64_t acquisitions = 0;        ///< successful lock/lock_shared
  std::uint64_t contended_acquisitions = 0;  ///< had to enter the wait path
  std::uint64_t releases = 0;
  std::uint64_t handoffs = 0;            ///< grants made directly to a waiter
  std::uint64_t blocks = 0;              ///< times a waiter went to sleep
  std::uint64_t wakeups = 0;             ///< sleeping waiters woken by grants
  std::uint64_t timeouts = 0;            ///< conditional acquisitions expired
  std::uint64_t spin_probes = 0;         ///< individual waiting probes
  std::uint64_t reconfigurations = 0;    ///< configure() calls of any kind
  std::uint64_t scheduler_changes = 0;
  std::uint64_t shared_acquisitions = 0;

  /// Operations that carried a duration measurement. Event counters above
  /// are exact; the duration statistics below are computed over these
  /// samples only (real-concurrency platforms time a 1-in-N sample of
  /// operations because a clock read costs as much as an uncontended
  /// lock+unlock; the simulator times every operation, so there
  /// timed == counted).
  std::uint64_t timed_waits = 0;
  std::uint64_t timed_holds = 0;

  Nanos total_wait_ns = 0;  ///< summed registration -> grant times (sampled)
  Nanos total_hold_ns = 0;  ///< summed acquire -> release times (sampled)
  Nanos max_wait_ns = 0;
  Nanos max_hold_ns = 0;

  /// log2 histograms: bucket i counts durations in [2^i, 2^(i+1)) ns.
  static constexpr std::size_t kBuckets = 32;
  std::array<std::uint64_t, kBuckets> wait_histogram{};
  std::array<std::uint64_t, kBuckets> hold_histogram{};

  /// Number of reset() calls the monitor had absorbed when this snapshot
  /// was taken. Consumers differencing two snapshots (delta_between) use it
  /// to detect an intervening reset: counters in different generations are
  /// not comparable.
  std::uint64_t reset_generation = 0;

  [[nodiscard]] double mean_wait_ns() const {
    return timed_waits == 0 ? 0.0
                            : static_cast<double>(total_wait_ns) /
                                  static_cast<double>(timed_waits);
  }
  [[nodiscard]] double mean_hold_ns() const {
    return timed_holds == 0 ? 0.0
                            : static_cast<double>(total_hold_ns) /
                                  static_cast<double>(timed_holds);
  }
  [[nodiscard]] double contention_ratio() const {
    return acquisitions == 0
               ? 0.0
               : static_cast<double>(contended_acquisitions) /
                     static_cast<double>(acquisitions);
  }
};

/// Live monitor attached to a lock. All mutators are safe to call
/// concurrently; `snapshot()` is approximately consistent (counters may be
/// skewed by in-flight operations, which is acceptable for adaptation).
///
/// Inline, the monitor is two pointers. Its counters live in one
/// cache-line-aligned Block, allocated the first time the monitor is
/// enabled and kept until the monitor dies, so a lock whose monitor stays
/// off carries none of them. The enabled flag is itself the block pointer
/// (null while disabled): the one load that decides an `on_*` call also
/// yields the counters it bumps.
class LockMonitor {
  struct Block;

 public:
  LockMonitor() = default;
  ~LockMonitor() { delete block_.load(std::memory_order_relaxed); }
  LockMonitor(const LockMonitor&) = delete;
  LockMonitor& operator=(const LockMonitor&) = delete;

  /// Switching on allocates the counter block if this monitor has none
  /// yet (a release CAS publishes it, so concurrent enablers agree on one
  /// block). Counters gathered before a switch-off survive it.
  void set_enabled(bool on) {
    enabled_.store(on ? ensure_block() : nullptr, std::memory_order_release);
  }
  [[nodiscard]] bool enabled() const noexcept { return live() != nullptr; }

  void on_acquire(bool contended) noexcept {
    Block* b = live();
    if (b == nullptr) return;
    HotShard& s = b->shard();
    inc(s.acquisitions);
    if (contended) inc(s.contended);
  }
  void on_shared_acquire() noexcept {
    Block* b = live();
    if (b == nullptr) return;
    b->shared_acquisitions.fetch_add(1, std::memory_order_relaxed);
    inc(b->shard().acquisitions);
  }
  void on_wait_complete(Nanos wait_ns) noexcept {
    Block* b = live();
    if (b == nullptr) return;
    HotShard& s = b->shard();
    inc(s.timed_waits);
    add(s.total_wait, wait_ns);
    update_max(b->max_wait, wait_ns);
    bump(s.wait_hist, wait_ns);
  }
  void on_release(Nanos hold_ns) noexcept {
    Block* b = live();
    if (b == nullptr) return;
    HotShard& s = b->shard();
    inc(s.releases);
    inc(s.timed_holds);
    add(s.total_hold, hold_ns);
    update_max(b->max_hold, hold_ns);
    bump(s.hold_hist, hold_ns);
  }
  /// Release counted without a hold-time sample (the acquire side elided
  /// its clock read; duration statistics stay per-sample).
  void on_release() noexcept {
    if (Block* b = live()) inc(b->shard().releases);
  }
  /// True when this operation should carry clock reads: every `kPeriod`th
  /// per thread, the first included. Real-concurrency lock paths consult
  /// this before timestamping - a monotonic clock read costs on the order
  /// of an entire uncontended lock+unlock, so timing every operation would
  /// triple the hot path. Event counters are never sampled.
  [[nodiscard]] static bool timing_sample() noexcept {
    constexpr std::uint32_t kPeriod = 64;  // power of two
    thread_local std::uint32_t n = 0;
    return (n++ & (kPeriod - 1)) == 0;
  }
  void on_handoff() noexcept {
    if (Block* b = live()) inc(b->shard().handoffs);
  }
  void on_block() noexcept {
    if (Block* b = live()) inc(b->shard().blocks);
  }
  void on_wakeup() noexcept {
    if (Block* b = live()) inc(b->shard().wakeups);
  }
  void on_timeout() noexcept {
    if (Block* b = live()) b->timeouts.fetch_add(1, std::memory_order_relaxed);
  }
  void on_spin_probe() noexcept {
    if (Block* b = live()) inc(b->shard().spin_probes);
  }
  void on_reconfiguration(bool scheduler_change) noexcept {
    Block* b = live();
    if (b == nullptr) return;
    b->reconfigurations.fetch_add(1, std::memory_order_relaxed);
    if (scheduler_change) {
      b->scheduler_changes.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Merges the per-thread shards into one consistent-enough view (in-
  /// flight increments may be missed; monotone counters never go back) and
  /// subtracts the reset baseline. Every reported counter covers the window
  /// since the last reset() and can only grow within one reset generation.
  /// A monitor that was never enabled reports zeros.
  [[nodiscard]] LockStats snapshot() const {
    LockStats s;
    snapshot_into(s);
    return s;
  }

  /// snapshot() into a caller-owned buffer: the shard merge and baseline
  /// subtraction run in place, so a periodic consumer (the adaptation
  /// engine polling hundreds of locks per tick) pays zero allocations and
  /// no LockStats temporaries - just the merge loop over the shards.
  void snapshot_into(LockStats& out) const {
    const Block* b = block_.load(std::memory_order_acquire);
    if (b == nullptr) {
      out = LockStats{};
      return;
    }
    BaselineGuard g(b->baseline_mu);
    b->raw_snapshot_into(out);
    subtract_in_place(out, b->baseline);
    out.reset_generation = b->reset_generation;
  }

  /// Starts a new statistics window. The live counters are NEVER written -
  /// concurrent sharded increments are plain load+store pairs, so zeroing a
  /// slot under them would race and could resurrect pre-reset counts or
  /// tear in-flight ones. Instead the current raw totals become the
  /// baseline that snapshot() subtracts: raw counters are monotone, so no
  /// post-reset snapshot can ever report a value below a pre-reset one
  /// going negative (the classic adapt-policy "negative delta" bug).
  /// Serialized against snapshot() by a spinlock no increment path touches.
  /// A monitor that was never enabled has nothing to reset.
  void reset() noexcept {
    Block* b = block_.load(std::memory_order_acquire);
    if (b == nullptr) return;
    BaselineGuard g(b->baseline_mu);
    b->raw_snapshot_into(b->baseline);
    // Maxima are not differences; they restart at zero. An update_max
    // racing this store may land a pre-reset sample in the new window -
    // harmless, it is a real duration observation.
    b->max_wait.store(0, std::memory_order_relaxed);
    b->max_hold.store(0, std::memory_order_relaxed);
    b->baseline.max_wait_ns = 0;
    b->baseline.max_hold_ns = 0;
    ++b->reset_generation;
  }

  static std::size_t bucket_of(Nanos ns) noexcept {
    if (ns == 0) return 0;
    const int bit = 63 - __builtin_clzll(ns);
    return std::min<std::size_t>(static_cast<std::size_t>(bit),
                                 LockStats::kBuckets - 1);
  }

  /// Heap bytes an enabled monitor owns beyond sizeof(LockMonitor).
  [[nodiscard]] static constexpr std::size_t block_bytes() noexcept {
    return sizeof(Block);
  }

 private:
  using Counter = std::atomic<std::uint64_t>;

  /// Spinlock guard for the reset baseline. Only snapshot() and reset()
  /// take it - both cold, drain-side paths; no increment ever touches it.
  class BaselineGuard {
   public:
    explicit BaselineGuard(std::atomic_flag& f) : f_(f) {
      while (f_.test_and_set(std::memory_order_acquire)) {
      }
    }
    ~BaselineGuard() { f_.clear(std::memory_order_release); }
    BaselineGuard(const BaselineGuard&) = delete;
    BaselineGuard& operator=(const BaselineGuard&) = delete;

   private:
    std::atomic_flag& f_;
  };

  /// Hot-edge counters, one cache-padded copy per shard, bumped with plain
  /// load+store increments (see the header comment for the lost-increment
  /// trade).
  struct HotShard {
    Counter acquisitions{0}, contended{0};
    Counter releases{0}, handoffs{0}, blocks{0}, wakeups{0}, spin_probes{0};
    Counter timed_waits{0}, timed_holds{0};
    Counter total_wait{0}, total_hold{0};
    std::array<Counter, LockStats::kBuckets> wait_hist{};
    std::array<Counter, LockStats::kBuckets> hold_hist{};
  };

  static constexpr std::size_t kShards = 16;

  /// Everything an enabled monitor counts. Allocated once, at the first
  /// set_enabled(true), and freed with the monitor: an increment never
  /// allocates, and a pointer read from enabled_ stays valid however the
  /// flag flips afterwards.
  struct alignas(kCacheLineSize) Block {
    // Cold counters stay shared and exact (RMW increments).
    Counter timeouts{0};
    Counter reconfigurations{0}, scheduler_changes{0};
    Counter shared_acquisitions{0};
    Counter max_wait{0}, max_hold{0};
    std::array<CachePadded<HotShard>, kShards> shards{};

    // Reset state: raw totals captured at the last reset(), subtracted by
    // snapshot(). Guarded by baseline_mu; increments never touch any of it.
    mutable std::atomic_flag baseline_mu = ATOMIC_FLAG_INIT;
    LockStats baseline{};
    std::uint64_t reset_generation = 0;

    [[nodiscard]] HotShard& shard() noexcept { return *shards[shard_index()]; }

    /// Merged view of the live counters since allocation (no baseline).
    void raw_snapshot_into(LockStats& s) const {
      s = LockStats{};
      s.timeouts = timeouts.load(std::memory_order_relaxed);
      s.reconfigurations = reconfigurations.load(std::memory_order_relaxed);
      s.scheduler_changes = scheduler_changes.load(std::memory_order_relaxed);
      s.shared_acquisitions =
          shared_acquisitions.load(std::memory_order_relaxed);
      s.max_wait_ns = max_wait.load(std::memory_order_relaxed);
      s.max_hold_ns = max_hold.load(std::memory_order_relaxed);
      for (const CachePadded<HotShard>& padded : shards) {
        const HotShard& h = *padded;
        s.acquisitions += h.acquisitions.load(std::memory_order_relaxed);
        s.contended_acquisitions +=
            h.contended.load(std::memory_order_relaxed);
        s.releases += h.releases.load(std::memory_order_relaxed);
        s.timed_waits += h.timed_waits.load(std::memory_order_relaxed);
        s.timed_holds += h.timed_holds.load(std::memory_order_relaxed);
        s.handoffs += h.handoffs.load(std::memory_order_relaxed);
        s.blocks += h.blocks.load(std::memory_order_relaxed);
        s.wakeups += h.wakeups.load(std::memory_order_relaxed);
        s.spin_probes += h.spin_probes.load(std::memory_order_relaxed);
        s.total_wait_ns += h.total_wait.load(std::memory_order_relaxed);
        s.total_hold_ns += h.total_hold.load(std::memory_order_relaxed);
        for (std::size_t i = 0; i < LockStats::kBuckets; ++i) {
          s.wait_histogram[i] +=
              h.wait_hist[i].load(std::memory_order_relaxed);
          s.hold_histogram[i] +=
              h.hold_hist[i].load(std::memory_order_relaxed);
        }
      }
    }
  };

  /// The block while the monitor is enabled, else null. Acquire pairs
  /// with the release in set_enabled, so a block published by a later
  /// switch-on is seen constructed.
  [[nodiscard]] Block* live() const noexcept {
    return enabled_.load(std::memory_order_acquire);
  }

  /// The monitor's block, allocated and published on first use.
  Block* ensure_block() {
    Block* b = block_.load(std::memory_order_acquire);
    if (b != nullptr) return b;
    auto fresh = std::make_unique<Block>();
    if (block_.compare_exchange_strong(b, fresh.get(),
                                       std::memory_order_release,
                                       std::memory_order_acquire)) {
      return fresh.release();
    }
    return b;  // a concurrent enabler published first
  }

  /// raw >= base field-wise whenever both were taken under baseline_mu
  /// (raw counters are monotone); the clamp is belt-and-suspenders against
  /// the sharded lost-increment corner.
  static std::uint64_t sub_clamped(std::uint64_t raw,
                                   std::uint64_t base) noexcept {
    return raw >= base ? raw - base : 0;
  }
  /// `s` holds raw totals on entry, baseline-relative ones on return.
  static void subtract_in_place(LockStats& s, const LockStats& base) {
    s.acquisitions = sub_clamped(s.acquisitions, base.acquisitions);
    s.contended_acquisitions = sub_clamped(s.contended_acquisitions,
                                           base.contended_acquisitions);
    s.releases = sub_clamped(s.releases, base.releases);
    s.handoffs = sub_clamped(s.handoffs, base.handoffs);
    s.blocks = sub_clamped(s.blocks, base.blocks);
    s.wakeups = sub_clamped(s.wakeups, base.wakeups);
    s.timeouts = sub_clamped(s.timeouts, base.timeouts);
    s.spin_probes = sub_clamped(s.spin_probes, base.spin_probes);
    s.reconfigurations =
        sub_clamped(s.reconfigurations, base.reconfigurations);
    s.scheduler_changes =
        sub_clamped(s.scheduler_changes, base.scheduler_changes);
    s.shared_acquisitions =
        sub_clamped(s.shared_acquisitions, base.shared_acquisitions);
    s.timed_waits = sub_clamped(s.timed_waits, base.timed_waits);
    s.timed_holds = sub_clamped(s.timed_holds, base.timed_holds);
    s.total_wait_ns = sub_clamped(s.total_wait_ns, base.total_wait_ns);
    s.total_hold_ns = sub_clamped(s.total_hold_ns, base.total_hold_ns);
    // Maxima restart at reset (see above): the raw values stand.
    for (std::size_t i = 0; i < LockStats::kBuckets; ++i) {
      s.wait_histogram[i] =
          sub_clamped(s.wait_histogram[i], base.wait_histogram[i]);
      s.hold_histogram[i] =
          sub_clamped(s.hold_histogram[i], base.hold_histogram[i]);
    }
  }

  /// Process-wide round-robin shard assignment, fixed per thread on first
  /// use. Threads outnumbering kShards share slots (still correct - the
  /// slot counters are atomic - just with some line sharing and the rare
  /// lost increment described above).
  [[nodiscard]] static std::size_t shard_index() noexcept {
    std::size_t idx = monitor_detail::tls_shard_index;
    if (idx == monitor_detail::kUnassignedShard) [[unlikely]] {
      static std::atomic<std::size_t> next{0};
      idx = next.fetch_add(1, std::memory_order_relaxed) % kShards;
      monitor_detail::tls_shard_index = idx;
    }
    return idx;
  }

  /// Plain increment on a relaxed atomic: data-race free, but two threads
  /// sharing a shard slot can overwrite each other's bump (rare, harmless -
  /// see the header comment). An order of magnitude cheaper than a
  /// lock-prefixed RMW on the hot path.
  static void add(Counter& c, std::uint64_t v) noexcept {
    c.store(c.load(std::memory_order_relaxed) + v,
            std::memory_order_relaxed);
  }
  static void inc(Counter& c) noexcept { add(c, 1); }

  static void bump(std::array<Counter, LockStats::kBuckets>& hist,
                   Nanos ns) noexcept {
    inc(hist[bucket_of(ns)]);
  }
  static void update_max(Counter& slot, Nanos v) noexcept {
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (v > cur &&
           !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<Block*> enabled_{nullptr};
  /// Owns the block from the first switch-on until the monitor dies.
  std::atomic<Block*> block_{nullptr};
};

}  // namespace relock
