// The native platform: lock algorithms instantiated with NativePlatform run
// on real host threads using std::atomic words and Parker-based blocking.
//
// A Domain is the unit of thread registration: every thread that touches a
// lock first registers itself (obtaining a Context). This mirrors the paper's
// Cthreads substrate where threads carry identifiers ("thread-id") that the
// lock's registration module logs. Registration also gives the release path
// a way to wake a specific thread (Parker lookup by ThreadId).
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "relock/platform/cacheline.hpp"
#include "relock/platform/clock.hpp"
#include "relock/platform/parker.hpp"
#include "relock/platform/types.hpp"

namespace relock::native {

class Domain;

/// Per-thread execution context. Construct one on each thread that will use
/// locks belonging to `domain`; destruction unregisters the thread.
class Context {
 public:
  Context(Domain& domain, Priority priority = kDefaultPriority);
  ~Context();
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  [[nodiscard]] ThreadId self() const noexcept { return id_; }
  [[nodiscard]] Priority priority() const noexcept { return priority_; }
  void set_priority(Priority p) noexcept { priority_ = p; }
  [[nodiscard]] Domain& domain() noexcept { return *domain_; }
  [[nodiscard]] Parker& parker() noexcept { return parker_; }
  /// The thread's pool of persistent waiter records (core/waiter.hpp).
  [[nodiscard]] std::unique_ptr<ContextState>& waiter_pool() noexcept {
    return waiter_pool_;
  }

 private:
  Domain* domain_;
  ThreadId id_;
  Priority priority_;
  Parker parker_;
  std::unique_ptr<ContextState> waiter_pool_;
};

/// Thread registry. Fixed capacity so that ThreadId -> Parker lookup is a
/// lock-free indexed load (the release path of a blocking lock must not take
/// an allocator or registry mutex).
class Domain {
 public:
  explicit Domain(std::uint32_t max_threads = 1024)
      : slots_(max_threads) {
    free_.reserve(max_threads);
  }
  Domain(const Domain&) = delete;
  Domain& operator=(const Domain&) = delete;

  /// Wakes the thread registered as `tid` (no-op token deposit if it is not
  /// currently parked). Mutex-free: the direct-handoff release path signals
  /// its grantee on this edge and must not serialize releasers on a slot
  /// lock. Safe against the target unregistering concurrently: the slot's
  /// in-flight count pins the Parker for the duration of the signal (a
  /// store-then-load Dekker handshake with unregister_thread), and a slot
  /// that already emptied makes this a no-op. That matters because a
  /// releaser publishes the grant word first and signals after - the grantee
  /// can consume the grant without ever parking, return, and tear down its
  /// Context before the (now redundant) wake lands.
  void unpark(ThreadId tid) {
    assert(tid < slots_.size());
    Slot& slot = *slots_[tid];
    slot.inflight.fetch_add(1, std::memory_order_seq_cst);
    if (Parker* p = slot.parker.load(std::memory_order_seq_cst)) {
      p->unpark();
    }
    slot.inflight.fetch_sub(1, std::memory_order_release);
  }

  [[nodiscard]] std::uint32_t capacity() const noexcept {
    return static_cast<std::uint32_t>(slots_.size());
  }

  [[nodiscard]] std::uint32_t registered_count() const noexcept {
    return live_.load(std::memory_order_relaxed);
  }

  /// True when more threads are registered than the host has processors.
  /// Spin policies consult this to give way sooner; approximate by nature
  /// (registration is the best live-thread census the library has).
  [[nodiscard]] bool oversubscribed() const noexcept {
    return live_.load(std::memory_order_relaxed) > hardware_threads();
  }

 private:
  friend class Context;

  [[nodiscard]] static std::uint32_t hardware_threads() noexcept {
    static const std::uint32_t n = [] {
      const unsigned hc = std::thread::hardware_concurrency();
      return hc == 0 ? 1u : static_cast<std::uint32_t>(hc);
    }();
    return n;
  }

  // O(1) id assignment: recycled ids first (keeps ids dense), then the
  // high-water counter for never-used slots. Replaces a linear scan that
  // was O(capacity) per registration under the mutex — quadratic when
  // spawning a large team.
  ThreadId register_thread(Parker& parker) {
    std::lock_guard<std::mutex> lk(mu_);
    ThreadId id;
    if (!free_.empty()) {
      id = free_.back();
      free_.pop_back();
    } else if (next_fresh_ < slots_.size()) {
      id = next_fresh_++;
    } else {
      throw std::length_error("relock: Domain thread capacity exhausted");
    }
    slots_[id]->parker.store(&parker, std::memory_order_release);
    live_.fetch_add(1, std::memory_order_relaxed);
    return id;
  }

  // Publish the empty slot, then wait out in-flight signals: an unpark that
  // read the Parker pointer before the store lands holds the slot pinned
  // via the in-flight count (seq_cst on both sides makes the store/load
  // pairs a Dekker handshake - at least one side sees the other). Once the
  // spin falls through, no signal can reach the Parker and Context
  // destruction is safe.
  void unregister_thread(ThreadId id) {
    std::lock_guard<std::mutex> lk(mu_);
    Slot& slot = *slots_[id];
    slot.parker.store(nullptr, std::memory_order_seq_cst);
    while (slot.inflight.load(std::memory_order_seq_cst) != 0) {
      std::this_thread::yield();
    }
    free_.push_back(id);
    live_.fetch_sub(1, std::memory_order_relaxed);
  }

  // Parker pointer plus the in-flight signal count that pins it against
  // the owning thread's unregistration. Padded so wakes of different
  // threads do not false-share.
  struct Slot {
    std::atomic<Parker*> parker{nullptr};
    std::atomic<std::uint32_t> inflight{0};
  };

  std::mutex mu_;
  std::atomic<std::uint32_t> live_{0};
  ThreadId next_fresh_ = 0;
  std::vector<ThreadId> free_;
  std::vector<CachePadded<Slot>> slots_;
};

inline Context::Context(Domain& domain, Priority priority)
    : domain_(&domain), id_(domain.register_thread(parker_)),
      priority_(priority) {}

inline Context::~Context() { domain_->unregister_thread(id_); }

/// One atomic machine word, unpadded. For words that share a cache line on
/// purpose: a lock table's 16-byte slots, and a lock's cold configuration
/// words, which no passive handoff touches. The (Domain, Placement)
/// constructor shape is shared with the simulator platform so that lock
/// algorithms can construct words generically; the native platform has no
/// NUMA placement and ignores the hint. NativePlatform's operations take
/// either word.
struct PackedWord {
  explicit PackedWord(Domain& /*domain*/, std::uint64_t initial = 0,
                      Placement /*placement*/ = Placement::any()) noexcept
      : v(initial) {}
  PackedWord(const PackedWord&) = delete;
  PackedWord& operator=(const PackedWord&) = delete;

  std::atomic<std::uint64_t> v;
};

/// One atomic machine word, padded to its own cache line: the platform's
/// Word, right for a hot lock word, ruinous at a million table slots.
struct alignas(kCacheLineSize) Word : PackedWord {
  using PackedWord::PackedWord;
};

/// NativePlatform: the Platform implementation for real host threads.
/// All atomics use seq_cst-free explicit orders: acquire on reads that
/// observe protected state, release on writes that publish it. Read-modify-
/// writes that acquire a lock use acq_rel.
struct NativePlatform {
  using Context = native::Context;
  using Word = native::Word;
  using PackedWord = native::PackedWord;
  using Domain = native::Domain;

  /// Real hardware concurrency, no calibrated cost model: lock algorithms
  /// may use contention optimisations (see kRealConcurrency in platform.hpp).
  static constexpr bool kRealConcurrency = true;
  /// Nothing but the lock itself observes a word access (see
  /// kObservedWords in platform.hpp): words that are only ever written
  /// are left out of the layout.
  static constexpr bool kObservedWords = false;

  static std::uint64_t load(Context&, const PackedWord& w) noexcept {
    return w.v.load(std::memory_order_acquire);
  }
  static std::uint64_t load_relaxed(Context&,
                                    const PackedWord& w) noexcept {
    return w.v.load(std::memory_order_relaxed);
  }
  static void store(Context&, PackedWord& w, std::uint64_t v) noexcept {
    w.v.store(v, std::memory_order_release);
  }
  static std::uint64_t fetch_or(Context&, PackedWord& w,
                                std::uint64_t v) noexcept {
    return w.v.fetch_or(v, std::memory_order_acq_rel);
  }
  static std::uint64_t fetch_and(Context&, PackedWord& w,
                                 std::uint64_t v) noexcept {
    return w.v.fetch_and(v, std::memory_order_acq_rel);
  }
  static std::uint64_t fetch_add(Context&, PackedWord& w,
                                 std::uint64_t v) noexcept {
    return w.v.fetch_add(v, std::memory_order_acq_rel);
  }
  static std::uint64_t exchange(Context&, PackedWord& w,
                                std::uint64_t v) noexcept {
    return w.v.exchange(v, std::memory_order_acq_rel);
  }
  /// Single-shot compare-and-swap; returns true on success. `expected` is
  /// taken by value: callers that need the observed value reload explicitly,
  /// which keeps the simulator's cost model honest (one access per call).
  static bool cas(Context&, PackedWord& w, std::uint64_t expected,
                  std::uint64_t desired) noexcept {
    return w.v.compare_exchange_strong(expected, desired,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire);
  }

  /// Spin-loop hint to the CPU.
  static void pause(Context&) noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
  }

  /// Busy-waits for `ns` (backoff delays).
  static void delay(Context&, Nanos ns) noexcept { spin_for(ns); }

  /// Performs `ns` worth of "useful work" (workload generators).
  static void compute(Context&, Nanos ns) noexcept { spin_for(ns); }

  /// Politely cedes the processor.
  static void yield(Context&) noexcept { std::this_thread::yield(); }

  /// Parks the calling thread until some thread calls unblock(its id).
  static void block(Context& ctx) { ctx.parker().park(); }

  /// Timed park; returns true iff woken (vs. timed out).
  static bool block_for(Context& ctx, Nanos ns) {
    return ctx.parker().park_for(ns);
  }

  /// Wakes thread `tid` of the same domain.
  static void unblock(Context& ctx, ThreadId tid) { ctx.domain().unpark(tid); }

  /// True when more threads are registered with the domain than the host
  /// has processors (spin policies give way sooner). Extra static beyond
  /// the Platform concept; used only under `if constexpr (kRealConcurrency)`.
  static bool oversubscribed(Context& ctx) noexcept {
    return ctx.domain().oversubscribed();
  }

  /// Monotonic nanoseconds.
  static Nanos now(Context&) noexcept { return monotonic_now(); }

  /// NUMA home node of the calling thread. The native platform does not
  /// model placement; distributed locks fall back to Placement::any().
  static int home_node(Context&) noexcept { return Placement::kAnyNode; }
};

}  // namespace relock::native
