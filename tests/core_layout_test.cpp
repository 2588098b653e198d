// Host-side cache-line layout of ConfigurableLock on the real-concurrency
// platforms. A contended handoff is a chain of cache-line transfers: every
// line the releaser writes that an arriving waiter also writes bounces
// between their cores on each handoff. The rule pinned here: no word that
// arrivals write (the state word's contended mark, the queue cell's tail
// swap, the waiter count) shares a 64-byte
// line with the state-word owner's release state, and the queue cell's
// consumer cursor sits on that owner line. The waiter record gets
// the same treatment from the other side: every field a releaser touches
// when it grants a record sits on one line, apart from the grant flag the
// waiter spins on. Addresses are compared at runtime (through a friend
// probe for the lock); offsetof is unusable on these classes. The native
// lock's size is pinned too: at most 1 KiB with its monitor off.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "relock/core/configurable_lock.hpp"
#include "relock/platform/cacheline.hpp"
#include "relock/platform/native.hpp"

namespace relock {

template <Platform P>
struct LockLayoutProbe {
  using Lock = ConfigurableLock<P>;

  /// One member's byte range inside a live lock.
  struct Span {
    std::string name;
    std::uintptr_t begin;
    std::size_t size;

    [[nodiscard]] std::uintptr_t first_line() const {
      return begin / kCacheLineSize;
    }
    [[nodiscard]] std::uintptr_t last_line() const {
      return (begin + size - 1) / kCacheLineSize;
    }
  };

  template <typename T>
  static Span span(const char* name, const T& member) {
    return Span{name, reinterpret_cast<std::uintptr_t>(&member), sizeof(T)};
  }

  /// Words written by arriving waiters.
  static std::vector<Span> arrival_written(const Lock& lk) {
    return {span("state_", lk.state_), span("queue_cell_", lk.queue_cell_),
            span("waiters_arrived_", lk.waiters_arrived_)};
  }

  /// The release state written by the state-word owner (and by meta
  /// holders on the guarded paths).
  static std::vector<Span> owner_written(const Lock& lk) {
    return {span("owner_", lk.owner_),
            span("holders_", lk.holders_),
            span("writer_held_", lk.writer_held_),
            span("fast_releases_inflight_", lk.fast_releases_inflight_),
            span("quiesce_breakers_", lk.quiesce_breakers_),
            span("recursion_depth_", lk.recursion_depth_),
            span("full_mode_hold_", lk.full_mode_hold_),
            span("acquire_time_", lk.acquire_time_),
            span("orphans_", lk.orphans_),
            span("grant_scratch_", lk.grant_scratch_),
            span("waiters_departed_", lk.waiters_departed_),
            span("queue_cursor_", lk.queue_cursor_),
            span("holder_rec_", lk.holder_rec_)};
  }

  /// The waiter counts ride lines their writers already own: the arrival
  /// count the cell's tail line, the departure count the fast release's
  /// in-flight-count line.
  static bool counts_on_owned_lines(const Lock& lk) {
    return span("tail", lk.queue_cell_.tail).first_line() ==
               span("arrived", lk.waiters_arrived_).last_line() &&
           span("inflight", lk.fast_releases_inflight_).first_line() ==
               span("departed", lk.waiters_departed_).last_line();
  }

  /// The holder-side handover's line: the cell's cursor and the holder's
  /// record, which a fast release reads and writes around its grant
  /// store, the in-flight count it retires after it, and the hold state
  /// the grantee's begin_hold() writes next, all on one line.
  static bool handover_on_one_line(const Lock& lk) {
    const std::uintptr_t line = span("cursor", lk.queue_cursor_).first_line();
    for (const Span& s :
         {span("cursor", lk.queue_cursor_),
          span("holder_rec_", lk.holder_rec_),
          span("inflight", lk.fast_releases_inflight_),
          span("recursion_depth_", lk.recursion_depth_),
          span("full_mode_hold_", lk.full_mode_hold_),
          span("acquire_time_", lk.acquire_time_)}) {
      if (s.first_line() != line || s.last_line() != line) return false;
    }
    return true;
  }

  /// Configuration words no passive handoff reads or writes.
  static std::vector<Span> cold_words(const Lock& lk) {
    return {span("advice_", lk.advice_),
            span("config_word_", lk.config_word_),
            span("sched_flag_", lk.sched_flag_),
            span("possess_word_", lk.possess_word_),
            span("mailbox_", lk.mailbox_)};
  }

  static std::uintptr_t base(const Lock& lk) {
    return reinterpret_cast<std::uintptr_t>(&lk);
  }
};

namespace {

/// Every (arrival-written, owner-written) pair that shares a line.
template <Platform P>
std::vector<std::string> shared_lines(const ConfigurableLock<P>& lk) {
  using Probe = LockLayoutProbe<P>;
  std::vector<std::string> clashes;
  for (const auto& a : Probe::arrival_written(lk)) {
    for (const auto& o : Probe::owner_written(lk)) {
      if (a.first_line() <= o.last_line() &&
          o.first_line() <= a.last_line()) {
        clashes.push_back(a.name + " shares line " +
                          std::to_string(a.first_line() -
                                         Probe::base(lk) / kCacheLineSize) +
                          " with " + o.name);
      }
    }
  }
  return clashes;
}

TEST(LockLayout, ArrivalWordsAvoidOwnerReleaseLines) {
  using Lock = ConfigurableLock<native::NativePlatform>;
  native::Domain domain(4);
  auto lk = std::make_unique<Lock>(domain);
  // Line numbers computed from addresses are only meaningful if the object
  // itself starts on a line boundary.
  ASSERT_EQ(LockLayoutProbe<native::NativePlatform>::base(*lk) %
                kCacheLineSize,
            0u);
  for (const std::string& c : shared_lines(*lk)) ADD_FAILURE() << c;
  using Probe = LockLayoutProbe<native::NativePlatform>;
  EXPECT_TRUE(Probe::counts_on_owned_lines(*lk))
      << "a waiter count left the line its writer already owns";
  EXPECT_TRUE(Probe::handover_on_one_line(*lk))
      << "the cell's cursor left the owner line the release writes";
}

// A lock a table can afford: with its monitor off, the native lock is at
// most 1 KiB. The monitor's counters live in a block only an enabled
// monitor allocates, the scheduler submodule words (written, never read)
// are empty on native, and the cold configuration words share one line.
TEST(LockLayout, NativeLockFitsOneKiB) {
  EXPECT_LE(sizeof(ConfigurableLock<native::NativePlatform>), 1024u);
}

TEST(LockLayout, ColdConfigurationWordsShareOneLine) {
  using P = native::NativePlatform;
  using Probe = LockLayoutProbe<P>;
  native::Domain domain(4);
  auto lk = std::make_unique<ConfigurableLock<P>>(domain);
  const std::vector<Probe::Span> cold = Probe::cold_words(*lk);
  const std::uintptr_t line = cold.front().first_line();
  for (const Probe::Span& w : cold) {
    EXPECT_EQ(w.first_line(), line) << w.name << " left the cold line";
    EXPECT_EQ(w.last_line(), line) << w.name << " left the cold line";
  }
  // No word a handoff touches is on it.
  for (const auto& hot : Probe::arrival_written(*lk)) {
    EXPECT_FALSE(hot.first_line() <= line && line <= hot.last_line())
        << hot.name << " shares the cold line";
  }
  for (const auto& hot : Probe::owner_written(*lk)) {
    EXPECT_FALSE(hot.first_line() <= line && line <= hot.last_line())
        << hot.name << " shares the cold line";
  }
}

TEST(LockLayout, WaiterRecordHandoffFieldsShareOneLine) {
  using P = native::NativePlatform;
  using Probe = LockLayoutProbe<P>;
  native::Domain domain(4);
  auto rec = std::make_unique<WaiterRecord<P>>(domain, 1, kDefaultPriority,
                                               Placement::any(), false, true);
  ASSERT_EQ(reinterpret_cast<std::uintptr_t>(rec.get()) % kCacheLineSize, 0u);
  // Read or written by a releaser selecting and granting the record: the
  // cell unlink (qnext), the linked-grant test and grant-hook capture, the
  // module unregistration, the guarded grant's host flag and hook chain,
  // and the priority scan.
  const std::vector<Probe::Span> handoff = {
      Probe::span("qnext", rec->qnext),
      Probe::span("registered_with", rec->registered_with),
      Probe::span("grant_hook", rec->grant_hook),
      Probe::span("grant_hook_arg", rec->grant_hook_arg),
      Probe::span("hook_next", rec->hook_next),
      Probe::span("tid", rec->tid),
      Probe::span("priority", rec->priority),
      Probe::span("shared", rec->shared),
      Probe::span("may_sleep", rec->may_sleep),
      Probe::span("granted_flag_host", rec->granted_flag_host)};
  const Probe::Span granted = Probe::span("granted", rec->granted);
  const std::uintptr_t line = handoff.front().first_line();
  for (const Probe::Span& f : handoff) {
    EXPECT_EQ(f.first_line(), line) << f.name << " leaves the handoff line";
    EXPECT_EQ(f.last_line(), line) << f.name << " leaves the handoff line";
    EXPECT_FALSE(granted.first_line() <= f.last_line() &&
                 f.first_line() <= granted.last_line())
        << f.name << " shares a line with the grant flag";
  }
}

}  // namespace
}  // namespace relock
