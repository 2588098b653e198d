// Host-side cache-line layout of ConfigurableLock on the real-concurrency
// platforms. A contended handoff is a chain of cache-line transfers: every
// line the releaser writes that an arriving waiter also writes bounces
// between their cores on each handoff. The rule pinned here: no word that
// arrivals write (the state word's contended mark, the queue cell's tail
// swap, the arrival stack's exchange, the waiter count) shares a 64-byte
// line with the state-word owner's release state. Addresses are compared
// at runtime through a friend probe; offsetof is unusable on this class.
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
            span("arrivals_", lk.arrivals_),
            span("waiter_count_", lk.waiter_count_)};
  }

  /// The release state written by the state-word owner (and by meta
  /// holders on the guarded paths).
  static std::vector<Span> owner_written(const Lock& lk) {
    return {span("owner_", lk.owner_),
            span("holders_", lk.holders_),
            span("writer_held_", lk.writer_held_),
            span("fast_releases_inflight_", lk.fast_releases_inflight_),
            span("quiesce_breakers_", lk.quiesce_breakers_),
            span("next_grant_", lk.next_grant_),
            span("next_grant_version_", lk.next_grant_version_),
            span("recursion_depth_", lk.recursion_depth_),
            span("full_mode_hold_", lk.full_mode_hold_),
            span("acquire_time_", lk.acquire_time_),
            span("orphans_", lk.orphans_),
            span("grant_scratch_", lk.grant_scratch_)};
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
}

}  // namespace
}  // namespace relock
