// Configurable attributes of the lock object (paper section 3 / Table 1).
//
// The waiting component of a lock is driven by four mutable attributes:
//   spin-time  -> spin_count  : probes per waiting round (kInfiniteSpins =
//                               spin forever)
//   delay-time -> delay_ns    : initial backoff delay between probes
//                               (0 = tight spinning; >0 = Anderson backoff)
//   sleep-time -> sleep_ns    : how long a round sleeps after its spin phase
//                               (0 = never sleep; kForever = until woken)
//   timeout    -> timeout_ns  : total bound on the acquisition (0 = none)
//
// Table 1 of the paper maps value patterns to resulting lock kinds; that
// mapping is `classify()` below and is property-tested in
// tests/core_attributes_test.cpp.
#pragma once

#include <cstdint>
#include <limits>

#include "relock/platform/types.hpp"

namespace relock {

/// "spin forever" sentinel for spin_count.
inline constexpr std::uint32_t kInfiniteSpins =
    std::numeric_limits<std::uint32_t>::max();

struct LockAttributes {
  std::uint32_t spin_count = kInfiniteSpins;
  Nanos delay_ns = 0;
  Nanos sleep_ns = 0;
  Nanos timeout_ns = 0;

  // --- Named configurations (the rows of Table 1). ---

  /// Pure spin: (n, 0, 0, 0).
  static constexpr LockAttributes spin() noexcept {
    return {kInfiniteSpins, 0, 0, 0};
  }
  /// Backoff spin: (n, n, 0, 0).
  static constexpr LockAttributes backoff_spin(Nanos initial_delay = 50'000) noexcept {
    return {kInfiniteSpins, initial_delay, 0, 0};
  }
  /// Pure sleep / blocking: (0, 0, n, 0).
  static constexpr LockAttributes blocking() noexcept {
    return {0, 0, kForever, 0};
  }
  /// Combined / mixed: spin `spins` probes, then sleep, in turn (n, n, n, x).
  static constexpr LockAttributes combined(std::uint32_t spins,
                                           Nanos sleep = kForever) noexcept {
    return {spins, 0, sleep, 0};
  }
  /// Conditional: any waiting mode bounded by `timeout` (x, x, x, n).
  static constexpr LockAttributes conditional(Nanos timeout,
                                              LockAttributes base = spin()) noexcept {
    base.timeout_ns = timeout;
    return base;
  }

  friend constexpr bool operator==(const LockAttributes&,
                                   const LockAttributes&) noexcept = default;
};

/// The resulting lock kind for a given attribute configuration (Table 1).
enum class WaitingKind : std::uint8_t {
  kPureSpin,         ///< (n, 0, 0, 0)
  kBackoffSpin,      ///< (n, n, 0, 0)
  kPureSleep,        ///< (0, x, n, 0)
  kConditional,      ///< (x, x, x, n)
  kMixed,            ///< (n, x, n, 0)
  kDegenerate,       ///< (0, x, 0, 0): no spin, no sleep - polls politely
};

[[nodiscard]] constexpr WaitingKind classify(const LockAttributes& a) noexcept {
  if (a.timeout_ns > 0) return WaitingKind::kConditional;
  const bool spins = a.spin_count > 0;
  const bool sleeps = a.sleep_ns > 0;
  if (spins && sleeps) return WaitingKind::kMixed;
  if (spins) {
    return a.delay_ns > 0 ? WaitingKind::kBackoffSpin : WaitingKind::kPureSpin;
  }
  if (sleeps) return WaitingKind::kPureSleep;
  return WaitingKind::kDegenerate;
}

[[nodiscard]] constexpr const char* to_string(WaitingKind k) noexcept {
  switch (k) {
    case WaitingKind::kPureSpin: return "pure spin";
    case WaitingKind::kBackoffSpin: return "spin (backoff)";
    case WaitingKind::kPureSleep: return "pure sleep";
    case WaitingKind::kConditional: return "conditional sleep/spin";
    case WaitingKind::kMixed: return "mixed sleep/spin";
    case WaitingKind::kDegenerate: return "degenerate (poll)";
  }
  return "?";
}

/// Advice published by the current lock owner for advisory/speculative locks
/// (paper section 4.3.2): waiters poll this and override their configured
/// waiting policy with the owner's hint.
enum class Advice : std::uint64_t {
  kNone = 0,   ///< follow the configured attributes
  kSpin = 1,   ///< owner expects to release soon
  kSleep = 2,  ///< owner expects a long tenure
};

/// The lock scheduler kinds Gamma (paper sections 3.1 / 4.3.1).
enum class SchedulerKind : std::uint8_t {
  kNone,               ///< centralized barging: no queue, hardware ordering
  kFcfs,               ///< FIFO grant order, from the lock's queue cell
  kPriorityQueue,      ///< grant the highest-priority waiter
  kPriorityThreshold,  ///< FCFS among waiters with priority >= threshold
  kHandoff,            ///< releaser hints the next owner
  kReaderWriter,       ///< multiple readers / exclusive writers
  kQueue,              ///< same FIFO as kFcfs: a synonym, kept for callers
  kCustom,             ///< user-supplied Scheduler module
};

[[nodiscard]] constexpr const char* to_string(SchedulerKind k) noexcept {
  switch (k) {
    case SchedulerKind::kNone: return "none (centralized)";
    case SchedulerKind::kFcfs: return "fcfs";
    case SchedulerKind::kPriorityQueue: return "priority-queue";
    case SchedulerKind::kPriorityThreshold: return "priority-threshold";
    case SchedulerKind::kHandoff: return "handoff";
    case SchedulerKind::kReaderWriter: return "reader-writer";
    case SchedulerKind::kQueue: return "queue (distributed)";
    case SchedulerKind::kCustom: return "custom";
  }
  return "?";
}

/// Reader/writer preference for the kReaderWriter scheduler.
enum class RwPreference : std::uint8_t {
  kFifo,        ///< strict arrival order (leading readers batch together)
  kReaderPref,  ///< grant all queued readers before any writer
  kWriterPref,  ///< grant queued writers before any reader
};

/// Attribute classes for possession (paper's `possess` operation acquires
/// exclusive ownership of one attribute before reconfiguring it).
enum class AttributeClass : std::uint32_t {
  kWaitingPolicy = 1u << 0,
  kScheduler = 1u << 1,
  kAdvice = 1u << 2,
};

/// The lock states of the paper's Figure 4. A lock is *idle* when it is
/// free but threads are still waiting on it (e.g. during an expensive
/// locking cycle or while waiters are ineligible under a raised priority
/// threshold) - the state dynamic reconfiguration aims to minimize.
enum class LockState : std::uint8_t { kUnlocked, kLocked, kIdle };

[[nodiscard]] constexpr const char* to_string(LockState s) noexcept {
  switch (s) {
    case LockState::kUnlocked: return "unlocked";
    case LockState::kLocked: return "locked";
    case LockState::kIdle: return "idle";
  }
  return "?";
}

/// Passive locks execute the release module on the releasing processor;
/// active locks delegate it to a dedicated manager thread bound to the lock
/// (paper section 4.3.3).
enum class Execution : std::uint8_t { kPassive, kActive };

/// Where waiters wait (paper section 4.3.3, centralized vs. distributed):
/// centralized waiters poll the lock's home word; distributed waiters poll a
/// per-waiter flag placed in their own node's memory.
enum class WaitPlacement : std::uint8_t { kLockHome, kWaiterLocal };

}  // namespace relock
