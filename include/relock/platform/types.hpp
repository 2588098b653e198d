// Fundamental identifiers and time units shared by every relock module.
#pragma once

#include <cstdint>
#include <limits>

namespace relock {

/// Identifies a thread within a Domain (native registry, simulator machine,
/// or vthread runtime). Ids are dense indices assigned at registration time.
using ThreadId = std::uint32_t;

/// Sentinel: "no thread".
inline constexpr ThreadId kInvalidThread = std::numeric_limits<ThreadId>::max();

/// All platform time quantities are nanoseconds held in a uint64. The
/// simulator interprets them as virtual nanoseconds; the native platform as
/// wall-clock nanoseconds on the monotonic clock.
using Nanos = std::uint64_t;

/// Sentinel for "unbounded" durations (e.g. spin forever, sleep until woken).
inline constexpr Nanos kForever = std::numeric_limits<Nanos>::max();

/// Thread priority. Higher value = more urgent. The default priority is 0;
/// negative priorities are permitted (background work).
using Priority = int;

inline constexpr Priority kDefaultPriority = 0;

/// Per-thread state a lock algorithm keeps on its thread's platform
/// Context (core/waiter.hpp's WaiterPool), type-erased so that a platform
/// need not know the algorithm's types. Real-concurrency Contexts own one
/// such slot and destroy it with themselves; the algorithm creates its
/// state there on first use.
class ContextState {
 public:
  ContextState() = default;
  ContextState(const ContextState&) = delete;
  ContextState& operator=(const ContextState&) = delete;
  virtual ~ContextState() = default;
};

/// Memory-placement hint for platform words. On NUMA platforms (the
/// simulator) this selects the home memory module; the native platform
/// currently ignores it.
struct Placement {
  /// Home node index, or kAnyNode for "wherever is convenient".
  int node = -1;

  static constexpr int kAnyNode = -1;

  static constexpr Placement any() noexcept { return Placement{}; }
  static constexpr Placement on(int node_index) noexcept {
    return Placement{node_index};
  }
};

}  // namespace relock
