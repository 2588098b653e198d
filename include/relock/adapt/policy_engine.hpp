// The closed-loop adaptation engine: the paper's "thread monitoring the
// state of the lock" (section 3.1) grown into a production governor that
// keeps MANY locks in their fastest configuration at once.
//
// A PolicyEngine owns a registry of locks - explicitly registered
// ConfigurableLocks plus, via LockTable's inflation hooks, whichever table
// entries are currently hot. Each tick() it consumes every registered
// lock's sharded LockMonitor delta through the allocation-free
// snapshot_into() path, feeds it to that lock's policy stack (cost-model
// spin<->sleep, threshold resizing under bursts - see policies.hpp), and
// applies the resulting actions under attribute possession, subject to
// three dampers:
//
//   no-op suppression   an action whose target equals the current
//                       configuration is dropped before any possession
//   per-lock cooldown   a lock that just reconfigured stays quiet for
//                       `cooldown_ticks` governor passes (engine-level
//                       hysteresis on top of each policy's own band)
//   global rate limit   at most `max_actions_per_tick` reconfigurations
//                       per pass across ALL locks - a storm of flapping
//                       locks cannot monopolize the governor
//
// Dampened actions are DEFERRED, not dropped: a policy that emitted an
// action has already advanced its internal hysteresis state, so silently
// discarding the action would desynchronize it from the lock forever. The
// deferred action retries on subsequent ticks (and evaporates if the lock
// reaches the target configuration some other way). Possession uses
// try_possess - the fast-fail single test-and-set of paper Table 6 - so
// two governors (or a governor and any other external agent) contending on
// the same lock skip instead of serializing.
//
// Threading: registration and unregistration are safe from any thread,
// concurrently with tick(); tick() itself is single-consumer (one governor
// thread - or one model-checker thread - at a time). Per-lock state is
// reclaimed only inside tick(), so an unregister racing a tick never frees
// policy state mid-evaluation. The production shape is one GovernorThread
// per domain; tests and the relock-check scenarios drive tick() directly.
//
// The single-lock external agent of the paper is the same engine with one
// slot, no rate limiting beyond one action per tick and no cooldown,
// ticked by hand by whichever thread plays the monitor:
//
//   PolicyEngine<P> agent({.capacity = 1, .max_actions_per_tick = 1,
//                          .cooldown_ticks = 0});
//   agent.register_lock(lock, std::move(policy));
//   ... agent.tick(ctx);  // counters().applied / .suppressed_noop
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "relock/adapt/policies.hpp"
#include "relock/core/configurable_lock.hpp"

namespace relock::adapt {

/// True when applying `action` would leave `lock` in the configuration it
/// already targets: identical waiting attributes, the kind arrivals already
/// register under, or the installed threshold. Suppressing these skips the
/// whole possess/configure round-trip - and, on real platforms, the
/// configure's quiescence of the epoch, which waits out every in-flight
/// fast release and sends the releases meanwhile down the guarded path.
template <Platform P>
[[nodiscard]] bool action_is_noop(const ConfigurableLock<P>& lock,
                                  const AdaptAction& action) {
  if (const auto* w = std::get_if<SetWaitingPolicy>(&action)) {
    return lock.attributes() == w->attributes;
  }
  if (const auto* s = std::get_if<SetScheduler>(&action)) {
    return lock.target_scheduler_kind() == s->kind;
  }
  const auto* t = std::get_if<SetThreshold>(&action);
  return t != nullptr && lock.priority_threshold() == t->threshold;
}

/// Fills the platform-census field of a delta (a no-op on platforms
/// without an oversubscription census, e.g. the simulator).
template <Platform P>
void fill_census(typename P::Context& ctx, StatsDelta& d) {
  if constexpr (requires { P::oversubscribed(ctx); }) {
    d.oversubscribed = P::oversubscribed(ctx);
  }
}

template <Platform P>
class PolicyEngine {
 public:
  using Ctx = typename P::Context;
  using Lock = ConfigurableLock<P>;
  /// Builds the policy stack for a lock registered without an explicit
  /// policy. Receives the lock so the stack can match its configuration
  /// (scheduler-dependent members, initial hysteresis side).
  using PolicyFactory =
      std::function<std::unique_ptr<AdaptationPolicy>(const Lock&)>;

  struct Options {
    /// Registry slots. Fixed for the engine's lifetime; registration is
    /// best-effort once full (hot table entries simply stay unmanaged).
    std::uint32_t capacity = 256;
    /// Global rate limiter: reconfigurations applied per tick across all
    /// registered locks. Excess actions defer to later ticks.
    std::uint32_t max_actions_per_tick = 4;
    /// Engine-level per-lock hysteresis: ticks a lock stays quiet after an
    /// applied action before the engine reconfigures it again.
    std::uint32_t cooldown_ticks = 2;
    /// Stack builder for default registrations; null = default_stack().
    PolicyFactory policy_factory = nullptr;
  };

  /// Tick-loop bookkeeping. Mutated only inside tick(); read it from the
  /// ticking thread or after the governor has stopped.
  struct Counters {
    std::uint64_t ticks = 0;
    std::uint64_t evaluated = 0;           ///< policy evaluations run
    std::uint64_t applied = 0;             ///< reconfigurations applied
    std::uint64_t suppressed_noop = 0;     ///< target == current config
    std::uint64_t suppressed_cooldown = 0; ///< deferred by per-lock cooldown
    std::uint64_t rate_limited = 0;        ///< deferred by the global limit
    std::uint64_t possession_busy = 0;     ///< try_possess lost; deferred
  };

  explicit PolicyEngine(Options opts = Options{})
      : opts_(opts),
        slots_(std::make_unique<Slot[]>(opts.capacity)) {}

  PolicyEngine(const PolicyEngine&) = delete;
  PolicyEngine& operator=(const PolicyEngine&) = delete;

  /// Default per-lock stack: the cost-model waiting policy everywhere,
  /// plus burst threshold resizing for threshold schedulers. The waiting
  /// policy's side is seeded from the lock's current attributes so the
  /// first interval cannot emit a flip to where the lock already is.
  static std::unique_ptr<AdaptationPolicy> default_stack(const Lock& lk) {
    auto stack = std::make_unique<PolicyStack>();
    const LockAttributes attrs = lk.attributes();
    stack->push(std::make_unique<CostModelWaitPolicy>(
        CostModelWaitPolicy::Params{}, /*start_sleeping=*/attrs.sleep_ns != 0));
    if (lk.target_scheduler_kind() == SchedulerKind::kPriorityThreshold) {
      stack->push(std::make_unique<BurstThresholdPolicy>());
    }
    return stack;
  }

  /// Registers a lock under `policy` (null = the factory / default
  /// stack). Best-effort: returns false when the registry is full. Safe
  /// from any thread, including a table's inflation path racing tick().
  bool register_lock(Lock& lk,
                     std::unique_ptr<AdaptationPolicy> policy = nullptr) {
    for (std::uint32_t i = 0; i < opts_.capacity; ++i) {
      Slot& s = slots_[i];
      std::uint32_t expect = kEmpty;
      if (!s.state.compare_exchange_strong(expect, kBuilding,
                                           std::memory_order_acquire)) {
        continue;
      }
      s.lock = &lk;
      s.policy = policy != nullptr
                     ? std::move(policy)
                     : (opts_.policy_factory ? opts_.policy_factory(lk)
                                             : default_stack(lk));
      lk.monitor().snapshot_into(s.last);
      s.deferred.reset();
      s.cooldown_until = 0;
      s.state.store(kLive, std::memory_order_release);
      registered_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Marks the lock's slot dead; tick() reclaims it (deferred reclamation
  /// keeps an unregister racing a tick from freeing policy state under an
  /// in-flight evaluation). Returns false when the lock was not live.
  bool unregister_lock(Lock& lk) {
    for (std::uint32_t i = 0; i < opts_.capacity; ++i) {
      Slot& s = slots_[i];
      if (s.state.load(std::memory_order_acquire) != kLive) continue;
      if (s.lock != &lk) continue;
      std::uint32_t expect = kLive;
      if (s.state.compare_exchange_strong(expect, kDead,
                                          std::memory_order_acq_rel)) {
        registered_.fetch_sub(1, std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  }

  /// Table-hook adapters: wire these into LockTable::Options::on_inflate /
  /// on_deflate so hot inflated entries are governed while they exist.
  [[nodiscard]] std::function<void(Lock&)> inflation_hook() {
    return [this](Lock& lk) { register_lock(lk); };
  }
  [[nodiscard]] std::function<void(Lock&)> deflation_hook() {
    return [this](Lock& lk) { unregister_lock(lk); };
  }

  /// One governor pass over the registry. Single-consumer (see header
  /// comment). Returns the number of reconfigurations applied.
  std::uint32_t tick(Ctx& ctx) {
    const std::uint64_t now = ++counters_.ticks;
    std::uint32_t budget = opts_.max_actions_per_tick;
    std::uint32_t applied = 0;
    for (std::uint32_t i = 0; i < opts_.capacity; ++i) {
      Slot& s = slots_[i];
      const std::uint32_t st = s.state.load(std::memory_order_acquire);
      if (st == kDead) {  // deferred reclamation: only tick() frees
        s.policy.reset();
        s.deferred.reset();
        s.lock = nullptr;
        s.state.store(kEmpty, std::memory_order_release);
        continue;
      }
      if (st != kLive) continue;
      Lock& lk = *s.lock;
      if (s.deferred.has_value()) {
        // A dampened action from an earlier tick: retry before consuming
        // another interval, so the emitting policy's state converges with
        // the lock. The monitoring window keeps accumulating meanwhile.
        if (action_is_noop(lk, *s.deferred)) {
          s.deferred.reset();  // reached the target some other way
          ++counters_.suppressed_noop;
        } else if (now < s.cooldown_until) {
          ++counters_.suppressed_cooldown;
        } else if (budget == 0) {
          ++counters_.rate_limited;
        } else if (apply(ctx, lk, *s.deferred)) {
          s.deferred.reset();
          --budget;
          ++applied;
          ++counters_.applied;
          s.cooldown_until = now + opts_.cooldown_ticks;
        } else {
          ++counters_.possession_busy;
        }
        continue;
      }
      lk.monitor().snapshot_into(s.scratch);
      StatsDelta d = delta_between(s.last, s.scratch);
      fill_census<P>(ctx, d);
      s.last = s.scratch;
      ++counters_.evaluated;
      std::optional<AdaptAction> action = s.policy->evaluate(d);
      if (!action.has_value()) continue;
      if (action_is_noop(lk, *action)) {
        ++counters_.suppressed_noop;
        continue;
      }
      if (now < s.cooldown_until) {
        s.deferred = std::move(action);
        ++counters_.suppressed_cooldown;
        continue;
      }
      if (budget == 0) {
        s.deferred = std::move(action);
        ++counters_.rate_limited;
        continue;
      }
      if (!apply(ctx, lk, *action)) {
        s.deferred = std::move(action);
        ++counters_.possession_busy;
        continue;
      }
      --budget;
      ++applied;
      ++counters_.applied;
      s.cooldown_until = now + opts_.cooldown_ticks;
    }
    return applied;
  }

  [[nodiscard]] std::uint32_t registered_count() const noexcept {
    return registered_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint32_t capacity() const noexcept {
    return opts_.capacity;
  }
  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }

 private:
  // Slot lifecycle: kEmpty -CAS-> kBuilding -> kLive -CAS-> kDead -> kEmpty.
  // The last edge (reclamation) runs only inside tick().
  static constexpr std::uint32_t kEmpty = 0;
  static constexpr std::uint32_t kBuilding = 1;
  static constexpr std::uint32_t kLive = 2;
  static constexpr std::uint32_t kDead = 3;

  struct Slot {
    std::atomic<std::uint32_t> state{kEmpty};
    Lock* lock = nullptr;
    std::unique_ptr<AdaptationPolicy> policy;
    LockStats last;
    LockStats scratch;
    std::optional<AdaptAction> deferred;
    std::uint64_t cooldown_until = 0;  ///< tick number
  };

  /// Applies one action under fast-fail possession: false = another agent
  /// owns the attribute class right now, the caller defers.
  bool apply(Ctx& ctx, Lock& lk, const AdaptAction& action) {
    if (const auto* w = std::get_if<SetWaitingPolicy>(&action)) {
      if (!lk.try_possess(ctx, AttributeClass::kWaitingPolicy)) return false;
      lk.configure_waiting(ctx, w->attributes);
      lk.release_possession(ctx, AttributeClass::kWaitingPolicy);
      return true;
    }
    if (const auto* s = std::get_if<SetScheduler>(&action)) {
      if (!lk.try_possess(ctx, AttributeClass::kScheduler)) return false;
      lk.configure_scheduler(ctx, s->kind);
      lk.release_possession(ctx, AttributeClass::kScheduler);
      return true;
    }
    const auto* t = std::get_if<SetThreshold>(&action);
    if (t == nullptr) return true;  // exhaustive today; future-proof
    if (!lk.try_possess(ctx, AttributeClass::kScheduler)) return false;
    lk.set_priority_threshold(ctx, t->threshold);
    lk.release_possession(ctx, AttributeClass::kScheduler);
    return true;
  }

  Options opts_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint32_t> registered_{0};
  Counters counters_;
};

/// The background governor: one per domain. Owns a platform context
/// registered in the domain and drives engine.tick() at a fixed interval
/// until stopped (destruction stops it). Real-concurrency production
/// shape; the simulator and the model checker drive tick() from their own
/// scheduled threads instead.
template <Platform P>
class GovernorThread {
 public:
  using Domain = typename P::Domain;

  GovernorThread(Domain& domain, PolicyEngine<P>& engine, Nanos interval_ns)
      : domain_(domain), engine_(engine), interval_(interval_ns) {
    thread_ = std::thread([this] { run(); });
  }
  ~GovernorThread() { stop(); }

  GovernorThread(const GovernorThread&) = delete;
  GovernorThread& operator=(const GovernorThread&) = delete;

  /// Idempotent; returns once the governor thread has exited.
  void stop() {
    {
      std::lock_guard<std::mutex> g(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void run() {
    Ctx ctx(domain_);
    for (;;) {
      {
        std::unique_lock<std::mutex> g(mu_);
        cv_.wait_for(g, std::chrono::nanoseconds(interval_),
                     [this] { return stop_; });
        if (stop_) return;
      }
      engine_.tick(ctx);
    }
  }

  using Ctx = typename P::Context;

  Domain& domain_;
  PolicyEngine<P>& engine_;
  Nanos interval_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace relock::adapt
