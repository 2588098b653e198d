// Adaptation policies (paper section 6 / [MS93]): "a waiting policy based
// on dynamic feedback (reporting the state of a lock) is essential for
// better application performance... Such an object uses a builtin monitor
// and an adaptation algorithm to implement a feedback loop to configure its
// own attributes."
//
// A policy consumes periodic LockStats deltas from the monitor module and
// emits configuration actions; the PolicyEngine (policy_engine.hpp) applies
// them to a lock via possess/configure.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <variant>
#include <vector>

#include "relock/core/attributes.hpp"
#include "relock/monitor/lock_monitor.hpp"

namespace relock::adapt {

struct SetWaitingPolicy {
  LockAttributes attributes;
};
struct SetScheduler {
  SchedulerKind kind;
};
struct SetThreshold {
  Priority threshold;
};

using AdaptAction =
    std::variant<SetWaitingPolicy, SetScheduler, SetThreshold>;

/// Stats observed since the previous policy evaluation.
struct StatsDelta {
  std::uint64_t acquisitions = 0;
  std::uint64_t contended = 0;
  std::uint64_t blocks = 0;
  std::uint64_t timeouts = 0;
  double mean_hold_ns = 0.0;
  double mean_wait_ns = 0.0;
  /// Domain census at evaluation time: more registered threads than
  /// processors. Filled by the PolicyEngine on platforms that expose a
  /// census, false elsewhere - it is an input to the cost-model waiting
  /// policy, not a monitor counter.
  bool oversubscribed = false;

  [[nodiscard]] double contention_ratio() const {
    return acquisitions == 0
               ? 0.0
               : static_cast<double>(contended) /
                     static_cast<double>(acquisitions);
  }
};

/// Computes the delta between two snapshots.
[[nodiscard]] inline StatsDelta delta_between(const LockStats& prev,
                                              const LockStats& cur) {
  // A monitor reset between the two snapshots restarts every counter
  // window, so `prev` is not a comparable floor: subtracting it would
  // underflow the unsigned counters into astronomically large "deltas"
  // (the pre-generation-counter bug). The window since the reset is
  // exactly what `cur` holds, so use it as the delta.
  if (cur.reset_generation != prev.reset_generation) {
    StatsDelta d;
    d.acquisitions = cur.acquisitions;
    d.contended = cur.contended_acquisitions;
    d.blocks = cur.blocks;
    d.timeouts = cur.timeouts;
    d.mean_hold_ns = cur.mean_hold_ns();
    d.mean_wait_ns = cur.mean_wait_ns();
    return d;
  }
  StatsDelta d;
  d.acquisitions = cur.acquisitions - prev.acquisitions;
  d.contended = cur.contended_acquisitions - prev.contended_acquisitions;
  d.blocks = cur.blocks - prev.blocks;
  d.timeouts = cur.timeouts - prev.timeouts;
  // Duration means are per timed sample: real-concurrency platforms time
  // a 1-in-N sample of operations (see LockMonitor::timing_sample), so the
  // sums must be normalized by the sample counts, not the event counts.
  const std::uint64_t held = cur.timed_holds - prev.timed_holds;
  d.mean_hold_ns =
      held == 0 ? 0.0
                : static_cast<double>(cur.total_hold_ns - prev.total_hold_ns) /
                      static_cast<double>(held);
  const std::uint64_t waited = cur.timed_waits - prev.timed_waits;
  d.mean_wait_ns =
      waited == 0
          ? 0.0
          : static_cast<double>(cur.total_wait_ns - prev.total_wait_ns) /
                static_cast<double>(waited);
  return d;
}

/// Abstract adaptation policy.
class AdaptationPolicy {
 public:
  virtual ~AdaptationPolicy() = default;
  /// Evaluates one monitoring interval; returns an action or nothing.
  virtual std::optional<AdaptAction> evaluate(const StatsDelta& d) = 0;
};

/// Spin<->block hysteresis on observed hold times: long critical sections
/// indicate waiters should sleep (spinning wastes their processors); short
/// ones indicate they should spin (blocking costs more than the wait).
/// The thresholds form a hysteresis band to prevent oscillation.
class SpinBlockHysteresisPolicy final : public AdaptationPolicy {
 public:
  struct Params {
    /// Switch to blocking when mean hold exceeds this.
    double block_above_ns = 500'000.0;
    /// Switch back to spinning when mean hold drops below this.
    double spin_below_ns = 150'000.0;
    /// Minimum acquisitions per interval before acting (noise gate).
    std::uint64_t min_samples = 8;
    /// Spin probes to keep in front of the sleep (combined lock).
    std::uint32_t residual_spins = 10;
  };

  SpinBlockHysteresisPolicy() : SpinBlockHysteresisPolicy(Params{}) {}
  explicit SpinBlockHysteresisPolicy(Params p) : params_(p) {}

  std::optional<AdaptAction> evaluate(const StatsDelta& d) override {
    if (d.acquisitions < params_.min_samples) return std::nullopt;
    if (!blocking_ && d.mean_hold_ns > params_.block_above_ns) {
      blocking_ = true;
      return AdaptAction{SetWaitingPolicy{
          LockAttributes::combined(params_.residual_spins, kForever)}};
    }
    if (blocking_ && d.mean_hold_ns < params_.spin_below_ns) {
      blocking_ = false;
      return AdaptAction{SetWaitingPolicy{LockAttributes::spin()}};
    }
    return std::nullopt;
  }

  [[nodiscard]] bool blocking() const noexcept { return blocking_; }

 private:
  Params params_;
  bool blocking_ = false;
};

/// Contention-driven scheduler policy: under heavy contention a queueing
/// scheduler (FCFS handoff) avoids the hot-spot traffic of barging; under
/// light contention the centralized lock's cheaper release path wins.
class ContentionSchedulerPolicy final : public AdaptationPolicy {
 public:
  struct Params {
    double queue_above = 0.5;   ///< contention ratio to adopt FCFS
    double barge_below = 0.1;   ///< contention ratio to drop back to kNone
    std::uint64_t min_samples = 8;
  };

  ContentionSchedulerPolicy() : ContentionSchedulerPolicy(Params{}) {}
  explicit ContentionSchedulerPolicy(Params p) : params_(p) {}

  std::optional<AdaptAction> evaluate(const StatsDelta& d) override {
    if (d.acquisitions < params_.min_samples) return std::nullopt;
    const double ratio = d.contention_ratio();
    if (!queued_ && ratio > params_.queue_above) {
      queued_ = true;
      return AdaptAction{SetScheduler{SchedulerKind::kFcfs}};
    }
    if (queued_ && ratio < params_.barge_below) {
      queued_ = false;
      return AdaptAction{SetScheduler{SchedulerKind::kNone}};
    }
    return std::nullopt;
  }

  [[nodiscard]] bool queued() const noexcept { return queued_; }

 private:
  Params params_;
  bool queued_ = false;
};

/// Mutable-Locks-style waiting cost model (PAPERS.md, arXiv 1906.00490):
/// spinning is worth it only while the expected wait is cheaper than the
/// pair of context switches a park/unpark round trip costs; past that,
/// every spinning waiter burns a processor the holder could be running on.
/// The decision variable is the observed mean wait per interval against a
/// 2x-context-switch budget with a multiplicative hysteresis band, and a
/// domain oversubscription census forces the sleep side outright (spinning
/// while processors are oversubscribed steals cycles from the very thread
/// being waited on). The sleep side keeps a short spin phase in front of
/// the park (the paper's combined lock; Mutable Locks' "spin-then-block").
class CostModelWaitPolicy final : public AdaptationPolicy {
 public:
  struct Params {
    /// Estimated park+unpark round trip. The Mutable Locks rule spins
    /// while expected wait < 2 * this.
    double context_switch_ns = 5'000.0;
    /// Multiplicative dead band around the 2x budget (no oscillation when
    /// the mean wait hovers at the boundary).
    double hysteresis = 1.5;
    /// Minimum acquisitions per interval before acting (noise gate).
    std::uint64_t min_samples = 8;
    /// Spin probes kept in front of the park on the sleep side.
    std::uint32_t residual_spins = 32;
  };

  CostModelWaitPolicy() : CostModelWaitPolicy(Params{}) {}
  explicit CostModelWaitPolicy(Params p, bool start_sleeping = false)
      : params_(p), sleeping_(start_sleeping) {}

  std::optional<AdaptAction> evaluate(const StatsDelta& d) override {
    if (d.acquisitions < params_.min_samples) return std::nullopt;
    const double budget = 2.0 * params_.context_switch_ns;
    if (!sleeping_ &&
        (d.oversubscribed || d.mean_wait_ns > budget * params_.hysteresis)) {
      sleeping_ = true;
      return AdaptAction{SetWaitingPolicy{
          LockAttributes::combined(params_.residual_spins, kForever)}};
    }
    if (sleeping_ && !d.oversubscribed && d.mean_wait_ns > 0.0 &&
        d.mean_wait_ns < budget / params_.hysteresis) {
      sleeping_ = false;
      return AdaptAction{SetWaitingPolicy{LockAttributes::spin()}};
    }
    return std::nullopt;
  }

  [[nodiscard]] bool sleeping() const noexcept { return sleeping_; }

 private:
  Params params_;
  bool sleeping_ = false;
};

/// Threshold resizing under bursty arrivals (kPriorityThreshold locks):
/// when the arrival rate spikes against its running EWMA, raise the
/// threshold so only waiters at or above the burst priority are served
/// while the burst drains; when arrivals subside, drop back so everyone is
/// eligible again. The EWMA is seeded by the first interval and the
/// surge/subside factors form the hysteresis band.
class BurstThresholdPolicy final : public AdaptationPolicy {
 public:
  struct Params {
    Priority calm_threshold = kDefaultPriority;
    Priority burst_threshold = 1;
    double alpha = 0.25;          ///< EWMA smoothing
    double surge_factor = 3.0;    ///< rate > factor * EWMA opens a burst
    double subside_factor = 1.5;  ///< rate * factor < EWMA closes it
    std::uint64_t min_samples = 8;
  };

  BurstThresholdPolicy() : BurstThresholdPolicy(Params{}) {}
  explicit BurstThresholdPolicy(Params p) : params_(p) {}

  std::optional<AdaptAction> evaluate(const StatsDelta& d) override {
    const double rate = static_cast<double>(d.acquisitions);
    if (ewma_ < 0.0) {  // first interval seeds the running mean
      ewma_ = rate;
      return std::nullopt;
    }
    const double prev = ewma_;
    ewma_ = params_.alpha * rate + (1.0 - params_.alpha) * ewma_;
    if (d.acquisitions < params_.min_samples) {
      // Quiet interval: any open burst is over.
      if (surged_) {
        surged_ = false;
        return AdaptAction{SetThreshold{params_.calm_threshold}};
      }
      return std::nullopt;
    }
    if (!surged_ && prev > 0.0 && rate > prev * params_.surge_factor) {
      surged_ = true;
      return AdaptAction{SetThreshold{params_.burst_threshold}};
    }
    if (surged_ && rate * params_.subside_factor < prev) {
      surged_ = false;
      return AdaptAction{SetThreshold{params_.calm_threshold}};
    }
    return std::nullopt;
  }

  [[nodiscard]] bool surged() const noexcept { return surged_; }

 private:
  Params params_;
  double ewma_ = -1.0;
  bool surged_ = false;
};

/// Composable policy stack: members are evaluated in order and the first
/// engaged action wins the interval (one reconfiguration per interval
/// keeps cause and effect attributable - the next delta reflects exactly
/// one change). Members skipped after a hit just miss one interval; their
/// own hysteresis state is untouched, so no member can desynchronize from
/// the lock by having an emitted action silently dropped.
class PolicyStack final : public AdaptationPolicy {
 public:
  PolicyStack() = default;
  explicit PolicyStack(std::vector<std::unique_ptr<AdaptationPolicy>> ps)
      : policies_(std::move(ps)) {}

  void push(std::unique_ptr<AdaptationPolicy> p) {
    policies_.push_back(std::move(p));
  }
  [[nodiscard]] std::size_t size() const noexcept { return policies_.size(); }

  std::optional<AdaptAction> evaluate(const StatsDelta& d) override {
    for (const std::unique_ptr<AdaptationPolicy>& p : policies_) {
      if (std::optional<AdaptAction> a = p->evaluate(d)) return a;
    }
    return std::nullopt;
  }

 private:
  std::vector<std::unique_ptr<AdaptationPolicy>> policies_;
};

/// Phase detector: flags intervals whose mean hold time departs from the
/// running EWMA by more than a factor, signalling a workload phase change
/// that warrants re-evaluation by a surrounding policy.
class PhaseDetector {
 public:
  struct Params {
    double alpha = 0.25;   ///< EWMA smoothing
    double factor = 3.0;   ///< departure factor that defines a new phase
  };

  PhaseDetector() : PhaseDetector(Params{}) {}
  explicit PhaseDetector(Params p) : params_(p) {}

  /// Returns true when the sample signals a phase change.
  bool observe(double mean_hold_ns) {
    if (mean_hold_ns <= 0.0) return false;
    if (ewma_ <= 0.0) {
      ewma_ = mean_hold_ns;
      return false;
    }
    const bool changed = mean_hold_ns > ewma_ * params_.factor ||
                         mean_hold_ns * params_.factor < ewma_;
    ewma_ = params_.alpha * mean_hold_ns + (1.0 - params_.alpha) * ewma_;
    if (changed) ++phases_;
    return changed;
  }

  [[nodiscard]] double ewma() const noexcept { return ewma_; }
  [[nodiscard]] std::uint64_t phases_detected() const noexcept {
    return phases_;
  }

 private:
  Params params_;
  double ewma_ = 0.0;
  std::uint64_t phases_ = 0;
};

}  // namespace relock::adapt
