// Adaptation module: policy decision logic and the full monitor ->
// policy -> possess/configure feedback loop on the simulator.
#include <gtest/gtest.h>

#include <memory>

#include "relock/adapt/policies.hpp"
#include "relock/adapt/policy_engine.hpp"
#include "relock/platform/rng.hpp"
#include "relock/sim/machine.hpp"

namespace relock::adapt {
namespace {

using sim::Machine;
using sim::MachineParams;
using sim::ProcId;
using sim::SimPlatform;
using sim::Thread;

StatsDelta delta_with(std::uint64_t acq, double hold_ns,
                      std::uint64_t contended = 0) {
  StatsDelta d;
  d.acquisitions = acq;
  d.contended = contended;
  d.mean_hold_ns = hold_ns;
  return d;
}

// ----------------------------------------------------------- Policies ----

TEST(SpinBlockHysteresis, SwitchesToBlockingOnLongHolds) {
  SpinBlockHysteresisPolicy p;
  const auto action = p.evaluate(delta_with(100, 1'000'000.0));
  ASSERT_TRUE(action.has_value());
  const auto* w = std::get_if<SetWaitingPolicy>(&*action);
  ASSERT_NE(w, nullptr);
  EXPECT_GT(w->attributes.sleep_ns, 0u);
  EXPECT_TRUE(p.blocking());
}

TEST(SpinBlockHysteresis, SwitchesBackToSpinOnShortHolds) {
  SpinBlockHysteresisPolicy p;
  ASSERT_TRUE(p.evaluate(delta_with(100, 1'000'000.0)).has_value());
  const auto action = p.evaluate(delta_with(100, 50'000.0));
  ASSERT_TRUE(action.has_value());
  const auto* w = std::get_if<SetWaitingPolicy>(&*action);
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->attributes.sleep_ns, 0u);
  EXPECT_FALSE(p.blocking());
}

TEST(SpinBlockHysteresis, HysteresisBandPreventsOscillation) {
  SpinBlockHysteresisPolicy p(
      SpinBlockHysteresisPolicy::Params{500'000.0, 150'000.0, 1, 10});
  ASSERT_TRUE(p.evaluate(delta_with(10, 600'000.0)).has_value());
  // In-band values (between 150us and 500us) must not flip the policy.
  EXPECT_FALSE(p.evaluate(delta_with(10, 300'000.0)).has_value());
  EXPECT_FALSE(p.evaluate(delta_with(10, 450'000.0)).has_value());
  EXPECT_TRUE(p.blocking());
}

TEST(SpinBlockHysteresis, NoiseGateIgnoresSparseIntervals) {
  SpinBlockHysteresisPolicy p;  // min_samples = 8
  EXPECT_FALSE(p.evaluate(delta_with(3, 5'000'000.0)).has_value());
}

TEST(ContentionScheduler, AdoptsQueueUnderContention) {
  ContentionSchedulerPolicy p;
  StatsDelta d = delta_with(100, 0.0, 80);
  const auto action = p.evaluate(d);
  ASSERT_TRUE(action.has_value());
  const auto* s = std::get_if<SetScheduler>(&*action);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->kind, SchedulerKind::kFcfs);
  EXPECT_TRUE(p.queued());
}

TEST(ContentionScheduler, RevertsWhenContentionSubsides) {
  ContentionSchedulerPolicy p;
  ASSERT_TRUE(p.evaluate(delta_with(100, 0.0, 80)).has_value());
  const auto action = p.evaluate(delta_with(100, 0.0, 2));
  ASSERT_TRUE(action.has_value());
  EXPECT_EQ(std::get<SetScheduler>(*action).kind, SchedulerKind::kNone);
}

TEST(SpinBlockHysteresis, BoundaryValuedDeltaNeverOscillates) {
  // Thresholds are strict inequalities: a delta pinned exactly on the
  // switch boundary engages nothing, on either hysteresis side.
  const SpinBlockHysteresisPolicy::Params p{500'000.0, 150'000.0, 1, 10};
  SpinBlockHysteresisPolicy spin_side(p);
  EXPECT_FALSE(spin_side.evaluate(delta_with(10, 500'000.0)).has_value());
  EXPECT_FALSE(spin_side.blocking());
  SpinBlockHysteresisPolicy block_side(p);
  ASSERT_TRUE(block_side.evaluate(delta_with(10, 600'000.0)).has_value());
  EXPECT_FALSE(block_side.evaluate(delta_with(10, 150'000.0)).has_value());
  EXPECT_TRUE(block_side.blocking());
}

TEST(CostModelWait, ParksWhenWaitExceedsContextSwitchBudget) {
  CostModelWaitPolicy p;  // budget = 2 * 5000ns, hysteresis 1.5
  StatsDelta d = delta_with(100, 0.0);
  d.mean_wait_ns = 100'000.0;
  const auto action = p.evaluate(d);
  ASSERT_TRUE(action.has_value());
  const auto* w = std::get_if<SetWaitingPolicy>(&*action);
  ASSERT_NE(w, nullptr);
  EXPECT_GT(w->attributes.sleep_ns, 0u);
  EXPECT_GT(w->attributes.spin_count, 0u) << "sleep side keeps a spin phase";
  EXPECT_TRUE(p.sleeping());
}

TEST(CostModelWait, OversubscriptionForcesSleepRegardlessOfWait) {
  CostModelWaitPolicy p;
  StatsDelta d = delta_with(100, 0.0);
  d.mean_wait_ns = 10.0;  // trivially cheap waits...
  d.oversubscribed = true;  // ...but spinning steals the holder's processor
  ASSERT_TRUE(p.evaluate(d).has_value());
  EXPECT_TRUE(p.sleeping());
  // And it pins the sleep side: short waits cannot flip back while the
  // domain stays oversubscribed.
  EXPECT_FALSE(p.evaluate(d).has_value());
  EXPECT_TRUE(p.sleeping());
}

TEST(CostModelWait, ReturnsToSpinInsideTheBand) {
  CostModelWaitPolicy p(CostModelWaitPolicy::Params{}, /*start_sleeping=*/true);
  StatsDelta d = delta_with(100, 0.0);
  d.mean_wait_ns = 1'000.0;  // < 10'000 / 1.5
  const auto action = p.evaluate(d);
  ASSERT_TRUE(action.has_value());
  EXPECT_EQ(std::get<SetWaitingPolicy>(*action).attributes,
            LockAttributes::spin());
  EXPECT_FALSE(p.sleeping());
}

TEST(CostModelWait, BoundaryAndZeroWaitsHoldPosition) {
  CostModelWaitPolicy p;
  // Exactly budget * hysteresis: strict comparison, no flip.
  StatsDelta d = delta_with(100, 0.0);
  d.mean_wait_ns = 15'000.0;
  EXPECT_FALSE(p.evaluate(d).has_value());
  // Zero observed wait on the sleep side means no timed samples landed in
  // the window - not evidence of cheap waits; hold position.
  CostModelWaitPolicy sleeper(CostModelWaitPolicy::Params{},
                              /*start_sleeping=*/true);
  EXPECT_FALSE(sleeper.evaluate(delta_with(100, 0.0)).has_value());
  EXPECT_TRUE(sleeper.sleeping());
}

TEST(BurstThreshold, SurgeRaisesAndSubsideRestoresThreshold) {
  BurstThresholdPolicy p;
  EXPECT_FALSE(p.evaluate(delta_with(100, 0.0)).has_value())
      << "first interval only seeds the EWMA";
  const auto surge = p.evaluate(delta_with(1000, 0.0));
  ASSERT_TRUE(surge.has_value());
  EXPECT_EQ(std::get<SetThreshold>(*surge).threshold, Priority{1});
  EXPECT_TRUE(p.surged());
  const auto subside = p.evaluate(delta_with(20, 0.0));
  ASSERT_TRUE(subside.has_value());
  EXPECT_EQ(std::get<SetThreshold>(*subside).threshold, kDefaultPriority);
  EXPECT_FALSE(p.surged());
}

TEST(BurstThreshold, QuietIntervalClosesAnOpenBurst) {
  BurstThresholdPolicy p;
  p.evaluate(delta_with(100, 0.0));                    // seed
  ASSERT_TRUE(p.evaluate(delta_with(1000, 0.0)));      // surge
  const auto action = p.evaluate(delta_with(0, 0.0));  // arrivals vanish
  ASSERT_TRUE(action.has_value());
  EXPECT_EQ(std::get<SetThreshold>(*action).threshold, kDefaultPriority);
  EXPECT_FALSE(p.surged());
}

TEST(PolicyStack, FirstEngagedActionWinsTheInterval) {
  PolicyStack stack;
  stack.push(std::make_unique<CostModelWaitPolicy>());
  stack.push(std::make_unique<ContentionSchedulerPolicy>());
  ASSERT_EQ(stack.size(), 2u);
  // Both members would engage on this delta; the stack returns the wait
  // policy's action and the scheduler member keeps its interval untouched.
  StatsDelta d = delta_with(100, 0.0, 80);
  d.mean_wait_ns = 100'000.0;
  const auto first = stack.evaluate(d);
  ASSERT_TRUE(first.has_value());
  EXPECT_NE(std::get_if<SetWaitingPolicy>(&*first), nullptr);
  // Next interval: the wait member is converged (sleeping, long waits stay
  // long), so the scheduler member gets its turn.
  const auto second = stack.evaluate(d);
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(std::get_if<SetScheduler>(&*second), nullptr);
}

TEST(Policies, ZeroAcquisitionWindowsAreIgnoredEverywhere) {
  const StatsDelta quiet;  // all-zero interval
  SpinBlockHysteresisPolicy a;
  CostModelWaitPolicy b;
  ContentionSchedulerPolicy c;
  EXPECT_FALSE(a.evaluate(quiet).has_value());
  EXPECT_FALSE(b.evaluate(quiet).has_value());
  EXPECT_FALSE(c.evaluate(quiet).has_value());
  EXPECT_DOUBLE_EQ(quiet.contention_ratio(), 0.0) << "no NaN on 0/0";
}

TEST(PhaseDetector, DetectsAbruptHoldTimeChange) {
  PhaseDetector pd;
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(pd.observe(100'000.0));
  EXPECT_TRUE(pd.observe(1'000'000.0));  // 10x jump: new phase
  EXPECT_EQ(pd.phases_detected(), 1u);
}

TEST(PhaseDetector, StableWorkloadDetectsNothing) {
  PhaseDetector pd;
  Xoshiro256 rng(7);
  for (int i = 0; i < 100; ++i) {
    const double jitter = 0.9 + 0.2 * rng.next_double();
    EXPECT_FALSE(pd.observe(200'000.0 * jitter));
  }
  EXPECT_EQ(pd.phases_detected(), 0u);
}

TEST(DeltaBetween, ComputesInterval) {
  LockStats a, b;
  a.acquisitions = 10;
  a.contended_acquisitions = 2;
  a.releases = 10;
  a.timed_holds = 10;
  a.total_hold_ns = 1000;
  b.acquisitions = 30;
  b.contended_acquisitions = 12;
  b.releases = 30;
  b.timed_holds = 30;
  b.total_hold_ns = 5000;
  const StatsDelta d = delta_between(a, b);
  EXPECT_EQ(d.acquisitions, 20u);
  EXPECT_EQ(d.contended, 10u);
  EXPECT_DOUBLE_EQ(d.mean_hold_ns, 200.0);
  EXPECT_DOUBLE_EQ(d.contention_ratio(), 0.5);
}

TEST(DeltaBetween, ResetGenerationWrapUsesCurrentWindow) {
  // A monitor reset between the snapshots makes `prev` incomparable:
  // subtracting it would underflow. The delta must be exactly what the
  // current (post-reset) snapshot accumulated.
  LockStats prev, cur;
  prev.acquisitions = 1'000;
  prev.contended_acquisitions = 900;
  prev.timed_holds = 1'000;
  prev.total_hold_ns = 5'000'000;
  prev.reset_generation = 3;
  cur.acquisitions = 40;  // fewer than prev: naive subtraction wraps
  cur.contended_acquisitions = 10;
  cur.timed_holds = 40;
  cur.total_hold_ns = 8'000;
  cur.reset_generation = 4;
  const StatsDelta d = delta_between(prev, cur);
  EXPECT_EQ(d.acquisitions, 40u);
  EXPECT_EQ(d.contended, 10u);
  EXPECT_DOUBLE_EQ(d.mean_hold_ns, 200.0);
}

TEST(DeltaBetween, MonitorOffLockYieldsZeroRatioNotNaN) {
  Machine m(MachineParams::test_machine(2));
  ConfigurableLock<SimPlatform>::Options opts;
  opts.scheduler = SchedulerKind::kFcfs;
  opts.placement = Placement::on(0);
  opts.monitor_enabled = false;  // counters never move
  ConfigurableLock<SimPlatform> lock(m, opts);
  m.spawn(0, [&](Thread& t) {
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(lock.lock(t));
      lock.unlock(t);
    }
  });
  m.run();
  const LockStats s = lock.monitor().snapshot();
  EXPECT_EQ(s.acquisitions, 0u);
  EXPECT_DOUBLE_EQ(s.contention_ratio(), 0.0);
  const StatsDelta d = delta_between(LockStats{}, s);
  EXPECT_DOUBLE_EQ(d.contention_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(d.mean_hold_ns, 0.0);
}

TEST(Monitor, SnapshotIntoMatchesSnapshot) {
  Machine m(MachineParams::test_machine(2));
  ConfigurableLock<SimPlatform>::Options opts;
  opts.scheduler = SchedulerKind::kFcfs;
  opts.placement = Placement::on(0);
  opts.monitor_enabled = true;
  ConfigurableLock<SimPlatform> lock(m, opts);
  for (int i = 0; i < 2; ++i) {
    m.spawn(static_cast<ProcId>(i), [&](Thread& t) {
      for (int j = 0; j < 10; ++j) {
        ASSERT_TRUE(lock.lock(t));
        m.compute(t, 1'000);
        lock.unlock(t);
      }
    });
  }
  m.run();
  const LockStats by_value = lock.monitor().snapshot();
  LockStats in_place;
  lock.monitor().snapshot_into(in_place);
  EXPECT_EQ(in_place.acquisitions, by_value.acquisitions);
  EXPECT_EQ(in_place.contended_acquisitions, by_value.contended_acquisitions);
  EXPECT_EQ(in_place.releases, by_value.releases);
  EXPECT_EQ(in_place.total_hold_ns, by_value.total_hold_ns);
  EXPECT_EQ(in_place.timed_holds, by_value.timed_holds);
  EXPECT_EQ(in_place.reset_generation, by_value.reset_generation);
  // Reuse must fully overwrite stale contents, not accumulate into them.
  lock.monitor().snapshot_into(in_place);
  EXPECT_EQ(in_place.acquisitions, by_value.acquisitions);
}

// --------------------------------------------------- Full feedback loop ---
// The paper's single external agent: a one-slot PolicyEngine ticked by hand
// from a simulated monitoring thread.

PolicyEngine<SimPlatform>::Options single_agent() {
  return {.capacity = 1, .max_actions_per_tick = 1, .cooldown_ticks = 0};
}

TEST(Adaptor, AdaptsSpinLockToBlockingOnLongCsPhase) {
  Machine m(MachineParams::test_machine(4));
  ConfigurableLock<SimPlatform>::Options opts;
  opts.scheduler = SchedulerKind::kFcfs;
  opts.attributes = LockAttributes::spin();
  opts.placement = Placement::on(0);
  opts.monitor_enabled = true;
  ConfigurableLock<SimPlatform> lock(m, opts);

  PolicyEngine<SimPlatform> agent(single_agent());
  agent.register_lock(
      lock, std::make_unique<SpinBlockHysteresisPolicy>(
                SpinBlockHysteresisPolicy::Params{50'000.0, 10'000.0, 4, 5}));

  // Workers hold the lock for long critical sections.
  for (int i = 0; i < 2; ++i) {
    m.spawn(static_cast<ProcId>(i), [&](Thread& t) {
      for (int j = 0; j < 20; ++j) {
        ASSERT_TRUE(lock.lock(t));
        m.compute(t, 100'000);  // well above block_above
        lock.unlock(t);
        m.compute(t, 5000);
      }
    });
  }
  // The external monitoring agent periodically evaluates.
  bool adapted = false;
  m.spawn(2, [&](Thread& t) {
    // The interval must span enough acquisitions (~105us each) to pass the
    // policy's noise gate of 4 samples.
    for (int k = 0; k < 8 && !adapted; ++k) {
      m.compute(t, 600'000);
      adapted |= agent.tick(t) != 0;
    }
  });
  m.run();
  EXPECT_TRUE(adapted);
  EXPECT_GT(lock.attributes().sleep_ns, 0u)
      << "lock should have been reconfigured to a sleeping policy";
  EXPECT_GE(lock.monitor().snapshot().reconfigurations, 1u);
  EXPECT_EQ(agent.counters().applied, 1u);
}

TEST(Adaptor, SchedulerPolicyInstallsQueueUnderContention) {
  Machine m(MachineParams::test_machine(6));
  ConfigurableLock<SimPlatform>::Options opts;
  opts.scheduler = SchedulerKind::kNone;  // centralized barging
  opts.placement = Placement::on(0);
  opts.monitor_enabled = true;
  ConfigurableLock<SimPlatform> lock(m, opts);

  PolicyEngine<SimPlatform> agent(single_agent());
  agent.register_lock(lock, std::make_unique<ContentionSchedulerPolicy>(
                                ContentionSchedulerPolicy::Params{0.3, 0.01, 4}));

  for (int i = 0; i < 5; ++i) {
    m.spawn(static_cast<ProcId>(i), [&](Thread& t) {
      for (int j = 0; j < 25; ++j) {
        ASSERT_TRUE(lock.lock(t));
        m.compute(t, 20'000);
        lock.unlock(t);
      }
    });
  }
  m.spawn(5, [&](Thread& t) {
    for (int k = 0; k < 40; ++k) {
      m.compute(t, 100'000);
      agent.tick(t);
    }
  });
  m.run();
  EXPECT_EQ(lock.scheduler_kind(), SchedulerKind::kFcfs);
}

/// Emits the same waiting-policy target every interval, regardless of the
/// delta - exercises the engine's no-op suppression.
class AlwaysEmitPolicy final : public AdaptationPolicy {
 public:
  explicit AlwaysEmitPolicy(LockAttributes target) : target_(target) {}
  std::optional<AdaptAction> evaluate(const StatsDelta&) override {
    return AdaptAction{SetWaitingPolicy{target_}};
  }

 private:
  LockAttributes target_;
};

TEST(Adaptor, SuppressesRedundantReconfigurations) {
  Machine m(MachineParams::test_machine(2));
  ConfigurableLock<SimPlatform>::Options opts;
  opts.scheduler = SchedulerKind::kFcfs;
  opts.attributes = LockAttributes::spin();
  opts.placement = Placement::on(0);
  opts.monitor_enabled = true;
  ConfigurableLock<SimPlatform> lock(m, opts);

  // The policy keeps demanding the configuration the lock already has:
  // nothing may reach possess/configure.
  PolicyEngine<SimPlatform> agent(single_agent());
  agent.register_lock(
      lock, std::make_unique<AlwaysEmitPolicy>(LockAttributes::spin()));
  // A genuinely different target goes through once, then suppresses again.
  PolicyEngine<SimPlatform> flip(single_agent());
  flip.register_lock(
      lock, std::make_unique<AlwaysEmitPolicy>(LockAttributes::combined(5)));
  m.spawn(0, [&](Thread& t) {
    for (int k = 0; k < 3; ++k) {
      m.compute(t, 10'000);
      EXPECT_EQ(agent.tick(t), 0u);
    }
    EXPECT_EQ(flip.tick(t), 1u);
    EXPECT_EQ(flip.tick(t), 0u);
  });
  m.run();
  EXPECT_EQ(agent.counters().applied, 0u);
  EXPECT_EQ(agent.counters().suppressed_noop, 3u);
  EXPECT_EQ(flip.counters().applied, 1u);
  EXPECT_EQ(flip.counters().suppressed_noop, 1u);
  EXPECT_EQ(lock.monitor().snapshot().reconfigurations, 1u)
      << "only the flip agent's single reconfiguration may land";
}

}  // namespace
}  // namespace relock::adapt
