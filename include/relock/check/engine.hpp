// relock-check: a deterministic concurrency model checker for
// ConfigurableLock scenarios.
//
// Every model thread is a sim::Coroutine; the engine (running on the host
// test thread) resumes exactly one coroutine at a time, so a schedule is a
// totally ordered sequence of *steps*. A step runs a thread from one
// scheduling point to the next: platform Word operations, chk_point hooks
// (host-side atomics: epoch counters, queue-cell links and tail, grant
// scratch, attribute seqlocks), parker transitions, pauses/yields/
// delays, and block/block_for. The strategy (DFS with a preemption bound,
// PCT-style randomized priorities, or trace replay) chooses which enabled
// action runs at each point; oracles validate every schedule.
//
// Determinism: the engine uses a logical clock (each point advances it 1 ns,
// P::delay advances it by its argument, a timeout firing advances it to the
// sleeper's deadline), no wall clock and no unseeded randomness, so a
// recorded action trace replays to the identical event sequence.
//
// Spin-loop bounding: a thread that executed pause/yield/delay is "gated" -
// not selectable until some cross-thread-visible mutation happens (a
// platform word write or a checker event advances a global write stamp), or
// every runnable thread is gated (then all are ungated, so progress that
// depends only on the logical clock still occurs). Re-running an idle spin
// probe when nothing changed would re-read the same values, so pruning
// those schedules loses no behaviour - and without the pruning two spinning
// waiters can ping-pong preemption-free forever, making bounded DFS
// diverge. A genuine livelock hits the per-schedule step budget and is
// reported with its trace.
//
// Oracles (checked on every schedule):
//   - mutual exclusion          cs_enter/cs_exit occupancy
//   - grant conservation        a grant must go to a registered waiter;
//                               no waiter left registered at schedule end
//   - fairness per active Gamma FCFS order / max-priority / threshold
//                               eligibility within a configuration
//                               generation, and the configuration-delay
//                               rule across generations
//   - timeout soundness         a timed-out acquisition is deregistered and
//                               never granted afterwards
//   - epoch safety              no fast release window overlaps a
//                               configuration mutation window
//   - deadlock / livelock       no enabled action with unfinished threads /
//                               step budget exhaustion
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "relock/platform/chk_hooks.hpp"
#include "relock/platform/types.hpp"
#include "relock/sim/coroutine.hpp"

namespace relock::chk {

class Engine;

/// Modeled parker token states - the algorithmic port of Parker's state
/// word (platform/parker.hpp): kPkEmpty = no token, kPkToken = wakeup
/// deposited, kPkParked = owner descheduled waiting for a notify.
inline constexpr std::uint64_t kPkEmpty = 0;
inline constexpr std::uint64_t kPkToken = 1;
inline constexpr std::uint64_t kPkParked = 2;

/// What a scheduled step does: run a runnable thread to its next point, or
/// fire the timeout of a timed sleeper (waking it with "not notified").
enum class ActionKind : std::uint8_t { kRun, kTimeout };

struct Action {
  ActionKind kind;
  ThreadId tid;
};

/// Thrown inside a model thread to unwind its coroutine stack once the
/// schedule has failed or been cancelled; caught by the coroutine entry.
struct ScheduleAborted {};

/// Per-model-thread handle passed to scenario bodies; satisfies the
/// Context requirements of the Platform concept.
class Context {
 public:
  Context(Engine& engine, ThreadId tid, Priority priority)
      : engine_(&engine), tid_(tid), priority_(priority) {}

  [[nodiscard]] ThreadId self() const { return tid_; }
  [[nodiscard]] Priority priority() const { return priority_; }
  void set_priority(Priority p) { priority_ = p; }
  [[nodiscard]] Engine& engine() const { return *engine_; }
  /// The model thread's pool of persistent waiter records
  /// (core/waiter.hpp): per model thread, since all of them share one host
  /// thread.
  [[nodiscard]] std::unique_ptr<ContextState>& waiter_pool() {
    return waiter_pool_;
  }

  // Scenario-level oracle annotations: bracket the critical section.
  void cs_enter();
  void cs_exit();

  // Scenario-level fault injections, explored like any other step.
  void spurious_unpark(ThreadId tid);  ///< gratuitous parker token + notify
  void flip_oversubscribed();          ///< toggle P::oversubscribed()

 private:
  Engine* engine_;
  ThreadId tid_;
  Priority priority_;
  std::unique_ptr<ContextState> waiter_pool_;
};

/// Which fairness oracle applies to a scenario's grants (the active Gamma).
enum class FairnessMode : std::uint8_t {
  kNone,       ///< only conservation / exclusion / epoch oracles
  kFcfs,       ///< grants in registration order within a generation
  kPriority,   ///< max priority first, FIFO among equals
  kThreshold,  ///< FCFS among waiters at/above the current threshold
};

class ScenarioFrame;

/// A reusable scenario: `build` runs once per schedule, constructs the
/// shared state (typically a ConfigurableLock<CheckPlatform> held by a
/// shared_ptr the thread bodies capture) and registers the thread bodies.
struct Scenario {
  std::string name;
  FairnessMode fairness = FairnessMode::kNone;
  std::uint64_t max_steps = 50'000;
  std::function<void(ScenarioFrame&)> build;
};

/// Outcome of exploring a scenario under one strategy.
struct ExploreResult {
  std::uint64_t schedules = 0;  ///< schedules executed
  std::uint64_t steps = 0;      ///< total scheduling points across them
  bool complete = false;        ///< strategy exhausted its search space
  bool failed = false;
  std::string failure;       ///< first oracle violation, human-readable
  std::string trace;         ///< replayable action trace of the failure
  std::string failure_tag;   ///< tag of the last point before the failure
  /// Compact event log ((tid, event, arg) triples) of the failing schedule,
  /// or - on a clean completion - of the last schedule run; replay equality
  /// and trace-vs-checker equality are asserted on this.
  std::vector<std::uint64_t> events;

  [[nodiscard]] std::string summary() const;
};

/// Scheduling strategy interface. `pick` returns an index into `enabled`;
/// `schedule_done` is told whether that schedule failed and returns whether
/// another schedule should run.
class Strategy {
 public:
  struct Step {
    const std::vector<Action>& enabled;
    ThreadId last_tid;         ///< thread of the previous action
    bool last_runnable;        ///< it could continue (preemption costs)
  };

  virtual ~Strategy() = default;
  virtual std::size_t pick(const Step& step) = 0;
  virtual bool schedule_done(bool failed) = 0;
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// Registry stand-in handed to ConfigurableLock / WaiterRecord.
class Domain {
 public:
  explicit Domain(Engine& engine) : engine_(&engine) {}
  [[nodiscard]] std::uint32_t capacity() const { return kCapacity; }
  [[nodiscard]] Engine& engine() const { return *engine_; }

  static constexpr std::uint32_t kCapacity = 16;

 private:
  Engine* engine_;
};

/// Handed to Scenario::build each schedule.
class ScenarioFrame {
 public:
  explicit ScenarioFrame(Engine& engine) : engine_(&engine) {}

  [[nodiscard]] Engine& engine() const { return *engine_; }
  [[nodiscard]] Domain& domain() const;

  /// Registers a model thread. Threads run in registration order index.
  void add_thread(Priority priority, std::function<void(Context&)> body);

  /// Host-side check run after all threads finish with no failure; call
  /// engine().fail_host(msg) to flag a violation.
  void on_finish(std::function<void()> check);

 private:
  Engine* engine_;
};

/// The controlled scheduler + oracle state machine.
class Engine {
 public:
  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] Domain& domain() { return domain_; }

  /// Runs schedules of `scenario` under `strategy` until the strategy is
  /// exhausted or an oracle fails (exploration stops at the first failure).
  ExploreResult explore(const Scenario& scenario, Strategy& strategy);

  /// Replays a serialized action trace (ExploreResult::trace) against the
  /// scenario: one schedule, following the recorded choices exactly.
  ExploreResult replay(const Scenario& scenario, const std::string& trace);

  // ---- called from model threads (check platform / hooks) ----

  /// A scheduling point: suspends the calling thread; the driver picks the
  /// next action. Throws ScheduleAborted once the schedule has failed.
  void point(Context& ctx, const char* tag);
  /// Point + gate the caller (voluntary yield: pause / yield).
  void pause_point(Context& ctx, const char* tag);
  /// Point + gate + advance the logical clock by `ns` (busy delay).
  void delay_point(Context& ctx, Nanos ns);
  /// Scheduling point issued by context-free code (GrantBatch), resolved to
  /// the currently running model thread. Also the shared-scratch oracle:
  /// `begin` (a clear) opens a scratch session owned by the caller; any
  /// other mutation by a non-owner is two releasers sharing the scratch -
  /// the race the quiescence epoch must prevent.
  void scratch_point(bool begin);

  /// Deschedules the caller until notify(tid) or - for a finite `ns` - a
  /// strategy-chosen timeout firing. Returns true iff notified.
  bool sleep(Context& ctx, Nanos ns);
  /// Makes a sleeping thread runnable (parker notify). No-op if awake.
  void notify(ThreadId tid);

  /// Modeled parker token word of `tid` (kPk* constants in platform.hpp).
  [[nodiscard]] std::uint64_t& parker_word(ThreadId tid);

  /// Records a cross-thread-visible mutation (platform word write, checker
  /// event, fault injection): gated spinners become selectable again.
  void note_write() { ++write_stamp_; }

  void on_event(Context& ctx, ChkEvent e, std::uint64_t arg);

  [[nodiscard]] Nanos now() const { return clock_; }
  [[nodiscard]] bool oversubscribed() const { return oversubscribed_; }
  void set_oversubscribed(bool v) { oversubscribed_ = v; }

  /// Oracle hooks (Context annotations).
  void cs_enter(Context& ctx);
  void cs_exit(Context& ctx);
  void inject_unpark(Context& ctx, ThreadId target);
  void flip_oversubscribed(Context& ctx);

  /// Flags a violation from a model thread and unwinds it.
  [[noreturn]] void fail_here(Context& ctx, const std::string& msg);
  /// Flags a violation from host-side code (on_finish checks).
  void fail_host(const std::string& msg);

  /// The engine whose schedule is currently executing on this host thread
  /// (for context-free hooks). Null outside explore/replay. Defined out of
  /// line, beside the thread_local it reads: an inline read through the
  /// thread_local's wrapper draws a spurious UBSan null-load report when it
  /// runs on a model thread's stack in ASan+UBSan builds.
  [[nodiscard]] static Engine* current();

 private:
  friend class ScenarioFrame;

  enum class Status : std::uint8_t {
    kRunnable,
    kParkedUntimed,
    kParkedTimed,
    kFinished,
  };

  struct ThreadState {
    explicit ThreadState(Context c) : ctx(std::move(c)) {}
    Context ctx;
    std::unique_ptr<sim::Coroutine> coro;
    Status status = Status::kRunnable;
    Nanos wake_deadline = kForever;
    bool gated = false;           ///< paused: wait for a write / all-gated
    std::uint64_t gate_stamp = 0; ///< write_stamp_ when the gate closed
    bool wake_by_timeout = false;
    bool aborting = false;        ///< already thrown ScheduleAborted
    std::uint64_t parker = 0;     ///< modeled parker token word
    const char* last_tag = "";
  };

  /// A waiter registered with the lock, as the oracles see it.
  struct RegInfo {
    ThreadId tid;
    std::uint64_t order;  ///< registration sequence number
    Priority priority;
    std::uint64_t generation;  ///< scheduler-install count at registration
  };

  struct ScheduleOutcome {
    bool failed = false;
    std::uint64_t steps = 0;
  };

  ScheduleOutcome run_schedule(const Scenario& scenario, Strategy& strategy);
  void reset_schedule_state();
  void build_enabled(std::vector<Action>& out);
  void apply(const Action& a);
  void resume(ThreadState& ts);
  void suspend(ThreadState& ts);
  void unwind_all();
  void record_failure(const std::string& msg);
  void finish_checks();
  [[nodiscard]] ThreadState& state_of(Context& ctx);
  [[nodiscard]] std::string describe_threads() const;

  static thread_local Engine* current_;

  Domain domain_;

  // Schedule state.
  std::vector<std::unique_ptr<ThreadState>> threads_;
  std::vector<std::function<void(Context&)>> bodies_;
  std::vector<Priority> body_priorities_;
  std::function<void()> finish_;
  ThreadState* running_ = nullptr;
  ThreadId last_tid_ = kInvalidThread;
  std::vector<Action> trace_;
  std::vector<std::uint64_t> events_;
  Nanos clock_ = 1;
  std::uint64_t steps_ = 0;
  std::uint64_t write_stamp_ = 0;
  std::uint64_t max_steps_ = 50'000;
  bool oversubscribed_ = false;
  bool abort_ = false;
  bool failed_ = false;
  std::string failure_;
  std::string failure_tag_;

  // Oracle state.
  FairnessMode fairness_ = FairnessMode::kNone;
  std::vector<RegInfo> waiting_;
  std::uint64_t reg_counter_ = 0;
  std::uint64_t generation_ = 0;
  Priority threshold_ = 0;
  bool threshold_active_ = false;
  std::uint32_t cs_depth_ = 0;
  ThreadId cs_owner_ = kInvalidThread;
  std::uint32_t fast_release_depth_ = 0;
  std::uint32_t config_mutate_depth_ = 0;
  std::uint32_t breaker_mirror_ = 0;
  ThreadId scratch_owner_ = kInvalidThread;
};

/// Serializes an action sequence ("r0.r1.t1...") / parses it back.
std::string format_trace(const std::vector<Action>& trace);
std::vector<Action> parse_trace(const std::string& s);

inline Domain& ScenarioFrame::domain() const { return engine_->domain(); }

inline void Context::cs_enter() { engine_->cs_enter(*this); }
inline void Context::cs_exit() { engine_->cs_exit(*this); }
inline void Context::spurious_unpark(ThreadId tid) {
  engine_->inject_unpark(*this, tid);
}
inline void Context::flip_oversubscribed() {
  engine_->flip_oversubscribed(*this);
}

}  // namespace relock::chk
