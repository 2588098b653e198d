// relock-check engine: the controlled scheduler, oracle state machine and
// trace (de)serialization. Strategy implementations live in
// include/relock/check/strategies.hpp; the modeled parker and platform word
// semantics live in include/relock/check/platform.hpp (header-only so the
// seeded-bug macros compile per test target, not per library build).
#include "relock/check/engine.hpp"

#include <cassert>
#include <sstream>
#include <stdexcept>

namespace relock::chk {

thread_local Engine* Engine::current_ = nullptr;

Engine* Engine::current() { return current_; }

namespace {

/// Stack size for model-thread coroutines: scenario bodies run the full
/// lock slow path plus gtest assertion machinery.
constexpr std::size_t kModelStackSize = 256 * 1024;

const char* event_name(ChkEvent e) { return lock_event_name(e); }

}  // namespace

Engine::Engine() : domain_(*this) {}
Engine::~Engine() = default;

// ---------------------------------------------------------------- frame ----

void ScenarioFrame::add_thread(Priority priority,
                               std::function<void(Context&)> body) {
  engine_->bodies_.push_back(std::move(body));
  engine_->body_priorities_.push_back(priority);
}

void ScenarioFrame::on_finish(std::function<void()> check) {
  engine_->finish_ = std::move(check);
}

// ------------------------------------------------------------- explore ----

ExploreResult Engine::explore(const Scenario& scenario, Strategy& strategy) {
  ExploreResult res;
  for (;;) {
    const ScheduleOutcome o = run_schedule(scenario, strategy);
    ++res.schedules;
    res.steps += o.steps;
    const bool more = strategy.schedule_done(o.failed);
    if (o.failed) {
      res.failed = true;
      res.failure = failure_;
      res.failure_tag = failure_tag_;
      res.trace = format_trace(trace_);
      res.events = events_;
      break;
    }
    if (!more) {
      res.complete = true;
      // Expose the LAST schedule's event log and action trace on a clean
      // completion too: single-schedule strategies (PCT with schedules=1,
      // replay) use this to compare the engine's event stream against an
      // external observer of the same run (relock-trace).
      res.trace = format_trace(trace_);
      res.events = events_;
      break;
    }
  }
  return res;
}

namespace {

/// Follows a recorded action list exactly; flags divergence.
class ReplayStrategy final : public Strategy {
 public:
  explicit ReplayStrategy(std::vector<Action> trace)
      : trace_(std::move(trace)) {}

  std::size_t pick(const Step& step) override {
    if (pos_ >= trace_.size()) {
      diverged_ = true;
      return 0;
    }
    const Action want = trace_[pos_++];
    for (std::size_t i = 0; i < step.enabled.size(); ++i) {
      if (step.enabled[i].kind == want.kind &&
          step.enabled[i].tid == want.tid) {
        return i;
      }
    }
    diverged_ = true;
    return 0;
  }

  bool schedule_done(bool) override { return false; }
  [[nodiscard]] std::string describe() const override { return "replay"; }
  [[nodiscard]] bool diverged() const { return diverged_; }

 private:
  std::vector<Action> trace_;
  std::size_t pos_ = 0;
  bool diverged_ = false;
};

}  // namespace

ExploreResult Engine::replay(const Scenario& scenario,
                             const std::string& trace) {
  ReplayStrategy st(parse_trace(trace));
  ExploreResult res = explore(scenario, st);
  if (st.diverged()) {
    res.failed = true;
    res.complete = false;
    res.failure = "replay diverged from the recorded schedule (the scenario "
                  "is not deterministic): " + res.failure;
  }
  return res;
}

std::string ExploreResult::summary() const {
  std::ostringstream os;
  os << schedules << " schedules, " << steps << " points, "
     << (complete ? "complete" : "incomplete");
  if (failed) {
    os << "\nFAILURE: " << failure << "\n  at point: " << failure_tag
       << "\n  trace: " << trace << "\n  events:";
    for (std::size_t i = 0; i + 2 < events.size(); i += 3) {
      os << "\n    t" << events[i] << " "
         << event_name(static_cast<ChkEvent>(events[i + 1])) << "("
         << static_cast<std::int64_t>(events[i + 2]) << ")";
    }
  }
  return os.str();
}

// ------------------------------------------------------------ schedule ----

void Engine::reset_schedule_state() {
  threads_.clear();
  bodies_.clear();
  body_priorities_.clear();
  finish_ = nullptr;
  running_ = nullptr;
  last_tid_ = kInvalidThread;
  trace_.clear();
  events_.clear();
  clock_ = 1;
  steps_ = 0;
  write_stamp_ = 0;
  oversubscribed_ = false;
  abort_ = false;
  failed_ = false;
  failure_.clear();
  failure_tag_.clear();
  waiting_.clear();
  reg_counter_ = 0;
  generation_ = 0;
  threshold_ = 0;
  threshold_active_ = false;
  cs_depth_ = 0;
  cs_owner_ = kInvalidThread;
  fast_release_depth_ = 0;
  config_mutate_depth_ = 0;
  breaker_mirror_ = 0;
  scratch_owner_ = kInvalidThread;
}

Engine::ScheduleOutcome Engine::run_schedule(const Scenario& scenario,
                                             Strategy& strategy) {
  reset_schedule_state();
  fairness_ = scenario.fairness;
  max_steps_ = scenario.max_steps;
  current_ = this;

  ScenarioFrame frame(*this);
  scenario.build(frame);
  assert(!bodies_.empty() && "scenario registered no threads");
  assert(bodies_.size() <= Domain::kCapacity);

  for (std::size_t i = 0; i < bodies_.size(); ++i) {
    threads_.push_back(std::make_unique<ThreadState>(
        Context(*this, static_cast<ThreadId>(i), body_priorities_[i])));
  }
  for (std::size_t i = 0; i < bodies_.size(); ++i) {
    ThreadState* ts = threads_[i].get();
    std::function<void(Context&)> body = bodies_[i];
    ts->coro = std::make_unique<sim::Coroutine>(
        [ts, body = std::move(body)] {
          try {
            body(ts->ctx);
          } catch (const ScheduleAborted&) {
          }
        },
        kModelStackSize);
  }

  std::vector<Action> enabled;
  for (;;) {
    build_enabled(enabled);
    if (enabled.empty()) {
      bool all_finished = true;
      for (const auto& t : threads_) {
        if (t->status != Status::kFinished) {
          all_finished = false;
          break;
        }
      }
      if (all_finished) break;
      record_failure("deadlock: no enabled thread (" + describe_threads() +
                     ")");
      break;
    }
    bool last_runnable = false;
    if (last_tid_ != kInvalidThread) {
      for (const Action& a : enabled) {
        if (a.tid == last_tid_ && a.kind == ActionKind::kRun) {
          last_runnable = true;
          break;
        }
      }
    }
    const std::size_t idx =
        strategy.pick(Strategy::Step{enabled, last_tid_, last_runnable});
    assert(idx < enabled.size());
    trace_.push_back(enabled[idx]);
    apply(enabled[idx]);
    if (failed_) break;
  }

  if (failed_) {
    unwind_all();
  } else {
    finish_checks();
  }

  // Teardown order matters: coroutine lambdas hold shared-state references;
  // the scenario's shared objects (the lock) die with the last body copy.
  threads_.clear();
  bodies_.clear();
  body_priorities_.clear();
  finish_ = nullptr;
  current_ = nullptr;
  return ScheduleOutcome{failed_, steps_};
}

void Engine::build_enabled(std::vector<Action>& out) {
  out.clear();
  bool any_ungated_runnable = false;
  for (const auto& t : threads_) {
    // A gate opens once anything cross-thread-visible changed after it
    // closed: re-probing sooner would re-read identical state.
    if (t->gated && t->gate_stamp != write_stamp_) t->gated = false;
    if (t->status == Status::kRunnable && !t->gated) {
      any_ungated_runnable = true;
    }
  }
  if (!any_ungated_runnable) {
    // Every runnable thread is gated (all are spinning): ungate the lot -
    // one of them must run for anything to change. A genuine livelock then
    // hits the step budget.
    for (const auto& t : threads_) t->gated = false;
  }
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    const ThreadState& t = *threads_[i];
    const auto tid = static_cast<ThreadId>(i);
    switch (t.status) {
      case Status::kRunnable:
        if (!t.gated) out.push_back(Action{ActionKind::kRun, tid});
        break;
      case Status::kParkedTimed:
        out.push_back(Action{ActionKind::kTimeout, tid});
        break;
      case Status::kParkedUntimed:
      case Status::kFinished:
        break;
    }
  }
}

void Engine::apply(const Action& a) {
  ThreadState& ts = *threads_[a.tid];
  if (a.kind == ActionKind::kTimeout) {
    assert(ts.status == Status::kParkedTimed);
    // Deterministic time: firing a timeout advances the logical clock to
    // the sleeper's deadline so its own now() check sees it expired.
    if (ts.wake_deadline != kForever && ts.wake_deadline > clock_) {
      clock_ = ts.wake_deadline;
    }
    ts.status = Status::kRunnable;
    ts.wake_by_timeout = true;
  }
  resume(ts);
  last_tid_ = a.tid;
}

void Engine::resume(ThreadState& ts) {
  assert(running_ == nullptr);
  running_ = &ts;
  ts.coro->resume();
  running_ = nullptr;
  if (ts.coro->finished()) ts.status = Status::kFinished;
}

void Engine::suspend(ThreadState& ts) {
  ts.coro->suspend();
  if (abort_ && !ts.aborting) {
    ts.aborting = true;
    throw ScheduleAborted{};
  }
}

void Engine::unwind_all() {
  abort_ = true;
  for (const auto& t : threads_) {
    while (!t->coro->finished()) {
      t->status = Status::kRunnable;
      resume(*t);
    }
  }
}

void Engine::record_failure(const std::string& msg) {
  if (failed_) return;
  failed_ = true;
  abort_ = true;
  failure_ = msg;
  failure_tag_ = running_ != nullptr ? running_->last_tag : "";
}

void Engine::finish_checks() {
  if (!waiting_.empty()) {
    std::string who;
    for (const RegInfo& r : waiting_) {
      who += (who.empty() ? "t" : ", t") + std::to_string(r.tid);
    }
    record_failure("waiters still registered after every thread finished "
                   "(lost grant): " + who);
    return;
  }
  if (cs_depth_ != 0) {
    record_failure("critical section still occupied at schedule end");
    return;
  }
  if (finish_) finish_();
}

Engine::ThreadState& Engine::state_of(Context& ctx) {
  return *threads_[ctx.self()];
}

std::string Engine::describe_threads() const {
  std::string s;
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    const ThreadState& t = *threads_[i];
    if (!s.empty()) s += ", ";
    s += "t";
    s += std::to_string(i);
    s += "=";
    switch (t.status) {
      case Status::kRunnable: s += t.gated ? "gated" : "runnable"; break;
      case Status::kParkedUntimed: s += "parked"; break;
      case Status::kParkedTimed: s += "parked-timed"; break;
      case Status::kFinished: s += "finished"; break;
    }
    if (t.status != Status::kFinished) {
      s += std::string("@") + t.last_tag;
    }
  }
  return s;
}

// ---------------------------------------------------- model-thread API ----

void Engine::point(Context& ctx, const char* tag) {
  ThreadState& ts = state_of(ctx);
  if (abort_) {
    if (!ts.aborting) {
      ts.aborting = true;
      throw ScheduleAborted{};
    }
    return;  // unwinding: never re-suspend
  }
  ts.last_tag = tag;
  ++steps_;
  ++clock_;
  if (steps_ > max_steps_) {
    fail_here(ctx, "step budget exceeded (livelock or unbounded spin) at " +
                       std::string(tag));
  }
  suspend(ts);
}

void Engine::pause_point(Context& ctx, const char* tag) {
  ThreadState& ts = state_of(ctx);
  ts.gated = true;
  ts.gate_stamp = write_stamp_;
  point(ctx, tag);
}

void Engine::delay_point(Context& ctx, Nanos ns) {
  clock_ += ns;
  ThreadState& ts = state_of(ctx);
  ts.gated = true;
  ts.gate_stamp = write_stamp_;
  point(ctx, "delay");
}

void Engine::scratch_point(bool begin) {
  // Context-free hook (GrantBatch): only meaningful while a model thread
  // is executing; host-side teardown touches batches too.
  if (running_ == nullptr) return;
  Context& ctx = running_->ctx;
  point(ctx, begin ? "scratch.clear" : "scratch.push");
  if (abort_) return;
  // Shared-scratch oracle: a clear starts a new session owned by the
  // caller; a push by anyone else means two releasers are using the
  // scratch concurrently (the PR 2 grant-before-clear race).
  if (begin) {
    scratch_owner_ = ctx.self();
  } else if (scratch_owner_ != kInvalidThread &&
             scratch_owner_ != ctx.self()) {
    fail_here(ctx, "grant scratch shared: thread " +
                       std::to_string(ctx.self()) +
                       " mutated the scratch during thread " +
                       std::to_string(scratch_owner_) + "'s session");
  }
}

bool Engine::sleep(Context& ctx, Nanos ns) {
  ThreadState& ts = state_of(ctx);
  if (abort_) {
    if (!ts.aborting) {
      ts.aborting = true;
      throw ScheduleAborted{};
    }
    return false;
  }
  if (ns == kForever) {
    ts.status = Status::kParkedUntimed;
    ts.wake_deadline = kForever;
  } else {
    ts.status = Status::kParkedTimed;
    ts.wake_deadline = clock_ + ns;
  }
  ts.wake_by_timeout = false;
  ts.last_tag = "sleep";
  suspend(ts);
  return !ts.wake_by_timeout;
}

void Engine::notify(ThreadId tid) {
  ThreadState& ts = *threads_[tid];
  if (ts.status == Status::kParkedUntimed ||
      ts.status == Status::kParkedTimed) {
    ts.status = Status::kRunnable;
    ts.wake_by_timeout = false;
    ts.gated = false;
  }
}

std::uint64_t& Engine::parker_word(ThreadId tid) {
  return threads_[tid]->parker;
}

void Engine::cs_enter(Context& ctx) {
  if (abort_) return;
  if (cs_depth_ != 0) {
    fail_here(ctx, "mutual exclusion violated: thread " +
                       std::to_string(ctx.self()) +
                       " entered the critical section held by thread " +
                       std::to_string(cs_owner_));
  }
  cs_depth_ = 1;
  cs_owner_ = ctx.self();
}

void Engine::cs_exit(Context& ctx) {
  if (abort_) return;
  if (cs_depth_ == 0 || cs_owner_ != ctx.self()) {
    fail_here(ctx, "cs_exit by thread " + std::to_string(ctx.self()) +
                       " which does not hold the critical section");
  }
  cs_depth_ = 0;
  cs_owner_ = kInvalidThread;
}

void Engine::inject_unpark(Context& ctx, ThreadId target) {
  point(ctx, "inject.unpark");
  note_write();
  std::uint64_t& w = parker_word(target);
  const std::uint64_t prev = w;
  w = kPkToken;
  if (prev == kPkParked) notify(target);
}

void Engine::flip_oversubscribed(Context& ctx) {
  point(ctx, "inject.oversub");
  note_write();
  oversubscribed_ = !oversubscribed_;
}

void Engine::fail_here(Context& ctx, const std::string& msg) {
  record_failure(msg);
  ThreadState& ts = state_of(ctx);
  ts.aborting = true;
  throw ScheduleAborted{};
}

void Engine::fail_host(const std::string& msg) { record_failure(msg); }

// -------------------------------------------------------------- oracle ----

void Engine::on_event(Context& ctx, ChkEvent e, std::uint64_t arg) {
  if (abort_) return;
  // Every event marks a host-side state transition other threads can
  // observe (grant flags, epoch counters, registrations): open spin gates.
  note_write();
  events_.push_back(static_cast<std::uint64_t>(ctx.self()));
  events_.push_back(static_cast<std::uint64_t>(e));
  events_.push_back(arg);

  const auto find_waiting = [&](ThreadId tid) -> std::size_t {
    for (std::size_t i = 0; i < waiting_.size(); ++i) {
      if (waiting_[i].tid == tid) return i;
    }
    return waiting_.size();
  };

  switch (e) {
    case ChkEvent::kRegistered: {
      const auto tid = static_cast<ThreadId>(arg);
      if (find_waiting(tid) != waiting_.size()) {
        fail_here(ctx, "thread " + std::to_string(tid) +
                           " registered while already registered");
      }
      waiting_.push_back(
          RegInfo{tid, reg_counter_++, ctx.priority(), generation_});
      break;
    }
    case ChkEvent::kGranted: {
      const auto tid = static_cast<ThreadId>(arg);
      const std::size_t at = find_waiting(tid);
      if (at == waiting_.size()) {
        fail_here(ctx, "grant to thread " + std::to_string(tid) +
                           " which is not a registered waiter (duplicated or "
                           "stale grant)");
      }
      const RegInfo g = waiting_[at];
      for (const RegInfo& r : waiting_) {
        if (r.generation < g.generation) {
          fail_here(ctx,
                    "configuration delay violated: thread " +
                        std::to_string(tid) + " (generation " +
                        std::to_string(g.generation) +
                        ") granted while thread " + std::to_string(r.tid) +
                        " of generation " + std::to_string(r.generation) +
                        " still waits");
        }
      }
      switch (fairness_) {
        case FairnessMode::kFcfs:
          for (const RegInfo& r : waiting_) {
            if (r.generation == g.generation && r.order < g.order) {
              fail_here(ctx, "FCFS violated: thread " + std::to_string(tid) +
                                 " granted before older waiter t" +
                                 std::to_string(r.tid));
            }
          }
          break;
        case FairnessMode::kPriority:
          for (const RegInfo& r : waiting_) {
            if (r.generation != g.generation) continue;
            if (r.priority > g.priority ||
                (r.priority == g.priority && r.order < g.order)) {
              fail_here(ctx, "priority order violated: thread " +
                                 std::to_string(tid) + " (prio " +
                                 std::to_string(g.priority) +
                                 ") granted over t" + std::to_string(r.tid) +
                                 " (prio " + std::to_string(r.priority) +
                                 ")");
            }
          }
          break;
        case FairnessMode::kThreshold:
          if (threshold_active_ && g.priority < threshold_) {
            fail_here(ctx, "thread " + std::to_string(tid) +
                               " granted below the active priority "
                               "threshold " + std::to_string(threshold_));
          }
          for (const RegInfo& r : waiting_) {
            if (r.generation == g.generation && r.order < g.order &&
                (!threshold_active_ || r.priority >= threshold_)) {
              fail_here(ctx, "threshold-FCFS violated: thread " +
                                 std::to_string(tid) +
                                 " granted before older eligible waiter t" +
                                 std::to_string(r.tid));
            }
          }
          break;
        case FairnessMode::kNone:
          break;
      }
      waiting_.erase(waiting_.begin() +
                     static_cast<std::ptrdiff_t>(at));
      break;
    }
    case ChkEvent::kTimeoutReturn: {
      const auto tid = static_cast<ThreadId>(arg);
      const std::size_t at = find_waiting(tid);
      if (at == waiting_.size()) {
        fail_here(ctx, "timeout return by thread " + std::to_string(tid) +
                           " which is not registered (withdrawal unsound)");
      }
      waiting_.erase(waiting_.begin() +
                     static_cast<std::ptrdiff_t>(at));
      break;
    }
    case ChkEvent::kFastReleaseBegin:
      if (config_mutate_depth_ != 0) {
        fail_here(ctx, "epoch safety violated: fast release passed the gate "
                       "during a configuration mutation");
      }
      ++fast_release_depth_;
      break;
    case ChkEvent::kFastReleaseEnd:
      if (fast_release_depth_ == 0) {
        fail_here(ctx, "unmatched fast-release end");
      }
      --fast_release_depth_;
      break;
    case ChkEvent::kConfigMutateBegin:
      if (fast_release_depth_ != 0) {
        fail_here(ctx, "epoch safety violated: configuration mutation began "
                       "with a fast release in flight");
      }
      ++config_mutate_depth_;
      break;
    case ChkEvent::kConfigMutateEnd:
      if (config_mutate_depth_ == 0) {
        fail_here(ctx, "unmatched configuration-mutation end");
      }
      --config_mutate_depth_;
      break;
    case ChkEvent::kSchedulerInstalled:
      ++generation_;
      break;
    case ChkEvent::kThresholdSet:
      threshold_ = static_cast<Priority>(static_cast<std::int64_t>(arg));
      threshold_active_ = true;
      break;
    case ChkEvent::kReleaseFree:
      break;
    case ChkEvent::kBreakerArm:
      ++breaker_mirror_;
      break;
    case ChkEvent::kBreakerDisarm:
      if (breaker_mirror_ == 0) {
        fail_here(ctx, "breaker count underflow");
      }
      --breaker_mirror_;
      break;
    case ChkEvent::kAcquireFast:
    case ChkEvent::kAcquireSlow:
    case ChkEvent::kAcquireShared:
    case ChkEvent::kRelease:
    case ChkEvent::kPark:
    case ChkEvent::kUnpark:
    case ChkEvent::kPossess:
    case ChkEvent::kUnpossess:
      // Trace-only vocabulary (thread-local progress markers): no oracle
      // state. The lock routes these to the tracer, not chk_event, so they
      // normally never arrive here.
      break;
  }
}

// --------------------------------------------------------------- trace ----

std::string format_trace(const std::vector<Action>& trace) {
  std::string s;
  s.reserve(trace.size() * 3);
  for (const Action& a : trace) {
    if (!s.empty()) s += '.';
    s += a.kind == ActionKind::kRun ? 'r' : 't';
    s += std::to_string(a.tid);
  }
  return s;
}

std::vector<Action> parse_trace(const std::string& s) {
  std::vector<Action> out;
  std::size_t i = 0;
  while (i < s.size()) {
    const char k = s[i++];
    if (k != 'r' && k != 't') {
      throw std::invalid_argument("relock-check: bad trace token");
    }
    std::uint64_t tid = 0;
    bool any = false;
    while (i < s.size() && s[i] != '.') {
      if (s[i] < '0' || s[i] > '9') {
        throw std::invalid_argument("relock-check: bad trace tid");
      }
      tid = tid * 10 + static_cast<std::uint64_t>(s[i] - '0');
      any = true;
      ++i;
    }
    if (!any) throw std::invalid_argument("relock-check: empty trace tid");
    if (i < s.size()) ++i;  // skip '.'
    out.push_back(Action{k == 'r' ? ActionKind::kRun : ActionKind::kTimeout,
                         static_cast<ThreadId>(tid)});
  }
  return out;
}

}  // namespace relock::chk
