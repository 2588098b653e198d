// Earliest-deadline-first lock scheduling: a user-supplied scheduler module
// demonstrating the extensibility the paper argues for ("the construction
// of new primitives on top of the existing ones or the extension with
// additional primitives"). Deadline-based dynamic lock scheduling for
// multiprocessor real-time threads is the [ZSG92] direction the paper
// cites.
//
// Each waiter's Priority value is interpreted as its deadline (smaller =
// earlier = more urgent); release grants the earliest deadline, FIFO among
// equals. Install it dynamically:
//
//   lock.configure_scheduler(ctx, std::make_unique<EdfScheduler<P>>());
#pragma once

#include "relock/core/scheduler.hpp"

namespace relock {

template <Platform P>
class EdfScheduler final : public QueuedScheduler<P> {
 public:
  [[nodiscard]] SchedulerKind kind() const noexcept override {
    return SchedulerKind::kCustom;
  }

  void select(GrantBatch<P>& out, ThreadId /*hint*/) override {
    if (WaiterRecord<P>* best = earliest_deadline()) this->take(*best, out);
  }

 private:
  [[nodiscard]] WaiterRecord<P>* earliest_deadline() const noexcept {
    WaiterRecord<P>* best = nullptr;
    this->queue_.for_each([&](WaiterRecord<P>& w) {
      // Priority encodes the deadline: smaller value = earlier deadline.
      if (best == nullptr || w.priority < best->priority) best = &w;
      return true;
    });
    return best;
  }
};

}  // namespace relock
