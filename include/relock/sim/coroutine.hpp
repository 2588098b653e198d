// Symmetric coroutines for the simulator: the driver (host) context swaps
// into simulated-thread contexts and back. On x86-64 the switch is a
// hand-rolled callee-saved-register swap (src/sim/context_switch_x86_64.S);
// other architectures fall back to <ucontext.h>. Sanitized builds tell
// ASan and TSan about every switch (fiber annotations), so the sanitizers
// track each coroutine stack as its own; unsanitized builds compile none of
// it.
#pragma once

#include <cstdint>
#include <functional>

#include "relock/sim/stack.hpp"

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#define RELOCK_SIM_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RELOCK_SIM_ASAN_FIBERS 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define RELOCK_SIM_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RELOCK_SIM_TSAN_FIBERS 1
#endif
#endif

namespace relock::sim {

/// A one-shot coroutine. `resume()` transfers control into the coroutine
/// until it calls `suspend()` or its entry function returns; both transfer
/// control back to the resumer.
class Coroutine {
 public:
  /// `entry` runs on the coroutine's own stack on first resume. When it
  /// returns, the coroutine is `finished()` and control returns to the
  /// resumer.
  explicit Coroutine(std::function<void()> entry,
                     std::size_t stack_size = Stack::kDefaultSize);
  ~Coroutine();
  Coroutine(const Coroutine&) = delete;
  Coroutine& operator=(const Coroutine&) = delete;

  /// Transfers control into the coroutine. Must be called from outside it.
  /// Precondition: !finished().
  void resume();

  /// Transfers control back to the last resumer. Must be called from inside
  /// the coroutine.
  void suspend();

  [[nodiscard]] bool finished() const noexcept { return finished_; }

 private:
  static void entry_thunk(void* self);
  [[noreturn]] void run_entry();

  // The backend: seed the coroutine's first frame, and the two raw stack
  // switches (resumer -> coroutine, coroutine -> resumer).
  void prepare_context();
  void switch_in();
  void switch_out();
  // Inside the coroutine: switch out to the resumer (`final` when the
  // coroutine will never run again), and the sanitizers' bookkeeping on
  // arriving back in (or arriving for the first time).
  void leave(bool final);
  void arrive() noexcept;

  std::function<void()> entry_;
  Stack stack_;
  bool finished_ = false;
  bool started_ = false;

#if defined(__x86_64__)
  void* coro_sp_ = nullptr;    ///< coroutine's saved stack pointer
  void* caller_sp_ = nullptr;  ///< resumer's saved stack pointer
#else
  ucontext_t coro_ctx_{};
  ucontext_t caller_ctx_{};
#endif
#if defined(RELOCK_SIM_ASAN_FIBERS)
  void* coro_fake_stack_ = nullptr;    ///< coroutine's parked fake frames
  void* caller_fake_stack_ = nullptr;  ///< resumer's parked fake frames
  const void* caller_stack_bottom_ = nullptr;
  std::size_t caller_stack_size_ = 0;
#endif
#if defined(RELOCK_SIM_TSAN_FIBERS)
  void* tsan_fiber_ = nullptr;         ///< this coroutine's TSan fiber
  void* tsan_caller_fiber_ = nullptr;  ///< the last resumer's fiber
#endif
};

}  // namespace relock::sim
