#include "relock/sim/coroutine.hpp"

#include <cassert>
#include <cstring>
#include <utility>

#if defined(RELOCK_SIM_ASAN_FIBERS)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(RELOCK_SIM_TSAN_FIBERS)
#include <sanitizer/tsan_interface.h>
#endif

#if defined(__x86_64__)

extern "C" {
// Defined in context_switch_x86_64.S.
void relock_ctx_swap(void** save_sp, void* target_sp);
void relock_ctx_trampoline();
}

namespace relock::sim {

namespace {
// Fake initial frame layout, matching relock_ctx_swap's restore sequence
// (low address first): [fcw:2][pad:2][mxcsr:4] r15 r14 r13 r12 rbx rbp ret.
struct InitialFrame {
  std::uint16_t fcw;
  std::uint16_t pad;
  std::uint32_t mxcsr;
  void* r15;
  void* r14;
  void* r13;
  void* r12;  // entry argument -> rdi in trampoline
  void* rbx;  // entry function pointer, called by trampoline
  void* rbp;
  void* ret;  // relock_ctx_trampoline
};
static_assert(sizeof(InitialFrame) == 8 + 6 * 8 + 8);
}  // namespace

void Coroutine::prepare_context() {
  auto* top = static_cast<char*>(stack_.top());
  auto* frame = reinterpret_cast<InitialFrame*>(top - sizeof(InitialFrame));
  std::memset(frame, 0, sizeof(InitialFrame));
  frame->fcw = 0x037F;    // default x87 control word
  frame->mxcsr = 0x1F80;  // default MXCSR (all exceptions masked)
  frame->r12 = this;
  frame->rbx = reinterpret_cast<void*>(&entry_thunk);
  frame->ret = reinterpret_cast<void*>(&relock_ctx_trampoline);
  coro_sp_ = frame;
}

void Coroutine::switch_in() { relock_ctx_swap(&caller_sp_, coro_sp_); }

void Coroutine::switch_out() { relock_ctx_swap(&coro_sp_, caller_sp_); }

}  // namespace relock::sim

#else  // ucontext fallback for non-x86-64 hosts

namespace relock::sim {

void Coroutine::prepare_context() {
  getcontext(&coro_ctx_);
  coro_ctx_.uc_stack.ss_sp =
      static_cast<char*>(stack_.top()) - stack_.usable_size();
  coro_ctx_.uc_stack.ss_size = stack_.usable_size();
  coro_ctx_.uc_link = nullptr;
  makecontext(&coro_ctx_,
              reinterpret_cast<void (*)()>(&Coroutine::entry_thunk), 1, this);
}

void Coroutine::switch_in() { swapcontext(&caller_ctx_, &coro_ctx_); }

void Coroutine::switch_out() { swapcontext(&coro_ctx_, &caller_ctx_); }

}  // namespace relock::sim

#endif

namespace relock::sim {

// Sanitizer fiber protocol around every switch. ASan: start_switch names
// the stack about to run and parks the current stack's fake frames (none
// when the coroutine leaves for good); finish_switch, on the new stack,
// restores them and reports the stack that was left - the resumer's, which
// can differ per resume on the vthreads runtime. TSan: each coroutine is a
// fiber, switched to before every transfer.

Coroutine::Coroutine(std::function<void()> entry, std::size_t stack_size)
    : entry_(std::move(entry)), stack_(stack_size) {
  prepare_context();
#if defined(RELOCK_SIM_TSAN_FIBERS)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Coroutine::~Coroutine() {
  // A coroutine abandoned mid-flight simply has its stack unmapped; entry
  // functions in this codebase hold no resources across suspension points
  // that the simulator does not also own.
#if defined(RELOCK_SIM_TSAN_FIBERS)
  __tsan_destroy_fiber(tsan_fiber_);
#endif
}

void Coroutine::resume() {
  assert(!finished_ && "resume of finished coroutine");
  started_ = true;
#if defined(RELOCK_SIM_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(
      &caller_fake_stack_,
      static_cast<char*>(stack_.top()) - stack_.usable_size(),
      stack_.usable_size());
#endif
#if defined(RELOCK_SIM_TSAN_FIBERS)
  tsan_caller_fiber_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
  switch_in();
#if defined(RELOCK_SIM_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(caller_fake_stack_, nullptr, nullptr);
#endif
}

void Coroutine::suspend() {
  leave(/*final=*/false);
  arrive();
}

void Coroutine::entry_thunk(void* self) {
  static_cast<Coroutine*>(self)->run_entry();
}

void Coroutine::run_entry() {
  arrive();
  entry_();
  finished_ = true;
  // Final transfer back to the resumer; never returns.
  leave(/*final=*/true);
  assert(false && "finished coroutine was resumed");
  __builtin_unreachable();
}

void Coroutine::leave([[maybe_unused]] bool final) {
#if defined(RELOCK_SIM_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(final ? nullptr : &coro_fake_stack_,
                                 caller_stack_bottom_, caller_stack_size_);
#endif
#if defined(RELOCK_SIM_TSAN_FIBERS)
  __tsan_switch_to_fiber(tsan_caller_fiber_, 0);
#endif
  switch_out();
}

void Coroutine::arrive() noexcept {
#if defined(RELOCK_SIM_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(coro_fake_stack_, &caller_stack_bottom_,
                                  &caller_stack_size_);
#endif
}

}  // namespace relock::sim
