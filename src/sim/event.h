// Scheduled-event primitives: the cancellation handle and the in-place
// callback storage the Simulator's event slab is built from.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace ipfs::sim {

class Simulator;

// Handle for cancelling a scheduled event.
//
// Cancellation semantics (relied on by the fault-injection harness):
//   - cancel() before the event fires guarantees the callback never runs,
//     under run() and run_until() alike.
//   - cancel() after the event fired (or on a default-constructed handle)
//     is a no-op; active() is false in both cases.
//   - Cancelling a foreground event may let run() return earlier, since
//     run() only waits for live non-daemon events.
//   - A handle may outlive its Simulator: the event never fires, active()
//     is false and cancel() is a no-op.
class Timer {
 public:
  Timer() = default;

  void cancel();
  bool active() const;

 private:
  friend class Simulator;
  struct State {
    bool alive = true;
    bool daemon = false;
    // Owning scheduler's live-foreground-event count, decremented when a
    // non-daemon event is cancelled.
    std::size_t* foreground_pending = nullptr;
  };
  explicit Timer(std::shared_ptr<State> state) : state_(std::move(state)) {}
  std::shared_ptr<State> state_;
};

// Move-free callable with in-place storage. Events never move once
// slotted (heap records carry slot indices, the slab has stable
// addresses), so only invoke + destroy are needed. Captures larger than
// the buffer fall back to one heap allocation; std::function (libstdc++
// heap-allocates any capture over 16 bytes) would cost one for nearly
// every fabric closure.
class InlineTask {
 public:
  static constexpr std::size_t kInlineBytes = 80;

  InlineTask() = default;
  InlineTask(const InlineTask&) = delete;
  InlineTask& operator=(const InlineTask&) = delete;
  ~InlineTask() { reset(); }

  template <typename F>
  void bind(F&& fn) {
    reset();
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(fn));
      invoke_ = [](void* p) { (*static_cast<Fn*>(p))(); };
      destroy_ = [](void* p) { static_cast<Fn*>(p)->~Fn(); };
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(fn)));
      invoke_ = [](void* p) { (**static_cast<Fn**>(p))(); };
      destroy_ = [](void* p) { delete *static_cast<Fn**>(p); };
    }
  }

  void operator()() { invoke_(buf_); }

  void reset() {
    if (destroy_ != nullptr) destroy_(buf_);
    invoke_ = nullptr;
    destroy_ = nullptr;
  }

 private:
  void (*invoke_)(void*) = nullptr;
  void (*destroy_)(void*) = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

}  // namespace ipfs::sim
