#include "sim/simulator.h"

#include <algorithm>
#include <limits>

namespace ipfs::sim {

namespace {

// std::push_heap et al. build a max-heap, so "after" inverts the order.
struct After {
  template <typename R>
  bool operator()(const R& a, const R& b) const {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }
};

}  // namespace

void Timer::cancel() {
  if (!state_ || !state_->alive) return;
  state_->alive = false;
  if (!state_->daemon && state_->foreground_pending != nullptr)
    --*state_->foreground_pending;
}

bool Timer::active() const { return state_ && state_->alive; }

Simulator::~Simulator() {
  for (const Record& record : heap_) {
    Timer::State* state = at(record.slot).state.get();
    if (state == nullptr) continue;
    state->alive = false;
    state->foreground_pending = nullptr;
  }
}

std::uint32_t Simulator::allocate() {
  if (free_slots_.empty()) {
    const auto base = static_cast<std::uint32_t>(slab_.size() * kChunkSize);
    slab_.push_back(std::make_unique<Event[]>(kChunkSize));
    // Hand out the fresh chunk through the free list, lowest slot first.
    for (auto i = static_cast<std::uint32_t>(kChunkSize); i-- > 0;)
      free_slots_.push_back(base + i);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

void Simulator::enqueue(Time when, std::uint32_t slot, bool daemon) {
  assert(when >= now_ && "cannot schedule into the past");
  at(slot).daemon = daemon;
  heap_.push_back(Record{when, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), After{});
  if (!daemon) ++foreground_pending_;
}

void Simulator::release(std::uint32_t slot) {
  Event& event = at(slot);
  event.task.reset();
  event.state.reset();
  free_slots_.push_back(slot);
}

Timer Simulator::schedule_event(Time when, std::function<void()> fn,
                                bool daemon) {
  auto state = std::make_shared<Timer::State>();
  state->daemon = daemon;
  state->foreground_pending = &foreground_pending_;
  const std::uint32_t slot = allocate();
  Event& event = at(slot);
  event.task.bind(std::move(fn));
  event.state = state;
  enqueue(when, slot, daemon);
  return Timer(std::move(state));
}

Timer Simulator::schedule_at(Time when, std::function<void()> fn) {
  return schedule_event(when, std::move(fn), /*daemon=*/false);
}

Timer Simulator::schedule_after(Duration delay, std::function<void()> fn) {
  return schedule_event(now_ + delay, std::move(fn), /*daemon=*/false);
}

Timer Simulator::schedule_daemon_at(Time when, std::function<void()> fn) {
  return schedule_event(when, std::move(fn), /*daemon=*/true);
}

Timer Simulator::schedule_daemon_after(Duration delay,
                                       std::function<void()> fn) {
  return schedule_event(now_ + delay, std::move(fn), /*daemon=*/true);
}

bool Simulator::prune_cancelled() {
  while (!heap_.empty()) {
    const Event& head = at(heap_.front().slot);
    if (head.state == nullptr || head.state->alive) return true;
    const std::uint32_t slot = heap_.front().slot;
    std::pop_heap(heap_.begin(), heap_.end(), After{});
    heap_.pop_back();
    release(slot);
  }
  return false;
}

void Simulator::fire_head() {
  const Record top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), After{});
  heap_.pop_back();
  Event& event = at(top.slot);
  if (event.state != nullptr) event.state->alive = false;  // consumed
  if (!event.daemon) --foreground_pending_;
  now_ = top.when;
  event.task();
  // Release the slot only after the callback returns: the slab is
  // chunked (stable addresses), so callbacks scheduling new events
  // cannot invalidate `event` mid-call.
  release(top.slot);
}

std::uint64_t Simulator::run() {
  // Run until only daemon events (periodic maintenance) remain.
  std::uint64_t executed = 0;
  while (foreground_pending_ > 0 && prune_cancelled()) {
    fire_head();
    ++executed;
  }
  return executed;
}

std::uint64_t Simulator::run_until(Time deadline) {
  std::uint64_t executed = 0;
  // Cancelled heads are pruned before the deadline test, so a cancelled
  // entry at t <= deadline never unmasks a live event past it.
  while (prune_cancelled() && heap_.front().when <= deadline) {
    fire_head();
    ++executed;
  }
  if (now_ < deadline && deadline != std::numeric_limits<Time>::max())
    now_ = deadline;
  return executed;
}

}  // namespace ipfs::sim
