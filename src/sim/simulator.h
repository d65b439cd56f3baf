// Discrete-event scheduler driving all simulated IPFS activity.
//
// One event core. Events live in a chunked slab arena with a free list
// (stable addresses, recycled slots, no per-event allocation), each
// holding its callback in an in-place InlineTask. The queue is one
// binary min-heap of 24-byte {when, seq, slot} records, so sifting never
// touches the slab. Events execute in (when, seq) order, where seq is a
// global schedule counter: equal timestamps run FIFO. Every seeded trace
// is a pure function of that order (docs/SCALING.md, "Event core").
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/event.h"
#include "sim/time.h"

namespace ipfs::sim {

class Simulator {
 public:
  Simulator() = default;
  // Timer handles and scheduled callbacks hold the simulator's address.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  // Detaches every still-queued event's Timer handle, so a handle that
  // outlives the simulator reads inactive and cancels as a no-op.
  ~Simulator();

  Time now() const { return now_; }

  Timer schedule_at(Time when, std::function<void()> fn);
  Timer schedule_after(Duration delay, std::function<void()> fn);

  // Daemon events (periodic maintenance: record expiry sweeps, churn
  // transitions, republishes) do not keep run() alive: run() returns once
  // only daemon events remain. run_until() executes them normally.
  Timer schedule_daemon_at(Time when, std::function<void()> fn);
  Timer schedule_daemon_after(Duration delay, std::function<void()> fn);

  // Fire-and-forget foreground event: no Timer handle, no Timer::State
  // allocation, and the closure is stored in place. The fabric's hot
  // path (message and dial deliveries never cancel). Ordered exactly like
  // schedule_after().
  template <typename F>
  void post(Duration delay, F&& fn) {
    const std::uint32_t slot = allocate();
    at(slot).task.bind(std::forward<F>(fn));
    enqueue(now_ + delay, slot, /*daemon=*/false);
  }

  // Runs until no live non-daemon event remains. Returns events executed.
  std::uint64_t run();

  // Runs every event (daemons included) up to `deadline` inclusive, then
  // advances the clock to it.
  std::uint64_t run_until(Time deadline);

  // Time of the next live event (daemons included), or nullopt when none
  // is queued. Prunes cancelled heads. SocketTransport bounds its poll(2)
  // wait by it.
  std::optional<Time> next_event_time() {
    if (!prune_cancelled()) return std::nullopt;
    return heap_.front().when;
  }

  // Queued entries, including cancelled ones not yet lazily pruned.
  std::size_t pending_events() const { return heap_.size(); }

  // Live (non-cancelled) non-daemon events still queued. Zero after a
  // drained run(); the fuzz harness checks this to detect leaked events.
  std::size_t foreground_pending() const { return foreground_pending_; }

 private:
  struct Record {
    Time when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Event {
    InlineTask task;
    std::shared_ptr<Timer::State> state;  // null for post()ed events
    bool daemon = false;
  };
  static constexpr std::size_t kChunkShift = 9;  // 512 events per chunk
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;

  Timer schedule_event(Time when, std::function<void()> fn, bool daemon);
  std::uint32_t allocate();
  Event& at(std::uint32_t slot) {
    return slab_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }
  void enqueue(Time when, std::uint32_t slot, bool daemon);
  void release(std::uint32_t slot);
  // Pops cancelled heads, releasing their slots; false once the heap is
  // empty, otherwise heap_.front() is the next live event.
  bool prune_cancelled();
  // Pops and executes the (live) head.
  void fire_head();

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t foreground_pending_ = 0;
  std::vector<Record> heap_;  // min-heap by (when, seq)
  std::vector<std::unique_ptr<Event[]>> slab_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace ipfs::sim
