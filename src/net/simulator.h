// Discrete-event simulator core: a virtual clock and an event queue.
//
// Every latency experiment (Figure 6, Table 2) runs on virtual time so that
// results are deterministic and independent of the host machine. Time is in
// integer microseconds.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "net/clock.h"

namespace mbtls::net {

/// The virtual-time Scheduler backend (see net/clock.h; the posix epoll loop
/// is the real-time one).
class Simulator : public Scheduler {
 public:
  Time now() const override { return now_; }

  /// Schedule `fn` to run `delay` microseconds from now. Events scheduled at
  /// the same instant run in scheduling order (FIFO), which keeps runs
  /// reproducible.
  void schedule(Time delay, std::function<void()> fn) override;

  /// Run until the event queue drains or `max_events` fire (runaway guard).
  /// Returns kDrained or kBudgetExhausted — a budget-exhausted run leaves the
  /// remaining events queued so the caller can inspect or resume.
  RunStatus run(std::size_t max_events = 10'000'000);

  /// Run until the virtual clock would pass `deadline` (or `max_events`
  /// fire). Returns kDrained, kDeadlineReached, or kBudgetExhausted.
  RunStatus run_until(Time deadline, std::size_t max_events = 10'000'000);

  bool idle() const { return queue_.empty(); }

 private:
  struct Event {
    Time at;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

}  // namespace mbtls::net
