#include "net/simulator.h"

namespace mbtls::net {

void Simulator::schedule(Time delay, std::function<void()> fn) {
  queue_.push(Event{now_ + delay, next_seq_++, std::move(fn)});
}

RunStatus Simulator::run(std::size_t max_events) {
  std::size_t fired = 0;
  while (!queue_.empty()) {
    if (fired >= max_events) return RunStatus::kBudgetExhausted;
    Event ev = queue_.top();
    queue_.pop();
    now_ = ev.at;
    ++fired;
    ev.fn();
  }
  return RunStatus::kDrained;
}

RunStatus Simulator::run_until(Time deadline, std::size_t max_events) {
  std::size_t fired = 0;
  while (!queue_.empty() && queue_.top().at <= deadline) {
    if (fired >= max_events) return RunStatus::kBudgetExhausted;
    Event ev = queue_.top();
    queue_.pop();
    now_ = ev.at;
    ++fired;
    ev.fn();
  }
  now_ = deadline;
  return queue_.empty() ? RunStatus::kDrained : RunStatus::kDeadlineReached;
}

}  // namespace mbtls::net
