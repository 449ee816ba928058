#include "sim/simulator.hpp"

#include <algorithm>
#include <stdexcept>

namespace aequus::sim {

void Simulator::push_event(Event event) {
  queue_.push_back(std::move(event));
  std::push_heap(queue_.begin(), queue_.end(), Later{});
}

Simulator::Event Simulator::pop_event() {
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  Event event = std::move(queue_.back());
  queue_.pop_back();
  return event;
}

EventHandle Simulator::push(Time at, std::function<void()> action) {
  Event event;
  event.at = std::max(at, now_);
  event.sequence = next_sequence_++;
  event.action = std::move(action);
  event.alive = std::make_shared<bool>(true);
  EventHandle handle(event.alive);
  push_event(std::move(event));
  return handle;
}

EventHandle Simulator::schedule_at(Time at, std::function<void()> action) {
  return push(at, std::move(action));
}

EventHandle Simulator::schedule_after(Time delay, std::function<void()> action) {
  return push(now_ + std::max(delay, 0.0), std::move(action));
}

EventHandle Simulator::schedule_periodic(Time first_at, Time period,
                                         std::function<void()> action) {
  if (period <= 0.0) throw std::invalid_argument("schedule_periodic: period must be > 0");
  auto alive = std::make_shared<bool>(true);
  push_periodic(first_at, period,
                std::make_shared<std::function<void()>>(std::move(action)), alive);
  return EventHandle(alive);
}

void Simulator::push_periodic(Time at, Time period,
                              std::shared_ptr<std::function<void()>> action,
                              std::shared_ptr<bool> alive) {
  Event event;
  event.at = std::max(at, now_);
  event.sequence = next_sequence_++;
  event.alive = alive;
  const Time scheduled_at = event.at;
  event.action = [this, scheduled_at, period, action, alive] {
    (*action)();
    if (*alive) push_periodic(scheduled_at + period, period, action, alive);
  };
  push_event(std::move(event));
}

EventHandle Simulator::schedule_stream(const std::vector<Time>& times,
                                       std::function<void(std::size_t)> action) {
  auto stream = std::make_shared<Stream>();
  stream->due.reserve(times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    stream->due.emplace_back(std::max(times[i], now_), i);
  }
  // A schedule_at loop would give element i sequence first_sequence + i,
  // so (clamped time, index) is its firing order.
  std::sort(stream->due.begin(), stream->due.end());
  stream->first_sequence = next_sequence_;
  next_sequence_ += times.size();
  stream->action = std::move(action);
  stream->alive = std::make_shared<bool>(true);
  EventHandle handle(stream->alive);
  push_stream(std::move(stream));
  return handle;
}

void Simulator::push_stream(std::shared_ptr<Stream> stream) {
  if (stream->next == stream->due.size()) return;
  const std::size_t index = stream->due[stream->next].second;
  Event event;
  event.at = stream->due[stream->next++].first;
  event.sequence = stream->first_sequence + index;
  event.alive = stream->alive;
  event.action = [this, stream = std::move(stream), index] {
    // The successor orders after this element, so it can enter the heap
    // before the action runs.
    push_stream(stream);
    stream->action(index);
  };
  push_event(std::move(event));
}

bool Simulator::step() {
  while (!queue_.empty()) {
    Event event = pop_event();
    if (!*event.alive) continue;  // cancelled
    now_ = event.at;
    ++executed_;
    event.action();
    return true;
  }
  return false;
}

void Simulator::run_until(Time limit) {
  while (!queue_.empty()) {
    const Event& next = queue_.front();
    if (!*next.alive) {
      pop_event();
      continue;
    }
    if (next.at > limit) break;
    step();
  }
  now_ = std::max(now_, limit);
}

void Simulator::run_all() {
  while (step()) {
  }
}

}  // namespace aequus::sim
