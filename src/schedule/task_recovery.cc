#include "schedule/task_recovery.h"

#include <algorithm>
#include <chrono>

namespace presto {

std::vector<std::pair<int, int>> ComputeRestartSet(
    const std::vector<std::vector<int>>& placement,
    const std::vector<std::vector<bool>>& finished,
    const std::vector<std::vector<int>>& inputs_of, int root_fragment,
    bool root_needed, int dead_worker) {
  size_t num_fragments = placement.size();
  std::vector<std::vector<bool>> restart(num_fragments);
  // Rule (a) alone decides the dead worker's slots: rule (b) must not
  // restart a pruned victim as collateral, so it sees them as finished.
  std::vector<std::vector<bool>> settled = finished;
  for (size_t f = 0; f < num_fragments; ++f) {
    restart[f].assign(placement[f].size(), false);
    for (size_t t = 0; t < placement[f].size(); ++t) {
      if (placement[f][t] == dead_worker) settled[f][t] = true;
    }
  }
  auto output_needed = [&](size_t f) {
    if (static_cast<int>(f) == root_fragment) return root_needed;
    for (size_t c = 0; c < num_fragments; ++c) {
      const auto& inputs = inputs_of[c];
      if (std::find(inputs.begin(), inputs.end(), static_cast<int>(f)) ==
          inputs.end()) {
        continue;  // c does not consume f
      }
      for (size_t t = 0; t < finished[c].size(); ++t) {
        if (!finished[c][t] || restart[c][t]) return true;
      }
    }
    return false;
  };
  // Rule (a) to fixpoint: a finished victim that restarts makes the output
  // of its own dead producers needed again. Rule (b) only ever adds
  // unfinished slots, which already count as needing their inputs, so it
  // cannot feed back into rule (a) and runs once afterwards.
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t f = 0; f < num_fragments; ++f) {
      for (size_t t = 0; t < placement[f].size(); ++t) {
        if (!restart[f][t] && placement[f][t] == dead_worker &&
            output_needed(f)) {
          restart[f][t] = true;
          changed = true;
        }
      }
    }
  }
  return AddConsumerClosure(settled, inputs_of, &restart);
}

std::vector<std::pair<int, int>> AddConsumerClosure(
    const std::vector<std::vector<bool>>& finished,
    const std::vector<std::vector<int>>& inputs_of,
    std::vector<std::vector<bool>>* restart) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t f = 0; f < restart->size(); ++f) {
      bool input_restarting = false;
      for (int input : inputs_of[f]) {
        for (bool r : (*restart)[static_cast<size_t>(input)]) {
          input_restarting = input_restarting || r;
        }
      }
      if (!input_restarting) continue;
      for (size_t t = 0; t < finished[f].size(); ++t) {
        if (!finished[f][t] && !(*restart)[f][t]) {
          (*restart)[f][t] = true;
          changed = true;
        }
      }
    }
  }
  std::vector<std::pair<int, int>> marked;
  for (size_t f = 0; f < restart->size(); ++f) {
    for (size_t t = 0; t < (*restart)[f].size(); ++t) {
      if ((*restart)[f][t]) {
        marked.emplace_back(static_cast<int>(f), static_cast<int>(t));
      }
    }
  }
  return marked;
}

SlotJobQueue::SlotJobQueue(int64_t tick_interval_micros, Job tick)
    : tick_interval_micros_(tick_interval_micros > 0 ? tick_interval_micros
                                                     : 50'000),
      tick_(std::move(tick)) {
  thread_ = std::thread([this] { Loop(); });
}

void SlotJobQueue::Enqueue(Job job) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stop_) return;
  jobs_.push_back(std::move(job));
  cv_.notify_all();
}

void SlotJobQueue::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
}

void SlotJobQueue::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    auto ready = [this] { return stop_ || !jobs_.empty(); };
    if (tick_) {
      cv_.wait_for(lock, std::chrono::microseconds(tick_interval_micros_),
                   ready);
    } else {
      cv_.wait(lock, ready);
    }
    while (!jobs_.empty()) {
      Job job = std::move(jobs_.front());
      jobs_.pop_front();
      lock.unlock();
      job();
      lock.lock();
    }
    if (stop_) return;
    if (tick_) {
      lock.unlock();
      tick_();
      lock.lock();
    }
  }
}

}  // namespace presto
