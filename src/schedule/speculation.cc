#include "schedule/speculation.h"

#include <algorithm>
#include <map>

namespace presto {

std::vector<std::pair<int, int>> PickStragglers(
    const std::vector<TaskProgressSample>& samples,
    const SpeculationPolicy& policy, int live_workers) {
  std::vector<std::pair<int, int>> picked;
  if (live_workers < 2 || policy.max_speculative_tasks <= 0) return picked;

  std::map<int, std::vector<const TaskProgressSample*>> by_fragment;
  for (const auto& sample : samples) {
    by_fragment[sample.fragment].push_back(&sample);
  }

  std::vector<const TaskProgressSample*> stragglers;
  for (const auto& [fragment, group] : by_fragment) {
    const int n = static_cast<int>(group.size());
    if (n < policy.min_samples) continue;
    std::vector<double> progresses;
    progresses.reserve(group.size());
    for (const TaskProgressSample* sample : group) {
      progresses.push_back(sample->progress);
    }
    std::sort(progresses.begin(), progresses.end());
    int index = static_cast<int>(policy.quantile * n);
    index = std::min(std::max(index, 0), n - 1);
    const double threshold = progresses[index];
    for (const TaskProgressSample* sample : group) {
      if (!sample->speculatable) continue;
      if (sample->stall_micros < policy.min_stall_micros) continue;
      // Strict comparison: all-equal progress (e.g. everyone still at
      // zero during startup) selects nobody, and a singleton fragment
      // can never beat its own progress.
      if (sample->progress < threshold) stragglers.push_back(sample);
    }
  }

  std::sort(stragglers.begin(), stragglers.end(),
            [](const TaskProgressSample* a, const TaskProgressSample* b) {
              if (a->progress != b->progress) return a->progress < b->progress;
              if (a->fragment != b->fragment) return a->fragment < b->fragment;
              return a->task < b->task;
            });
  for (const TaskProgressSample* sample : stragglers) {
    if (static_cast<int>(picked.size()) >= policy.max_speculative_tasks) break;
    picked.emplace_back(sample->fragment, sample->task);
  }
  return picked;
}

}  // namespace presto
