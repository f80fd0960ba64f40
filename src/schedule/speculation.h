#ifndef PRESTOCPP_SCHEDULE_SPECULATION_H_
#define PRESTOCPP_SCHEDULE_SPECULATION_H_

#include <cstdint>
#include <utility>
#include <vector>

namespace presto {

/// One task slot's progress as sampled from the status long-poll cache
/// (ISSUE 9). `progress` must be monotone and comparable among sibling
/// tasks of the same fragment (rows emitted by the task's pipeline sinks).
struct TaskProgressSample {
  int fragment = 0;
  int task = 0;
  /// Monotone progress indicator; only compared within a fragment.
  double progress = 0;
  /// Micros since the hosting worker last observed progress advance.
  int64_t stall_micros = 0;
  /// May host a replica: running, current generation, live worker, not
  /// already speculated. Ineligible samples (finished siblings, slots
  /// with an active replica) still anchor the quantile distribution.
  bool speculatable = true;
};

/// Straggler-selection policy (ClusterConfig knobs, ISSUE 9).
struct SpeculationPolicy {
  /// A task is a straggler when its progress is strictly below the value
  /// at this quantile of its fragment's sibling distribution.
  double quantile = 0.5;
  /// Minimum sibling samples per fragment before quantiles mean anything;
  /// single-task fragments are never speculated.
  int min_samples = 2;
  /// Budget: maximum straggler candidates returned (concurrent replicas).
  int max_speculative_tasks = 2;
  /// A straggler must additionally have made no progress for at least this
  /// long (the caller scales the config floor by observed heartbeat RTT so
  /// slow control planes do not trigger spurious replicas).
  int64_t min_stall_micros = 0;
};

/// Pure candidate selection (unit-tested like ComputeRestartSet): returns
/// the (fragment, task) slots worth racing a replica against, slowest
/// first, truncated to the policy budget. Rules:
///
///   - fewer than two live workers -> no candidates (a replica must run on
///     a different worker than the original);
///   - a fragment contributes candidates only when it has at least
///     `min_samples` samples;
///   - the straggler threshold is the progress value at index
///     floor(quantile * n) of the fragment's sorted sample progresses;
///     a candidate's progress must be STRICTLY below it, so all-equal
///     progress (including everyone-at-zero startup) selects nobody;
///   - a candidate must be speculatable and stalled >= min_stall_micros.
///
/// Each slot appears at most once; the caller's speculatable flag is the
/// never-two-replicas-of-one-task dedup across ticks.
std::vector<std::pair<int, int>> PickStragglers(
    const std::vector<TaskProgressSample>& samples,
    const SpeculationPolicy& policy, int live_workers);

}  // namespace presto

#endif  // PRESTOCPP_SCHEDULE_SPECULATION_H_
