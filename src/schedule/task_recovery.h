#ifndef PRESTOCPP_SCHEDULE_TASK_RECOVERY_H_
#define PRESTOCPP_SCHEDULE_TASK_RECOVERY_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace presto {

/// Computes the set of task slots that must be re-created after
/// `dead_worker` died, as the fixpoint of three rules over the fragment
/// dataflow graph (`inputs_of[f]` = producer fragments feeding f):
///
///   (a) a slot hosted on the dead worker restarts if its output is still
///       needed — some consumer slot is unfinished or itself restarting
///       (for the root fragment: the coordinator has not finished the
///       result stream). This covers both unfinished victims and finished
///       ones whose retained replay buffers died with the process.
///   (b) an unfinished slot on a live worker restarts when any producer
///       fragment feeding it has a restarting slot: the replacement
///       producer re-runs with intra-task parallelism, so its frame
///       sequence is not reproducible and a partially-consumed stream
///       cannot be resumed exactly.
///
/// Victims whose output nobody needs anymore (every consumer finished,
/// e.g. producers cut off by LIMIT) are deliberately pruned: restarting
/// them would stall the replacement on a full output buffer that no one
/// ever drains.
///
/// Returned pairs are (fragment, task), in fragment-major order.
std::vector<std::pair<int, int>> ComputeRestartSet(
    const std::vector<std::vector<int>>& placement,
    const std::vector<std::vector<bool>>& finished,
    const std::vector<std::vector<int>>& inputs_of, int root_fragment,
    bool root_needed, int dead_worker);

/// Rule (b) on its own: marks in `restart` every unfinished slot of a
/// fragment that transitively consumes a fragment with a marked slot, and
/// returns every marked slot (seeds included) in fragment-major order.
/// ComputeRestartSet seeds it with the dead worker's restarting slots; a
/// speculative promotion seeds it with the promoted slot, whose consumers
/// are bound to the losing original's output buffers.
std::vector<std::pair<int, int>> AddConsumerClosure(
    const std::vector<std::vector<bool>>& finished,
    const std::vector<std::vector<int>>& inputs_of,
    std::vector<std::vector<bool>>* restart);

/// Serializes a query's slot work — recovery rounds, speculative
/// promotions and the periodic speculation tick — onto one background
/// thread, so the two policies never race each other. Jobs run in arrival
/// order ahead of the next tick, without any queue lock held: they may
/// block on coordinator mutexes or call Enqueue() again.
class SlotJobQueue {
 public:
  using Job = std::function<void()>;

  /// `tick` (may be empty) runs every `tick_interval_micros` while the
  /// queue is idle.
  SlotJobQueue(int64_t tick_interval_micros, Job tick);
  ~SlotJobQueue() { Stop(); }

  SlotJobQueue(const SlotJobQueue&) = delete;
  SlotJobQueue& operator=(const SlotJobQueue&) = delete;

  void Enqueue(Job job);

  /// Stops the thread after it drained the queue: a queued job may be the
  /// only thing discharging a held task callback. Idempotent.
  void Stop();

 private:
  void Loop();

  const int64_t tick_interval_micros_;
  Job tick_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job> jobs_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace presto

#endif  // PRESTOCPP_SCHEDULE_TASK_RECOVERY_H_
