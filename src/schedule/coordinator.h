#ifndef PRESTOCPP_SCHEDULE_COORDINATOR_H_
#define PRESTOCPP_SCHEDULE_COORDINATOR_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "connector/connector.h"
#include "exec/task.h"
#include "fragment/fragmenter.h"
#include "schedule/cluster.h"
#include "schedule/slot_table.h"
#include "schedule/speculation.h"
#include "schedule/task_recovery.h"
#include "stats/metrics_registry.h"
#include "stats/query_stats.h"
#include "worker/task_client.h"

namespace presto {

class MetadataManager;

/// Shortest-queue split assignment (§IV-D3) restricted to tasks whose
/// worker is alive and which actually own a split queue for `node_id`.
/// Errors when no candidate exists — the pre-ISSUE-7 code silently fell
/// back to task index 0 then, quietly feeding splits to a task that could
/// be sitting on a dead worker.
Result<int> ChooseSplitTarget(
    const std::vector<std::shared_ptr<TaskClient>>& tasks, int node_id);

/// A running (or finished) distributed query: owns the per-fragment task
/// clients, the lazy split-scheduling thread, the writer-scaling monitor,
/// and the client-facing result stream.
class QueryExecution {
 public:
  ~QueryExecution();

  const std::string& query_id() const { return query_id_; }
  const RowSchema& schema() const { return schema_; }
  ResultQueue& results() { return results_; }
  QueryMemory& memory() { return *memory_; }

  /// Blocks until every task completed; returns the query's final status.
  Status Wait();

  /// Kills the query (client cancellation, internal error, or abandonment).
  /// Callable from any thread any number of times; only the first call's
  /// reason takes effect.
  void Cancel(const Status& reason);

  /// Total CPU nanoseconds consumed across all tasks.
  int64_t total_cpu_nanos() const;

  /// Current number of active writer partitions (adaptive scaling).
  int active_writers(int fragment) const;

  /// The fragmented plan this execution runs (for EXPLAIN ANALYZE).
  const FragmentedPlan& plan() const { return plan_; }

  /// Aggregates per-operator runtime stats across every task. Safe while
  /// the query runs (counters are atomics); exact once it finished.
  QueryStats StatsSnapshot() const;

  /// Live per-slot progress from the status caches (ISSUE 10): the
  /// /v1/query/{id} "taskProgress" payload. Safe to call at any time.
  std::vector<TaskProgress> TaskProgressSnapshot() const;

 private:
  friend class Coordinator;
  QueryExecution() = default;

  /// Query lifecycle, in order. kLaunching: Execute() is issuing the
  /// generation-0 creates (recovery and speculation wait for it to end).
  /// kDeferred (kProcess): every task settled but the result-fetch thread
  /// still drains the root buffer; it owns finishing and finalizing.
  /// kFinishing: the final status is decided and the result stream
  /// finished. kFinalized: resources released, admission slot freed.
  enum class Phase { kLaunching, kRunning, kDeferred, kFinishing, kFinalized };

  /// The query settled or is settling: nothing is recovered, speculated or
  /// absorbed anymore. Caller holds mu_.
  bool SettledLocked() const {
    return phase_ >= Phase::kDeferred || memory_->killed();
  }

  void SplitSchedulingLoop();
  /// Terminal-status callback of incarnation `generation` of slot
  /// (fragment, task); SlotTable::Settle decides what it means.
  void OnTaskDone(int fragment, int task, int generation,
                  const Status& status);
  /// Fails the query with `cause`: finishes the stream, kills the memory
  /// context, aborts every task and discharges the slot table's holds.
  /// Caller holds mu_.
  void FailLocked(const Status& cause);
  /// Best-effort cancel RPC to every task (no-op clients ignore it).
  /// Snapshots the clients under mu_, then calls outside it.
  void AbortAllTasks();
  /// Liveness death listener (kProcess with retries): queues a recovery
  /// request for every slot placed on `worker`.
  void OnWorkerDeath(int worker);
  /// Job-thread recovery round for incarnation `generation` of a slot
  /// that lost its worker: SlotTable::Recover, then LaunchAndReplay of the
  /// replacements — or a clean query failure when retries are exhausted,
  /// no live worker remains, or delivered result frames make the root
  /// stage non-replayable.
  void RunRecovery(int fragment, int task, int generation,
                   const Status& cause);
  /// Job-thread speculation tick: samples every slot's progress,
  /// picks stragglers via PickStragglers, and races a replica against each.
  void SpeculationTick();
  /// Job-thread handler for a replica that finished first:
  /// SlotTable::Promote, or Abandon when promotion is refused.
  void RunPromotion(int fragment, int task, int generation);
  /// Launches fresh incarnations outside every lock (a create failure
  /// re-enters OnTaskDone), then replays their journals under mu_. An
  /// incarnation takes live split deliveries only after its replay.
  void LaunchAndReplay(const std::vector<SlotTable::Launch>& launches);
  /// The TaskSpec of an incarnation of slot (fragment, task).
  TaskSpec MakeSpec(int fragment, int task, int worker, int generation) const;
  /// Builds the HTTP client + create request for an incarnation of slot
  /// (fragment, task); producer endpoints come from the slot table.
  /// Caller holds mu_ (or is single-threaded inside Execute()).
  std::shared_ptr<TaskClient> MakeRemoteClient(int fragment, int task,
                                               int worker, int generation);
  /// Points the result-fetch loop at the root slot's current incarnation.
  /// Caller holds mu_ and fetch_mu_.
  void RebindRootLocked();
  std::vector<int> LiveWorkers() const;
  /// Records a coordinator trace instant about incarnation `generation`
  /// of slot (fragment, task).
  void TraceSlot(const char* name, int fragment, int task, int generation,
                 std::vector<std::pair<std::string, std::string>> extra = {});
  /// The shared tail of every transition under mu_: finishes the stream
  /// and finalizes once no task callback is outstanding.
  void FinishIfDrainedLocked();
  /// kProcess only: pulls the root task's output buffer over the exchange
  /// protocol into results_, finishing the stream when the buffer
  /// completes (and aborting still-running upstream producers, e.g. after
  /// LIMIT).
  void ResultFetchLoop();
  /// One-shot end-of-query teardown under mu_: releases every task's
  /// resources (coordinator- and worker-side), drops this query's exchange
  /// state, finalizes the lifecycle record, and frees the admission slot.
  void FinalizeLocked();
  /// Run by the result-fetch thread on exit: performs the finalization the
  /// last OnTaskDone deferred so the root output buffer outlived its drain.
  void FinalizeIfDeferred();

  std::string query_id_;
  RowSchema schema_;
  Cluster* cluster_ = nullptr;
  const Catalog* catalog_ = nullptr;
  // Optional split-enumeration cache (ISSUE 8); null when the coordinator
  // is driven without an engine (direct tests).
  MetadataManager* metadata_manager_ = nullptr;
  FragmentedPlan plan_;
  std::unique_ptr<QueryMemory> memory_;
  ResultQueue results_;
  // Round-robin writer-scaling state per fragment (producer side).
  std::vector<std::unique_ptr<std::atomic<int>>> active_writers_;

  /// Guards phase_, final_status_ and slots_. Lock order: mu_ before
  /// fetch_mu_; never the reverse.
  mutable std::mutex mu_;
  std::condition_variable done_cv_;
  Phase phase_ = Phase::kLaunching;
  Status final_status_;
  /// Every task slot: clients, placement, generations, split journals,
  /// replicas, and the outstanding-callback count Wait() drains.
  std::unique_ptr<SlotTable> slots_;

  std::thread split_thread_;
  std::atomic<bool> stop_split_thread_{false};
  std::function<void()> on_complete_;  // admission-slot release
  /// Makes Cancel() exactly-once across client cancel, internal errors,
  /// and destructor abandonment racing each other.
  std::once_flag cancel_once_;

  /// Out-of-process execution state (ISSUE 6).
  bool process_mode_ = false;
  int root_fetch_port_ = -1;
  std::thread result_fetch_thread_;
  std::atomic<bool> stop_fetch_thread_{false};
  /// Serialized fragments + task counts kept so a replacement task's
  /// create request can be rebuilt at any time.
  std::vector<Json> fragment_jsons_;
  std::vector<int> task_counts_;

  /// ---- Task recovery and straggler speculation. ----
  /// Runs recovery rounds, promotions and speculation ticks. Present when
  /// kProcess runs with max_task_retries > 0, which is exactly when the
  /// slot table journals splits; it ticks only with speculation on.
  std::unique_ptr<SlotJobQueue> jobs_;
  int liveness_listener_ = -1;
  Counter* retries_counter_ = nullptr;        // presto_task_retries_total
  Histogram* recovery_histogram_ = nullptr;   // recovery latency, seconds
  SpeculationPolicy speculation_policy_;
  Counter* speculations_counter_ = nullptr;  // presto_task_speculations_total
  Counter* wins_counter_ = nullptr;          // presto_speculation_wins_total

  /// Cross-process trace shipping instruments (ISSUE 10), indexed by
  /// worker id: spans merged from / dropped by each worker's recorder.
  /// Empty when the engine did not install them.
  std::vector<Counter*> trace_shipped_counters_;
  std::vector<Counter*> trace_dropped_counters_;

  /// Root result-stream epoch: the fetch loop rebinds its exchange client
  /// whenever recovery moved the root task. root_frames_consumed_ counts
  /// frames already delivered to the client under the current epoch — a
  /// root restart is only legal while it is zero (otherwise replayed
  /// frames would duplicate delivered rows, so the query fails cleanly).
  std::mutex fetch_mu_;
  int root_epoch_ = 0;
  int root_fetch_generation_ = 0;
  int64_t root_frames_consumed_ = 0;

  /// Lifecycle record finalized when the last task completes; may be null
  /// (tests that drive the coordinator directly).
  std::shared_ptr<QueryLifecycle> lifecycle_;
  std::atomic<bool> client_cancelled_{false};
};

/// The coordinator (§III): admits queries, places fragment tasks on
/// workers, feeds splits lazily with shortest-queue assignment (§IV-D3),
/// honors phased scheduling dependencies (§IV-D1), and scales writer stages
/// adaptively (§IV-E3). In ClusterMode::kProcess the same scheduling logic
/// drives remote worker daemons through the /v1/task HTTP protocol.
class Coordinator {
 public:
  Coordinator(Cluster* cluster, const Catalog* catalog)
      : cluster_(cluster), catalog_(catalog) {}

  /// Starts executing a fragmented plan; blocks only for admission. The
  /// optional lifecycle is transitioned through admission/running and
  /// finalized when the last task completes.
  Result<std::shared_ptr<QueryExecution>> Execute(
      const std::string& query_id, FragmentedPlan plan,
      std::shared_ptr<QueryLifecycle> lifecycle = nullptr);

  /// Installs the recovery observability instruments (ISSUE 7): the
  /// presto_task_retries_total counter and the recovery-latency histogram,
  /// both registry-owned and outliving the coordinator. Either may be
  /// null (tests that drive the coordinator directly).
  void SetRecoveryInstruments(Counter* retries, Histogram* latency) {
    retries_counter_ = retries;
    recovery_histogram_ = latency;
  }

  /// Installs the speculation observability instruments (ISSUE 9):
  /// presto_task_speculations_total and presto_speculation_wins_total.
  /// Either may be null (tests that drive the coordinator directly).
  void SetSpeculationInstruments(Counter* speculations, Counter* wins) {
    speculations_counter_ = speculations;
    speculation_wins_counter_ = wins;
  }

  /// Installs the cross-process trace-shipping instruments (ISSUE 10),
  /// indexed by worker id: presto_trace_shipped_spans_total and
  /// presto_trace_dropped_spans_total, labeled {worker="w<i>"}. Registry-
  /// owned; empty vectors are fine (tests that drive the coordinator
  /// directly).
  void SetTraceShippingInstruments(std::vector<Counter*> shipped,
                                   std::vector<Counter*> dropped) {
    trace_shipped_counters_ = std::move(shipped);
    trace_dropped_counters_ = std::move(dropped);
  }

  /// Installs the planning-path cache subsystem (ISSUE 8): split
  /// enumeration then goes through the manager's split cache. May be null
  /// (tests that drive the coordinator directly enumerate uncached).
  void SetMetadataManager(MetadataManager* manager) {
    metadata_manager_ = manager;
  }

  int running_queries() const {
    std::lock_guard<std::mutex> lock(admission_mu_);
    return running_;
  }

  /// Queries waiting for an admission slot right now.
  int queued_queries() const { return queued_.load(); }

 private:
  Cluster* cluster_;
  const Catalog* catalog_;
  mutable std::mutex admission_mu_;
  std::condition_variable admission_cv_;
  int running_ = 0;
  std::atomic<int> queued_{0};
  // Best-effort placement cursor for single-task fragments; relaxed atomic
  // because concurrent Execute() calls may interleave and exact rotation
  // does not matter, only rough spread.
  std::atomic<int> round_robin_worker_{0};
  Counter* retries_counter_ = nullptr;
  Histogram* recovery_histogram_ = nullptr;
  Counter* speculations_counter_ = nullptr;
  Counter* speculation_wins_counter_ = nullptr;
  std::vector<Counter*> trace_shipped_counters_;
  std::vector<Counter*> trace_dropped_counters_;
  MetadataManager* metadata_manager_ = nullptr;
};

}  // namespace presto

#endif  // PRESTOCPP_SCHEDULE_COORDINATOR_H_
