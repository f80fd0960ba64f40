#include "schedule/coordinator.h"

#include <algorithm>
#include <cstdint>
#include <map>

#include "common/stopwatch.h"
#include "metadata/metadata_manager.h"
#include "plan/plan_serde.h"

namespace presto {

namespace {

// Collects the TableScanNodes of a fragment (by node id).
void CollectScans(const PlanNodePtr& node,
                  std::vector<std::shared_ptr<const TableScanNode>>* out) {
  if (node->kind() == PlanNodeKind::kTableScan) {
    out->push_back(std::static_pointer_cast<const TableScanNode>(node));
  }
  for (const auto& c : node->children()) CollectScans(c, out);
}

bool ContainsTableWrite(const PlanNodePtr& node) {
  if (node->kind() == PlanNodeKind::kTableWrite) return true;
  for (const auto& c : node->children()) {
    if (ContainsTableWrite(c)) return true;
  }
  return false;
}

QueryStats CollectStats(
    const std::vector<std::shared_ptr<TaskClient>>& clients, int64_t peak) {
  std::vector<TaskStats> task_stats;
  for (const auto& client : clients) {
    task_stats.push_back(client->CollectStats());
    peak = std::max(peak, client->peak_user_memory_bytes());
  }
  return BuildQueryStats(std::move(task_stats), peak);
}

}  // namespace

Result<int> ChooseSplitTarget(
    const std::vector<std::shared_ptr<TaskClient>>& tasks, int node_id) {
  // Shortest queue among alive candidates; a task that has not reported a
  // queue depth yet (a remote task whose first status is still in flight)
  // only serves as a fallback so startup does not stall.
  int fallback = -1;
  int best = -1;
  size_t best_size = SIZE_MAX;
  for (size_t t = 0; t < tasks.size(); ++t) {
    if (!tasks[t]->worker_alive()) continue;
    if (fallback < 0) fallback = static_cast<int>(t);
    auto size = tasks[t]->SplitQueueSize(node_id);
    if (size.has_value() && *size < best_size) {
      best_size = *size;
      best = static_cast<int>(t);
    }
  }
  if (best >= 0) return best;
  if (fallback >= 0) return fallback;
  return Status::IOError(
      "no task with a live worker to take splits of scan node " +
      std::to_string(node_id));
}

QueryExecution::~QueryExecution() {
  // Detach from the failure detector before anything else: a death
  // callback delivered mid-teardown would walk members being destroyed.
  // RemoveDeathListener blocks until an in-flight callback returns.
  if (liveness_listener_ >= 0 && cluster_ != nullptr) {
    cluster_->liveness().RemoveDeathListener(liveness_listener_);
  }
  // Tear down any still-running tasks (client abandoned the query) and wait
  // for them: executor callbacks and operators reference our members. Only
  // a launched execution may wait — if Execute() failed before launching,
  // no callback will ever fire and Wait() would hang.
  bool launched;
  bool running;
  {
    std::lock_guard<std::mutex> lock(mu_);
    launched = phase_ != Phase::kLaunching;
    running = launched && slots_->outstanding() > 0;
  }
  if (running) Cancel(Status::Cancelled("query abandoned"));
  if (launched) (void)Wait();
  // Wait() needed the job thread alive (its recovery rounds and
  // promotions discharge held callbacks); stop it only now, before members
  // it touches are destroyed.
  if (jobs_ != nullptr) jobs_->Stop();
  stop_split_thread_.store(true);
  if (split_thread_.joinable()) split_thread_.join();
  stop_fetch_thread_.store(true);
  if (result_fetch_thread_.joinable()) result_fetch_thread_.join();
  if (cluster_ != nullptr) {
    // Backstop only: normal finalization (OnTaskDone on the last task)
    // already removed this query's exchange state. RemoveQuery is
    // idempotent, and unlaunched executions still need the cleanup.
    cluster_->exchange().RemoveQuery(query_id_);
  }
  // Execute() can fail after admission but before launch (no live workers,
  // fragment serialization, task Initialize); no task callback will ever
  // reach FinalizeLocked() then, so the admission slot must be released
  // here or repeated failures wedge max_concurrent_queries. For launched
  // executions finalization already ran and cleared on_complete_.
  std::function<void()> release_slot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    release_slot = std::move(on_complete_);
    on_complete_ = nullptr;
  }
  if (release_slot) release_slot();
}

Status QueryExecution::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return slots_->outstanding() == 0; });
  return final_status_;
}

void QueryExecution::Cancel(const Status& reason) {
  // Client cancel, an internal error, and destructor abandonment can race;
  // the latch makes teardown exactly-once with the first reason winning.
  std::call_once(cancel_once_, [this, &reason] {
    if (reason.code() == StatusCode::kCancelled) {
      client_cancelled_.store(true);
    }
    memory_->Kill(reason);
    results_.Finish(reason);
    // Remote tasks share no memory context with the coordinator, so the
    // kill must travel over the wire.
    if (process_mode_) AbortAllTasks();
  });
}

void QueryExecution::AbortAllTasks() {
  std::vector<std::shared_ptr<TaskClient>> clients;
  {
    std::lock_guard<std::mutex> lock(mu_);
    clients = slots_->AllClients(/*with_replicas=*/true);
  }
  for (auto& client : clients) client->Abort();
}

std::vector<TaskProgress> QueryExecution::TaskProgressSnapshot() const {
  std::vector<TaskProgress> progress;
  std::lock_guard<std::mutex> lock(mu_);
  for (int f = 0; f < slots_->num_fragments(); ++f) {
    for (int t = 0; t < slots_->num_tasks(f); ++t) {
      const Incarnation& current = slots_->slot(f, t).current;
      // Leaf locks (the client's status cache); safe under mu_.
      progress.push_back({f, t, current.worker, current.generation,
                          current.client->rows_out(),
                          current.client->progress_age_micros()});
    }
  }
  return progress;
}

QueryStats QueryExecution::StatsSnapshot() const {
  std::vector<std::shared_ptr<TaskClient>> clients;
  {
    std::lock_guard<std::mutex> lock(mu_);
    clients = slots_->AllClients(/*with_replicas=*/false);
  }
  return CollectStats(clients, memory_->peak_user());
}

int64_t QueryExecution::total_cpu_nanos() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& client : slots_->AllClients(/*with_replicas=*/false)) {
    total += client->cpu_nanos();
  }
  return total;
}

int QueryExecution::active_writers(int fragment) const {
  if (fragment < 0 ||
      static_cast<size_t>(fragment) >= active_writers_.size()) {
    return -1;
  }
  const auto& counter = active_writers_[static_cast<size_t>(fragment)];
  return counter == nullptr ? -1 : counter->load();
}

void QueryExecution::TraceSlot(
    const char* name, int fragment, int task, int generation,
    std::vector<std::pair<std::string, std::string>> extra) {
  if (lifecycle_ == nullptr || lifecycle_->trace() == nullptr) return;
  std::vector<std::pair<std::string, std::string>> args = {
      {"fragment", std::to_string(fragment)},
      {"task", std::to_string(task)},
      {"generation", std::to_string(generation)}};
  args.insert(args.end(), extra.begin(), extra.end());
  lifecycle_->trace()->RecordInstant("coordinator", name, 0, 0,
                                     std::move(args));
}

void QueryExecution::OnTaskDone(int fragment, int task, int generation,
                                const Status& status) {
  // NOTE: once no callback is outstanding, a waiter in Wait() may destroy
  // this object — and the engine around it — the moment mu_ is released,
  // so ALL finalization (resource release, exchange cleanup, lifecycle,
  // the admission-slot callback) must complete under the lock; a waiter
  // cannot wake before the unlock. Touch no members after the scope ends.
  std::lock_guard<std::mutex> lock(mu_);
  switch (slots_->Settle(fragment, task, generation, status,
                         !SettledLocked())) {
    case SlotTable::Settled::kReplicaWon:
      // Held: the promotion job decides commit-vs-abandon atomically
      // against the result stream and any concurrent recovery round.
      jobs_->Enqueue([this, fragment, task, generation] {
        RunPromotion(fragment, task, generation);
      });
      return;
    case SlotTable::Settled::kAbsorbed:
      // The slot's hold lasts until the recovery thread re-launches it or
      // gives up and fails the query.
      jobs_->Enqueue([this, fragment, task, generation, status] {
        RunRecovery(fragment, task, generation, status);
      });
      return;
    case SlotTable::Settled::kReplicaLost:
      TraceSlot("speculation_lose", fragment, task, generation);
      break;
    case SlotTable::Settled::kStale:
      break;
    case SlotTable::Settled::kCounted:
      if (!status.ok() && phase_ < Phase::kFinishing &&
          status.code() != StatusCode::kCancelled) {
        FailLocked(status);
      }
      if (fragment == plan_.root_id && !process_mode_ &&
          phase_ < Phase::kFinishing && slots_->FragmentDone(fragment)) {
        // Root produced everything: complete the result stream and tear
        // down any still-running upstream producers (e.g. after LIMIT). In
        // process mode the result-fetch thread finishes the stream
        // instead, once it drained the root task's output buffer.
        phase_ = Phase::kFinishing;
        results_.Finish(Status::OK());
        memory_->Kill(Status::Cancelled("query completed"));
      }
      break;
  }
  FinishIfDrainedLocked();
  done_cv_.notify_all();
}

void QueryExecution::FailLocked(const Status& cause) {
  final_status_ = cause;
  phase_ = Phase::kFinishing;
  results_.Finish(cause);
  memory_->Kill(cause);
  // Stop the surviving remote tasks too; killing the coordinator-side
  // memory context does not reach them.
  if (process_mode_) {
    for (auto& client : slots_->AllClients(/*with_replicas=*/true)) {
      client->Abort();
    }
  }
  // No replacement or promotion will consume the holds anymore.
  slots_->DischargeAll();
}

void QueryExecution::FinishIfDrainedLocked() {
  if (slots_->outstanding() != 0) return;
  if (phase_ < Phase::kFinishing && process_mode_ && final_status_.ok() &&
      !results_.finished()) {
    // A successful out-of-process query: the root task finished, but
    // its output buffer may still hold pages the result-fetch thread
    // has not pulled yet. Finishing the stream (or releasing the
    // worker-side tasks, which drops that buffer) now would lose
    // them, so the fetch thread finishes the stream and runs
    // FinalizeLocked() once the buffer reports complete.
    phase_ = Phase::kDeferred;
    return;
  }
  if (phase_ < Phase::kFinishing) results_.Finish(final_status_);
  FinalizeLocked();
}

std::vector<int> QueryExecution::LiveWorkers() const {
  std::vector<int> alive;
  for (int w = 0; w < cluster_->num_workers(); ++w) {
    if (cluster_->liveness().IsAlive(w)) alive.push_back(w);
  }
  return alive;
}

void QueryExecution::RebindRootLocked() {
  const Incarnation& root = slots_->slot(plan_.root_id, 0).current;
  ++root_epoch_;
  root_fetch_port_ = cluster_->http_port(root.worker);
  root_fetch_generation_ = root.generation;
}

void QueryExecution::OnWorkerDeath(int worker) {
  std::lock_guard<std::mutex> lock(mu_);
  if (SettledLocked()) return;
  // Every slot hosted on the dead worker becomes a recovery request —
  // including finished ones, whose retained replay buffers died with the
  // process; Recover prunes the ones nobody still needs.
  for (int f = 0; f < slots_->num_fragments(); ++f) {
    for (int t = 0; t < slots_->num_tasks(f); ++t) {
      const TaskSlot& slot = slots_->slot(f, t);
      if (slot.current.worker != worker ||
          slot.state == SlotState::kRecovering) {
        continue;
      }
      jobs_->Enqueue([this, f, t, generation = slot.current.generation,
                      worker] {
        RunRecovery(f, t, generation,
                    Status::IOError("worker " + std::to_string(worker) +
                                    " lost: missed heartbeats past "
                                    "liveness timeout"));
      });
    }
  }
}

void QueryExecution::RunRecovery(int fragment, int task, int generation,
                                 const Status& cause) {
  using Outcome = SlotTable::Recovery::Outcome;
  Stopwatch timer;
  TraceRecorder* trace =
      lifecycle_ != nullptr ? lifecycle_->trace().get() : nullptr;
  int64_t span_start = trace != nullptr ? trace->NowNanos() : 0;
  std::vector<SlotTable::Launch> launches;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // A worker can die while Execute() still issues the generation-0
    // creates; no slot gets a replacement before that loop is done.
    done_cv_.wait(lock, [this] { return phase_ != Phase::kLaunching; });
    if (SettledLocked()) {
      // Nothing to recover; turn absorbed holds back into completions so
      // Wait() can drain.
      slots_->DischargeAll();
    } else {
      SlotTable::Recovery r;
      int64_t delivered;
      {
        // Held from the replayability check through the rebind: a result
        // batch committed meanwhile is either counted here or dropped by
        // the fetch loop's epoch check.
        std::lock_guard<std::mutex> flock(fetch_mu_);
        delivered = root_frames_consumed_;
        r = slots_->Recover(fragment, task, generation, LiveWorkers(),
                            !results_.finished(), delivered == 0);
        if (r.outcome == Outcome::kRestarted && r.restarts_root) {
          RebindRootLocked();
        }
      }
      const std::string why = " (" + cause.message() + ")";
      switch (r.outcome) {
        case Outcome::kStale:  // an earlier round replaced the incarnation
          return;
        case Outcome::kPruned:
          break;
        case Outcome::kRestarted:
          launches = std::move(r.launches);
          if (retries_counter_ != nullptr) {
            retries_counter_->Increment(static_cast<int64_t>(launches.size()));
          }
          break;
        case Outcome::kExhausted:
          FailLocked(cause);
          break;
        case Outcome::kNoLiveWorker:
          FailLocked(Status::IOError(
              "no live worker left to host replacement tasks" + why));
          break;
        case Outcome::kRootNotReplayable:
          FailLocked(Status::IOError(
              "worker " + std::to_string(r.dead_worker) + " lost after " +
              std::to_string(delivered) +
              " result frames were already delivered to the client; the "
              "root stage is not replayable" + why));
          break;
      }
    }
    FinishIfDrainedLocked();
    done_cv_.notify_all();
  }
  if (launches.empty()) return;
  LaunchAndReplay(launches);
  if (recovery_histogram_ != nullptr) {
    recovery_histogram_->Observe(timer.ElapsedSeconds());
  }
  if (trace != nullptr) {
    trace->RecordSpan("coordinator", "task_recovery", 0, 0, span_start,
                      trace->NowNanos() - span_start,
                      {{"slots", std::to_string(launches.size())},
                       {"trigger_fragment", std::to_string(fragment)},
                       {"trigger_task", std::to_string(task)}});
  }
}

void QueryExecution::LaunchAndReplay(
    const std::vector<SlotTable::Launch>& launches) {
  std::vector<Status> launched(launches.size(), Status::OK());
  for (size_t i = 0; i < launches.size(); ++i) {
    const SlotTable::Launch& launch = launches[i];
    // A failure earlier in this loop may already have failed the query and
    // aborted every task it saw; a task created after that sweep would
    // never be aborted and its callback would never fire.
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (phase_ >= Phase::kFinishing) {
        launched[i] = Status::Cancelled("query failed before launch");
        continue;
      }
    }
    // Raw capture is safe: ~QueryExecution waits for every task callback
    // before releasing the object.
    launched[i] = launch.client->Launch(
        [self = this, f = launch.fragment, t = launch.task,
         gen = launch.generation](Status status) {
          self->OnTaskDone(f, t, gen, status);
        });
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < launches.size(); ++i) {
      if (!launched[i].ok()) continue;
      slots_->Replay(launches[i].fragment, launches[i].task,
                     launches[i].generation);
      // Sweep the tasks created after a racing failure's abort.
      if (process_mode_ && phase_ >= Phase::kFinishing) {
        launches[i].client->Abort();
      }
    }
  }
  // A failed launch never fires its callback; settle it here, which turns
  // a create on a dead worker into a recovery request like any other
  // worker loss.
  for (size_t i = 0; i < launches.size(); ++i) {
    if (launched[i].ok()) continue;
    OnTaskDone(launches[i].fragment, launches[i].task, launches[i].generation,
               launched[i]);
  }
}

TaskSpec QueryExecution::MakeSpec(int fragment_id, int task_index,
                                  int worker, int generation) const {
  const PlanFragment& fragment =
      plan_.fragments[static_cast<size_t>(fragment_id)];
  TaskSpec spec;
  spec.query_id = query_id_;
  spec.fragment_id = fragment_id;
  spec.task_index = task_index;
  spec.num_tasks = task_counts_[static_cast<size_t>(fragment_id)];
  spec.consumer_partitions =
      fragment.consumer >= 0
          ? task_counts_[static_cast<size_t>(fragment.consumer)]
          : 1;
  spec.worker_id = worker;
  spec.generation = generation;
  for (int input : fragment.inputs) {
    spec.source_task_counts[input] =
        task_counts_[static_cast<size_t>(input)];
  }
  return spec;
}

std::shared_ptr<TaskClient> QueryExecution::MakeRemoteClient(
    int fragment_id, int task_index, int worker, int generation) {
  const ClusterConfig& config = cluster_->config();
  size_t f = static_cast<size_t>(fragment_id);
  const PlanFragment& fragment = plan_.fragments[f];
  TaskSpec spec = MakeSpec(fragment_id, task_index, worker, generation);

  TaskCreateRequest create;
  create.spec = spec;
  create.fragment = fragment_jsons_[f];
  create.eval_mode = config.eval_mode;
  create.exchange_buffer_bytes = config.exchange_buffer_bytes;
  create.max_drivers_per_pipeline = config.max_drivers_per_pipeline;
  create.retain_exchange_frames = slots_->journaling();
  const auto& writer_counter = active_writers_[f];
  create.active_writers =
      writer_counter != nullptr ? writer_counter->load() : -1;
  create.emit_results_via_exchange = fragment_id == plan_.root_id;
  for (int input : fragment.inputs) {
    for (int it = 0; it < slots_->num_tasks(input); ++it) {
      const Incarnation& producer = slots_->slot(input, it).current;
      create.endpoints.push_back({input, it,
                                  cluster_->http_port(producer.worker),
                                  producer.generation});
    }
  }

  HttpTaskClient::Options options;
  options.task_port = cluster_->task_port(worker);
  options.liveness = &cluster_->liveness();
  // Cross-process trace shipping (ISSUE 10): when the query is traced, ask
  // the worker to record its spans and merge every shipped batch into the
  // query's recorder, labeled per hosting worker.
  if (config.ship_worker_trace && lifecycle_ != nullptr &&
      lifecycle_->trace() != nullptr) {
    create.enable_trace = true;
    options.trace = lifecycle_->trace().get();
    size_t w = static_cast<size_t>(worker);
    if (w < trace_shipped_counters_.size()) {
      options.trace_shipped = trace_shipped_counters_[w];
    }
    if (w < trace_dropped_counters_.size()) {
      options.trace_dropped = trace_dropped_counters_[w];
    }
  }
  return std::make_shared<HttpTaskClient>(spec, create.ToJson(), options);
}

void QueryExecution::SpeculationTick() {
  std::vector<SlotTable::Launch> launches;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (phase_ == Phase::kLaunching || SettledLocked()) return;
    // Budget counts CONCURRENT replicas: a settled race frees its slot.
    SpeculationPolicy policy = speculation_policy_;
    policy.max_speculative_tasks -= slots_->replica_count();
    std::vector<int> alive = LiveWorkers();
    if (policy.max_speculative_tasks <= 0 || alive.size() < 2) return;
    // Scale the stall floor by the observed heartbeat RTT: on a slow
    // control plane the status caches themselves lag, and a healthy task
    // must not look stalled just because its progress reports do.
    if (Histogram* rtt = cluster_->liveness().rtt_histogram()) {
      Histogram::Snapshot rtt_snapshot = rtt->snapshot();
      if (rtt_snapshot.count > 0) {
        policy.min_stall_micros = std::max(
            policy.min_stall_micros,
            static_cast<int64_t>(8.0 * rtt_snapshot.sum /
                                 static_cast<double>(rtt_snapshot.count)));
      }
    }
    launches = slots_->Speculate(
        PickStragglers(slots_->ProgressSamples(), policy,
                       static_cast<int>(alive.size())),
        alive);
    for (const SlotTable::Launch& launch : launches) {
      if (speculations_counter_ != nullptr) speculations_counter_->Increment();
      TraceSlot("task_speculate", launch.fragment, launch.task,
                launch.generation,
                {{"worker", std::to_string(
                                slots_->slot(launch.fragment, launch.task)
                                    .replica->worker)}});
    }
  }
  LaunchAndReplay(launches);
}

void QueryExecution::RunPromotion(int fragment, int task, int generation) {
  using Outcome = SlotTable::Promotion::Outcome;
  std::vector<SlotTable::Launch> launches;
  {
    std::lock_guard<std::mutex> lock(mu_);
    SlotTable::Promotion p;
    {
      // A root restart is legal only before the first delivered frame.
      std::lock_guard<std::mutex> flock(fetch_mu_);
      p = slots_->Promote(fragment, task, generation, !SettledLocked(),
                          root_frames_consumed_ == 0);
      if (p.outcome == Outcome::kPromoted && p.restarts_root) {
        RebindRootLocked();
      }
    }
    switch (p.outcome) {
      case Outcome::kGone:  // a restart or teardown settled the replica
        return;
      case Outcome::kRefused:
        // Correctness is never traded for the win: the replica goes, the
        // original keeps running.
        slots_->Abandon(fragment, task);
        TraceSlot("speculation_lose", fragment, task, generation,
                  {{"reason", "promotion_illegal"}});
        break;
      case Outcome::kPromoted:
        if (wins_counter_ != nullptr) wins_counter_->Increment();
        TraceSlot("speculation_win", fragment, task, generation,
                  {{"collateral", std::to_string(p.launches.size())}});
        launches = std::move(p.launches);
        break;
    }
    FinishIfDrainedLocked();
    done_cv_.notify_all();
  }
  LaunchAndReplay(launches);
}

void QueryExecution::FinalizeLocked() {
  if (phase_ == Phase::kFinalized) return;
  phase_ = Phase::kFinalized;
  // Every task callback has fired, so nothing references the drivers
  // (or, over HTTP, the worker-side task entries) anymore. Release
  // them now — regardless of whether the query finished, failed, was
  // cancelled, or was abandoned — returning every memory-pool
  // reservation, dropping exchange-buffer references, and deleting
  // spill files. A final stats snapshot is cached first so EXPLAIN
  // ANALYZE still works after teardown.
  std::vector<std::shared_ptr<TaskClient>> clients =
      slots_->AllClients(/*with_replicas=*/false);
  for (auto& client : clients) client->ReleaseResources();
  // Superseded clients are NOT destroyed here: the last stale callback is
  // delivered on its own client's poll thread, which may be the very
  // thread running this finalization — destroying that client would join
  // the current thread with itself. The slot table frees them with
  // ~QueryExecution (a waiter thread). No ReleaseResources for them
  // either — their task ids now belong to the replacements released above.
  if (cluster_ != nullptr) cluster_->exchange().RemoveQuery(query_id_);
  // Finalize the lifecycle before mu_ is released: a Wait()-er may
  // destroy this object the moment the lock drops, and QueryInfoFor
  // after Wait() must observe the terminal state.
  if (lifecycle_ != nullptr) {
    lifecycle_->Finalize(final_status_, client_cancelled_.load(),
                         CollectStats(clients, memory_->peak_user()));
  }
  // Release the admission slot before the unlock too: it only takes
  // the coordinator's admission mutex, which is never held while an
  // execution's mu_ is acquired, so there is no lock cycle.
  if (on_complete_) {
    on_complete_();
    on_complete_ = nullptr;
  }
}

void QueryExecution::FinalizeIfDeferred() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (phase_ != Phase::kDeferred) return;
    // Belt and braces: the fetch thread normally finished the stream
    // before getting here; if it exited on an error, Cancel() already
    // finished it with that error (first-wins makes this a no-op then).
    results_.Finish(final_status_);
    FinalizeLocked();
  }
  done_cv_.notify_all();
}

void QueryExecution::ResultFetchLoop() {
  int my_epoch;
  int port;
  int generation;
  {
    std::lock_guard<std::mutex> flock(fetch_mu_);
    my_epoch = root_epoch_;
    port = root_fetch_port_;
    generation = root_fetch_generation_;
  }
  ExchangeHttpClient fetcher(
      &cluster_->exchange(), port,
      StreamId{query_id_, plan_.root_id, /*task=*/0, /*partition=*/0},
      generation);
  TraceRecorder* trace =
      lifecycle_ != nullptr ? lifecycle_->trace().get() : nullptr;
  if (trace != nullptr) fetcher.SetTraceContext(trace, 0, 0);
  // Fetch errors are tolerated for this long while recovery is enabled:
  // the window covers the liveness verdict on a dead root worker plus the
  // recovery round that re-points us at the replacement.
  const int64_t patience_micros =
      cluster_->config().heartbeat_timeout_micros * 3 + 2'000'000;
  Stopwatch error_timer;
  bool error_window_open = false;
  while (!stop_fetch_thread_.load() && !results_.finished()) {
    {
      std::lock_guard<std::mutex> flock(fetch_mu_);
      if (root_epoch_ != my_epoch) {
        // Recovery moved the root task: re-open against the replacement,
        // back at token 0. The fetcher's internal delivered count may
        // exceed root_frames_consumed_ — a batch Fetch() returned but the
        // epoch check below dropped was counted there yet never reached
        // the client — so the replay watermark must be the committed
        // count (zero: a root restart is only legal at zero consumed
        // frames), not the fetcher's.
        my_epoch = root_epoch_;
        fetcher.ResetForReplacement(root_fetch_port_,
                                    root_fetch_generation_,
                                    root_frames_consumed_);
        error_window_open = false;
      }
    }
    auto fetched = fetcher.Fetch();
    if (!fetched.ok()) {
      if (slots_->journaling()) {
        if (!error_window_open) {
          error_window_open = true;
          error_timer.Reset();
        }
        if (error_timer.ElapsedMicros() < patience_micros) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          continue;
        }
      }
      Cancel(fetched.status());
      break;
    }
    error_window_open = false;
    // Commit the batch to the current epoch BEFORE delivering any page:
    // recovery may only restart the root while the consumed count is
    // zero, so the count must be visible first — and a batch that raced a
    // root restart is dropped (the replacement replays from token 0).
    {
      std::lock_guard<std::mutex> flock(fetch_mu_);
      if (root_epoch_ != my_epoch) continue;
      root_frames_consumed_ += fetched->frame_count - fetched->skip_frames;
    }
    cluster_->exchange().RecordTransfer(
        static_cast<int64_t>(fetched->body.size()));
    size_t offset = 0;
    int64_t to_skip = fetched->skip_frames;
    bool decode_failed = false;
    while (offset < fetched->body.size()) {
      auto page = cluster_->exchange().codec().Decode(fetched->body, &offset);
      if (!page.ok()) {
        Cancel(page.status());
        decode_failed = true;
        break;
      }
      if (to_skip > 0) {
        // Replayed frame already delivered before a reset: decode (to
        // advance the offset) and drop.
        --to_skip;
        continue;
      }
      // TryPush consumes its argument even on failure, so retry with
      // copies; the bounded queue is the client-backpressure point.
      Page decoded = std::move(*page);
      while (!stop_fetch_thread_.load() && !results_.finished()) {
        Page attempt = decoded;
        if (results_.TryPush(std::move(attempt))) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    if (decode_failed) break;
    if (fetched->complete) {
      // With recovery enabled the root buffer is retained like any other;
      // FinalizeLocked()'s task release tears it down with the query.
      if (!slots_->journaling()) (void)fetcher.DeleteBuffer();
      // First-wins with Cancel()/task-failure finalization: whichever
      // reason reached the queue first sticks.
      results_.Finish(Status::OK());
      // Tear down upstream producers still running after a short-circuit
      // root (LIMIT): their buffers have lost their only consumer.
      AbortAllTasks();
      break;
    }
    if (fetched->body.empty()) {
      // Long-poll timeout, or the root task's create RPC is still in
      // flight (the exchange answers token 0 with an empty batch then).
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  // If the last task completed while we were still draining, OnTaskDone
  // left end-of-query teardown to us.
  FinalizeIfDeferred();
}

void QueryExecution::SplitSchedulingLoop() {
  const ClusterConfig& config = cluster_->config();
  TraceRecorder* trace =
      lifecycle_ != nullptr ? lifecycle_->trace().get() : nullptr;
  // Pending split sources: (fragment, scan node id, source, exhausted).
  struct PendingSource {
    int fragment;
    int node_id;
    Connector* connector;
    std::unique_ptr<SplitSource> source;
    bool exhausted = false;
  };
  std::vector<PendingSource> sources;
  for (const auto& fragment : plan_.fragments) {
    if (fragment.partitioning != PartitioningKind::kSource &&
        fragment.partitioning != PartitioningKind::kColocated) {
      continue;
    }
    std::vector<std::shared_ptr<const TableScanNode>> scans;
    CollectScans(fragment.root, &scans);
    for (const auto& scan : scans) {
      auto connector = catalog_->Get(scan->connector());
      if (!connector.ok()) {
        Cancel(connector.status());
        return;
      }
      ScanSpec spec;
      spec.table = scan->table();
      spec.layout_id = scan->layout_id();
      spec.columns = scan->columns();
      spec.predicates = scan->predicates();
      spec.num_workers = cluster_->num_workers();
      // Through the split cache when attached (ISSUE 8): a repeated scan
      // of an unchanged table replays the materialized split list instead
      // of re-enumerating against the connector.
      auto source = metadata_manager_ != nullptr
                        ? metadata_manager_->GetSplits(scan->connector(),
                                                       *connector, spec)
                        : (*connector)->GetSplits(spec);
      if (!source.ok()) {
        Cancel(source.status());
        return;
      }
      sources.push_back(PendingSource{fragment.id, scan->id(), *connector,
                                      std::move(*source), false});
    }
  }
  // Writer-scaling bookkeeping.
  Stopwatch scale_timer;

  auto all_deps_done = [this](const PlanFragment& fragment) {
    std::lock_guard<std::mutex> lock(mu_);
    for (int dep : fragment.build_dependencies) {
      if (!slots_->FragmentDone(dep)) return false;
    }
    return true;
  };
  auto clients_of = [this](int fragment) {
    std::lock_guard<std::mutex> lock(mu_);
    return slots_->Clients(fragment);
  };

  bool work_left = true;
  while (!stop_split_thread_.load() && !memory_->killed()) {
    work_left = false;
    for (auto& pending : sources) {
      if (pending.exhausted) continue;
      work_left = true;
      const PlanFragment& fragment =
          plan_.fragments[static_cast<size_t>(pending.fragment)];
      // Phased scheduling (§IV-D1): defer probe-side split enumeration
      // until join build producers completed.
      if (config.phased_scheduling && !fragment.build_dependencies.empty() &&
          !all_deps_done(fragment)) {
        continue;
      }
      // Lazy enumeration: pause while queues are deep (§IV-D3).
      size_t min_queue = SIZE_MAX;
      for (const auto& task : clients_of(pending.fragment)) {
        auto size = task->SplitQueueSize(pending.node_id);
        if (size.has_value()) min_queue = std::min(min_queue, *size);
      }
      if (min_queue != SIZE_MAX &&
          min_queue > static_cast<size_t>(config.split_queue_soft_limit)) {
        continue;
      }
      auto batch = pending.source->NextBatch(config.split_batch_size);
      if (!batch.ok()) {
        Cancel(batch.status());
        return;
      }
      if (batch->empty()) {
        pending.exhausted = true;
        {
          // Journaled like a split: an incarnation that is not replayed
          // yet gets the marker from its replay, in order.
          std::lock_guard<std::mutex> lock(mu_);
          for (int t = 0; t < slots_->num_tasks(pending.fragment); ++t) {
            slots_->Deliver(pending.fragment, t,
                            {pending.node_id, nullptr, nullptr});
          }
        }
        if (trace != nullptr) {
          trace->RecordInstant(
              "scheduler", "splits_exhausted", 0, 0,
              {{"fragment", std::to_string(pending.fragment)},
               {"scan_node", std::to_string(pending.node_id)}});
        }
        continue;
      }
      if (trace != nullptr) {
        trace->RecordInstant(
            "scheduler", "split_batch", 0, 0,
            {{"fragment", std::to_string(pending.fragment)},
             {"scan_node", std::to_string(pending.node_id)},
             {"splits", std::to_string(batch->size())}});
      }
      Status assign_failure = Status::OK();
      std::vector<std::shared_ptr<TaskClient>> current;
      std::vector<std::shared_ptr<TaskClient>> replicas;
      {
        // Target choice and delivery share one lock scope with every
        // incarnation swap, so a split can never strand on a superseded
        // client.
        std::lock_guard<std::mutex> lock(mu_);
        current = slots_->Clients(pending.fragment);
        for (size_t si = 0; si < batch->size(); ++si) {
          const SplitPtr& split = (*batch)[si];
          int target;
          if (split->preferred_worker() >= 0 && split->hard_affinity()) {
            // Shared-nothing placement (§IV-D2).
            target = split->preferred_worker() %
                     static_cast<int>(current.size());
          } else if (auto chosen = ChooseSplitTarget(current, pending.node_id);
                     chosen.ok()) {
            // Shortest-queue assignment (§IV-D3) over live workers only.
            target = *chosen;
          } else if (slots_->journaling()) {
            // Every task of the fragment sits on a dead worker: journal the
            // split on one of them, and its replacement gets it from the
            // replay.
            target = static_cast<int>(si % current.size());
          } else {
            // Fail fast instead of silently dumping the split on task 0
            // (which may sit on the very worker that just died).
            assign_failure = chosen.status();
            break;
          }
          slots_->Deliver(pending.fragment, target,
                          {pending.node_id, split, pending.connector});
        }
        replicas = slots_->Clients(pending.fragment, /*replicas=*/true);
      }
      if (!assign_failure.ok()) {
        Cancel(assign_failure);
        return;
      }
      // Ship the batch (buffered update POSTs; no-op in-process). A
      // superseded client turns this into a no-op; a client whose worker
      // just died reports an IOError the journal replay makes good.
      for (const auto& task : current) {
        Status flushed = task->FlushSplits();
        if (!flushed.ok()) {
          if (slots_->journaling() &&
              flushed.code() == StatusCode::kIOError &&
              !task->worker_alive()) {
            continue;
          }
          Cancel(flushed);
          return;
        }
      }
      // Best-effort for racing replicas: a failing replica cannot fail the
      // query (its own terminal callback settles the race).
      for (const auto& task : replicas) (void)task->FlushSplits();
    }

    // Adaptive writer scaling (§IV-E3): while producer output buffers stay
    // busy, activate more writer partitions.
    if (config.adaptive_writer_scaling && scale_timer.ElapsedMillis() > 10) {
      scale_timer.Reset();
      for (const auto& fragment : plan_.fragments) {
        if (fragment.output_kind != ExchangeKind::kRoundRobin) continue;
        auto& counter = active_writers_[static_cast<size_t>(fragment.id)];
        if (counter == nullptr) continue;
        std::vector<std::shared_ptr<TaskClient>> producer_tasks =
            clients_of(fragment.id);
        int consumer_tasks =
            static_cast<int>(clients_of(fragment.consumer).size());
        if (counter->load() >= consumer_tasks) continue;
        double utilization = 0;
        int count = 0;
        for (const auto& task : producer_tasks) {
          utilization += task->OutputUtilization();
          ++count;
        }
        if (count > 0 && utilization / count > 0.5) {
          counter->fetch_add(1);
          // Direct tasks read the shared counter; remote tasks learn the
          // new width over the wire.
          int writers = counter->load();
          for (const auto& task : producer_tasks) {
            task->SetActiveWriters(writers);
          }
        }
      }
      work_left = true;  // keep monitoring while the query runs
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      if (slots_->outstanding() == 0) return;
    }
    if (!work_left && !config.adaptive_writer_scaling) return;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

Result<std::shared_ptr<QueryExecution>> Coordinator::Execute(
    const std::string& query_id, FragmentedPlan plan,
    std::shared_ptr<QueryLifecycle> lifecycle) {
  const bool process_mode = cluster_->mode() == ClusterMode::kProcess;
  if (process_mode) {
    if (cluster_->num_workers() == 0) {
      return Status(StatusCode::kInvalidArgument,
                    "process-mode cluster has no remote workers");
    }
    for (const auto& fragment : plan.fragments) {
      if (ContainsTableWrite(fragment.root)) {
        return Status(StatusCode::kUnsupported,
                      "table writes are not supported with out-of-process "
                      "workers");
      }
    }
  }

  // Admission control: bounded concurrent queries (queueing, §III).
  TraceRecorder* trace =
      lifecycle != nullptr ? lifecycle->trace().get() : nullptr;
  if (lifecycle != nullptr) lifecycle->MarkQueuedForAdmission();
  {
    int64_t admit_start = trace != nullptr ? trace->NowNanos() : 0;
    queued_.fetch_add(1);
    std::unique_lock<std::mutex> lock(admission_mu_);
    admission_cv_.wait(lock, [this] {
      return running_ < cluster_->config().max_concurrent_queries;
    });
    ++running_;
    queued_.fetch_sub(1);
    if (trace != nullptr) {
      trace->RecordSpan("coordinator", "admission_wait", 0, 0, admit_start,
                        trace->NowNanos() - admit_start);
    }
  }

  auto execution = std::shared_ptr<QueryExecution>(new QueryExecution());
  QueryExecution* raw = execution.get();
  execution->query_id_ = query_id;
  execution->lifecycle_ = std::move(lifecycle);
  execution->cluster_ = cluster_;
  execution->catalog_ = catalog_;
  execution->metadata_manager_ = metadata_manager_;
  execution->plan_ = std::move(plan);
  execution->process_mode_ = process_mode;
  execution->memory_ =
      std::make_unique<QueryMemory>(query_id, &cluster_->config().memory);
  execution->memory_->set_trace(trace);
  execution->schema_ =
      execution->plan_.fragments[static_cast<size_t>(
                                     execution->plan_.root_id)]
          .root->output();
  execution->on_complete_ = [this] {
    {
      std::lock_guard<std::mutex> lock(admission_mu_);
      --running_;
    }
    admission_cv_.notify_all();
  };

  const FragmentedPlan& fplan = execution->plan_;
  const ClusterConfig& config = cluster_->config();
  size_t num_fragments = fplan.fragments.size();
  execution->active_writers_.resize(num_fragments);

  // Decide task counts per fragment.
  std::vector<int> task_counts(num_fragments, 1);
  for (const auto& fragment : fplan.fragments) {
    switch (fragment.partitioning) {
      case PartitioningKind::kSingle:
        task_counts[static_cast<size_t>(fragment.id)] = 1;
        break;
      case PartitioningKind::kHash:
      case PartitioningKind::kSource:
      case PartitioningKind::kColocated:
        // Leaf stages run on every worker when unconstrained (§IV-D2).
        task_counts[static_cast<size_t>(fragment.id)] =
            cluster_->num_workers();
        break;
    }
  }

  // Writer-scaling counters for round-robin producer fragments.
  for (const auto& fragment : fplan.fragments) {
    if (fragment.output_kind == ExchangeKind::kRoundRobin &&
        fragment.consumer >= 0) {
      int consumers = task_counts[static_cast<size_t>(fragment.consumer)];
      int initial = config.adaptive_writer_scaling ? 1 : consumers;
      execution->active_writers_[static_cast<size_t>(fragment.id)] =
          std::make_unique<std::atomic<int>>(initial);
    }
  }

  // Placement: fragment -> task index -> worker id. Shared by both modes
  // (process mode ships the same placement as endpoint lists).
  int single_task_worker =
      round_robin_worker_.load(std::memory_order_relaxed);
  std::vector<std::vector<int>> placement(num_fragments);
  for (const auto& fragment : fplan.fragments) {
    int count = task_counts[static_cast<size_t>(fragment.id)];
    for (int t = 0; t < count; ++t) {
      int worker = count == 1
                       ? (single_task_worker++ % cluster_->num_workers())
                       : t;
      placement[static_cast<size_t>(fragment.id)].push_back(worker);
    }
  }
  round_robin_worker_.store(single_task_worker % cluster_->num_workers(),
                            std::memory_order_relaxed);

  // Route around workers already known to be dead: launching a task there
  // would only fail the create and bounce through a recovery round (or,
  // with retries exhausted, fail the query outright). Dead slots re-home
  // to live workers round-robin; a cluster with no live worker at all
  // cannot run anything.
  if (process_mode) {
    std::vector<int> live = execution->LiveWorkers();
    if (live.empty()) {
      return Status::IOError("no live workers to place query tasks on");
    }
    size_t cursor = 0;
    for (auto& fragment_slots : placement) {
      for (int& worker : fragment_slots) {
        if (cluster_->liveness().IsAlive(worker)) continue;
        worker = live[cursor++ % live.size()];
      }
    }
  }

  // The slot table keeps what recovery needs to rebuild any task's create
  // request; it journals splits only when a replacement can happen.
  const bool recovery = process_mode && config.max_task_retries > 0;
  std::vector<std::vector<int>> inputs_of(num_fragments);
  for (const auto& fragment : fplan.fragments) {
    inputs_of[static_cast<size_t>(fragment.id)] = fragment.inputs;
  }
  // Fresh incarnations exist only with recovery, hence only in kProcess.
  execution->slots_ = std::make_unique<SlotTable>(
      placement, std::move(inputs_of), fplan.root_id,
      recovery ? config.max_task_retries : 0,
      [raw](int f, int t, int worker, int generation) {
        return raw->MakeRemoteClient(f, t, worker, generation);
      });
  execution->task_counts_ = task_counts;
  execution->fragment_jsons_.resize(num_fragments);
  execution->retries_counter_ = retries_counter_;
  execution->recovery_histogram_ = recovery_histogram_;
  execution->speculations_counter_ = speculations_counter_;
  execution->wins_counter_ = speculation_wins_counter_;
  execution->trace_shipped_counters_ = trace_shipped_counters_;
  execution->trace_dropped_counters_ = trace_dropped_counters_;
  execution->speculation_policy_.max_speculative_tasks =
      config.max_speculative_tasks;
  execution->speculation_policy_.min_stall_micros =
      config.speculation_min_stall_micros;

  // Create the per-task clients.
  std::vector<SlotTable::Launch> launches;
  for (const auto& fragment : fplan.fragments) {
    int count = task_counts[static_cast<size_t>(fragment.id)];
    if (process_mode) {
      auto serialized = PlanFragmentToJson(fragment);
      if (!serialized.ok()) return serialized.status();
      execution->fragment_jsons_[static_cast<size_t>(fragment.id)] =
          std::move(*serialized);
    }
    for (int t = 0; t < count; ++t) {
      int worker = placement[static_cast<size_t>(fragment.id)]
                            [static_cast<size_t>(t)];
      std::shared_ptr<TaskClient> client;
      if (process_mode) {
        // Out-of-process task: ship the serialized fragment plus the
        // exchange endpoints of every producer task feeding it. (No lock
        // needed pre-launch — nothing else references the table yet.)
        client = execution->MakeRemoteClient(fragment.id, t, worker, 0);
      } else {
        // In-process task: a local TaskExec behind DirectTaskClient.
        if (config.network.transport == TransportMode::kHttp) {
          // Consumers resolve a producer task's output via its worker's
          // exchange endpoint; the coordinator owns placement, so it owns
          // the (task -> endpoint) map too.
          cluster_->exchange().RegisterTaskEndpoint(
              query_id, fragment.id, t, cluster_->http_port(worker));
        }
        TaskRuntime runtime;
        runtime.query_memory = execution->memory_.get();
        runtime.worker_memory = &cluster_->worker(worker).memory();
        runtime.exchange = &cluster_->exchange();
        runtime.catalog = catalog_;
        runtime.eval_mode = config.eval_mode;
        runtime.exchange_buffer_bytes = config.exchange_buffer_bytes;
        runtime.max_drivers_per_pipeline = config.max_drivers_per_pipeline;
        runtime.trace = trace;
        if (fragment.id == fplan.root_id) {
          runtime.results = &execution->results_;
        }
        const auto& writer_counter =
            execution->active_writers_[static_cast<size_t>(fragment.id)];
        if (writer_counter != nullptr) {
          runtime.active_output_partitions = writer_counter.get();
        }
        auto task = std::make_shared<TaskExec>(
            execution->MakeSpec(fragment.id, t, worker, 0), runtime,
            &fplan.fragments[static_cast<size_t>(fragment.id)]);
        PRESTO_RETURN_IF_ERROR(task->Initialize());
        client = std::make_shared<DirectTaskClient>(
            std::move(task), &cluster_->worker(worker).executor(),
            &cluster_->exchange());
      }
      execution->slots_->Install(fragment.id, t, client);
      launches.push_back({fragment.id, t, 0, std::move(client)});
    }
  }

  std::map<int, int> fragment_task_counts;
  for (const auto& fragment : fplan.fragments) {
    const int count = task_counts[static_cast<size_t>(fragment.id)];
    fragment_task_counts[fragment.id] = count;
    if (trace != nullptr) {
      trace->RecordInstant("scheduler", "stage_scheduled", 0, 0,
                           {{"fragment", std::to_string(fragment.id)},
                            {"tasks", std::to_string(count)}});
    }
  }
  if (execution->lifecycle_ != nullptr) {
    execution->lifecycle_->MarkRunning(std::move(fragment_task_counts));
  }

  // The root fetch target must be set before any Launch is issued: a
  // create that fails synchronously can trigger a recovery round that
  // re-points root_fetch_port_ at a replacement worker (with an epoch
  // bump), and a later assignment from the stale local placement would
  // silently undo that redirect.
  if (process_mode) {
    execution->root_fetch_port_ = cluster_->http_port(
        placement[static_cast<size_t>(fplan.root_id)][0]);
  }

  // Recovery plumbing must exist before the first Launch: a create that
  // fails on a just-dead worker re-enters OnTaskDone, which may absorb
  // the failure into a recovery round immediately. Speculation rides on
  // the same machinery (journal replay, generations, superseded clients)
  // and needs a second worker to place replicas on; off by default
  // (max_speculative_tasks = 0). Ticks started now are harmless:
  // SpeculationTick early-outs until the launch ends.
  if (recovery) {
    SlotJobQueue::Job tick;
    if (config.max_speculative_tasks > 0 && cluster_->num_workers() > 1) {
      tick = [raw] { raw->SpeculationTick(); };
    }
    execution->jobs_ = std::make_unique<SlotJobQueue>(
        config.speculation_interval_micros, std::move(tick));
    execution->liveness_listener_ = cluster_->liveness().AddDeathListener(
        [raw](int worker) { raw->OnWorkerDeath(worker); });
  }

  // Launch: register every task with its worker's executor — local MLFQ in
  // kThreads mode, a remote daemon's via the create RPC in kProcess mode
  // (all-at-once; phased mode defers only split enumeration, keeping
  // pipelines available to consume build sides without deadlocks).
  raw->LaunchAndReplay(launches);
  {
    std::lock_guard<std::mutex> lock(execution->mu_);
    if (execution->phase_ == QueryExecution::Phase::kLaunching) {
      execution->phase_ = QueryExecution::Phase::kRunning;
    }
  }
  // Unblocks a recovery round that waited for the launch to end.
  execution->done_cv_.notify_all();

  // Start the split/monitor thread. It captures a raw pointer: the
  // destructor joins the thread before members are destroyed.
  execution->split_thread_ =
      std::thread([raw] { raw->SplitSchedulingLoop(); });
  if (process_mode) {
    execution->result_fetch_thread_ =
        std::thread([raw] { raw->ResultFetchLoop(); });
  }
  return execution;
}

}  // namespace presto
