#ifndef PRESTOCPP_SCHEDULE_CLUSTER_H_
#define PRESTOCPP_SCHEDULE_CLUSTER_H_

#include <memory>
#include <vector>

#include "common/check.h"
#include "exchange/exchange.h"
#include "exchange/http/exchange_http.h"
#include "memory/memory.h"
#include "schedule/task_executor.h"
#include "worker/liveness.h"

namespace presto {

/// How worker compute is hosted (ISSUE 6).
enum class ClusterMode {
  /// Workers are threads inside this process (the pre-ISSUE-6 simulated
  /// cluster): shared address space, optional HTTP shuffle.
  kThreads,
  /// Workers are separate presto_worker processes reached over the
  /// /v1/task HTTP protocol; shuffle always goes over HTTP.
  kProcess,
};

/// Address of one out-of-process worker daemon.
struct RemoteWorkerAddress {
  int task_port = 0;      // /v1/task lifecycle + /v1/info
  int exchange_port = 0;  // /v1/task/.../results shuffle endpoint
  /// /v1/metrics + /v1/status observability endpoint (ISSUE 10); -1 when
  /// unknown at config time (the worker also advertises it in heartbeats).
  int metrics_port = -1;
};

/// Configuration of the simulated cluster (§III): one coordinator plus
/// `num_workers` workers, each with its own MLFQ executor and memory pools.
struct ClusterConfig {
  int num_workers = 4;
  ExecutorConfig executor;
  MemoryConfig memory;
  NetworkConfig network;
  /// Stage scheduling policy (§IV-D1): all-at-once (latency-optimal) or
  /// phased (memory-optimal for large joins).
  bool phased_scheduling = false;
  /// Expression engine (§V-B ablation).
  EvalMode eval_mode = EvalMode::kCompiled;
  int max_drivers_per_pipeline = 2;
  /// Lazy split enumeration batch size (§IV-D3).
  int split_batch_size = 32;
  /// Max splits queued per task before enumeration pauses.
  int split_queue_soft_limit = 64;
  int64_t exchange_buffer_bytes = 4 << 20;
  /// Adaptive writer scaling (§IV-E3): writer stages start with one active
  /// writer and scale up while producer buffers stay busy.
  bool adaptive_writer_scaling = true;
  int64_t writer_scale_up_bytes = 2 << 20;
  /// Admission control: maximum concurrently running queries.
  int max_concurrent_queries = 100;

  /// Out-of-process workers (ISSUE 6). In kProcess mode `remote_workers`
  /// lists the daemons (num_workers is ignored) and the shuffle transport
  /// is forced to HTTP.
  ClusterMode mode = ClusterMode::kThreads;
  std::vector<RemoteWorkerAddress> remote_workers;
  /// A worker that heartbeated once and then stayed silent this long is
  /// declared dead; its tasks fail and it stops receiving splits.
  int64_t heartbeat_timeout_micros = 2'000'000;
  /// Task recovery (ISSUE 7): how many times a (fragment, task) slot may be
  /// re-created on a surviving worker after its worker died, before the
  /// query fails with the original error. 0 disables recovery (PR 6's
  /// clean-failure behavior). Only meaningful in kProcess mode.
  int max_task_retries = 1;
  /// Grace period for a registered worker that has never heartbeated: once
  /// any worker's first heartbeat activates the tracker, a still-silent
  /// worker is declared dead this long after registration/activation.
  /// 0 means "use heartbeat_timeout_micros".
  int64_t first_heartbeat_grace_micros = 0;
  /// Speculative execution of stragglers (ISSUE 9; kProcess mode with
  /// recovery enabled). A running task whose progress falls strictly below
  /// the median of its fragment siblings' progress — and whose
  /// progress has stalled for at least speculation_min_stall_micros
  /// (scaled up by the observed heartbeat RTT) — gets a higher-generation
  /// replica raced against it on a different live worker; the first
  /// finisher wins and the loser is aborted with task-scoped kCancelled.
  /// max_speculative_tasks bounds concurrent replicas per query; 0
  /// disables speculation entirely. The quantile and the minimum sibling
  /// count are SpeculationPolicy's defaults.
  int max_speculative_tasks = 0;
  int64_t speculation_min_stall_micros = 1'000'000;
  /// Progress-sampling cadence of the speculation tick.
  int64_t speculation_interval_micros = 50'000;
  /// Cross-process trace shipping (ISSUE 10): when a traced query runs in
  /// kProcess mode, ask workers to record spans and ship them back on
  /// status responses so EXPLAIN ANALYZE VERBOSE / the trace JSON show one
  /// timeline across all processes. Off = pre-ISSUE-10 coordinator-only
  /// traces.
  bool ship_worker_trace = true;
};

/// One worker node: executor threads plus memory pools.
class WorkerNode {
 public:
  WorkerNode(int id, const ClusterConfig& config)
      : id_(id),
        memory_(&config.memory, id),
        executor_(config.executor, id) {}

  int id() const { return id_; }
  WorkerMemory& memory() { return memory_; }
  TaskExecutor& executor() { return executor_; }

 private:
  int id_;
  WorkerMemory memory_;
  TaskExecutor executor_;
};

/// The cluster: in kThreads mode the workers + the in-process shuffle
/// fabric; in kProcess mode the coordinator-side view of remote worker
/// daemons (endpoint registry, page codec, liveness tracker).
class Cluster {
 public:
  explicit Cluster(ClusterConfig config)
      : config_(Normalize(std::move(config))),
        exchange_(config_.network),
        liveness_(config_.heartbeat_timeout_micros) {
    if (config_.mode == ClusterMode::kProcess) {
      liveness_.set_first_beat_grace_micros(
          config_.first_heartbeat_grace_micros > 0
              ? config_.first_heartbeat_grace_micros
              : config_.heartbeat_timeout_micros);
      // Register every expected worker so a daemon killed before its first
      // heartbeat is still declared dead once the grace deadline passes.
      for (size_t i = 0; i < config_.remote_workers.size(); ++i) {
        liveness_.RegisterWorker(static_cast<int>(i));
      }
      return;
    }
    for (int i = 0; i < config_.num_workers; ++i) {
      workers_.push_back(std::make_unique<WorkerNode>(i, config_));
    }
    if (config_.network.transport == TransportMode::kHttp) {
      // One exchange endpoint per worker, as in production Presto where
      // every worker serves its own task output buffers.
      for (int i = 0; i < config_.num_workers; ++i) {
        auto service = std::make_unique<ExchangeHttpService>(&exchange_, i);
        PRESTO_CHECK(service->Start().ok());
        http_services_.push_back(std::move(service));
      }
    }
  }

  ~Cluster() {
    for (auto& service : http_services_) service->Stop();
  }

  const ClusterConfig& config() const { return config_; }
  ClusterMode mode() const { return config_.mode; }

  int num_workers() const {
    return config_.mode == ClusterMode::kProcess
               ? static_cast<int>(config_.remote_workers.size())
               : static_cast<int>(workers_.size());
  }
  /// Workers hosted inside this process (0 in kProcess mode). Gauge loops
  /// over executor/memory state must iterate these, not num_workers().
  int local_workers() const { return static_cast<int>(workers_.size()); }
  WorkerNode& worker(int i) { return *workers_[static_cast<size_t>(i)]; }
  ExchangeManager& exchange() { return exchange_; }
  WorkerLivenessTracker& liveness() { return liveness_; }

  /// Exchange endpoint port of a worker; -1 when HTTP transport is off.
  int http_port(int worker) const {
    if (config_.mode == ClusterMode::kProcess) {
      return config_.remote_workers[static_cast<size_t>(worker)]
          .exchange_port;
    }
    if (http_services_.empty()) return -1;
    return http_services_[static_cast<size_t>(worker)]->port();
  }

  /// Task-lifecycle endpoint port of a remote worker; -1 in kThreads mode.
  int task_port(int worker) const {
    if (config_.mode != ClusterMode::kProcess) return -1;
    return config_.remote_workers[static_cast<size_t>(worker)].task_port;
  }

  /// Observability endpoint port of a remote worker (ISSUE 10): the
  /// heartbeat-advertised port when one arrived, else the configured one,
  /// else -1 (kThreads mode or daemon without a metrics service).
  int metrics_port(int worker) const {
    if (config_.mode != ClusterMode::kProcess) return -1;
    int advertised = liveness_.metrics_port(worker);
    if (advertised > 0) return advertised;
    return config_.remote_workers[static_cast<size_t>(worker)].metrics_port;
  }

  /// Aggregate executor busy time across workers (Fig. 8's CPU metric).
  int64_t total_busy_nanos() const {
    int64_t total = 0;
    for (const auto& w : workers_) total += w->executor().busy_nanos();
    return total;
  }

 private:
  static ClusterConfig Normalize(ClusterConfig config) {
    if (config.mode == ClusterMode::kProcess) {
      // Remote tasks can only ship pages over the wire.
      config.network.transport = TransportMode::kHttp;
    }
    return config;
  }

  ClusterConfig config_;
  ExchangeManager exchange_;
  WorkerLivenessTracker liveness_;
  std::vector<std::unique_ptr<WorkerNode>> workers_;
  std::vector<std::unique_ptr<ExchangeHttpService>> http_services_;
};

}  // namespace presto

#endif  // PRESTOCPP_SCHEDULE_CLUSTER_H_
