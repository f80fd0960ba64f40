// End-to-end tests of ClusterMode::kProcess (ISSUE 6): a coordinator
// driving real `presto_worker` daemons over the /v1/task HTTP protocol,
// including heartbeat-driven failure detection of a kill -9'd worker.
//
// The worker binary path arrives via the PRESTO_WORKER_BIN environment
// variable (set by ctest); the suite skips when it is absent so the test
// binary stays runnable standalone.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "connectors/memcon/memory_connector.h"
#include "connectors/tpch/tpch_connector.h"
#include "engine/engine.h"
#include "exchange/http/http_io.h"
#include "worker/subprocess.h"
#include "worker/task_protocol.h"

namespace presto {
namespace {

constexpr double kScale = 0.05;  // orders=750, lineitem=3000

// Parses "READY task_port=A exchange_port=B metrics_port=C". The metrics
// port is optional so the parser keeps accepting the pre-observability
// banner shape.
bool ParseReady(const std::string& line, RemoteWorkerAddress* address) {
  int task_port = -1;
  int exchange_port = -1;
  int metrics_port = -1;
  int parsed =
      sscanf(line.c_str(), "READY task_port=%d exchange_port=%d metrics_port=%d",
             &task_port, &exchange_port, &metrics_port);
  if (parsed < 2) {
    return false;
  }
  address->task_port = task_port;
  address->exchange_port = exchange_port;
  address->metrics_port = metrics_port;
  return true;
}

std::vector<std::vector<Value>> Sorted(std::vector<std::vector<Value>> rows) {
  std::sort(rows.begin(), rows.end(),
            [](const std::vector<Value>& a, const std::vector<Value>& b) {
              for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
                std::string sa = a[i].ToString();
                std::string sb = b[i].ToString();
                if (sa != sb) return sa < sb;
              }
              return a.size() < b.size();
            });
  return rows;
}

class ProcessClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* bin = std::getenv("PRESTO_WORKER_BIN");
    if (bin == nullptr || bin[0] == '\0') {
      GTEST_SKIP() << "PRESTO_WORKER_BIN not set; skipping process tests";
    }
    worker_bin_ = bin;
  }

  // Launches `count` daemons and waits for their READY banners.
  void StartWorkers(int count, int64_t heartbeat_interval_micros = 100'000,
                    std::vector<std::string> extra_args = {}) {
    for (int i = 0; i < count; ++i) {
      auto worker = std::make_unique<Subprocess>();
      std::vector<std::string> args = {
          worker_bin_, "--worker_id=" + std::to_string(i), "--threads=2",
          "--tpch_scale=" + std::to_string(kScale),
          "--heartbeat_interval_micros=" +
              std::to_string(heartbeat_interval_micros)};
      args.insert(args.end(), extra_args.begin(), extra_args.end());
      ASSERT_TRUE(worker->Start(args).ok());
      auto ready = worker->WaitForLine("READY", 20'000);
      ASSERT_TRUE(ready.ok()) << ready.status().ToString();
      RemoteWorkerAddress address;
      ASSERT_TRUE(ParseReady(*ready, &address)) << *ready;
      addresses_.push_back(address);
      workers_.push_back(std::move(worker));
    }
  }

  // Engine whose coordinator drives the daemons. `max_task_retries < 0`
  // keeps the ClusterConfig default (task retry on worker death enabled).
  std::unique_ptr<PrestoEngine> MakeProcessEngine(
      int64_t heartbeat_timeout_micros = 2'000'000,
      int max_task_retries = -1) {
    EngineOptions options;
    options.cluster.mode = ClusterMode::kProcess;
    options.cluster.remote_workers = addresses_;
    options.cluster.heartbeat_timeout_micros = heartbeat_timeout_micros;
    if (max_task_retries >= 0) {
      options.cluster.max_task_retries = max_task_retries;
    }
    auto engine = std::make_unique<PrestoEngine>(std::move(options));
    engine->catalog().Register(
        std::make_shared<TpchConnector>("tpch", kScale));
    engine->catalog().SetDefault("tpch");
    return engine;
  }

  // GET /v1/info of a started worker, parsed.
  Result<NodeInfo> FetchWorkerInfo(int worker) {
    PRESTO_ASSIGN_OR_RETURN(
        auto conn, ConnectToLoopback(addresses_[static_cast<size_t>(worker)]
                                         .task_port,
                                     2'000'000));
    HttpRequest request;
    request.method = "GET";
    request.path = "/v1/info";
    PRESTO_RETURN_IF_ERROR(conn->WriteRequest(request));
    PRESTO_ASSIGN_OR_RETURN(HttpResponse response, conn->ReadResponse());
    if (response.status != 200) {
      return Status::IOError("GET /v1/info: HTTP " +
                             std::to_string(response.status));
    }
    PRESTO_ASSIGN_OR_RETURN(Json body, Json::Parse(response.body));
    return NodeInfo::FromJson(body);
  }

  // Reads the engine's task-retry counter (registration is idempotent by
  // name + labels, so this returns the same counter the coordinator
  // increments — the label set must match the engine's registration).
  int64_t RetriesTotal(PrestoEngine* engine) {
    return engine->metrics()
        .RegisterCounter("presto_task_retries_total", "",
                         {{"trace_instant", "task_recovery"}})
        ->value();
  }

  // Reference engine running the same catalog in-process.
  std::unique_ptr<PrestoEngine> MakeThreadsEngine(int num_workers) {
    EngineOptions options;
    options.cluster.num_workers = num_workers;
    options.cluster.executor.threads = 2;
    auto engine = std::make_unique<PrestoEngine>(std::move(options));
    engine->catalog().Register(
        std::make_shared<TpchConnector>("tpch", kScale));
    engine->catalog().SetDefault("tpch");
    return engine;
  }

  // Tells every worker where to heartbeat (the engine's observability
  // port, which exists only after engine construction).
  void StartHeartbeats(PrestoEngine* engine) {
    ASSERT_TRUE(engine->StartObservability().ok());
    for (auto& worker : workers_) {
      // A worker killed before this point simply never heartbeats; the
      // write to its closed stdin fails and that is fine.
      (void)worker->WriteLine("coordinator_port=" +
                              std::to_string(engine->observability_port()));
    }
  }

  std::string worker_bin_;
  std::vector<std::unique_ptr<Subprocess>> workers_;
  std::vector<RemoteWorkerAddress> addresses_;
};

TEST_F(ProcessClusterTest, ScanAndAggregateMatchesInProcess) {
  StartWorkers(2);
  auto process = MakeProcessEngine();
  auto threads = MakeThreadsEngine(2);

  for (const char* sql : {
           "SELECT count(*) FROM lineitem",
           "SELECT orderstatus, count(*), sum(totalprice) FROM orders "
           "GROUP BY orderstatus",
       }) {
    auto remote = process->ExecuteAndFetch(sql);
    ASSERT_TRUE(remote.ok()) << sql << ": " << remote.status().ToString();
    auto local = threads->ExecuteAndFetch(sql);
    ASSERT_TRUE(local.ok()) << sql << ": " << local.status().ToString();
    EXPECT_EQ(Sorted(*remote).size(), Sorted(*local).size()) << sql;
    auto sorted_remote = Sorted(*remote);
    auto sorted_local = Sorted(*local);
    for (size_t r = 0; r < sorted_remote.size(); ++r) {
      for (size_t c = 0; c < sorted_remote[r].size(); ++c) {
        EXPECT_EQ(sorted_remote[r][c].ToString(),
                  sorted_local[r][c].ToString())
            << sql << " row " << r << " col " << c;
      }
    }
  }
}

TEST_F(ProcessClusterTest, MultiFragmentJoinMatchesInProcess) {
  StartWorkers(2);
  auto process = MakeProcessEngine();
  auto threads = MakeThreadsEngine(2);

  const char* sql =
      "SELECT o.orderpriority, count(*) FROM orders o "
      "JOIN lineitem l ON o.orderkey = l.orderkey GROUP BY o.orderpriority";
  auto remote = process->ExecuteAndFetch(sql);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  auto local = threads->ExecuteAndFetch(sql);
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  auto sorted_remote = Sorted(*remote);
  auto sorted_local = Sorted(*local);
  ASSERT_EQ(sorted_remote.size(), sorted_local.size());
  for (size_t r = 0; r < sorted_remote.size(); ++r) {
    ASSERT_EQ(sorted_remote[r].size(), sorted_local[r].size());
    for (size_t c = 0; c < sorted_remote[r].size(); ++c) {
      EXPECT_EQ(sorted_remote[r][c].ToString(),
                sorted_local[r][c].ToString());
    }
  }
  // The distributed run left nothing behind on the coordinator side.
  EXPECT_EQ(process->cluster().exchange().TotalBufferedBytes(), 0);
}

TEST_F(ProcessClusterTest, SequentialQueriesReuseWorkers) {
  StartWorkers(2);
  auto process = MakeProcessEngine();
  for (int i = 0; i < 3; ++i) {
    auto rows = process->ExecuteAndFetch(
        "SELECT count(*) FROM orders WHERE orderkey > " +
        std::to_string(i * 10));
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ASSERT_EQ(rows->size(), 1u);
  }
}

TEST_F(ProcessClusterTest, HeartbeatsReachCoordinator) {
  StartWorkers(2, /*heartbeat_interval_micros=*/50'000);
  auto process = MakeProcessEngine();
  StartHeartbeats(process.get());

  // Both workers beat within a couple intervals.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (process->cluster().liveness().SeenHeartbeat(0) &&
        process->cluster().liveness().SeenHeartbeat(1)) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(process->cluster().liveness().SeenHeartbeat(0));
  EXPECT_TRUE(process->cluster().liveness().SeenHeartbeat(1));
  EXPECT_EQ(process->cluster().liveness().AliveCount(2), 2);
  EXPECT_GT(process->cluster().liveness().heartbeats_received(), 0);
}

TEST_F(ProcessClusterTest, KilledWorkerFailsQueryWithinTimeout) {
  StartWorkers(2, /*heartbeat_interval_micros=*/50'000);
  // Retries pinned to zero: this test covers the pre-recovery contract —
  // a worker death fails the query promptly instead of hanging.
  auto process = MakeProcessEngine(/*heartbeat_timeout_micros=*/500'000,
                                   /*max_task_retries=*/0);
  StartHeartbeats(process.get());

  // Wait until the failure detector is active for both workers.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline &&
         !(process->cluster().liveness().SeenHeartbeat(0) &&
           process->cluster().liveness().SeenHeartbeat(1))) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(process->cluster().liveness().SeenHeartbeat(1));

  // A join big enough to stay running while we murder worker 1.
  auto result = process->Execute(
      "SELECT count(*) FROM orders o JOIN lineitem l "
      "ON o.orderkey = l.orderkey");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  workers_[1]->Kill();
  workers_[1]->Wait();

  auto start = std::chrono::steady_clock::now();
  Status final = result->FetchAll().status();
  auto detect_micros = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  // The query fails (never hangs): either the liveness verdict or a
  // broken-connection error surfaces, well within a few timeouts.
  EXPECT_FALSE(final.ok());
  EXPECT_LT(detect_micros, 20'000'000) << final.ToString();

  // The detector eventually declares worker 1 dead and the gauge drops.
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline &&
         process->cluster().liveness().IsAlive(1)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_FALSE(process->cluster().liveness().IsAlive(1));
  EXPECT_EQ(process->cluster().liveness().AliveCount(2), 1);

  // Nothing leaked on the coordinator side.
  EXPECT_EQ(process->cluster().exchange().TotalBufferedBytes(), 0);
}

// The ISSUE 7 headline: a worker killed -9 mid-query does not fail the
// query — its tasks are re-created on the survivor, journaled splits are
// replayed, consumers re-fetch from token 0, and the result is
// row-identical to an undisturbed run. Afterwards nothing leaked and the
// shrunken cluster still serves new queries.
TEST_F(ProcessClusterTest, KilledWorkerQueryRecovers) {
  StartWorkers(2, /*heartbeat_interval_micros=*/50'000);
  auto process = MakeProcessEngine(/*heartbeat_timeout_micros=*/500'000);
  StartHeartbeats(process.get());

  const char* sql =
      "SELECT count(*) FROM orders o JOIN lineitem l "
      "ON o.orderkey = l.orderkey";
  auto expected = MakeThreadsEngine(2)->ExecuteAndFetch(sql);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  auto result = process->Execute(sql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  workers_[1]->Kill();
  workers_[1]->Wait();

  auto rows = result->FetchAllRows();
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  auto sorted_got = Sorted(*rows);
  auto sorted_want = Sorted(*expected);
  ASSERT_EQ(sorted_got.size(), sorted_want.size());
  for (size_t r = 0; r < sorted_got.size(); ++r) {
    ASSERT_EQ(sorted_got[r].size(), sorted_want[r].size());
    for (size_t c = 0; c < sorted_got[r].size(); ++c) {
      EXPECT_EQ(sorted_got[r][c].ToString(), sorted_want[r][c].ToString());
    }
  }
  // At least one task was re-created on the replacement worker.
  EXPECT_GE(RetriesTotal(process.get()), 1);

  // Zero leaked bytes: coordinator-side exchange state is empty, and the
  // surviving worker released every buffer — including frames that were
  // retained for replay — when the query was torn down.
  EXPECT_EQ(process->cluster().exchange().TotalBufferedBytes(), 0);
  EXPECT_EQ(process->cluster().exchange().TotalInflightBytes(), 0);
  EXPECT_EQ(process->cluster().exchange().TotalRetainedBytes(), 0);
  auto info = FetchWorkerInfo(0);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->active_tasks, 0);
  EXPECT_EQ(info->buffered_bytes, 0);
  EXPECT_EQ(info->retained_bytes, 0);

  // The shrunken cluster keeps serving queries (placement routes around
  // the dead worker).
  auto followup = process->ExecuteAndFetch("SELECT count(*) FROM orders");
  ASSERT_TRUE(followup.ok()) << followup.status().ToString();
  ASSERT_EQ(followup->size(), 1u);
  EXPECT_EQ((*followup)[0][0].ToString(), "750");
}

// Recovery edge: the worker dies before it ever heartbeats. The liveness
// fix (a registered worker that never beats is dead once its grace
// expires) plus connect-failure absorption must reroute its tasks instead
// of waiting on a verdict that can never come.
TEST_F(ProcessClusterTest, KillBeforeFirstHeartbeatRecovers) {
  StartWorkers(2, /*heartbeat_interval_micros=*/50'000);
  auto process = MakeProcessEngine(/*heartbeat_timeout_micros=*/500'000);
  // Kill worker 1 before heartbeats are even wired up.
  workers_[1]->Kill();
  workers_[1]->Wait();
  StartHeartbeats(process.get());

  auto rows = process->ExecuteAndFetch(
      "SELECT count(*) FROM orders o JOIN lineitem l "
      "ON o.orderkey = l.orderkey");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 1u);

  // The never-heartbeated worker is declared dead after its grace window.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline &&
         process->cluster().liveness().IsAlive(1)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_FALSE(process->cluster().liveness().IsAlive(1));
}

// Recovery edge: the retry budget is finite. After one successful recovery
// round, killing the replacement worker too leaves no live workers — the
// query must fail promptly, surfacing the original worker-loss error, not
// hang.
TEST_F(ProcessClusterTest, RetryExhaustionSurfacesOriginalError) {
  StartWorkers(2, /*heartbeat_interval_micros=*/50'000);
  auto process = MakeProcessEngine(/*heartbeat_timeout_micros=*/500'000);
  StartHeartbeats(process.get());

  auto result = process->Execute(
      "SELECT count(*) FROM orders o JOIN lineitem l "
      "ON o.orderkey = l.orderkey");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  workers_[1]->Kill();
  workers_[1]->Wait();

  // Wait for the first recovery round to land, then murder the survivor.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline &&
         RetriesTotal(process.get()) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  workers_[0]->Kill();
  workers_[0]->Wait();

  auto start = std::chrono::steady_clock::now();
  Status final = result->FetchAll().status();
  auto detect_micros = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_FALSE(final.ok());
  EXPECT_EQ(final.code(), StatusCode::kIOError) << final.ToString();
  EXPECT_NE(final.message().find("worker"), std::string::npos)
      << final.ToString();
  EXPECT_LT(detect_micros, 20'000'000);
}

// Regression: an Execute() that fails after taking an admission slot
// (here: no live worker left to place tasks on) must release the slot on
// teardown of the unlaunched execution. Before the fix every such failure
// leaked one slot, and max_concurrent_queries failures wedged the
// coordinator permanently.
TEST_F(ProcessClusterTest, FailedPlacementReleasesAdmissionSlots) {
  StartWorkers(1, /*heartbeat_interval_micros=*/50'000);
  EngineOptions options;
  options.cluster.mode = ClusterMode::kProcess;
  options.cluster.remote_workers = addresses_;
  options.cluster.heartbeat_timeout_micros = 300'000;
  options.cluster.max_concurrent_queries = 2;
  auto process = std::make_unique<PrestoEngine>(std::move(options));
  process->catalog().Register(
      std::make_shared<TpchConnector>("tpch", kScale));
  process->catalog().SetDefault("tpch");
  StartHeartbeats(process.get());

  // Let the failure detector activate before the kill: with no heartbeat
  // ever seen a single-worker tracker stays passive and the worker would
  // count as alive forever.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline &&
         !process->cluster().liveness().SeenHeartbeat(0)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(process->cluster().liveness().SeenHeartbeat(0));
  workers_[0]->Kill();
  workers_[0]->Wait();
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline &&
         process->cluster().liveness().IsAlive(0)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_FALSE(process->cluster().liveness().IsAlive(0));

  // More failed queries than admission slots: each must fail promptly and
  // leave running_queries() at zero. ASSERT (not EXPECT) so a leak aborts
  // the test before an attempt would block forever on a wedged slot.
  for (int i = 0; i < 5; ++i) {
    auto rows = process->ExecuteAndFetch("SELECT count(*) FROM orders");
    EXPECT_FALSE(rows.ok()) << "query " << i << " ran with no live workers";
    ASSERT_EQ(process->coordinator().running_queries(), 0)
        << "admission slot leaked by failed Execute (attempt " << i << ")";
  }
}

// Recovery edge: result frames already delivered to the client are not
// replayable — a death that forces the root stage to restart after
// delivery must end in a clean failure (or, if the kill raced the stream's
// start, a recovered run with exactly the right rows). Never a hang,
// never duplicated rows.
TEST_F(ProcessClusterTest, MidStreamDeathNeverHangsOrDuplicates) {
  StartWorkers(2, /*heartbeat_interval_micros=*/50'000);
  auto process = MakeProcessEngine(/*heartbeat_timeout_micros=*/500'000);
  StartHeartbeats(process.get());

  // A streaming (non-aggregated) result: the root delivers frames while
  // upstream stages still run.
  const char* sql =
      "SELECT l.orderkey FROM lineitem l JOIN orders o "
      "ON l.orderkey = o.orderkey";
  auto expected = MakeThreadsEngine(2)->ExecuteAndFetch(sql);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  auto result = process->Execute(sql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  workers_[1]->Kill();
  workers_[1]->Wait();

  auto start = std::chrono::steady_clock::now();
  auto rows = result->FetchAllRows();
  auto drain_micros = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  EXPECT_LT(drain_micros, 20'000'000) << "client-visible hang";
  if (rows.ok()) {
    // Recovered (or raced the kill): the stream must be exact — no lost
    // rows, no replayed duplicates.
    auto sorted_got = Sorted(*rows);
    auto sorted_want = Sorted(*expected);
    ASSERT_EQ(sorted_got.size(), sorted_want.size());
    for (size_t r = 0; r < sorted_got.size(); ++r) {
      EXPECT_EQ(sorted_got[r][0].ToString(), sorted_want[r][0].ToString());
    }
  } else {
    // Clean failure path: frames were already delivered, so the restart
    // was refused and the original worker-loss error surfaced.
    EXPECT_EQ(rows.status().code(), StatusCode::kIOError)
        << rows.status().ToString();
  }
  EXPECT_EQ(process->cluster().exchange().TotalBufferedBytes(), 0);
}

// The ISSUE 9 headline: a worker that is alive (heartbeating) but
// crawling — every driver quantum stalls for a second — must not hold the
// query hostage. The coordinator notices the straggling task via the
// progress counters in the status poll, races a higher-generation replica
// on the healthy worker, promotes the replica when it finishes first, and
// aborts the original. The result is row-identical to an in-process run
// (exactly-once), recovery never fires (the worker never dies), and no
// exchange bytes leak once the stalled quantum drains.
TEST_F(ProcessClusterTest, StalledWorkerIsOutRacedBySpeculation) {
  // A tiny driver time slice splits the scan into many quanta, so the
  // stalled worker pays the injected delay several times over — the
  // speculated run pays it at most once (the in-flight quantum of the
  // aborted original draining).
  StartWorkers(2, /*heartbeat_interval_micros=*/50'000,
               {"--quantum_nanos=25000"});

  const char* sql = "SELECT count(*) FROM lineitem";
  auto expected = MakeThreadsEngine(2)->ExecuteAndFetch(sql);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  // Heartbeat timeout far beyond the test's lifetime: the stalled worker
  // keeps beating, so the failure detector never declares it dead and
  // ONLY speculation can rescue the query.
  auto speculative = [this] {
    EngineOptions options;
    options.cluster.mode = ClusterMode::kProcess;
    options.cluster.remote_workers = addresses_;
    options.cluster.heartbeat_timeout_micros = 60'000'000;
    options.cluster.max_speculative_tasks = 4;
    options.cluster.speculation_min_stall_micros = 250'000;
    options.cluster.speculation_interval_micros = 25'000;
    auto engine = std::make_unique<PrestoEngine>(std::move(options));
    engine->catalog().Register(
        std::make_shared<TpchConnector>("tpch", kScale));
    engine->catalog().SetDefault("tpch");
    return engine;
  };

  auto process = speculative();
  StartHeartbeats(process.get());

  // Every driver quantum on worker 1 now pays a one-second stall.
  ASSERT_TRUE(workers_[1]->WriteLine("arm_stall_micros=1000000").ok());

  auto speculated_start = std::chrono::steady_clock::now();
  auto rows = process->ExecuteAndFetch(sql);
  auto speculated_micros =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - speculated_start)
          .count();
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  auto sorted_got = Sorted(*rows);
  auto sorted_want = Sorted(*expected);
  ASSERT_EQ(sorted_got.size(), sorted_want.size());
  for (size_t r = 0; r < sorted_got.size(); ++r) {
    ASSERT_EQ(sorted_got[r].size(), sorted_want[r].size());
    for (size_t c = 0; c < sorted_got[r].size(); ++c) {
      EXPECT_EQ(sorted_got[r][c].ToString(), sorted_want[r][c].ToString());
    }
  }

  // Speculation — not recovery — carried the query.
  EXPECT_GE(process->metrics()
                .RegisterCounter("presto_task_speculations_total", "",
                                 {{"trace_instant", "task_speculate"}})
                ->value(),
            1);
  EXPECT_GE(process->metrics()
                .RegisterCounter("presto_speculation_wins_total", "",
                                 {{"trace_instant", "speculation_win"}})
                ->value(),
            1);
  EXPECT_EQ(RetriesTotal(process.get()), 0);
  EXPECT_TRUE(process->cluster().liveness().IsAlive(1));

  // Release the stalled worker, then insist every byte drains: the aborted
  // original needs its in-flight stalled quantum to finish before the
  // worker can retire the task and free its buffers.
  ASSERT_TRUE(workers_[1]->WriteLine("arm_stall_micros=0").ok());
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  bool drained = false;
  while (std::chrono::steady_clock::now() < deadline && !drained) {
    drained = process->cluster().exchange().TotalBufferedBytes() == 0 &&
              process->cluster().exchange().TotalInflightBytes() == 0 &&
              process->cluster().exchange().TotalRetainedBytes() == 0;
    for (int w = 0; w < 2 && drained; ++w) {
      auto info = FetchWorkerInfo(w);
      drained = info.ok() && info->active_tasks == 0 &&
                info->buffered_bytes == 0 && info->retained_bytes == 0;
    }
    if (!drained) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  EXPECT_TRUE(drained) << "exchange bytes leaked after speculation";

  // Control: same stall, speculation disabled. The query still finishes
  // (the worker is alive, just slow) with correct rows — but measurably
  // slower than the speculated run.
  process.reset();
  EngineOptions options;
  options.cluster.mode = ClusterMode::kProcess;
  options.cluster.remote_workers = addresses_;
  options.cluster.heartbeat_timeout_micros = 60'000'000;
  options.cluster.max_speculative_tasks = 0;
  auto disabled = std::make_unique<PrestoEngine>(std::move(options));
  disabled->catalog().Register(
      std::make_shared<TpchConnector>("tpch", kScale));
  disabled->catalog().SetDefault("tpch");
  StartHeartbeats(disabled.get());
  ASSERT_TRUE(workers_[1]->WriteLine("arm_stall_micros=1000000").ok());

  auto disabled_start = std::chrono::steady_clock::now();
  auto slow_rows = disabled->ExecuteAndFetch(sql);
  auto disabled_micros =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - disabled_start)
          .count();
  ASSERT_TRUE(workers_[1]->WriteLine("arm_stall_micros=0").ok());
  ASSERT_TRUE(slow_rows.ok()) << slow_rows.status().ToString();
  ASSERT_EQ(slow_rows->size(), 1u);
  EXPECT_EQ((*slow_rows)[0][0].ToString(), sorted_want[0][0].ToString());
  EXPECT_EQ(disabled->metrics()
                .RegisterCounter("presto_task_speculations_total", "",
                                 {{"trace_instant", "task_speculate"}})
                ->value(),
            0);
  EXPECT_LT(speculated_micros, disabled_micros)
      << "speculation did not beat the stalled run";
}

TEST_F(ProcessClusterTest, WorkerInfoEndpointReports) {
  StartWorkers(1);
  auto conn = ConnectToLoopback(addresses_[0].task_port, 2'000'000);
  ASSERT_TRUE(conn.ok());
  HttpRequest request;
  request.method = "GET";
  request.path = "/v1/info";
  ASSERT_TRUE((*conn)->WriteRequest(request).ok());
  auto response = (*conn)->ReadResponse();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  EXPECT_NE(response->body.find("worker-0"), std::string::npos);
  EXPECT_NE(response->body.find("ACTIVE"), std::string::npos);
}

TEST_F(ProcessClusterTest, TableWriteRejectedInProcessMode) {
  StartWorkers(1);
  auto process = MakeProcessEngine();
  process->catalog().Register(
      std::make_shared<MemoryConnector>("memory"));
  auto result = process->ExecuteAndFetch(
      "CREATE TABLE memory.copy AS SELECT orderkey FROM orders");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnsupported);
  EXPECT_NE(result.status().message().find("out-of-process"),
            std::string::npos)
      << result.status().ToString();
}

TEST_F(ProcessClusterTest, WorkerMetricsEndpointServes) {
  StartWorkers(1);
  ASSERT_GT(addresses_[0].metrics_port, 0) << "banner lacks metrics_port";

  // /v1/metrics: the worker's own Prometheus exposition.
  {
    auto conn = ConnectToLoopback(addresses_[0].metrics_port, 2'000'000);
    ASSERT_TRUE(conn.ok());
    HttpRequest request;
    request.method = "GET";
    request.path = "/v1/metrics";
    ASSERT_TRUE((*conn)->WriteRequest(request).ok());
    auto response = (*conn)->ReadResponse();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 200);
    for (const char* family : {
             "presto_worker_active_tasks",
             "presto_worker_running_drivers",
             "presto_worker_memory_general_used_bytes",
             "presto_worker_exchange_buffered_bytes",
             "presto_worker_queue_depth{level=\"0\"}",
         }) {
      EXPECT_NE(response->body.find(family), std::string::npos) << family;
    }
  }

  // /v1/status: the human-facing JSON snapshot on the same port.
  {
    auto conn = ConnectToLoopback(addresses_[0].metrics_port, 2'000'000);
    ASSERT_TRUE(conn.ok());
    HttpRequest request;
    request.method = "GET";
    request.path = "/v1/status";
    ASSERT_TRUE((*conn)->WriteRequest(request).ok());
    auto response = (*conn)->ReadResponse();
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response->status, 200);
    auto body = Json::Parse(response->body);
    ASSERT_TRUE(body.ok());
    auto state = body->GetString("state");
    ASSERT_TRUE(state.ok());
    EXPECT_EQ(*state, "ACTIVE");
    EXPECT_TRUE(body->Find("activeTasks") != nullptr);
    EXPECT_TRUE(body->Find("memory") != nullptr);
    EXPECT_TRUE(body->Find("queueDepths") != nullptr);
  }

  // Unknown paths and non-GET methods are rejected, not crashed on.
  {
    auto conn = ConnectToLoopback(addresses_[0].metrics_port, 2'000'000);
    ASSERT_TRUE(conn.ok());
    HttpRequest request;
    request.method = "GET";
    request.path = "/v1/nope";
    ASSERT_TRUE((*conn)->WriteRequest(request).ok());
    auto response = (*conn)->ReadResponse();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 404);
  }
}

// Counts distinct worker pids (pid >= 1) among real (non-metadata) events
// of a Chrome trace JSON document.
int WorkerPidsInTrace(const std::string& trace_json) {
  auto doc = Json::Parse(trace_json);
  if (!doc.ok()) return 0;
  auto events = doc->GetArray("traceEvents");
  if (!events.ok()) return 0;
  std::set<int64_t> pids;
  for (const Json& event : (*events)->items()) {
    auto phase = event.GetString("ph");
    if (!phase.ok() || *phase == "M") continue;
    auto pid = event.GetInt("pid");
    if (pid.ok() && *pid >= 1) pids.insert(*pid);
  }
  return static_cast<int>(pids.size());
}

TEST_F(ProcessClusterTest, ShippedSpansMergeIntoCoordinatorTrace) {
  StartWorkers(2);
  auto process = MakeProcessEngine();

  auto handle = process->Execute(
      "SELECT o.orderpriority, count(*) FROM orders o "
      "JOIN lineitem l ON o.orderkey = l.orderkey GROUP BY o.orderpriority");
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  std::string query_id = handle->query_id();
  auto rows = handle->FetchAllRows();
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();

  // Worker spans ride status long-polls during the query and a final
  // flush on the task DELETE round-trip, so allow a short settle window.
  int worker_pids = 0;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    auto trace = process->QueryTraceJson(query_id);
    ASSERT_TRUE(trace.ok()) << trace.status().ToString();
    worker_pids = WorkerPidsInTrace(*trace);
    if (worker_pids >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_GE(worker_pids, 2)
      << "merged trace lacks spans from both worker processes";

  // The per-worker shipping instruments saw the spans; nothing dropped.
  int64_t shipped = 0;
  int64_t dropped = 0;
  for (int w = 0; w < 2; ++w) {
    MetricLabels labels = {{"worker", "w" + std::to_string(w)}};
    shipped += process->metrics()
                   .RegisterCounter("presto_trace_shipped_spans_total", "",
                                    labels)
                   ->value();
    dropped += process->metrics()
                   .RegisterCounter("presto_trace_dropped_spans_total", "",
                                    labels)
                   ->value();
  }
  EXPECT_GT(shipped, 0);
  EXPECT_EQ(dropped, 0);
}

TEST_F(ProcessClusterTest, ExplainAnalyzeAcrossProcesses) {
  StartWorkers(2);
  auto process = MakeProcessEngine();

  // EXPLAIN ANALYZE: the fragmented plan annotated with actual runtime
  // stats gathered from the remote workers' status responses.
  auto analyzed = process->ExplainAnalyze(
      "EXPLAIN ANALYZE SELECT orderstatus, count(*) FROM orders "
      "GROUP BY orderstatus");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_NE(analyzed->find("Fragment"), std::string::npos);
  EXPECT_NE(analyzed->find("rows"), std::string::npos);

  // VERBOSE appends the compact cross-process timeline: shipped worker
  // spans appear under their own pids (p1/p2) next to the coordinator's
  // p0 planning spans. Spans ship during status polls, so a fast query
  // can occasionally finish before any arrive — retry a couple times.
  bool cross_process = false;
  std::string verbose;
  for (int attempt = 0; attempt < 3 && !cross_process; ++attempt) {
    auto result = process->ExplainAnalyze(
        "EXPLAIN ANALYZE VERBOSE SELECT o.orderpriority, count(*) "
        "FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey "
        "GROUP BY o.orderpriority");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    verbose = *result;
    cross_process = verbose.find("p1 ") != std::string::npos &&
                    verbose.find("p2 ") != std::string::npos;
  }
  EXPECT_NE(verbose.find("Timeline:"), std::string::npos);
  EXPECT_NE(verbose.find("p0 "), std::string::npos)
      << "timeline lacks coordinator spans";
  EXPECT_TRUE(cross_process)
      << "timeline lacks worker spans:\n" << verbose;
}

TEST_F(ProcessClusterTest, ClusterMetricsFederateLiveWorkers) {
  StartWorkers(2, /*heartbeat_interval_micros=*/50'000);
  auto process = MakeProcessEngine();
  StartHeartbeats(process.get());

  // Federation only scrapes workers the liveness tracker considers alive.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline &&
         !(process->cluster().liveness().SeenHeartbeat(0) &&
           process->cluster().liveness().SeenHeartbeat(1))) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(process->cluster().liveness().SeenHeartbeat(0));
  ASSERT_TRUE(process->cluster().liveness().SeenHeartbeat(1));

  auto conn = ConnectToLoopback(process->observability_port(), 5'000'000);
  ASSERT_TRUE(conn.ok());
  HttpRequest request;
  request.method = "GET";
  request.path = "/v1/cluster/metrics";
  ASSERT_TRUE((*conn)->WriteRequest(request).ok());
  auto response = (*conn)->ReadResponse();
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200);
  const std::string& body = response->body;

  // Both workers' samples arrive relabeled with their worker identity.
  EXPECT_NE(body.find("presto_worker_active_tasks{worker=\"w0\"}"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("presto_worker_active_tasks{worker=\"w1\"}"),
            std::string::npos);
  // Coordinator families are merged in unlabeled.
  EXPECT_NE(body.find("presto_cluster_alive_workers"), std::string::npos);
  // Roll-up gauges summarize the scrape itself.
  EXPECT_NE(body.find("\npresto_cluster_scraped_workers 2"),
            std::string::npos);
  EXPECT_NE(body.find("\npresto_cluster_scrape_failures 0"),
            std::string::npos);
}

}  // namespace
}  // namespace presto
