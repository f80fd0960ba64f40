// Unit tests of the /v1/task lifecycle protocol (ISSUE 6): JSON serde,
// protocol edges (malformed bodies, unknown tasks, duplicate creates,
// deletes of finished tasks), long-poll semantics, shutdown ordering, and
// the worker.task_service fault point — all in-process against a
// WorkerRuntime, no daemons involved.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "common/fault_injection.h"
#include "connectors/tpch/tpch_connector.h"
#include "fragment/fragmenter.h"
#include "metadata/metadata_snapshot.h"
#include "optimizer/optimizer.h"
#include "plan/plan_serde.h"
#include "plan/planner.h"
#include "sql/parser.h"
#include "worker/task_protocol.h"
#include "worker/worker_runtime.h"

namespace presto {
namespace {

class TaskHttpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto catalog = std::make_shared<Catalog>();
    catalog->Register(std::make_shared<TpchConnector>("tpch", 0.01));
    catalog->SetDefault("tpch");
    catalog_ = catalog;
    WorkerRuntimeConfig config;
    config.executor.threads = 2;
    runtime_ = std::make_unique<WorkerRuntime>(config, catalog_);
    ASSERT_TRUE(runtime_->Start().ok());
  }

  void TearDown() override {
    FaultInjection::Instance().DisarmAll();
    if (runtime_ != nullptr) runtime_->Stop();
  }

  Result<FragmentedPlan> Plan(const std::string& sql) {
    PRESTO_ASSIGN_OR_RETURN(sql::StatementPtr stmt, sql::ParseStatement(sql));
    Planner planner(catalog_.get());
    PRESTO_ASSIGN_OR_RETURN(PlanNodePtr plan, planner.Plan(*stmt));
    MetadataSnapshot snapshot(catalog_.get());
    Optimizer optimizer(&snapshot);
    PRESTO_ASSIGN_OR_RETURN(plan, optimizer.Optimize(std::move(plan)));
    return Fragmenter().Fragment(plan);
  }

  // Create request for one task of `fragment`, the way the coordinator
  // builds it (root tasks emit results through the exchange).
  Result<TaskCreateRequest> MakeCreate(const FragmentedPlan& plan,
                                       int fragment_id,
                                       const std::string& query_id) {
    const PlanFragment& fragment =
        plan.fragments[static_cast<size_t>(fragment_id)];
    TaskCreateRequest create;
    create.spec.query_id = query_id;
    create.spec.fragment_id = fragment_id;
    create.spec.task_index = 0;
    create.spec.num_tasks = 1;
    create.spec.consumer_partitions = 1;
    create.spec.worker_id = 0;
    for (int input : fragment.inputs) {
      create.spec.source_task_counts[input] = 1;
      create.endpoints.push_back({input, 0, runtime_->exchange_port()});
    }
    PRESTO_ASSIGN_OR_RETURN(create.fragment, PlanFragmentToJson(fragment));
    create.emit_results_via_exchange = fragment_id == plan.root_id;
    return create;
  }

  HttpResponse Call(const std::string& method, const std::string& path,
                    const std::string& body = "") {
    HttpRequest request;
    request.method = method;
    request.path = path;
    request.body = body;
    return runtime_->task_service().Handle(request);
  }

  std::shared_ptr<const Catalog> catalog_;
  std::unique_ptr<WorkerRuntime> runtime_;
};

TEST_F(TaskHttpTest, CreateRequestJsonRoundtrip) {
  auto plan = Plan("SELECT count(*) FROM nation");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto create = MakeCreate(*plan, plan->root_id, "q0");
  ASSERT_TRUE(create.ok()) << create.status().ToString();
  create->eval_mode = EvalMode::kInterpreted;
  create->exchange_buffer_bytes = 123;
  create->max_drivers_per_pipeline = 7;
  create->active_writers = 3;

  auto reparsed = TaskCreateRequest::FromJson(
      *Json::Parse(create->ToJson().Serialize()));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->spec.query_id, "q0");
  EXPECT_EQ(reparsed->spec.fragment_id, plan->root_id);
  EXPECT_EQ(reparsed->eval_mode, EvalMode::kInterpreted);
  EXPECT_EQ(reparsed->exchange_buffer_bytes, 123);
  EXPECT_EQ(reparsed->max_drivers_per_pipeline, 7);
  EXPECT_EQ(reparsed->active_writers, 3);
  EXPECT_EQ(reparsed->emit_results_via_exchange,
            create->emit_results_via_exchange);
  EXPECT_EQ(reparsed->endpoints, create->endpoints);
}

TEST_F(TaskHttpTest, StatusResponseJsonRoundtrip) {
  TaskStatusResponse status;
  status.task_id = "q.1.0";
  status.state = TaskState::kFailed;
  status.version = 42;
  status.error_code = StatusCode::kResourceExhausted;
  status.error_message = "out of memory";
  status.queued_splits[3] = 17;
  status.added_splits[3] = 20;
  status.output_utilization = 0.75;
  status.cpu_nanos = 123456;
  status.user_memory_bytes = 1 << 20;
  status.peak_user_memory_bytes = 2 << 20;

  auto reparsed = TaskStatusResponse::FromJson(
      *Json::Parse(status.ToJson().Serialize()));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->task_id, "q.1.0");
  EXPECT_EQ(reparsed->state, TaskState::kFailed);
  EXPECT_EQ(reparsed->version, 42);
  EXPECT_EQ(reparsed->error_code, StatusCode::kResourceExhausted);
  EXPECT_EQ(reparsed->error_message, "out of memory");
  EXPECT_EQ(reparsed->queued_splits.at(3), 17);
  EXPECT_EQ(reparsed->added_splits.at(3), 20);
  EXPECT_DOUBLE_EQ(reparsed->output_utilization, 0.75);
  EXPECT_EQ(reparsed->completed_splits(), 3);
  Status as_status = reparsed->ToStatus();
  EXPECT_EQ(as_status.code(), StatusCode::kResourceExhausted);
}

TEST_F(TaskHttpTest, TaskStateStringsRoundtrip) {
  for (TaskState state :
       {TaskState::kPlanned, TaskState::kRunning, TaskState::kFinished,
        TaskState::kCanceled, TaskState::kAborted, TaskState::kFailed}) {
    auto parsed = TaskStateFromString(TaskStateToString(state));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, state);
  }
  EXPECT_FALSE(TaskStateFromString("BOGUS").ok());
}

TEST_F(TaskHttpTest, MalformedBodyIsBadRequest) {
  EXPECT_EQ(Call("POST", "/v1/task/q.0.0", "{not json").status, 400);
  EXPECT_EQ(Call("POST", "/v1/task/q.0.0", "{\"spec\": 7}").status, 400);
}

TEST_F(TaskHttpTest, UnknownTaskIsNotFound) {
  EXPECT_EQ(Call("GET", "/v1/task/nope.0.0/status").status, 404);
  EXPECT_EQ(Call("DELETE", "/v1/task/nope.0.0").status, 404);
  // Split update for a task that was never created.
  EXPECT_EQ(Call("POST", "/v1/task/nope.0.0", "{\"splits\":{}}").status,
            404);
}

TEST_F(TaskHttpTest, UnknownRouteAndMethod) {
  EXPECT_EQ(Call("GET", "/v1/bogus").status, 404);
  EXPECT_EQ(Call("PUT", "/v1/task/q.0.0").status, 405);
}

TEST_F(TaskHttpTest, MismatchedTaskIdRejected) {
  auto plan = Plan("SELECT count(*) FROM nation");
  ASSERT_TRUE(plan.ok());
  auto create = MakeCreate(*plan, plan->root_id, "q1");
  ASSERT_TRUE(create.ok());
  // Path says a different task than the spec.
  EXPECT_EQ(Call("POST", "/v1/task/other.9.9",
                 create->ToJson().Serialize())
                .status,
            400);
}

TEST_F(TaskHttpTest, CreateRunsToFinishedAndDuplicateCreateIsIdempotent) {
  auto plan = Plan("SELECT count(*) FROM nation");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // Single-worker plan: create every fragment's task so remote sources
  // have producers; scan fragments need their splits closed out.
  for (const auto& fragment : plan->fragments) {
    auto create = MakeCreate(*plan, fragment.id, "q2");
    ASSERT_TRUE(create.ok());
    std::string task_id = MakeTaskId("q2", fragment.id, 0);
    HttpResponse response = Call("POST", "/v1/task/" + task_id,
                                 create->ToJson().Serialize());
    ASSERT_EQ(response.status, 200) << response.body;
  }
  // Feed splits the way the coordinator's scheduling loop does: enumerate
  // from the connector, serialize, POST them as updates, close the stream.
  auto connector = catalog_->Get("tpch");
  ASSERT_TRUE(connector.ok());
  for (const auto& fragment : plan->fragments) {
    std::vector<std::shared_ptr<const TableScanNode>> scans;
    std::function<void(const PlanNodePtr&)> walk =
        [&](const PlanNodePtr& node) {
          if (node->kind() == PlanNodeKind::kTableScan) {
            scans.push_back(
                std::static_pointer_cast<const TableScanNode>(node));
          }
          for (const auto& c : node->children()) walk(c);
        };
    walk(fragment.root);
    if (scans.empty()) continue;
    std::string task_id = MakeTaskId("q2", fragment.id, 0);
    for (const auto& scan : scans) {
      ScanSpec spec;
      spec.table = scan->table();
      spec.layout_id = scan->layout_id();
      spec.columns = scan->columns();
      spec.predicates = scan->predicates();
      spec.num_workers = 1;
      auto source = (*connector)->GetSplits(spec);
      ASSERT_TRUE(source.ok());
      TaskUpdateRequest update;
      for (;;) {
        auto batch = (*source)->NextBatch(32);
        ASSERT_TRUE(batch.ok());
        if (batch->empty()) break;
        for (const auto& split : *batch) {
          auto serialized = (*connector)->SerializeSplit(*split);
          ASSERT_TRUE(serialized.ok()) << serialized.status().ToString();
          update.splits[scan->id()].push_back(*serialized);
        }
      }
      update.no_more_splits.push_back(scan->id());
      HttpResponse response = Call("POST", "/v1/task/" + task_id,
                                   update.ToJson().Serialize());
      ASSERT_EQ(response.status, 200) << response.body;
    }
  }
  // Every task reaches FINISHED (long-poll drives the wait).
  for (const auto& fragment : plan->fragments) {
    std::string task_id = MakeTaskId("q2", fragment.id, 0);
    TaskState state = TaskState::kRunning;
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    int64_t since = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      HttpResponse response =
          Call("GET", "/v1/task/" + task_id + "/status?since=" +
                          std::to_string(since) + "&wait=200000");
      ASSERT_EQ(response.status, 200) << response.body;
      auto parsed = TaskStatusResponse::FromJson(*Json::Parse(response.body));
      ASSERT_TRUE(parsed.ok());
      state = parsed->state;
      since = parsed->version;
      if (IsTerminalTaskState(state)) break;
    }
    EXPECT_EQ(state, TaskState::kFinished)
        << task_id << " in " << TaskStateToString(state);
  }

  // Re-POSTing the create of a finished task is idempotent: it answers
  // with the task's current status instead of double-running it.
  const PlanFragment& root =
      plan->fragments[static_cast<size_t>(plan->root_id)];
  auto create = MakeCreate(*plan, root.id, "q2");
  ASSERT_TRUE(create.ok());
  std::string root_id = MakeTaskId("q2", root.id, 0);
  HttpResponse dup =
      Call("POST", "/v1/task/" + root_id, create->ToJson().Serialize());
  ASSERT_EQ(dup.status, 200);
  auto dup_status = TaskStatusResponse::FromJson(*Json::Parse(dup.body));
  ASSERT_TRUE(dup_status.ok());
  EXPECT_EQ(dup_status->state, TaskState::kFinished);

  // DELETE of a finished task retires it; afterwards it is unknown, and
  // the worker leaks no task entries or exchange buffers.
  for (const auto& fragment : plan->fragments) {
    std::string task_id = MakeTaskId("q2", fragment.id, 0);
    EXPECT_EQ(Call("DELETE", "/v1/task/" + task_id).status, 200);
    EXPECT_EQ(Call("GET", "/v1/task/" + task_id + "/status").status, 404);
  }
  EXPECT_EQ(runtime_->task_manager().active_tasks(), 0);
  EXPECT_EQ(runtime_->exchange().TotalBufferedBytes(), 0);
}

TEST_F(TaskHttpTest, LongPollTimesOutThenWakesOnChange) {
  auto plan = Plan("SELECT count(*) FROM nation");
  ASSERT_TRUE(plan.ok());
  // Create only the leaf scan fragment's task: without splits it idles in
  // RUNNING, which is exactly what a long-poll needs.
  int leaf = -1;
  for (const auto& fragment : plan->fragments) {
    if (fragment.partitioning == PartitioningKind::kSource) leaf = fragment.id;
  }
  ASSERT_GE(leaf, 0);
  auto create = MakeCreate(*plan, leaf, "q3");
  ASSERT_TRUE(create.ok());
  std::string task_id = MakeTaskId("q3", leaf, 0);
  ASSERT_EQ(
      Call("POST", "/v1/task/" + task_id, create->ToJson().Serialize())
          .status,
      200);

  // since = current version, short wait: the poll must time out (~wait)
  // and report the same version.
  HttpResponse first = Call("GET", "/v1/task/" + task_id + "/status");
  ASSERT_EQ(first.status, 200);
  int64_t version =
      (*TaskStatusResponse::FromJson(*Json::Parse(first.body))).version;
  auto start = std::chrono::steady_clock::now();
  HttpResponse timed_out =
      Call("GET", "/v1/task/" + task_id + "/status?since=" +
                      std::to_string(version) + "&wait=100000");
  auto waited_micros = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  ASSERT_EQ(timed_out.status, 200);
  EXPECT_GE(waited_micros, 80'000);
  EXPECT_EQ((*TaskStatusResponse::FromJson(*Json::Parse(timed_out.body)))
                .version,
            version);

  // A poll in flight wakes promptly when the task changes state (DELETE
  // cancels it and bumps the version).
  std::thread poker([this, task_id] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    Call("DELETE", "/v1/task/" + task_id);
  });
  start = std::chrono::steady_clock::now();
  HttpResponse woken =
      Call("GET", "/v1/task/" + task_id + "/status?since=" +
                      std::to_string(version) + "&wait=10000000");
  auto woke_micros = std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  poker.join();
  ASSERT_EQ(woken.status, 200);
  EXPECT_LT(woke_micros, 5'000'000);
  auto woken_status = TaskStatusResponse::FromJson(*Json::Parse(woken.body));
  ASSERT_TRUE(woken_status.ok());
  EXPECT_GT(woken_status->version, version);
}

TEST_F(TaskHttpTest, PollDuringShutdownReturnsPromptly) {
  auto plan = Plan("SELECT count(*) FROM nation");
  ASSERT_TRUE(plan.ok());
  int leaf = -1;
  for (const auto& fragment : plan->fragments) {
    if (fragment.partitioning == PartitioningKind::kSource) leaf = fragment.id;
  }
  ASSERT_GE(leaf, 0);
  auto create = MakeCreate(*plan, leaf, "q4");
  ASSERT_TRUE(create.ok());
  std::string task_id = MakeTaskId("q4", leaf, 0);
  ASSERT_EQ(
      Call("POST", "/v1/task/" + task_id, create->ToJson().Serialize())
          .status,
      200);

  // Park a long-poll, then stop the runtime: the ISSUE 6 teardown order
  // (manager shutdown wakes pollers BEFORE the HTTP services and executor
  // are torn down) means the poll returns quickly instead of hanging or
  // touching freed state.
  std::atomic<bool> poll_returned{false};
  std::thread poller([&] {
    Call("GET", "/v1/task/" + task_id + "/status?since=999&wait=30000000");
    poll_returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto start = std::chrono::steady_clock::now();
  runtime_->Stop();
  poller.join();
  auto stop_micros = std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  EXPECT_TRUE(poll_returned.load());
  EXPECT_LT(stop_micros, 10'000'000);
}

TEST_F(TaskHttpTest, ServiceFaultPointSurfacesAs500) {
  FaultSpec spec;
  spec.error = Status::Internal("injected task service failure");
  FaultInjection::Instance().Arm("worker.task_service", spec);
  HttpResponse response = Call("GET", "/v1/info");
  EXPECT_EQ(response.status, 500);
  FaultInjection::Instance().DisarmAll();
  EXPECT_EQ(Call("GET", "/v1/info").status, 200);
}

TEST_F(TaskHttpTest, InfoReportsWorkerIdentity) {
  HttpResponse response = Call("GET", "/v1/info");
  ASSERT_EQ(response.status, 200);
  auto info = NodeInfo::FromJson(*Json::Parse(response.body));
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->node_id, "worker-0");
  EXPECT_EQ(info->state, "ACTIVE");
  EXPECT_EQ(info->active_tasks, 0);
}

}  // namespace
}  // namespace presto
