// Unit tests for the task-recovery building blocks: split-target
// selection around dead workers, the restart-set fixpoint, the liveness
// tracker's first-heartbeat grace, and the heartbeat sender's RTT
// reporting — plus the straggler candidate selection that speculation
// builds on, and the SlotTable transitions both policies share,
// driven here through stub clients without HTTP. The end-to-end kill -9
// recovery and speculation paths live in process_cluster_test.cc; these
// tests pin the pieces in isolation.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exchange/http/http_server.h"
#include "schedule/coordinator.h"
#include "schedule/slot_table.h"
#include "schedule/task_recovery.h"
#include "worker/liveness.h"
#include "worker/task_client.h"

namespace presto {
namespace {

// A TaskClient stub exposing what ChooseSplitTarget consumes (the hosting
// worker's liveness and an optional reported queue depth) and counting
// what the SlotTable transitions send it. `log` keeps the split and
// no-more-splits deliveries in order.
class StubTaskClient final : public TaskClient {
 public:
  StubTaskClient(bool alive, std::optional<size_t> queue_size)
      : alive_(alive), queue_size_(queue_size) {}

  std::vector<std::string> log;
  int add_splits = 0;
  int no_more_splits = 0;
  int aborts = 0;
  int superseded = 0;
  bool lost = false;  // worker_lost() verdict

  const TaskSpec& spec() const override { return spec_; }
  Status Launch(std::function<void(Status)>) override {
    return Status::OK();
  }
  std::optional<size_t> SplitQueueSize(int) const override {
    return queue_size_;
  }
  void AddSplit(int, const SplitPtr& split, Connector*) override {
    ++add_splits;
    log.push_back("split " + split->ToString());
  }
  void NoMoreSplits(int node_id) override {
    ++no_more_splits;
    log.push_back("no_more " + std::to_string(node_id));
  }
  Status FlushSplits() override { return Status::OK(); }
  double OutputUtilization() const override { return 0.0; }
  void SetActiveWriters(int) override {}
  TaskStats CollectStats() const override { return {}; }
  int64_t cpu_nanos() const override { return 0; }
  int64_t peak_user_memory_bytes() const override { return 0; }
  bool worker_alive() const override { return alive_; }
  bool worker_lost() const override { return lost; }
  void MarkSuperseded() override { ++superseded; }
  void Abort() override { ++aborts; }
  void ReleaseResources() override {}

 private:
  TaskSpec spec_;
  bool alive_;
  std::optional<size_t> queue_size_;
};

std::shared_ptr<TaskClient> Stub(bool alive,
                                 std::optional<size_t> queue_size) {
  return std::make_shared<StubTaskClient>(alive, queue_size);
}

TEST(ChooseSplitTargetTest, PicksShortestReportedQueue) {
  std::vector<std::shared_ptr<TaskClient>> tasks = {
      Stub(true, 5), Stub(true, 2), Stub(true, 9)};
  auto target = ChooseSplitTarget(tasks, /*node_id=*/0);
  ASSERT_TRUE(target.ok());
  EXPECT_EQ(*target, 1);
}

// Regression (ISSUE 7): with every queue size unreported, the old code left
// `best` at 0 and silently funneled splits to task 0 even when its worker
// was dead. A dead task must never be chosen.
TEST(ChooseSplitTargetTest, NeverPicksTaskOnDeadWorker) {
  std::vector<std::shared_ptr<TaskClient>> tasks = {
      Stub(false, std::nullopt), Stub(true, std::nullopt)};
  auto target = ChooseSplitTarget(tasks, /*node_id=*/0);
  ASSERT_TRUE(target.ok());
  EXPECT_EQ(*target, 1);

  // Dead task 0 reporting a tempting queue size must still lose.
  tasks = {Stub(false, 0), Stub(true, 100)};
  target = ChooseSplitTarget(tasks, /*node_id=*/0);
  ASSERT_TRUE(target.ok());
  EXPECT_EQ(*target, 1);
}

TEST(ChooseSplitTargetTest, FailsFastWhenEveryWorkerIsDead) {
  std::vector<std::shared_ptr<TaskClient>> tasks = {
      Stub(false, 1), Stub(false, std::nullopt)};
  auto target = ChooseSplitTarget(tasks, /*node_id=*/3);
  ASSERT_FALSE(target.ok());
  EXPECT_EQ(target.status().code(), StatusCode::kIOError);
}

TEST(ChooseSplitTargetTest, UnreportedQueueOnlyServesAsFallback) {
  // Task 1 has not reported a depth yet; task 2 has. The reported depth
  // wins, the unreported task is only a last resort.
  std::vector<std::shared_ptr<TaskClient>> tasks = {
      Stub(false, std::nullopt), Stub(true, std::nullopt), Stub(true, 7)};
  auto target = ChooseSplitTarget(tasks, /*node_id=*/0);
  ASSERT_TRUE(target.ok());
  EXPECT_EQ(*target, 2);
}

// ---- ComputeRestartSet ----
//
// Fragment graph used below: fragment 1 (2 tasks) feeds fragment 0 (the
// root, 1 task). inputs_of[0] = {1}.

TEST(ComputeRestartSetTest, DeadSlotAndItsConsumersRestart) {
  std::vector<std::vector<int>> placement = {{0}, {0, 1}};
  std::vector<std::vector<bool>> finished = {{false}, {false, false}};
  std::vector<std::vector<int>> inputs_of = {{1}, {}};
  auto restart = ComputeRestartSet(placement, finished, inputs_of,
                                   /*root_fragment=*/0, /*root_needed=*/true,
                                   /*dead_worker=*/1);
  // (1,1) died; the unfinished root consuming it is collateral. (1,0) is
  // alive, unfinished, and has no restarting inputs — it keeps running.
  ASSERT_EQ(restart.size(), 2u);
  EXPECT_EQ(restart[0], std::make_pair(0, 0));
  EXPECT_EQ(restart[1], std::make_pair(1, 1));
}

TEST(ComputeRestartSetTest, FinishedConsumersPruneDeadProducers) {
  // Every consumer of fragment 1 finished and the root stream is done:
  // nobody needs the dead worker's output, so nothing restarts.
  std::vector<std::vector<int>> placement = {{0}, {0, 1}};
  std::vector<std::vector<bool>> finished = {{true}, {true, false}};
  std::vector<std::vector<int>> inputs_of = {{1}, {}};
  auto restart = ComputeRestartSet(placement, finished, inputs_of,
                                   /*root_fragment=*/0, /*root_needed=*/false,
                                   /*dead_worker=*/1);
  EXPECT_TRUE(restart.empty());
}

TEST(ComputeRestartSetTest, FinishedVictimRestartsWhenOutputStillNeeded) {
  // The dead worker's task had FINISHED — but its retained replay frames
  // died with the process, and the root still needs them.
  std::vector<std::vector<int>> placement = {{0}, {0, 1}};
  std::vector<std::vector<bool>> finished = {{false}, {false, true}};
  std::vector<std::vector<int>> inputs_of = {{1}, {}};
  auto restart = ComputeRestartSet(placement, finished, inputs_of,
                                   /*root_fragment=*/0, /*root_needed=*/true,
                                   /*dead_worker=*/1);
  ASSERT_EQ(restart.size(), 2u);
  EXPECT_EQ(restart[0], std::make_pair(0, 0));
  EXPECT_EQ(restart[1], std::make_pair(1, 1));
}

TEST(ComputeRestartSetTest, CollateralPropagatesTransitively) {
  // Chain: 2 -> 1 -> 0(root). The dead leaf drags every unfinished
  // downstream consumer with it, across two hops.
  std::vector<std::vector<int>> placement = {{0}, {0}, {1}};
  std::vector<std::vector<bool>> finished = {{false}, {false}, {false}};
  std::vector<std::vector<int>> inputs_of = {{1}, {2}, {}};
  auto restart = ComputeRestartSet(placement, finished, inputs_of,
                                   /*root_fragment=*/0, /*root_needed=*/true,
                                   /*dead_worker=*/1);
  ASSERT_EQ(restart.size(), 3u);
  EXPECT_EQ(restart[0], std::make_pair(0, 0));
  EXPECT_EQ(restart[1], std::make_pair(1, 0));
  EXPECT_EQ(restart[2], std::make_pair(2, 0));
}

TEST(ComputeRestartSetTest, PromotedSlotSeedsConsumerClosure) {
  // Chain 2 -> 1 -> 0(root), fragment 1 with one finished and one running
  // task. Promoting a replica of (2,0) restarts every unfinished
  // transitive consumer — the same rule (b) recovery applies — and leaves
  // the promoted slot's sibling and the finished consumer alone.
  std::vector<std::vector<bool>> finished = {{false}, {true, false},
                                             {false, false}};
  std::vector<std::vector<int>> inputs_of = {{1}, {2}, {}};
  std::vector<std::vector<bool>> marked = {{false}, {false, false},
                                           {true, false}};
  auto closure = AddConsumerClosure(finished, inputs_of, &marked);
  ASSERT_EQ(closure.size(), 3u);
  EXPECT_EQ(closure[0], std::make_pair(0, 0));
  EXPECT_EQ(closure[1], std::make_pair(1, 1));
  EXPECT_EQ(closure[2], std::make_pair(2, 0));  // the seed itself
}

// ---- PickStragglers (ISSUE 9) ----

TaskProgressSample Sample(int fragment, int task, double progress,
                          int64_t stall_micros, bool speculatable = true) {
  TaskProgressSample sample;
  sample.fragment = fragment;
  sample.task = task;
  sample.progress = progress;
  sample.stall_micros = stall_micros;
  sample.speculatable = speculatable;
  return sample;
}

TEST(PickStragglersTest, FlagsClearStragglerSlowestFirst) {
  SpeculationPolicy policy;  // quantile 0.5, min_samples 2, budget 2
  std::vector<TaskProgressSample> samples = {
      Sample(0, 0, 100, 0), Sample(0, 1, 100, 0), Sample(0, 2, 3, 50'000)};
  auto picked = PickStragglers(samples, policy, /*live_workers=*/3);
  ASSERT_EQ(picked.size(), 1u);
  EXPECT_EQ(picked[0], std::make_pair(0, 2));
}

TEST(PickStragglersTest, FewerThanMinSamplesSelectsNobody) {
  SpeculationPolicy policy;
  policy.min_samples = 3;
  // Only two samples in the fragment: no distribution to judge against.
  std::vector<TaskProgressSample> samples = {Sample(0, 0, 100, 0),
                                             Sample(0, 1, 0, 50'000)};
  EXPECT_TRUE(PickStragglers(samples, policy, 3).empty());
}

TEST(PickStragglersTest, AllEqualProgressSelectsNobody) {
  // Startup: everyone at zero must not look like everyone straggling —
  // the strict-below-threshold rule keeps an all-equal fragment quiet.
  SpeculationPolicy policy;
  std::vector<TaskProgressSample> samples = {
      Sample(0, 0, 0, 50'000), Sample(0, 1, 0, 50'000),
      Sample(0, 2, 0, 50'000)};
  EXPECT_TRUE(PickStragglers(samples, policy, 3).empty());
}

TEST(PickStragglersTest, SingleLiveWorkerSelectsNobody) {
  // A replica must run on a DIFFERENT worker; with one live worker there
  // is nowhere to put it.
  SpeculationPolicy policy;
  std::vector<TaskProgressSample> samples = {Sample(0, 0, 100, 0),
                                             Sample(0, 1, 0, 50'000)};
  EXPECT_TRUE(PickStragglers(samples, policy, /*live_workers=*/1).empty());
}

TEST(PickStragglersTest, BudgetClampsToSlowestCandidates) {
  SpeculationPolicy policy;
  policy.max_speculative_tasks = 2;
  policy.quantile = 0.9;
  std::vector<TaskProgressSample> samples = {
      Sample(0, 0, 100, 0),     Sample(0, 1, 5, 50'000),
      Sample(0, 2, 1, 50'000),  Sample(0, 3, 3, 50'000),
      Sample(0, 4, 90, 0)};
  auto picked = PickStragglers(samples, policy, 3);
  // Three tasks sit below the 90th-percentile threshold; the budget keeps
  // the two slowest, slowest first.
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_EQ(picked[0], std::make_pair(0, 2));
  EXPECT_EQ(picked[1], std::make_pair(0, 3));
}

TEST(PickStragglersTest, NonSpeculatableSlotAnchorsButIsNeverPicked) {
  // A slot that already has a racing replica (speculatable = false) must
  // never get a second one — but its progress still shapes the quantile,
  // and a FINISHED sibling's full progress still exposes the straggler.
  SpeculationPolicy policy;
  std::vector<TaskProgressSample> samples = {
      Sample(0, 0, 0, 50'000, /*speculatable=*/false),
      Sample(0, 1, 100, 0, /*speculatable=*/false)};
  EXPECT_TRUE(PickStragglers(samples, policy, 3).empty());

  samples = {Sample(0, 0, 0, 50'000, /*speculatable=*/true),
             Sample(0, 1, 100, 0, /*speculatable=*/false)};
  auto picked = PickStragglers(samples, policy, 3);
  ASSERT_EQ(picked.size(), 1u);
  EXPECT_EQ(picked[0], std::make_pair(0, 0));
}

TEST(PickStragglersTest, StallBelowMinimumIsNotFlagged) {
  SpeculationPolicy policy;
  policy.min_stall_micros = 100'000;
  std::vector<TaskProgressSample> samples = {Sample(0, 0, 100, 0),
                                             Sample(0, 1, 0, 99'999)};
  EXPECT_TRUE(PickStragglers(samples, policy, 3).empty());
  samples[1].stall_micros = 100'000;
  auto picked = PickStragglers(samples, policy, 3);
  ASSERT_EQ(picked.size(), 1u);
  EXPECT_EQ(picked[0], std::make_pair(0, 1));
}

TEST(PickStragglersTest, FragmentsAreJudgedIndependently) {
  // Fragment 1's fast tasks must not make fragment 0's slow-but-uniform
  // tasks look like stragglers: the quantile is per fragment.
  SpeculationPolicy policy;
  policy.max_speculative_tasks = 4;
  std::vector<TaskProgressSample> samples = {
      Sample(0, 0, 2, 50'000),  Sample(0, 1, 2, 50'000),
      Sample(1, 0, 1000, 0),    Sample(1, 1, 7, 50'000)};
  auto picked = PickStragglers(samples, policy, 3);
  ASSERT_EQ(picked.size(), 1u);
  EXPECT_EQ(picked[0], std::make_pair(1, 1));
}

// ---- SlotTable transitions ----
//
// Fragment 1 (tasks on workers 0 and 1) feeds the root fragment 0 (one
// task on worker 0). Retry budget 1, so the table journals. Every client
// the table creates is a StubTaskClient.

class TestSplit final : public Split {
 public:
  explicit TestSplit(int id) : id_(id) {}
  std::string ToString() const override { return "s" + std::to_string(id_); }

 private:
  int id_;
};

constexpr int kScanNode = 7;

JournalEntry SplitEntry(int id) {
  return {kScanNode, std::make_shared<TestSplit>(id), nullptr};
}

JournalEntry NoMoreEntry() { return {kScanNode, nullptr, nullptr}; }

class SlotTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = std::make_unique<SlotTable>(
        std::vector<std::vector<int>>{{0}, {0, 1}},
        std::vector<std::vector<int>>{{1}, {}}, /*root_fragment=*/0,
        /*max_retries=*/1, [](int, int, int, int) {
          return std::make_shared<StubTaskClient>(true, std::nullopt);
        });
    for (auto [f, t] : {std::pair{0, 0}, {1, 0}, {1, 1}}) {
      table_->Install(f, t,
                      std::make_shared<StubTaskClient>(true, std::nullopt));
    }
  }

  StubTaskClient& Current(int f, int t) {
    return static_cast<StubTaskClient&>(*table_->slot(f, t).current.client);
  }
  StubTaskClient& Replica(int f, int t) {
    return static_cast<StubTaskClient&>(*table_->slot(f, t).replica->client);
  }
  // Races a replica against (f, t) and lets it finish first.
  int WinReplica(int f, int t) {
    auto launches = table_->Speculate({{f, t}}, {0, 1});
    EXPECT_EQ(launches.size(), 1u);
    table_->Replay(f, t, launches[0].generation);
    EXPECT_EQ(table_->Settle(f, t, launches[0].generation, Status::OK(),
                             /*live=*/true),
              SlotTable::Settled::kReplicaWon);
    return launches[0].generation;
  }
  SlotTable::Recovery RecoverWorker1(int generation = 0) {
    return table_->Recover(1, 1, generation, /*alive=*/{0},
                           /*root_needed=*/true, /*root_replayable=*/true);
  }

  std::unique_ptr<SlotTable> table_;
};

TEST_F(SlotTableTest, StaleGenerationSettleOnlyDropsTheCount) {
  ASSERT_EQ(RecoverWorker1().outcome,
            SlotTable::Recovery::Outcome::kRestarted);
  // Replacements of (1,1) and the collateral root joined the count.
  EXPECT_EQ(table_->outstanding(), 5);
  EXPECT_EQ(table_->Settle(1, 1, /*generation=*/0, Status::OK(), true),
            SlotTable::Settled::kStale);
  EXPECT_EQ(table_->outstanding(), 4);
  EXPECT_EQ(table_->slot(1, 1).state, SlotState::kRunning);
  EXPECT_EQ(table_->slot(1, 1).current.generation, 1);
  EXPECT_FALSE(table_->FragmentDone(1));
}

TEST_F(SlotTableTest, WorkerLossIsAbsorbedOnlyWithRetryBudget) {
  const Status lost = Status::IOError("worker 1 lost");
  Current(1, 1).lost = true;
  EXPECT_EQ(table_->Settle(1, 1, 0, lost, /*live=*/true),
            SlotTable::Settled::kAbsorbed);
  // The hold keeps the slot's place in the count.
  EXPECT_EQ(table_->outstanding(), 3);
  EXPECT_EQ(table_->slot(1, 1).state, SlotState::kRecovering);

  auto recovery = RecoverWorker1();
  ASSERT_EQ(recovery.outcome, SlotTable::Recovery::Outcome::kRestarted);
  EXPECT_EQ(table_->slot(1, 1).retries, 1);
  // The hold became the replacement's callback; only the root was added.
  EXPECT_EQ(table_->outstanding(), 4);

  // Budget spent: the replacement's own worker loss is counted, and the
  // coordinator fails the query with exactly this status.
  Current(1, 1).lost = true;
  EXPECT_EQ(table_->Settle(1, 1, 1, lost, /*live=*/true),
            SlotTable::Settled::kCounted);
  EXPECT_EQ(table_->slot(1, 1).state, SlotState::kFinished);
  // And a death verdict for a slot with no budget left restarts nothing.
  auto exhausted = table_->Recover(1, 0, 0, {1}, true, true);
  EXPECT_EQ(exhausted.outcome, SlotTable::Recovery::Outcome::kExhausted);
  EXPECT_EQ(table_->slot(1, 0).current.generation, 0);
  EXPECT_EQ(table_->outstanding(), 3);
}

TEST_F(SlotTableTest, RecoverChargesOnlySlotsOnTheDeadWorker) {
  StubTaskClient& old_leaf = Current(1, 1);
  StubTaskClient& old_root = Current(0, 0);
  auto recovery = RecoverWorker1();
  ASSERT_EQ(recovery.outcome, SlotTable::Recovery::Outcome::kRestarted);
  EXPECT_EQ(recovery.dead_worker, 1);
  EXPECT_TRUE(recovery.restarts_root);
  ASSERT_EQ(recovery.launches.size(), 2u);
  // The victim moves to a live worker and pays a retry.
  EXPECT_EQ(table_->slot(1, 1).current.worker, 0);
  EXPECT_EQ(table_->slot(1, 1).retries, 1);
  EXPECT_EQ(table_->slot(1, 1).current.generation, 1);
  // The collateral root restarts in place, free of charge.
  EXPECT_EQ(table_->slot(0, 0).current.worker, 0);
  EXPECT_EQ(table_->slot(0, 0).retries, 0);
  EXPECT_EQ(table_->slot(0, 0).current.generation, 1);
  // The live sibling is untouched.
  EXPECT_EQ(table_->slot(1, 0).current.generation, 0);
  EXPECT_EQ(old_leaf.superseded, 1);
  EXPECT_EQ(old_root.superseded, 1);
  // Fresh incarnations take live deliveries only after their replay.
  EXPECT_FALSE(table_->slot(1, 1).current.replayed);
}

TEST_F(SlotTableTest, SpeculateNeverTwiceNorOnTheOriginalsWorker) {
  // (1,1) lives on worker 1, the only live worker: no replica possible.
  EXPECT_TRUE(table_->Speculate({{1, 1}}, /*alive=*/{1}).empty());
  auto launches = table_->Speculate({{1, 0}}, {0, 1});
  ASSERT_EQ(launches.size(), 1u);
  EXPECT_EQ(table_->slot(1, 0).replica->worker, 1);
  EXPECT_EQ(table_->outstanding(), 4);
  EXPECT_TRUE(table_->Speculate({{1, 0}}, {0, 1}).empty());
  table_->Abandon(1, 0);
  EXPECT_TRUE(table_->Speculate({{1, 0}}, {0, 1}).empty());
  EXPECT_EQ(table_->replica_count(), 0);
}

TEST_F(SlotTableTest, PromoteIsRefusedForAFinishedSlot) {
  int generation = WinReplica(1, 0);
  EXPECT_EQ(table_->Settle(1, 0, 0, Status::OK(), true),
            SlotTable::Settled::kCounted);
  EXPECT_EQ(table_->Promote(1, 0, generation, true, true).outcome,
            SlotTable::Promotion::Outcome::kRefused);
  table_->Abandon(1, 0);
  EXPECT_EQ(table_->outstanding(), 2);
}

TEST_F(SlotTableTest, PromoteIsRefusedForARecoveringSlot) {
  int generation = WinReplica(1, 0);
  Current(1, 0).lost = true;
  EXPECT_EQ(table_->Settle(1, 0, 0, Status::IOError("lost"), true),
            SlotTable::Settled::kAbsorbed);
  EXPECT_EQ(table_->Promote(1, 0, generation, true, true).outcome,
            SlotTable::Promotion::Outcome::kRefused);
}

TEST_F(SlotTableTest, PromoteIsRefusedOnceTheRootDeliveredFrames) {
  int generation = WinReplica(1, 0);
  StubTaskClient& original = Current(1, 0);
  // The unfinished root consumes the promoted slot, so it would restart.
  EXPECT_EQ(table_->Promote(1, 0, generation, true,
                            /*root_replayable=*/false)
                .outcome,
            SlotTable::Promotion::Outcome::kRefused);
  auto promotion = table_->Promote(1, 0, generation, true, true);
  ASSERT_EQ(promotion.outcome, SlotTable::Promotion::Outcome::kPromoted);
  EXPECT_TRUE(promotion.restarts_root);
  ASSERT_EQ(promotion.launches.size(), 1u);
  EXPECT_EQ(promotion.launches[0].fragment, 0);
  EXPECT_EQ(original.aborts, 1);
  EXPECT_EQ(table_->slot(1, 0).current.generation, generation);
  EXPECT_EQ(table_->slot(1, 0).state, SlotState::kFinished);
  // A second decision on the same replica finds it gone.
  EXPECT_EQ(table_->Promote(1, 0, generation, true, true).outcome,
            SlotTable::Promotion::Outcome::kGone);
}

TEST_F(SlotTableTest, DischargeAllLeavesNoOutstandingCallbacks) {
  WinReplica(1, 0);                          // held win
  auto racing = table_->Speculate({{0, 0}}, {0, 1});  // still racing
  ASSERT_EQ(racing.size(), 1u);
  StubTaskClient& racing_replica = Replica(0, 0);
  Current(1, 1).lost = true;                 // absorbed hold
  ASSERT_EQ(table_->Settle(1, 1, 0, Status::IOError("lost"), true),
            SlotTable::Settled::kAbsorbed);

  table_->DischargeAll();
  EXPECT_EQ(table_->replica_count(), 0);
  EXPECT_EQ(racing_replica.aborts, 1);
  // Every incarnation still running settles its own callback.
  const Status cancelled = Status::Cancelled("query failed");
  EXPECT_EQ(table_->Settle(1, 0, 0, cancelled, false),
            SlotTable::Settled::kCounted);
  EXPECT_EQ(table_->Settle(0, 0, 0, cancelled, false),
            SlotTable::Settled::kCounted);
  EXPECT_EQ(table_->Settle(0, 0, racing[0].generation, cancelled, false),
            SlotTable::Settled::kStale);
  EXPECT_EQ(table_->outstanding(), 0);
}

// Regression: recovery and promotion used to share one pause flag for the
// split loop, and each cleared it on exit. An abandoned promotion could
// lower it while a recovery round sat between its client swap and its
// journal replay; the split loop then delivered a new split to the fresh
// replacement directly AND journaled it, so the replay sent it again. A
// fresh incarnation now takes live deliveries only once replayed.
TEST_F(SlotTableTest, AbandonedPromotionCannotDoubleDeliverIntoAReplay) {
  table_->Deliver(1, 0, SplitEntry(1));
  table_->Deliver(1, 1, SplitEntry(2));
  int generation = WinReplica(1, 0);

  // Worker 1 dies: (1,1) gets a replacement that is not replayed yet.
  auto recovery = RecoverWorker1();
  ASSERT_EQ(recovery.outcome, SlotTable::Recovery::Outcome::kRestarted);
  StubTaskClient& replacement = Current(1, 1);

  // The promotion is refused and abandoned meanwhile.
  ASSERT_EQ(table_->Promote(1, 0, generation, true, false).outcome,
            SlotTable::Promotion::Outcome::kRefused);
  table_->Abandon(1, 0);

  // The split loop keeps going: one more split, then the end marker.
  table_->Deliver(1, 1, SplitEntry(3));
  table_->Deliver(1, 0, NoMoreEntry());
  table_->Deliver(1, 1, NoMoreEntry());
  EXPECT_TRUE(replacement.log.empty());

  table_->Replay(1, 1, table_->slot(1, 1).current.generation);
  table_->Replay(1, 1, table_->slot(1, 1).current.generation);  // no-op
  std::vector<std::string> expected = {"split s2", "split s3",
                                       "no_more 7"};
  EXPECT_EQ(replacement.log, expected);
  EXPECT_EQ(replacement.add_splits, 2);
  EXPECT_EQ(replacement.no_more_splits, 1);
  EXPECT_EQ(Current(1, 0).log,
            (std::vector<std::string>{"split s1", "no_more 7"}));
}

// ---- WorkerLivenessTracker first-heartbeat grace ----

TEST(WorkerLivenessTest, UnregisteredWorkersStayPassive) {
  WorkerLivenessTracker tracker(/*timeout_micros=*/20'000);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_TRUE(tracker.IsAlive(0));
  EXPECT_TRUE(tracker.IsAlive(42));
}

TEST(WorkerLivenessTest, RegisteredWorkersPassiveUntilTrackerActivates) {
  // Registration alone must not start any death clock: a cluster whose
  // heartbeat wiring never comes up (in-process tests) must never expire.
  WorkerLivenessTracker tracker(/*timeout_micros=*/20'000);
  tracker.RegisterWorker(0);
  tracker.RegisterWorker(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_TRUE(tracker.IsAlive(0));
  EXPECT_TRUE(tracker.IsAlive(1));
}

// Regression (ISSUE 7): a worker killed before its very first heartbeat
// used to be immortal — IsAlive only consulted last-heartbeat times. Once
// heartbeats are demonstrably flowing (any worker beat), a registered
// worker that stays silent past the grace window is dead.
TEST(WorkerLivenessTest, NeverHeartbeatedWorkerDiesAfterGrace) {
  WorkerLivenessTracker tracker(/*timeout_micros=*/20'000);
  tracker.RegisterWorker(0);
  tracker.RegisterWorker(1);
  tracker.Heartbeat(0, /*rtt_micros=*/100);  // activates the tracker
  EXPECT_TRUE(tracker.IsAlive(1));           // inside the grace window
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_FALSE(tracker.IsAlive(1));
  EXPECT_FALSE(tracker.SeenHeartbeat(1));
}

TEST(WorkerLivenessTest, LateFirstHeartbeatRevives) {
  WorkerLivenessTracker tracker(/*timeout_micros=*/20'000);
  tracker.RegisterWorker(0);
  tracker.RegisterWorker(1);
  tracker.Heartbeat(0, 100);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  ASSERT_FALSE(tracker.IsAlive(1));
  tracker.Heartbeat(1, 100);  // better late than never
  EXPECT_TRUE(tracker.IsAlive(1));
}

TEST(WorkerLivenessTest, DeathListenerFiresForSilentRegisteredWorker) {
  WorkerLivenessTracker tracker(/*timeout_micros=*/20'000);
  tracker.RegisterWorker(0);
  tracker.RegisterWorker(1);

  std::mutex mu;
  std::vector<int> dead;
  int token = tracker.AddDeathListener([&](int worker) {
    std::lock_guard<std::mutex> lock(mu);
    dead.push_back(worker);
  });

  tracker.Heartbeat(0, 100);
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool saw_one = false;
  while (std::chrono::steady_clock::now() < deadline && !saw_one) {
    {
      std::lock_guard<std::mutex> lock(mu);
      for (int w : dead) saw_one = saw_one || w == 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  tracker.RemoveDeathListener(token);
  EXPECT_TRUE(saw_one);
}

// ---- HeartbeatSender ----

TEST(HeartbeatSenderTest, ReportsPositiveRttAfterFirstBeat) {
  // Regression (ISSUE 7): the first beat used to leave last_rtt_micros_
  // at 0 (and a sub-microsecond loopback round trip would keep it there),
  // so the coordinator never saw an RTT sample.
  HttpServer server([](const HttpRequest& request) {
    HttpResponse response;
    response.status = request.path == "/v1/heartbeat" ? 200 : 404;
    response.reason = response.status == 200 ? "OK" : "Not Found";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());

  HeartbeatSender sender(server.port(), /*worker_id=*/7,
                         /*interval_micros=*/20'000);
  sender.Start();
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline && sender.sent() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  sender.Stop();
  EXPECT_GE(sender.sent(), 2);
  EXPECT_GE(sender.last_rtt_micros(), 1);
  server.Stop();
}

TEST(HeartbeatSenderTest, NonPositiveIntervalFallsBackToDefault) {
  // Regression (ISSUE 7): interval 0 used to busy-spin the loop AND zero
  // the connect timeout (interval * 4), so every beat failed instantly.
  // With the fallback the first beat still goes out and succeeds.
  HttpServer server([](const HttpRequest&) {
    HttpResponse response;
    response.status = 200;
    response.reason = "OK";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());

  HeartbeatSender sender(server.port(), /*worker_id=*/7,
                         /*interval_micros=*/0);
  sender.Start();
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline && sender.sent() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  sender.Stop();
  EXPECT_GE(sender.sent(), 1);
  EXPECT_EQ(sender.failed(), 0);
  server.Stop();
}

}  // namespace
}  // namespace presto
