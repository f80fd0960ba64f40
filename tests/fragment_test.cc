#include <gtest/gtest.h>

#include "connectors/memcon/memory_connector.h"
#include "connectors/raptor/raptor_connector.h"
#include "fragment/fragmenter.h"
#include "metadata/metadata_snapshot.h"
#include "optimizer/optimizer.h"
#include "plan/planner.h"
#include "sql/parser.h"
#include "vector/block_builder.h"

namespace presto {
namespace {

class FragmentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto mem = std::make_shared<MemoryConnector>("memory");
    RowSchema t;
    t.Add("a", TypeKind::kBigint);
    t.Add("b", TypeKind::kBigint);
    std::vector<int64_t> a, b;
    for (int64_t i = 0; i < 100; ++i) {
      a.push_back(i);
      b.push_back(i % 10);
    }
    ASSERT_TRUE(
        mem->CreateTable("t", t, {Page({MakeBigintBlock(a),
                                        MakeBigintBlock(b)})})
            .ok());
    ASSERT_TRUE(
        mem->CreateTable("u", t, {Page({MakeBigintBlock(a),
                                        MakeBigintBlock(b)})})
            .ok());
    catalog_.Register(mem);

    auto raptor = std::make_shared<RaptorConnector>("raptor");
    ASSERT_TRUE(raptor->CreateTable("rt", t, "a", 4).ok());
    ASSERT_TRUE(raptor->CreateTable("ru", t, "a", 4).ok());
    std::vector<Page> pages = {Page({MakeBigintBlock(a),
                                     MakeBigintBlock(b)})};
    ASSERT_TRUE(raptor->LoadTable("rt", pages).ok());
    ASSERT_TRUE(raptor->LoadTable("ru", pages).ok());
    catalog_.Register(raptor);
  }

  Result<FragmentedPlan> Fragment(const std::string& sql) {
    PRESTO_ASSIGN_OR_RETURN(sql::StatementPtr stmt,
                            sql::ParseStatement(sql));
    Planner planner(&catalog_);
    PRESTO_ASSIGN_OR_RETURN(PlanNodePtr plan, planner.Plan(*stmt));
    MetadataSnapshot snapshot(&catalog_);
    Optimizer optimizer(&snapshot);
    PRESTO_ASSIGN_OR_RETURN(plan, optimizer.Optimize(std::move(plan)));
    Fragmenter fragmenter;
    return fragmenter.Fragment(plan);
  }

  static int Count(const FragmentedPlan& plan, PartitioningKind kind) {
    int n = 0;
    for (const auto& f : plan.fragments) {
      if (f.partitioning == kind) ++n;
    }
    return n;
  }

  Catalog catalog_;
};

TEST_F(FragmentTest, SimpleScanHasSourceAndOutputFragments) {
  auto plan = Fragment("SELECT a FROM memory.t WHERE a > 5");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->fragments.size(), 2u);
  EXPECT_EQ(plan->fragments[plan->root_id].partitioning,
            PartitioningKind::kSingle);
  EXPECT_EQ(Count(*plan, PartitioningKind::kSource), 1);
  // Source fragment routes to the root via gather.
  for (const auto& f : plan->fragments) {
    if (f.partitioning == PartitioningKind::kSource) {
      EXPECT_EQ(f.output_kind, ExchangeKind::kGather);
      EXPECT_EQ(f.consumer, plan->root_id);
    }
  }
}

TEST_F(FragmentTest, GroupByBecomesPartialFinal) {
  auto plan = Fragment("SELECT b, count(*) FROM memory.t GROUP BY b");
  ASSERT_TRUE(plan.ok());
  std::string text = plan->ToString();
  EXPECT_NE(text.find("Aggregate(Partial)"), std::string::npos);
  EXPECT_NE(text.find("Aggregate(Final)"), std::string::npos);
  EXPECT_EQ(Count(*plan, PartitioningKind::kHash), 1);
}

TEST_F(FragmentTest, GlobalAggGathersToSingle) {
  auto plan = Fragment("SELECT count(*) FROM memory.t");
  ASSERT_TRUE(plan.ok());
  std::string text = plan->ToString();
  EXPECT_NE(text.find("Aggregate(Partial)"), std::string::npos);
  // Final aggregation runs in a single-task fragment behind a gather.
  EXPECT_EQ(Count(*plan, PartitioningKind::kHash), 0);
}

TEST_F(FragmentTest, PartitionedJoinRepartitionsBothSides) {
  auto plan = Fragment(
      "SELECT count(*) FROM memory.t JOIN memory.u ON t.a = u.a");
  ASSERT_TRUE(plan.ok());
  int repartitions = 0;
  for (const auto& f : plan->fragments) {
    if (f.output_kind == ExchangeKind::kRepartition) ++repartitions;
  }
  // The small build side becomes broadcast under CBO; force count via text.
  std::string text = plan->ToString();
  bool broadcast = text.find("broadcast") != std::string::npos;
  EXPECT_TRUE(repartitions == 2 || broadcast) << text;
}

TEST_F(FragmentTest, ColocatedJoinSharesOneFragment) {
  auto plan = Fragment(
      "SELECT count(*) FROM raptor.rt JOIN raptor.ru ON rt.a = ru.a");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(Count(*plan, PartitioningKind::kColocated), 1);
  std::string text = plan->ToString();
  EXPECT_EQ(text.find("repartition"), std::string::npos) << text;
  // Both scans appear in the colocated fragment.
  for (const auto& f : plan->fragments) {
    if (f.partitioning == PartitioningKind::kColocated) {
      std::string ftext = PlanToString(*f.root);
      EXPECT_NE(ftext.find("raptor.rt"), std::string::npos);
      EXPECT_NE(ftext.find("raptor.ru"), std::string::npos);
    }
  }
}

TEST_F(FragmentTest, AggregationOnBucketColumnElidesShuffle) {
  auto plan = Fragment(
      "SELECT rt.a, count(*) FROM raptor.rt JOIN raptor.ru ON rt.a = ru.a "
      "GROUP BY rt.a");
  ASSERT_TRUE(plan.ok());
  std::string text = plan->ToString();
  // Single-step aggregation inside the colocated fragment: no
  // partial/final pair, no repartition.
  EXPECT_EQ(text.find("Aggregate(Partial)"), std::string::npos) << text;
  EXPECT_NE(text.find("Aggregate(Single)"), std::string::npos) << text;
  EXPECT_EQ(text.find("repartition"), std::string::npos) << text;
}

TEST_F(FragmentTest, TopNSplitsIntoPartialFinal) {
  auto plan = Fragment("SELECT a FROM memory.t ORDER BY a LIMIT 5");
  ASSERT_TRUE(plan.ok());
  std::string text = plan->ToString();
  EXPECT_NE(text.find("TopN(Partial)"), std::string::npos);
  EXPECT_NE(text.find("TopN["), std::string::npos);
}

TEST_F(FragmentTest, LimitSplitsIntoPartialFinal) {
  auto plan = Fragment("SELECT a FROM memory.t LIMIT 7");
  ASSERT_TRUE(plan.ok());
  std::string text = plan->ToString();
  EXPECT_NE(text.find("Limit(Partial)"), std::string::npos);
}

TEST_F(FragmentTest, CtasWriterStageIsRoundRobin) {
  auto plan = Fragment("CREATE TABLE memory.out AS SELECT a FROM memory.t");
  ASSERT_TRUE(plan.ok());
  bool found = false;
  for (const auto& f : plan->fragments) {
    if (f.output_kind == ExchangeKind::kRoundRobin) found = true;
  }
  EXPECT_TRUE(found) << plan->ToString();
}

TEST_F(FragmentTest, BuildDependenciesRecorded) {
  auto plan = Fragment(
      "SELECT count(*) FROM memory.t JOIN memory.u ON t.a = u.a");
  ASSERT_TRUE(plan.ok());
  // The fragment containing the join must list the build-side producer(s)
  // as phased-scheduling dependencies.
  bool any_deps = false;
  for (const auto& f : plan->fragments) {
    if (!f.build_dependencies.empty()) any_deps = true;
  }
  EXPECT_TRUE(any_deps) << plan->ToString();
}

TEST_F(FragmentTest, WindowRepartitionsOnPartitionKeys) {
  auto plan = Fragment(
      "SELECT a, row_number() OVER (PARTITION BY b ORDER BY a) FROM "
      "memory.t");
  ASSERT_TRUE(plan.ok());
  std::string text = plan->ToString();
  EXPECT_NE(text.find("Window"), std::string::npos);
  EXPECT_NE(text.find("repartition"), std::string::npos) << text;
}

}  // namespace
}  // namespace presto
