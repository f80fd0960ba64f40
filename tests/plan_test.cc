#include <gtest/gtest.h>

#include "connectors/memcon/memory_connector.h"
#include "metadata/metadata_snapshot.h"
#include "optimizer/optimizer.h"
#include "optimizer/stats_estimator.h"
#include "plan/plan_node.h"
#include "plan/planner.h"
#include "sql/parser.h"
#include "vector/block.h"

namespace presto {
namespace {

// Fixture: a memory catalog with orders/lineitem-style tables.
class PlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto mem = std::make_shared<MemoryConnector>("memory");
    // orders(orderkey BIGINT, custkey BIGINT, total DOUBLE, status VARCHAR)
    RowSchema orders;
    orders.Add("orderkey", TypeKind::kBigint);
    orders.Add("custkey", TypeKind::kBigint);
    orders.Add("total", TypeKind::kDouble);
    orders.Add("status", TypeKind::kVarchar);
    std::vector<int64_t> ok, ck;
    std::vector<double> tot;
    std::vector<std::string> st;
    for (int64_t i = 0; i < 1000; ++i) {
      ok.push_back(i);
      ck.push_back(i % 100);
      tot.push_back(static_cast<double>(i) * 1.5);
      st.push_back(i % 2 == 0 ? "O" : "F");
    }
    ASSERT_TRUE(mem->CreateTable(
                       "orders", orders,
                       {Page({MakeBigintBlock(ok), MakeBigintBlock(ck),
                              MakeDoubleBlock(tot), MakeVarcharBlock(st)})})
                    .ok());
    // lineitem(orderkey BIGINT, qty BIGINT, price DOUBLE, tax DOUBLE,
    //          discount DOUBLE)
    RowSchema lineitem;
    lineitem.Add("orderkey", TypeKind::kBigint);
    lineitem.Add("qty", TypeKind::kBigint);
    lineitem.Add("price", TypeKind::kDouble);
    lineitem.Add("tax", TypeKind::kDouble);
    lineitem.Add("discount", TypeKind::kDouble);
    std::vector<int64_t> lok, lqty;
    std::vector<double> lp, lt, ld;
    for (int64_t i = 0; i < 4000; ++i) {
      lok.push_back(i % 1000);
      lqty.push_back(i % 50);
      lp.push_back(static_cast<double>(i % 97));
      lt.push_back(0.05);
      ld.push_back(i % 10 == 0 ? 0.0 : 0.1);
    }
    ASSERT_TRUE(mem->CreateTable("lineitem", lineitem,
                                 {Page({MakeBigintBlock(lok),
                                        MakeBigintBlock(lqty),
                                        MakeDoubleBlock(lp),
                                        MakeDoubleBlock(lt),
                                        MakeDoubleBlock(ld)})})
                    .ok());
    // tiny nation table for broadcast decisions
    RowSchema nation;
    nation.Add("nationkey", TypeKind::kBigint);
    nation.Add("name", TypeKind::kVarchar);
    ASSERT_TRUE(
        mem->CreateTable("nation", nation,
                         {Page({MakeBigintBlock({0, 1, 2}),
                                MakeVarcharBlock({"us", "fr", "jp"})})})
            .ok());
    catalog_.Register(mem);
  }

  Result<PlanNodePtr> PlanSql(const std::string& sql) {
    auto stmt = sql::ParseStatement(sql);
    if (!stmt.ok()) return stmt.status();
    Planner planner(&catalog_);
    return planner.Plan(**stmt);
  }

  Result<PlanNodePtr> OptimizeSql(const std::string& sql,
                                  OptimizerOptions opts = {}) {
    auto plan = PlanSql(sql);
    if (!plan.ok()) return plan.status();
    MetadataSnapshot snapshot(&catalog_);
    Optimizer optimizer(&snapshot, opts);
    return optimizer.Optimize(*plan);
  }

  // Finds the first node of a kind in pre-order.
  static const PlanNode* Find(const PlanNode& node, PlanNodeKind kind) {
    if (node.kind() == kind) return &node;
    for (const auto& c : node.children()) {
      if (const auto* found = Find(*c, kind)) return found;
    }
    return nullptr;
  }

  static int Count(const PlanNode& node, PlanNodeKind kind) {
    int n = node.kind() == kind ? 1 : 0;
    for (const auto& c : node.children()) n += Count(*c, kind);
    return n;
  }

  Catalog catalog_;
};

TEST_F(PlanTest, SimpleSelectShape) {
  auto plan = PlanSql("SELECT orderkey, total FROM orders WHERE total > 10");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ((*plan)->kind(), PlanNodeKind::kOutput);
  EXPECT_NE(Find(**plan, PlanNodeKind::kFilter), nullptr);
  EXPECT_NE(Find(**plan, PlanNodeKind::kTableScan), nullptr);
  const auto& out = (*plan)->output();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.at(0).name, "orderkey");
  EXPECT_EQ(out.at(1).type, TypeKind::kDouble);
}

TEST_F(PlanTest, UnknownTableAndColumnFail) {
  EXPECT_FALSE(PlanSql("SELECT x FROM missing").ok());
  EXPECT_FALSE(PlanSql("SELECT missing_col FROM orders").ok());
  EXPECT_FALSE(PlanSql("SELECT orderkey FROM bogus.orders").ok());
}

TEST_F(PlanTest, AggregationShape) {
  auto plan = PlanSql(
      "SELECT custkey, sum(total) AS s, count(*) FROM orders "
      "GROUP BY custkey HAVING sum(total) > 100");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const auto* agg = Find(**plan, PlanNodeKind::kAggregate);
  ASSERT_NE(agg, nullptr);
  const auto& agg_node = static_cast<const AggregateNode&>(*agg);
  EXPECT_EQ(agg_node.group_keys().size(), 1u);
  EXPECT_EQ(agg_node.aggregates().size(), 2u);
  // HAVING becomes a filter above the aggregation.
  EXPECT_NE(Find(**plan, PlanNodeKind::kFilter), nullptr);
  EXPECT_EQ((*plan)->output().at(1).name, "s");
}

TEST_F(PlanTest, GroupByOrdinalAndExpression) {
  auto plan = PlanSql(
      "SELECT status, avg(total) FROM orders GROUP BY 1");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_FALSE(PlanSql("SELECT status FROM orders GROUP BY 5").ok());
  // Non-grouped column reference must fail.
  EXPECT_FALSE(
      PlanSql("SELECT custkey, sum(total) FROM orders GROUP BY status").ok());
}

TEST_F(PlanTest, JoinShape) {
  auto plan = PlanSql(
      "SELECT o.orderkey, sum(l.tax) FROM orders o "
      "LEFT JOIN lineitem l ON o.orderkey = l.orderkey "
      "WHERE o.total > 0 GROUP BY o.orderkey");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const auto* join = Find(**plan, PlanNodeKind::kJoin);
  ASSERT_NE(join, nullptr);
  const auto& join_node = static_cast<const JoinNode&>(*join);
  EXPECT_EQ(join_node.join_type(), sql::JoinType::kLeft);
  ASSERT_EQ(join_node.left_keys().size(), 1u);
}

TEST_F(PlanTest, DistinctBecomesAggregation) {
  auto plan = PlanSql("SELECT DISTINCT status FROM orders");
  ASSERT_TRUE(plan.ok());
  const auto* agg = Find(**plan, PlanNodeKind::kAggregate);
  ASSERT_NE(agg, nullptr);
  EXPECT_TRUE(static_cast<const AggregateNode&>(*agg).aggregates().empty());
}

TEST_F(PlanTest, UnionAllUnifiesTypes) {
  auto plan = PlanSql(
      "SELECT orderkey FROM orders UNION ALL SELECT price FROM lineitem");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const auto* u = Find(**plan, PlanNodeKind::kUnionAll);
  ASSERT_NE(u, nullptr);
  EXPECT_EQ(u->output().at(0).type, TypeKind::kDouble);
  EXPECT_FALSE(
      PlanSql("SELECT orderkey FROM orders UNION ALL SELECT status FROM orders")
          .ok());
}

TEST_F(PlanTest, OrderLimitBecomesTopN) {
  auto plan = PlanSql("SELECT orderkey FROM orders ORDER BY orderkey LIMIT 7");
  ASSERT_TRUE(plan.ok());
  const auto* topn = Find(**plan, PlanNodeKind::kTopN);
  ASSERT_NE(topn, nullptr);
  EXPECT_EQ(static_cast<const TopNNode&>(*topn).n(), 7);
  // Order without limit is a Sort.
  auto plan2 = PlanSql("SELECT orderkey FROM orders ORDER BY 1 DESC");
  ASSERT_TRUE(plan2.ok());
  EXPECT_NE(Find(**plan2, PlanNodeKind::kSort), nullptr);
}

TEST_F(PlanTest, WindowShape) {
  auto plan = PlanSql(
      "SELECT orderkey, row_number() OVER (PARTITION BY custkey "
      "ORDER BY total DESC) AS rn FROM orders");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const auto* w = Find(**plan, PlanNodeKind::kWindow);
  ASSERT_NE(w, nullptr);
  const auto& window = static_cast<const WindowNode&>(*w);
  EXPECT_EQ(window.functions().size(), 1u);
  EXPECT_EQ(window.functions()[0].kind, WindowFunction::Kind::kRowNumber);
}

TEST_F(PlanTest, CtasAndInsertShapes) {
  auto ctas = PlanSql("CREATE TABLE memory.copy AS SELECT * FROM orders");
  ASSERT_TRUE(ctas.ok()) << ctas.status().ToString();
  EXPECT_NE(Find(**ctas, PlanNodeKind::kTableWrite), nullptr);
  auto ins = PlanSql("INSERT INTO nation SELECT custkey, status FROM orders");
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  EXPECT_FALSE(PlanSql("INSERT INTO nation SELECT custkey FROM orders").ok());
}

// ---- optimizer ----

TEST_F(PlanTest, ConstantFolding) {
  auto plan = OptimizeSql("SELECT orderkey + (1 + 2) FROM orders");
  ASSERT_TRUE(plan.ok());
  const auto* project = Find(**plan, PlanNodeKind::kProject);
  ASSERT_NE(project, nullptr);
  EXPECT_EQ(static_cast<const ProjectNode&>(*project)
                .expressions()[0]
                ->ToString(),
            "(#0 + 3)");
}

TEST_F(PlanTest, AlwaysTrueFilterRemoved) {
  auto plan = OptimizeSql("SELECT orderkey FROM orders WHERE 1 = 1");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(Count(**plan, PlanNodeKind::kFilter), 0);
}

TEST_F(PlanTest, ColumnPruningShrinksScan) {
  auto plan = OptimizeSql("SELECT orderkey FROM orders WHERE custkey = 5");
  ASSERT_TRUE(plan.ok());
  const auto* scan = Find(**plan, PlanNodeKind::kTableScan);
  ASSERT_NE(scan, nullptr);
  // Only orderkey and custkey needed (4-column table).
  EXPECT_EQ(static_cast<const TableScanNode&>(*scan).columns().size(), 2u);
}

TEST_F(PlanTest, PredicatePushdownThroughJoin) {
  auto plan = OptimizeSql(
      "SELECT o.orderkey FROM orders o JOIN lineitem l "
      "ON o.orderkey = l.orderkey WHERE o.total > 5 AND l.qty > 2");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const auto* join = Find(**plan, PlanNodeKind::kJoin);
  ASSERT_NE(join, nullptr);
  // Both conjuncts moved below the join.
  EXPECT_NE(Find(*join->child(0), PlanNodeKind::kFilter), nullptr);
  EXPECT_NE(Find(*join->child(1), PlanNodeKind::kFilter), nullptr);
}

TEST_F(PlanTest, BroadcastChosenForSmallBuildSide) {
  auto plan = OptimizeSql(
      "SELECT o.orderkey FROM orders o JOIN nation n "
      "ON o.custkey = n.nationkey");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const auto* join = Find(**plan, PlanNodeKind::kJoin);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(static_cast<const JoinNode&>(*join).distribution(),
            JoinDistribution::kBroadcast);
}

TEST_F(PlanTest, PartitionedWithoutCbo) {
  OptimizerOptions opts;
  opts.enable_cbo = false;
  auto plan = OptimizeSql(
      "SELECT o.orderkey FROM orders o JOIN nation n "
      "ON o.custkey = n.nationkey",
      opts);
  ASSERT_TRUE(plan.ok());
  const auto* join = Find(**plan, PlanNodeKind::kJoin);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(static_cast<const JoinNode&>(*join).distribution(),
            JoinDistribution::kPartitioned);
}

TEST_F(PlanTest, JoinReorderPutsSmallRelationOnBuildSide) {
  // Syntactic order joins the two big tables first; CBO should start from
  // nation (3 rows) to shrink intermediates.
  auto plan = OptimizeSql(
      "SELECT count(*) FROM lineitem l "
      "JOIN orders o ON l.orderkey = o.orderkey "
      "JOIN nation n ON o.custkey = n.nationkey");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // The output column order must be preserved regardless of reordering.
  EXPECT_EQ((*plan)->output().size(), 1u);
  // The top join's probe side should contain the larger relations.
  const auto* join = Find(**plan, PlanNodeKind::kJoin);
  ASSERT_NE(join, nullptr);
  PlanEstimate probe = EstimatePlan(*join->child(0));
  PlanEstimate build = EstimatePlan(*join->child(1));
  ASSERT_TRUE(probe.known());
  ASSERT_TRUE(build.known());
  EXPECT_GE(probe.rows, build.rows);
}

TEST_F(PlanTest, EstimatorBasics) {
  auto plan = PlanSql("SELECT orderkey FROM orders WHERE custkey = 5");
  ASSERT_TRUE(plan.ok());
  PlanEstimate est = EstimatePlan(**plan);
  ASSERT_TRUE(est.known());
  // 1000 rows, custkey NDV=100 -> ~10 rows.
  EXPECT_NEAR(est.rows, 10.0, 5.0);
}

TEST_F(PlanTest, ExplainRendering) {
  auto plan = OptimizeSql(
      "SELECT custkey, sum(total) FROM orders GROUP BY custkey");
  ASSERT_TRUE(plan.ok());
  std::string text = PlanToString(**plan);
  EXPECT_NE(text.find("Aggregate"), std::string::npos);
  EXPECT_NE(text.find("TableScan[memory.orders"), std::string::npos);
}

}  // namespace
}  // namespace presto
