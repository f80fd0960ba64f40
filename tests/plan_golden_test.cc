// Golden plan corpus: pins what the optimizer and the fragmenter produce for
// a fixed set of queries, so that a rewrite of either can show it changed no
// plan. For every query the corpus holds FragmentedPlan::ToString() and each
// fragment's wire JSON (PlanFragmentToJson) with plan-node "id" values
// renumbered in pre-order: ids are allocation order, everything else must
// match byte for byte. Every plan must also carry unique node ids, because
// split queues and operator stats are keyed on them.
//
// The corpus (tests/golden/plans.txt) covers every statement of plan_test
// and fragment_test, the Fig. 6 queries over raptor and over hive with and
// without statistics, and each SQL template the perfbench workloads issue.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>

#include "bench/bench_util.h"
#include "common/check.h"
#include "common/json.h"
#include "connectors/memcon/memory_connector.h"
#include "fragment/fragmenter.h"
#include "metadata/metadata_snapshot.h"
#include "optimizer/optimizer.h"
#include "plan/plan_serde.h"
#include "plan/planner.h"
#include "sql/parser.h"
#include "vector/block.h"

#ifndef PLAN_GOLDEN_PATH
#error "PLAN_GOLDEN_PATH must name tests/golden/plans.txt"
#endif

namespace presto {
namespace {

constexpr double kTpchScale = 0.01;
const std::vector<std::string> kTpchTables = {
    "lineitem", "orders", "customer", "supplier", "part", "nation"};

// The memory tables of plan_test (orders, lineitem, nation), fragment_test
// (t, u) and the perfbench multitenant workload (events), with the same
// rows, so the copied statements see the same statistics.
std::shared_ptr<MemoryConnector> MakeMemory() {
  auto mem = std::make_shared<MemoryConnector>("memory");
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
  PRESTO_CHECK(mem->CreateTable("orders", orders,
                                {Page({MakeBigintBlock(ok),
                                       MakeBigintBlock(ck),
                                       MakeDoubleBlock(tot),
                                       MakeVarcharBlock(st)})})
                   .ok());
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
  PRESTO_CHECK(mem->CreateTable("lineitem", lineitem,
                                {Page({MakeBigintBlock(lok),
                                       MakeBigintBlock(lqty),
                                       MakeDoubleBlock(lp),
                                       MakeDoubleBlock(lt),
                                       MakeDoubleBlock(ld)})})
                   .ok());
  RowSchema nation;
  nation.Add("nationkey", TypeKind::kBigint);
  nation.Add("name", TypeKind::kVarchar);
  PRESTO_CHECK(mem->CreateTable("nation", nation,
                                {Page({MakeBigintBlock({0, 1, 2}),
                                       MakeVarcharBlock({"us", "fr", "jp"})})})
                   .ok());
  RowSchema t;
  t.Add("a", TypeKind::kBigint);
  t.Add("b", TypeKind::kBigint);
  std::vector<int64_t> a, b;
  for (int64_t i = 0; i < 100; ++i) {
    a.push_back(i);
    b.push_back(i % 10);
  }
  for (const char* name : {"t", "u"}) {
    PRESTO_CHECK(
        mem->CreateTable(name, t, {Page({MakeBigintBlock(a),
                                         MakeBigintBlock(b)})})
            .ok());
  }
  RowSchema events;
  events.Add("orderkey", TypeKind::kBigint);
  events.Add("custkey", TypeKind::kBigint);
  events.Add("totalprice", TypeKind::kDouble);
  PRESTO_CHECK(mem->CreateTable("events", events, {}).ok());
  return mem;
}

// Raptor holds fragment_test's rt/ru (4 buckets on a) and the tpch tables
// bucketed on orderkey, as in the Fig. 6 harness.
std::shared_ptr<RaptorConnector> MakeRaptor(TpchConnector* tpch) {
  auto raptor = std::make_shared<RaptorConnector>("raptor");
  RowSchema t;
  t.Add("a", TypeKind::kBigint);
  t.Add("b", TypeKind::kBigint);
  std::vector<int64_t> a, b;
  for (int64_t i = 0; i < 100; ++i) {
    a.push_back(i);
    b.push_back(i % 10);
  }
  for (const char* name : {"rt", "ru"}) {
    PRESTO_CHECK(raptor->CreateTable(name, t, "a", 4).ok());
    PRESTO_CHECK(raptor
                     ->LoadTable(name, {Page({MakeBigintBlock(a),
                                              MakeBigintBlock(b)})})
                     .ok());
  }
  PRESTO_CHECK(
      bench::LoadRaptorFromTpch(tpch, raptor.get(), kTpchTables, "orderkey", 8)
          .ok());
  return raptor;
}

std::shared_ptr<HiveConnector> MakeHive(TpchConnector* tpch, bool analyzed) {
  auto hive = std::make_shared<HiveConnector>("hive");
  PRESTO_CHECK(bench::LoadHiveFromTpch(tpch, hive.get(), kTpchTables).ok());
  if (analyzed) {
    for (const auto& table : kTpchTables) {
      PRESTO_CHECK(hive->AnalyzeTable(table).ok());
    }
    // The perfbench multitenant read-back of a CTAS target.
    RowSchema rollup;
    rollup.Add("mktsegment", TypeKind::kVarchar);
    rollup.Add("orderpriority", TypeKind::kVarchar);
    rollup.Add("n_orders", TypeKind::kBigint);
    rollup.Add("revenue", TypeKind::kDouble);
    PRESTO_CHECK(hive->CreateTable("ctas_0", rollup).ok());
  }
  return hive;
}

// The SQL statements of plan_test.cc (default catalog: memory).
std::vector<std::string> PlanTestQueries() {
  return {
      "SELECT orderkey, total FROM orders WHERE total > 10",
      "SELECT x FROM missing",
      "SELECT missing_col FROM orders",
      "SELECT orderkey FROM bogus.orders",
      "SELECT custkey, sum(total) AS s, count(*) FROM orders "
      "GROUP BY custkey HAVING sum(total) > 100",
      "SELECT status, avg(total) FROM orders GROUP BY 1",
      "SELECT status FROM orders GROUP BY 5",
      "SELECT custkey, sum(total) FROM orders GROUP BY status",
      "SELECT o.orderkey, sum(l.tax) FROM orders o "
      "LEFT JOIN lineitem l ON o.orderkey = l.orderkey "
      "WHERE o.total > 0 GROUP BY o.orderkey",
      "SELECT DISTINCT status FROM orders",
      "SELECT orderkey FROM orders UNION ALL SELECT price FROM lineitem",
      "SELECT orderkey FROM orders UNION ALL SELECT status FROM orders",
      "SELECT orderkey FROM orders ORDER BY orderkey LIMIT 7",
      "SELECT orderkey FROM orders ORDER BY 1 DESC",
      "SELECT orderkey, row_number() OVER (PARTITION BY custkey "
      "ORDER BY total DESC) AS rn FROM orders",
      "CREATE TABLE memory.copy AS SELECT * FROM orders",
      "INSERT INTO nation SELECT custkey, status FROM orders",
      "INSERT INTO nation SELECT custkey FROM orders",
      "SELECT orderkey + (1 + 2) FROM orders",
      "SELECT orderkey FROM orders WHERE 1 = 1",
      "SELECT orderkey FROM orders WHERE custkey = 5",
      "SELECT o.orderkey FROM orders o JOIN lineitem l "
      "ON o.orderkey = l.orderkey WHERE o.total > 5 AND l.qty > 2",
      "SELECT o.orderkey FROM orders o JOIN nation n "
      "ON o.custkey = n.nationkey",
      "SELECT count(*) FROM lineitem l "
      "JOIN orders o ON l.orderkey = o.orderkey "
      "JOIN nation n ON o.custkey = n.nationkey",
      "SELECT custkey, sum(total) FROM orders GROUP BY custkey",
  };
}

// The SQL statements of fragment_test.cc.
std::vector<std::string> FragmentTestQueries() {
  return {
      "SELECT a FROM memory.t WHERE a > 5",
      "SELECT b, count(*) FROM memory.t GROUP BY b",
      "SELECT count(*) FROM memory.t",
      "SELECT count(*) FROM memory.t JOIN memory.u ON t.a = u.a",
      "SELECT count(*) FROM raptor.rt JOIN raptor.ru ON rt.a = ru.a",
      "SELECT rt.a, count(*) FROM raptor.rt JOIN raptor.ru ON rt.a = ru.a "
      "GROUP BY rt.a",
      "SELECT a FROM memory.t ORDER BY a LIMIT 5",
      "SELECT a FROM memory.t LIMIT 7",
      "CREATE TABLE memory.out AS SELECT a FROM memory.t",
      "SELECT a, row_number() OVER (PARTITION BY b ORDER BY a) FROM "
      "memory.t",
  };
}

// Each SQL template of perfbench/workloads.cc with one fixed literal
// (default catalog: tpch, as the process-cluster workload's).
std::vector<std::string> PerfbenchQueries() {
  const std::string rollup =
      "SELECT c.mktsegment, o.orderpriority, count(*) AS n_orders, "
      "sum(o.totalprice) AS revenue FROM hive.orders o JOIN hive.customer c "
      "ON o.custkey = c.custkey GROUP BY c.mktsegment, o.orderpriority";
  std::vector<std::string> out = {
      // interactive
      "SELECT day, sum(value) FROM mysql.app_events WHERE app_id = 7 "
      "GROUP BY day",
  };
  for (const char* dim : {"c.mktsegment", "o.orderpriority",
                          "o.orderstatus"}) {
    out.push_back(std::string("SELECT ") + dim +
                  ", count(*), avg(o.totalprice) FROM raptor.orders o JOIN "
                  "raptor.customer c ON o.custkey = c.custkey WHERE "
                  "o.totalprice > 100000 GROUP BY " +
                  dim);
  }
  out.insert(
      out.end(),
      {
          "SELECT orderpriority, count(*), sum(totalprice) FROM hive.orders "
          "WHERE orderdate >= DATE '1995-03-01' AND orderdate < "
          "DATE '1995-06-01' GROUP BY orderpriority",
          // multitenant
          "SELECT returnflag, linestatus, sum(quantity), sum(extendedprice), "
          "avg(discount), count(*) FROM hive.lineitem WHERE shipdate <= "
          "DATE '1998-09-02' GROUP BY returnflag, linestatus",
          "SELECT o.orderpriority, count(*), sum(l.extendedprice) FROM "
          "hive.orders o JOIN hive.lineitem l ON o.orderkey = l.orderkey "
          "WHERE o.orderdate < DATE '1995-01-01' GROUP BY o.orderpriority",
          rollup,
          "CREATE TABLE hive.ctas_1 AS " + rollup,
          "SELECT * FROM hive.ctas_0",
          "SELECT orderpriority, count(*), sum(totalprice) FROM hive.orders "
          "WHERE custkey = 42 GROUP BY orderpriority",
          "SELECT count(*) FROM memory.events",
          "INSERT INTO memory.events SELECT orderkey, custkey, totalprice "
          "FROM hive.orders WHERE custkey = 42",
          "SELECT custkey, count(*) FROM memory.events GROUP BY custkey",
          // process_cluster
          "SELECT o.orderpriority, count(*), sum(l.extendedprice) FROM "
          "orders o JOIN lineitem l ON o.orderkey = l.orderkey WHERE "
          "o.orderdate < DATE '1997-10-01' GROUP BY o.orderpriority",
          "SELECT returnflag, linestatus, count(*), sum(quantity) FROM "
          "lineitem WHERE shipdate <= DATE '1998-06-01' "
          "GROUP BY returnflag, linestatus",
      });
  return out;
}

// Copies a node's wire JSON with "id" replaced by its pre-order position
// ("id" precedes "children" in every node object).
Json RenumberIds(const Json& node, int* next) {
  Json out = Json::Object();
  for (const auto& [key, value] : node.members()) {
    if (key == "id") {
      out.Set(key, Json::Int((*next)++));
    } else if (key == "children") {
      Json children = Json::Array();
      for (const Json& child : value.items()) {
        children.Append(RenumberIds(child, next));
      }
      out.Set(key, std::move(children));
    } else {
      out.Set(key, value);
    }
  }
  return out;
}

void CollectIds(const PlanNode& node, std::vector<int>* ids) {
  ids->push_back(node.id());
  for (const auto& child : node.children()) CollectIds(*child, ids);
}

int CountJoins(const PlanNode& node) {
  int n = node.kind() == PlanNodeKind::kJoin ? 1 : 0;
  for (const auto& child : node.children()) n += CountJoins(*child);
  return n;
}

struct Planned {
  std::string text;  // FragmentedPlan::ToString(), or the error
  std::string json;  // one line per fragment, ids renumbered
  int joins = 0;
  std::string duplicate_ids;  // empty when every node id is unique
};

Planned PlanOne(const Catalog& catalog, const std::string& sql,
                OptimizerOptions options) {
  Planned out;
  auto stmt = sql::ParseStatement(sql);
  if (!stmt.ok()) {
    out.text = "ERROR " + stmt.status().ToString() + "\n";
    return out;
  }
  MetadataSnapshot snapshot(&catalog);
  Planner planner(&snapshot);
  Result<PlanNodePtr> plan = planner.Plan(**stmt);
  if (plan.ok()) {
    Optimizer optimizer(&snapshot, options);
    plan = optimizer.Optimize(*plan);
  }
  if (!plan.ok()) {
    out.text = "ERROR " + plan.status().ToString() + "\n";
    return out;
  }
  Result<FragmentedPlan> fragmented = Fragmenter().Fragment(*plan);
  if (!fragmented.ok()) {
    out.text = "ERROR " + fragmented.status().ToString() + "\n";
    return out;
  }
  out.text = fragmented->ToString();
  std::vector<int> ids;
  for (const PlanFragment& fragment : fragmented->fragments) {
    CollectIds(*fragment.root, &ids);
    out.joins += CountJoins(*fragment.root);
    Result<Json> json = PlanFragmentToJson(fragment);
    if (!json.ok()) {
      out.json += "json " + std::to_string(fragment.id) + " ERROR " +
                  json.status().ToString() + "\n";
      continue;
    }
    Json renumbered = Json::Object();
    int next = 0;
    for (const auto& [key, value] : json->members()) {
      renumbered.Set(key, key == "root" ? RenumberIds(value, &next) : value);
    }
    out.json += "json " + std::to_string(fragment.id) + " " +
                renumbered.Serialize() + "\n";
  }
  std::set<int> seen;
  for (int id : ids) {
    if (!seen.insert(id).second) {
      out.duplicate_ids += " " + std::to_string(id);
    }
  }
  return out;
}

// One corpus entry per (configuration, statement).
struct Entry {
  std::string header;
  Planned planned;
};

class PlanGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto tpch = std::make_shared<TpchConnector>("tpch", kTpchScale);
    auto memory = MakeMemory();
    auto raptor = MakeRaptor(tpch.get());
    auto hive = MakeHive(tpch.get(), /*analyzed=*/true);
    auto mysql = std::make_shared<ShardedStoreConnector>("mysql");
    PRESTO_CHECK(bench::LoadAppEvents(mysql.get(), 6000, 500).ok());

    // plan_test resolves unqualified names in memory, perfbench's process
    // cluster in tpch; both see the same connectors otherwise.
    memory_default_ = new Catalog();
    tpch_default_ = new Catalog();
    for (Catalog* catalog : {memory_default_, tpch_default_}) {
      for (ConnectorPtr c :
           std::vector<ConnectorPtr>{memory, tpch, raptor, hive, mysql}) {
        catalog->Register(c);
      }
    }
    memory_default_->SetDefault("memory");
    tpch_default_->SetDefault("tpch");
    // Fig. 6 without statistics: its own, never analyzed, hive.
    hive_nostats_ = new Catalog();
    hive_nostats_->Register(MakeHive(tpch.get(), /*analyzed=*/false));

    entries_ = new std::vector<Entry>();
    OptimizerOptions no_cbo;
    no_cbo.enable_cbo = false;
    auto add = [](const std::string& config, const Catalog& catalog,
                  const std::string& sql, OptimizerOptions options) {
      entries_->push_back(
          {"### " + config + " :: " + sql, PlanOne(catalog, sql, options)});
    };
    for (const auto& sql : PlanTestQueries()) {
      add("plan", *memory_default_, sql, {});
      add("plan-nocbo", *memory_default_, sql, no_cbo);
    }
    for (const auto& sql : FragmentTestQueries()) {
      add("fragment", *memory_default_, sql, {});
    }
    for (const auto& q : bench::Fig6Queries("raptor")) {
      add("fig6-raptor " + q.label, *tpch_default_, q.sql, {});
    }
    for (const auto& q : bench::Fig6Queries("hive")) {
      add("fig6-hive-stats " + q.label, *tpch_default_, q.sql, {});
      add("fig6-hive-nostats " + q.label, *hive_nostats_, q.sql, {});
    }
    for (const auto& sql : PerfbenchQueries()) {
      add("perfbench", *tpch_default_, sql, {});
    }
  }

  static void TearDownTestSuite() {
    delete entries_;
    delete memory_default_;
    delete tpch_default_;
    delete hive_nostats_;
  }

  static Catalog* memory_default_;
  static Catalog* tpch_default_;
  static Catalog* hive_nostats_;
  static std::vector<Entry>* entries_;
};

Catalog* PlanGoldenTest::memory_default_ = nullptr;
Catalog* PlanGoldenTest::tpch_default_ = nullptr;
Catalog* PlanGoldenTest::hive_nostats_ = nullptr;
std::vector<Entry>* PlanGoldenTest::entries_ = nullptr;

// Reads the golden file into header -> body.
std::map<std::string, std::string> ReadGolden() {
  std::ifstream in(PLAN_GOLDEN_PATH);
  std::map<std::string, std::string> out;
  std::string line;
  std::string header;
  while (std::getline(in, line)) {
    if (line.rfind("### ", 0) == 0) {
      header = line;
      out[header];
    } else if (!header.empty()) {
      out[header] += line + "\n";
    }
  }
  return out;
}

TEST_F(PlanGoldenTest, PlansMatchGolden) {
  std::map<std::string, std::string> golden = ReadGolden();
  ASSERT_FALSE(golden.empty()) << "cannot read " << PLAN_GOLDEN_PATH;
  EXPECT_EQ(golden.size(), entries_->size());
  for (const Entry& entry : *entries_) {
    auto it = golden.find(entry.header);
    if (it == golden.end()) {
      ADD_FAILURE() << "not in the golden corpus: " << entry.header;
      continue;
    }
    EXPECT_EQ(entry.planned.text + entry.planned.json, it->second)
        << entry.header;
  }
}

TEST_F(PlanGoldenTest, NodeIdsAreUnique) {
  for (const Entry& entry : *entries_) {
    EXPECT_EQ(entry.planned.duplicate_ids, "") << entry.header;
  }
}

TEST_F(PlanGoldenTest, StatisticsChangeAMultiJoinPlan) {
  std::map<std::string, const Planned*> nostats;
  for (const Entry& entry : *entries_) {
    const std::string prefix = "### fig6-hive-nostats ";
    if (entry.header.rfind(prefix, 0) == 0) {
      nostats[entry.header.substr(prefix.size())] = &entry.planned;
    }
  }
  int differing = 0;
  for (const Entry& entry : *entries_) {
    const std::string prefix = "### fig6-hive-stats ";
    if (entry.header.rfind(prefix, 0) != 0) continue;
    const Planned* other = nostats.at(entry.header.substr(prefix.size()));
    if (entry.planned.joins >= 2 && entry.planned.text != other->text) {
      ++differing;
    }
  }
  EXPECT_GE(differing, 1);
}

}  // namespace
}  // namespace presto
