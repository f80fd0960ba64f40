// Figure 6 reproduction: "Query runtimes for a subset of TPC-DS" — the
// same 19 labeled queries executed against three configurations:
//   (1) raptor             — shared-nothing local flash, stats available
//   (2) hive (no stats)    — remote DFS, optimizer has no statistics
//   (3) hive (stats)       — remote DFS, table/column statistics enable the
//                            cost-based join re-ordering and join-strategy
//                            selection of §IV-C.
// The paper's claim is relative: Raptor is fastest (storage latency), and
// statistics close much of the gap for join-heavy queries on Hive.
//
//   ./build/bench/bench_fig6_connector_adaptivity [scale]

#include <cstdio>
#include <cstdlib>

#include "bench/bench_util.h"

using namespace presto;         // NOLINT
using namespace presto::bench;  // NOLINT

int main(int argc, char** argv) {
  double scale = argc > 1 ? std::atof(argv[1]) : 1.0;

  EngineOptions options;
  options.cluster.num_workers = 4;
  options.cluster.executor.threads = 2;

  std::printf("Figure 6: connector adaptivity, TPC-H-style scale %.2f\n",
              scale);
  std::printf("(paper: TPC-DS 30TB on 100 nodes; shape, not absolutes)\n\n");

  auto tpch = std::make_shared<TpchConnector>("tpch", scale);
  const std::vector<std::string> tables = {"lineitem", "orders", "customer",
                                           "supplier", "part", "nation"};

  // Config 1: raptor (bucketed on the join key where present).
  PrestoEngine raptor_engine(options);
  auto raptor = std::make_shared<RaptorConnector>("raptor");
  PRESTO_CHECK(
      LoadRaptorFromTpch(tpch.get(), raptor.get(), tables, "orderkey", 8)
          .ok());
  raptor_engine.catalog().Register(raptor);

  // Config 2+3: hive over remote DFS, the same data loaded into one
  // connector per engine; only the stats engine's connector is analyzed.
  // (A shared connector would hand its statistics to both engines.)
  PrestoEngine hive_nostats_engine(options);
  auto hive_nostats = std::make_shared<HiveConnector>("hive");
  PRESTO_CHECK(LoadHiveFromTpch(tpch.get(), hive_nostats.get(), tables).ok());
  hive_nostats_engine.catalog().Register(hive_nostats);

  PrestoEngine hive_stats_engine(options);
  auto hive_stats = std::make_shared<HiveConnector>("hive");
  PRESTO_CHECK(LoadHiveFromTpch(tpch.get(), hive_stats.get(), tables).ok());
  for (const auto& table : tables) {
    PRESTO_CHECK(hive_stats->AnalyzeTable(table).ok());
  }
  hive_stats_engine.catalog().Register(hive_stats);

  std::printf("%-5s %14s %18s %15s\n", "query", "raptor_ms",
              "hive_nostats_ms", "hive_stats_ms");
  BenchReport report("fig6_connector_adaptivity");
  double sum_raptor = 0, sum_nostats = 0, sum_stats = 0;
  for (const auto& q : Fig6Queries("raptor")) {
    double raptor_ms =
        static_cast<double>(TimeQuery(&raptor_engine, q.sql)) / 1000.0;
    sum_raptor += raptor_ms;
    // Same query against hive (swap catalog prefix).
    std::string hive_sql = q.sql;
    for (size_t pos = 0; (pos = hive_sql.find("raptor.", pos)) !=
                         std::string::npos;) {
      hive_sql.replace(pos, 7, "hive.");
    }
    double nostats_ms =
        static_cast<double>(TimeQuery(&hive_nostats_engine, hive_sql)) /
        1000.0;
    sum_nostats += nostats_ms;
    double stats_ms =
        static_cast<double>(TimeQuery(&hive_stats_engine, hive_sql)) / 1000.0;
    sum_stats += stats_ms;
    std::printf("%-5s %14.1f %18.1f %15.1f\n", q.label.c_str(), raptor_ms,
                nostats_ms, stats_ms);
    report.Add(q.label, "raptor", raptor_ms, "ms");
    report.Add(q.label, "hive_nostats", nostats_ms, "ms");
    report.Add(q.label, "hive_stats", stats_ms, "ms");
  }
  std::printf("%-5s %14.1f %18.1f %15.1f\n", "TOTAL", sum_raptor, sum_nostats,
              sum_stats);
  report.Add("TOTAL", "raptor", sum_raptor, "ms");
  report.Add("TOTAL", "hive_nostats", sum_nostats, "ms");
  report.Add("TOTAL", "hive_stats", sum_stats, "ms");
  std::printf(
      "\nexpected shape: raptor <= hive(stats) <= hive(no stats); stats "
      "help most on the multi-join queries (q35, q80, ...)\n");
  std::string json = report.WriteJson();
  if (!json.empty()) std::printf("wrote %s\n", json.c_str());
  return 0;
}
