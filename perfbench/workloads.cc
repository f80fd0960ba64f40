// The three benchmark workloads, and the driver that sets each one up,
// loads it, checks its results and turns what it measured into metrics.
//
//   interactive      1 closed-loop client over mysql/raptor/hive lookups
//   multitenant      2 closed-loop heavy hive clients + an open-loop stream
//                    of cheap hive reads and memory-table writes
//   process_cluster  1 closed-loop client over 2 presto_worker daemons

#include <malloc.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <sstream>
#include <thread>

#include "bench/bench_util.h"
#include "common/random.h"
#include "connectors/memcon/memory_connector.h"
#include "engine/reference_executor.h"
#include "exchange/http/http_io.h"
#include "harness.h"
#include "worker/subprocess.h"

namespace perfbench {
namespace {

using presto::Random;
using presto::Result;
using presto::Status;

// Cluster shape shared by every workload: 2 workers x 2 executor threads
// (in-process) or 2 daemons x 2 threads, so the engine fits the machine.
constexpr int kWorkers = 2;
constexpr int kExecutorThreads = 2;
constexpr int kSetupRepeats = 3;
// The idle window starts after a short settle, once query teardown ends.
constexpr double kIdleSettleSeconds = 0.5;
constexpr double kIdleSeconds = 2.0;
constexpr int kIdleSlices = 8;
constexpr size_t kSamplePages = 64;
// latency_tail_ms is taken in this many consecutive windows of the load,
// and the median window's tail is reported.
constexpr int kTailWindows = 3;
// A run whose calibration loop slowed or sped up by more than this share
// between set-up and the end of the load says so in its provenance lines.
constexpr double kMaxCalibrationDrift = 0.10;

presto::EngineOptions InProcessOptions() {
  presto::EngineOptions options;
  options.cluster.num_workers = kWorkers;
  options.cluster.executor.threads = kExecutorThreads;
  return options;
}

/// Everything one set-up owns. Members are destroyed bottom-up, so the
/// engine goes before the worker daemons it talks to.
struct Env {
  std::vector<std::unique_ptr<presto::Subprocess>> daemons;
  std::vector<int> metrics_ports;
  std::unique_ptr<PrestoEngine> engine;
  std::shared_ptr<presto::HiveConnector> hive;
  presto::Connector* scan_connector = nullptr;
  std::string scan_table;

  int64_t dfs_bytes() const {
    return hive != nullptr ? hive->dfs().total_bytes_read() : 0;
  }
};

/// What one load window did. Load threads record into it concurrently.
struct Phase {
  std::mutex mu;
  int64_t attempted = 0;
  int64_t completed = 0;
  int64_t closed_done = 0;  // completions of the closed-loop clients
  int64_t raw_rows = 0;
  std::vector<std::string> failures;
  QuerySamples fg;   // the queries latency is reported for
  QuerySamples all;  // every query
  std::vector<Page> sample_pages;
  // How late the generator issued foreground queries: start minus due
  // time (open loop), or minus the previous query's end (closed loop).
  std::vector<double> lateness_ms;
  int64_t backlog = 0;  // open loop: due before the end, not yet started

  // Window totals, filled in around the load.
  double wall_s = 0;
  double cpu_s = 0;  // this process plus the daemons
  double daemon_cpu_s = 0;
  double busy_nanos = 0;  // executor busy time, engine or daemons
  Counters counters;

  /// `wrong` is empty when the result was checked and right.
  void Record(const std::string& sql, const QueryRun& run,
              const std::string& wrong, bool foreground, bool closed,
              double latency_ms) {
    std::lock_guard<std::mutex> lock(mu);
    ++attempted;
    if (!run.status.ok()) {
      failures.push_back(sql + ": " + run.status.ToString());
      return;
    }
    if (!wrong.empty()) {
      failures.push_back(sql + ": " + wrong);
      return;
    }
    ++completed;
    if (closed) ++closed_done;
    if (run.has_info) raw_rows += run.info.stats.raw_input_rows;
    all.Add(run);
    if (foreground) {
      fg.Add(run);
      fg.latency_ms.push_back(latency_ms);
    }
    for (const Page& page : run.pages) {
      if (sample_pages.size() < kSamplePages) sample_pages.push_back(page);
    }
  }
};

/// One query of a closed loop and the check of its result.
struct Job {
  std::string sql;
  /// Returns "" when the run's rows are right, else what is wrong.
  std::function<std::string(const QueryRun&)> check;
};

/// count(*) and sum() or avg() per group: expected rows of a join aggregation,
/// composed from per-side reference results.
class Aggregate {
 public:
  void Add(std::vector<presto::Value> key, int64_t count, double sum) {
    std::string id;
    for (const auto& value : key) id += value.ToString() + "|";
    Group& group = groups_[id];
    if (group.key.empty()) group.key = std::move(key);
    group.count += count;
    group.sum += sum;
  }

  /// Rows of (key..., count, sum), or (key..., count, sum / count).
  Rows ToRows(bool average = false) const {
    Rows rows;
    for (const auto& [id, group] : groups_) {
      std::vector<presto::Value> row = group.key;
      row.push_back(presto::Value::Bigint(group.count));
      row.push_back(presto::Value::Double(
          average ? group.sum / static_cast<double>(group.count)
                  : group.sum));
      rows.push_back(std::move(row));
    }
    return rows;
  }

 private:
  struct Group {
    std::vector<presto::Value> key;
    int64_t count = 0;
    double sum = 0;
  };
  std::map<std::string, Group> groups_;
};

std::string CheckRows(const QueryRun& run, const Rows& expected) {
  Rows got = ToRows(run.pages);
  if (presto::SameRowsIgnoringOrder(got, expected)) return "";
  return "wrong result: " + std::to_string(got.size()) + " rows, expected " +
         std::to_string(expected.size());
}

/// Runs `clients` closed-loop clients, without think time, until
/// `deadline`; client c's k-th query is next(c, k).
void RunClosedLoop(PrestoEngine* engine, int clients, int64_t deadline,
                   const std::function<Job(int, int64_t)>& next,
                   Tracer* tracer, const std::string& lane, bool foreground,
                   Phase* phase) {
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      int64_t previous_end = 0;
      for (int64_t k = 0; SteadyNanos() < deadline; ++k) {
        Job job = next(c, k);
        QueryRun run =
            RunQuery(engine, job.sql, tracer, NextSpanId(), c, lane);
        std::string wrong = run.status.ok() ? job.check(run) : "";
        phase->Record(job.sql, run, wrong, foreground, /*closed=*/true,
                      run.latency_ms());
        if (foreground && previous_end > 0) {
          std::lock_guard<std::mutex> lock(phase->mu);
          phase->lateness_ms.push_back((run.start - previous_end) / 1e6);
        }
        previous_end = run.drained;
      }
    });
  }
  for (auto& t : threads) t.join();
}

/// `k` values from [0, n), one drawn from each of k equal strata, so every
/// seed's literals spread over the whole domain alike.
std::vector<int64_t> Stratified(Random* rng, int64_t n, int k) {
  std::vector<int64_t> out;
  for (int64_t i = 0; i < k; ++i) {
    int64_t lo = i * n / k;
    int64_t hi = (i + 1) * n / k;
    out.push_back(lo + static_cast<int64_t>(rng->NextUint64(
                           static_cast<uint64_t>(std::max<int64_t>(1, hi - lo)))));
  }
  return out;
}

std::string MonthLiteral(int64_t months_since_1992) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "DATE '%04lld-%02lld-01'",
                static_cast<long long>(1992 + months_since_1992 / 12),
                static_cast<long long>(months_since_1992 % 12 + 1));
  return buf;
}

/// Body of GET /v1/metrics of a worker daemon, parsed into series -> value.
std::map<std::string, double> ScrapeMetrics(int port) {
  std::map<std::string, double> out;
  auto conn = presto::ConnectToLoopback(port, 2'000'000);
  if (!conn.ok()) return out;
  presto::HttpRequest request;
  request.method = "GET";
  request.path = "/v1/metrics";
  if (!(*conn)->WriteRequest(request).ok()) return out;
  auto response = (*conn)->ReadResponse();
  if (!response.ok() || response->status != 200) return out;
  std::istringstream lines(response->body);
  std::string line;
  while (std::getline(lines, line)) {
    size_t space = line.rfind(' ');
    if (line.empty() || line[0] == '#' || space == std::string::npos) continue;
    out[line.substr(0, space)] = std::atof(line.c_str() + space + 1);
  }
  return out;
}

// ---- Workloads ----------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Cluster shape and load, for the provenance lines.
  virtual std::string Shape() const = 0;
  /// Builds the engine and loads the data: the timed part of set-up,
  /// together with one warm-up run of every WarmupTexts() query.
  virtual Result<std::unique_ptr<Env>> Setup() = 0;
  /// SELECTs run once in set-up and planned by the traced run's probe.
  virtual std::vector<std::string> WarmupTexts() const = 0;
  /// Computes every expected result (after set-up, untimed).
  virtual Status BuildOracle(Env& env) = 0;
  /// One load window of `seconds`; `phase` numbers the windows of a run.
  virtual void Load(Env& env, double seconds, Tracer* tracer, int phase,
                    Phase* out) = 0;
  /// Read-back checks once the load has stopped.
  virtual void FinalChecks(Env& /*env*/, Report* /*report*/) {}
};

// Interactive: the Table I / Fig. 7 short-query shapes, one client.
class Interactive final : public Workload {
 public:
  explicit Interactive(uint64_t seed) : seed_(seed) {
    Random rng(seed * 0x9E3779B97F4A7C15ULL + 11);
    for (int64_t app : Stratified(&rng, 500, 48)) {
      texts_[0].push_back(
          "SELECT day, sum(value) FROM mysql.app_events WHERE app_id = " +
          std::to_string(app) + " GROUP BY day");
    }
    for (int64_t threshold : Stratified(&rng, 200000, 8)) {
      for (int dim = 0; dim < 3; ++dim) {
        ab_.push_back({dim, threshold});
        texts_[1].push_back(
            std::string("SELECT ") + kDims[dim] +
            ", count(*), avg(o.totalprice) FROM raptor.orders o JOIN "
            "raptor.customer c ON o.custkey = c.custkey WHERE o.totalprice > " +
            std::to_string(threshold) + " GROUP BY " + kDims[dim]);
      }
    }
    for (int64_t m : Stratified(&rng, 76, 32)) {
      texts_[2].push_back(
          "SELECT orderpriority, count(*), sum(totalprice) FROM hive.orders "
          "WHERE orderdate >= " +
          MonthLiteral(m) + " AND orderdate < " + MonthLiteral(m + 3) +
          " GROUP BY orderpriority");
    }
  }

  std::string Shape() const override {
    return "in-process, 2 workers x 2 executor threads; 1 closed-loop "
           "client, no think time";
  }

  Result<std::unique_ptr<Env>> Setup() override {
    auto env = std::make_unique<Env>();
    env->engine = std::make_unique<PrestoEngine>(InProcessOptions());
    PrestoEngine& engine = *env->engine;
    auto tpch = std::make_shared<presto::TpchConnector>("tpch", 1.0);
    auto mysql = std::make_shared<presto::ShardedStoreConnector>("mysql");
    PRESTO_RETURN_IF_ERROR(presto::bench::LoadAppEvents(mysql.get(), 60000,
                                                        500));
    engine.catalog().Register(mysql);
    auto raptor = std::make_shared<presto::RaptorConnector>("raptor");
    PRESTO_RETURN_IF_ERROR(presto::bench::LoadRaptorFromTpch(
        tpch.get(), raptor.get(), {"orders", "customer"}, "custkey", 8));
    engine.catalog().Register(raptor);
    env->hive = std::make_shared<presto::HiveConnector>("hive");
    PRESTO_RETURN_IF_ERROR(
        presto::bench::LoadHiveFromTpch(tpch.get(), env->hive.get(),
                                        {"orders"}));
    PRESTO_RETURN_IF_ERROR(env->hive->AnalyzeTable("orders"));
    engine.catalog().Register(env->hive);
    env->scan_connector = env->hive.get();
    env->scan_table = "orders";
    return env;
  }

  std::vector<std::string> WarmupTexts() const override {
    std::vector<std::string> all;
    for (const auto& texts : texts_) {
      all.insert(all.end(), texts.begin(), texts.end());
    }
    return all;
  }

  // Lookups and hive aggregations come straight from the reference
  // executor; the A/B joins are composed from its scans of both sides (it
  // joins by nested loops).
  Status BuildOracle(Env& env) override {
    const presto::Catalog& catalog = env.engine->catalog();
    for (int c : {0, 2}) {
      for (const std::string& sql : texts_[c]) {
        PRESTO_ASSIGN_OR_RETURN(expected_[sql], ReferenceRows(catalog, sql));
      }
    }
    PRESTO_ASSIGN_OR_RETURN(
        Rows orders,
        ReferenceRows(catalog,
                      "SELECT custkey, orderpriority, orderstatus, "
                      "totalprice FROM raptor.orders"));
    PRESTO_ASSIGN_OR_RETURN(
        Rows customers,
        ReferenceRows(catalog,
                      "SELECT custkey, mktsegment FROM raptor.customer"));
    std::map<int64_t, presto::Value> segment_of;
    for (auto& row : customers) segment_of[row[0].AsBigint()] = row[1];
    for (size_t i = 0; i < ab_.size(); ++i) {
      Aggregate groups;
      for (const auto& row : orders) {
        double price = row[3].AsDouble();
        auto segment = segment_of.find(row[0].AsBigint());
        if (price <= static_cast<double>(ab_[i].threshold) ||
            segment == segment_of.end()) {
          continue;
        }
        const presto::Value& key =
            ab_[i].dim == 0 ? segment->second : row[ab_[i].dim];
        groups.Add({key}, 1, price);
      }
      expected_[texts_[1][i]] = groups.ToRows(/*average=*/true);
    }
    return Status::OK();
  }

  void Load(Env& env, double seconds, Tracer* tracer, int phase,
            Phase* out) override {
    Random rng(seed_ * 1000003 + static_cast<uint64_t>(phase));
    int64_t deadline = SteadyNanos() + static_cast<int64_t>(seconds * 1e9);
    RunClosedLoop(
        env.engine.get(), 1, deadline,
        [&](int, int64_t k) {
          const auto& texts = texts_[kRotation[k % 4]];
          const std::string& sql = texts[rng.NextUint64(texts.size())];
          const Rows& expected = expected_.at(sql);
          return Job{sql, [&expected](const QueryRun& run) {
                       return CheckRows(run, expected);
                     }};
        },
        tracer, "fg", /*foreground=*/true, out);
  }

 private:
  // Grouping column of the A/B join: customer segment, or the orders
  // column of the same index in the oracle's orders scan.
  static constexpr const char* kDims[] = {"c.mktsegment", "o.orderpriority",
                                          "o.orderstatus"};
  struct AbQuery {
    int dim;
    int64_t threshold;
  };
  // Lookup, A/B join, hive aggregation, hive aggregation: the hive queries
  // sit in one tight latency band, so with a double share the median lands
  // inside that band instead of on the edge between two classes.
  static constexpr int kRotation[] = {0, 1, 2, 2};

  uint64_t seed_;
  std::vector<std::string> texts_[3];  // lookup, A/B join, hive aggregation
  std::vector<AbQuery> ab_;            // parallel to texts_[1]
  std::map<std::string, Rows> expected_;
};

// Multitenant: the Fig. 8 shape, heavy hive work beside an open-loop stream
// of cheap reads and writes.
class Multitenant final : public Workload {
 public:
  static constexpr double kScale = 5.0;
  static constexpr int kBackgroundClients = 2;
  static constexpr int kForegroundThreads = 2;
  static constexpr double kArrivalsPerSecond = 20;

  explicit Multitenant(uint64_t seed) : seed_(seed) {
    Random rng(seed * 0x9E3779B97F4A7C15ULL + 23);
    // Every seed runs the same background variants (only their order
    // differs), so seeds do not change how heavy the background is.
    for (const char* cut : {"1998-09-02", "1998-06-30", "1998-03-31",
                            "1997-12-31", "1997-09-30", "1997-06-30"}) {
      scans_.push_back(
          "SELECT returnflag, linestatus, sum(quantity), sum(extendedprice), "
          "avg(discount), count(*) FROM hive.lineitem WHERE shipdate <= "
          "DATE '" +
          std::string(cut) + "' GROUP BY returnflag, linestatus");
    }
    for (const char* cut :
         {"1995-01-01", "1996-01-01", "1997-01-01", "1998-01-01"}) {
      join_cuts_.push_back(cut);
      joins_.push_back(
          "SELECT o.orderpriority, count(*), sum(l.extendedprice) FROM "
          "hive.orders o JOIN hive.lineitem l ON o.orderkey = l.orderkey "
          "WHERE o.orderdate < DATE '" +
          std::string(cut) + "' GROUP BY o.orderpriority");
    }
    customers_ = static_cast<int64_t>(1500 * kScale);
    for (int64_t k : Stratified(&rng, customers_, 8)) warm_keys_.push_back(k + 1);
  }

  std::string Shape() const override {
    return "in-process, 2 workers x 2 executor threads; 2 closed-loop "
           "background clients + open loop at " +
           std::to_string(static_cast<int>(kArrivalsPerSecond)) +
           " arrivals/s served by 2 threads; hive at tpch scale " +
           std::to_string(kScale);
  }

  Result<std::unique_ptr<Env>> Setup() override {
    auto env = std::make_unique<Env>();
    env->engine = std::make_unique<PrestoEngine>(InProcessOptions());
    PrestoEngine& engine = *env->engine;
    auto tpch = std::make_shared<presto::TpchConnector>("tpch", kScale);
    env->hive = std::make_shared<presto::HiveConnector>("hive");
    std::vector<std::string> tables = {"lineitem", "orders", "customer"};
    PRESTO_RETURN_IF_ERROR(
        presto::bench::LoadHiveFromTpch(tpch.get(), env->hive.get(), tables));
    for (const auto& table : tables) {
      PRESTO_RETURN_IF_ERROR(env->hive->AnalyzeTable(table));
    }
    engine.catalog().Register(env->hive);
    auto memory = std::make_shared<presto::MemoryConnector>("memory");
    presto::RowSchema events;
    events.Add("orderkey", presto::TypeKind::kBigint);
    events.Add("custkey", presto::TypeKind::kBigint);
    events.Add("totalprice", presto::TypeKind::kDouble);
    PRESTO_RETURN_IF_ERROR(memory->CreateTable("events", events, {}));
    engine.catalog().Register(memory);
    env->scan_connector = env->hive.get();
    env->scan_table = "lineitem";
    return env;
  }

  std::vector<std::string> WarmupTexts() const override {
    std::vector<std::string> all = scans_;
    all.insert(all.end(), joins_.begin(), joins_.end());
    all.push_back(kRollup);
    for (int64_t key : warm_keys_) all.push_back(CheapSql(key));
    all.push_back(kEventsCount);
    return all;
  }

  // The reference executor joins by nested loops, which is far too slow at
  // this scale, so each join's expected rows are composed from linear
  // reference queries: a grouped one per side, joined here by key.
  Status BuildOracle(Env& env) override {
    const presto::Catalog& catalog = env.engine->catalog();
    for (const auto& sql : scans_) {
      PRESTO_ASSIGN_OR_RETURN(expected_[sql], ReferenceRows(catalog, sql));
    }
    // Every custkey literal at once: one grouped reference query.
    PRESTO_ASSIGN_OR_RETURN(
        Rows by_customer,
        ReferenceRows(catalog,
                      "SELECT custkey, orderpriority, count(*), "
                      "sum(totalprice) FROM hive.orders GROUP BY custkey, "
                      "orderpriority"));
    for (auto& row : by_customer) {
      int64_t key = row[0].AsBigint();
      per_customer_rows_[key] += row[2].AsBigint();
      per_customer_[key].push_back({row[1], row[2], row[3]});
    }
    PRESTO_ASSIGN_OR_RETURN(
        Rows segments,
        ReferenceRows(catalog,
                      "SELECT custkey, mktsegment FROM hive.customer"));
    std::map<int64_t, presto::Value> segment_of;
    for (auto& row : segments) segment_of[row[0].AsBigint()] = row[1];
    Aggregate rollup;
    for (const auto& row : by_customer) {
      auto segment = segment_of.find(row[0].AsBigint());
      if (segment == segment_of.end()) continue;
      rollup.Add({segment->second, row[1]}, row[2].AsBigint(),
                 row[3].AsDouble());
    }
    expected_[kRollup] = rollup.ToRows();

    PRESTO_ASSIGN_OR_RETURN(
        Rows by_order,
        ReferenceRows(catalog,
                      "SELECT orderkey, count(*), sum(extendedprice) FROM "
                      "hive.lineitem GROUP BY orderkey"));
    std::map<int64_t, std::pair<int64_t, double>> lines_of;
    for (auto& row : by_order) {
      lines_of[row[0].AsBigint()] = {row[1].AsBigint(), row[2].AsDouble()};
    }
    for (size_t i = 0; i < joins_.size(); ++i) {
      PRESTO_ASSIGN_OR_RETURN(
          Rows orders,
          ReferenceRows(catalog,
                        "SELECT orderkey, orderpriority FROM hive.orders "
                        "WHERE orderdate < DATE '" +
                            join_cuts_[i] + "'"));
      Aggregate joined;
      for (const auto& row : orders) {
        auto lines = lines_of.find(row[0].AsBigint());
        if (lines == lines_of.end()) continue;
        joined.Add({row[1]}, lines->second.first, lines->second.second);
      }
      expected_[joins_[i]] = joined.ToRows();
    }
    return Status::OK();
  }

  void Load(Env& env, double seconds, Tracer* tracer, int phase,
            Phase* out) override {
    PrestoEngine* engine = env.engine.get();
    int64_t start = SteadyNanos();
    int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);

    // Background: scan, join and CTAS aggregations in rotation.
    std::vector<Random> rngs;
    for (int c = 0; c < kBackgroundClients; ++c) {
      rngs.emplace_back(seed_ * 7919 + static_cast<uint64_t>(phase * 16 + c));
    }
    std::thread background([&] {
      RunClosedLoop(
          engine, kBackgroundClients, deadline,
          [&](int c, int64_t k) { return BackgroundJob(engine, &rngs[c], c + k); },
          tracer, "bg", /*foreground=*/false, out);
    });

    // Foreground: the precomputed Poisson schedule, conditioned on its
    // count: rate x seconds arrivals at uniform random times, so every
    // seed offers the same load.
    struct Arrival {
      int64_t due;  // nanos after start
      int kind;     // 0 cheap read, 1 events read, 2 insert
      int64_t key;
    };
    Random rng(seed_ * 104729 + static_cast<uint64_t>(phase));
    std::vector<int64_t> dues;
    for (int i = 0; i < static_cast<int>(kArrivalsPerSecond * seconds); ++i) {
      dues.push_back(static_cast<int64_t>(rng.NextDouble() * seconds * 1e9));
    }
    std::sort(dues.begin(), dues.end());
    std::vector<Arrival> schedule;
    for (size_t i = 0; i < dues.size(); ++i) {
      int kind = i % 10 == 9 ? 2 : i % 10 == 4 ? 1 : 0;
      schedule.push_back({dues[i], kind, rng.NextInt64(1, customers_)});
    }
    std::vector<int64_t> started(schedule.size(), 0);
    std::atomic<size_t> next{0};
    std::vector<std::thread> foreground;
    for (int f = 0; f < kForegroundThreads; ++f) {
      foreground.emplace_back([&, f] {
        for (;;) {
          size_t i = next.fetch_add(1);
          if (i >= schedule.size()) return;
          const Arrival& arrival = schedule[i];
          int64_t due = start + arrival.due;
          std::this_thread::sleep_until(
              std::chrono::steady_clock::time_point(
                  std::chrono::nanoseconds(due)));
          started[i] = SteadyNanos();
          RunArrival(engine, arrival.kind, arrival.key, due, started[i],
                     tracer, 100 + f, out);
        }
      });
    }
    for (auto& thread : foreground) thread.join();
    background.join();
    // Arrivals due in the window that were still waiting for a thread when
    // it closed; more than the serving threads means the queue grew.
    for (size_t i = 0; i < schedule.size(); ++i) {
      if (started[i] > deadline) ++out->backlog;
    }
    if (out->backlog <= kForegroundThreads) out->backlog = 0;
  }

  void FinalChecks(Env& env, Report* report) override {
    // The memory table holds exactly the acknowledged inserts.
    std::map<int64_t, int64_t> want;
    {
      std::lock_guard<std::mutex> lock(inserts_mu_);
      for (const auto& insert : inserts_) {
        if (insert.acked > 0 && insert.rows > 0) {
          want[insert.key] += insert.rows;
        }
      }
    }
    Rows expected;
    for (const auto& [key, rows] : want) {
      expected.push_back({presto::Value::Bigint(key),
                          presto::Value::Bigint(rows)});
    }
    std::string sql =
        "SELECT custkey, count(*) FROM memory.events GROUP BY custkey";
    QueryRun run = RunQuery(env.engine.get(), sql, nullptr, 0, 0, "check");
    report->CountAttempts(1);
    if (!run.status.ok()) {
      report->Fail(sql + ": " + run.status.ToString());
    } else if (std::string wrong = CheckRows(run, expected); !wrong.empty()) {
      report->Fail("memory.events read-back: " + wrong);
    }
  }

 private:
  static constexpr const char* kRollup =
      "SELECT c.mktsegment, o.orderpriority, count(*) AS n_orders, "
      "sum(o.totalprice) AS revenue FROM hive.orders o JOIN hive.customer c "
      "ON o.custkey = c.custkey GROUP BY c.mktsegment, o.orderpriority";
  static constexpr const char* kEventsCount =
      "SELECT count(*) FROM memory.events";

  static std::string CheapSql(int64_t key) {
    return "SELECT orderpriority, count(*), sum(totalprice) FROM hive.orders "
           "WHERE custkey = " +
           std::to_string(key) + " GROUP BY orderpriority";
  }

  Job BackgroundJob(PrestoEngine* engine, Random* rng, int64_t turn) {
    switch (turn % 3) {
      case 0:
      case 1: {
        const auto& texts = turn % 3 == 0 ? scans_ : joins_;
        const std::string& sql = texts[rng->NextUint64(texts.size())];
        const Rows& expected = expected_.at(sql);
        return Job{sql, [&expected](const QueryRun& run) {
                     return CheckRows(run, expected);
                   }};
      }
      default: {
        // CTAS, checked by reading the new table back.
        std::string table = "hive.ctas_" + std::to_string(next_table_++);
        const Rows& expected = expected_.at(kRollup);
        return Job{"CREATE TABLE " + table + " AS " + kRollup,
                   [engine, table, &expected](const QueryRun&) {
                     QueryRun back =
                         RunQuery(engine, "SELECT * FROM " + table, nullptr,
                                  0, 0, "check");
                     if (!back.status.ok()) {
                       return "read-back failed: " + back.status.ToString();
                     }
                     return CheckRows(back, expected);
                   }};
      }
    }
  }

  void RunArrival(PrestoEngine* engine, int kind, int64_t key, int64_t due,
                  int64_t began, Tracer* tracer, int tid, Phase* out) {
    std::string sql = kind == 0   ? CheapSql(key)
                      : kind == 1 ? std::string(kEventsCount)
                                  : "INSERT INTO memory.events SELECT "
                                    "orderkey, custkey, totalprice FROM "
                                    "hive.orders WHERE custkey = " +
                                        std::to_string(key);
    size_t insert_index = 0;
    if (kind == 2) {
      auto rows = per_customer_rows_.find(key);
      std::lock_guard<std::mutex> lock(inserts_mu_);
      insert_index = inserts_.size();
      inserts_.push_back(
          {key, rows != per_customer_rows_.end() ? rows->second : 0, began,
           0});
    }
    QueryRun run = RunQuery(engine, sql, tracer, NextSpanId(), tid, "fg");
    std::string wrong;
    if (run.status.ok()) {
      if (kind == 0) {
        auto it = per_customer_.find(key);
        wrong = CheckRows(run, it != per_customer_.end() ? it->second : Rows{});
      } else if (kind == 1) {
        wrong = CheckEventsCount(run, due);
      } else {
        std::lock_guard<std::mutex> lock(inserts_mu_);
        inserts_[insert_index].acked = run.drained;
      }
    }
    out->Record(sql, run, wrong, /*foreground=*/true, /*closed=*/false,
                (run.drained - due) / 1e6);
    std::lock_guard<std::mutex> lock(out->mu);
    out->lateness_ms.push_back((began - due) / 1e6);
  }

  // A read must see every insert acknowledged before it was due, and no
  // more rows than the inserts begun before it finished.
  std::string CheckEventsCount(const QueryRun& run, int64_t due) {
    Rows rows = ToRows(run.pages);
    if (rows.size() != 1 || rows[0].size() != 1) return "malformed count";
    int64_t count = rows[0][0].AsBigint();
    int64_t low = 0, high = 0;
    std::lock_guard<std::mutex> lock(inserts_mu_);
    for (const auto& insert : inserts_) {
      if (insert.acked > 0 && insert.acked <= due) low += insert.rows;
      if (insert.began <= run.drained) high += insert.rows;
    }
    if (count < low || count > high) {
      return "memory.events count " + std::to_string(count) +
             " outside [" + std::to_string(low) + ", " +
             std::to_string(high) + "]";
    }
    return "";
  }

  struct Insert {
    int64_t key;
    int64_t rows;
    int64_t began;
    int64_t acked;  // 0 until the INSERT returned
  };

  uint64_t seed_;
  int64_t customers_ = 0;
  std::vector<std::string> scans_;
  std::vector<std::string> joins_;
  std::vector<std::string> join_cuts_;  // orderdate bound of each join
  std::vector<int64_t> warm_keys_;
  std::map<std::string, Rows> expected_;
  std::map<int64_t, Rows> per_customer_;
  std::map<int64_t, int64_t> per_customer_rows_;
  std::atomic<int64_t> next_table_{0};
  std::mutex inserts_mu_;
  std::vector<Insert> inserts_;
};

// Process cluster: ClusterMode::kProcess over 2 presto_worker daemons.
class ProcessCluster final : public Workload {
 public:
  static constexpr double kScale = 0.1;
  static constexpr int kDaemons = 2;

  // Every seed runs the same variants (only their order differs), so seeds
  // do not change how heavy the load is. The variants of a class differ by
  // a month of data, so each class is one narrow latency band.
  explicit ProcessCluster(uint64_t seed) : seed_(seed) {
    for (int64_t m : {69, 70, 71, 72}) {
      texts_[0].push_back(
          "SELECT o.orderpriority, count(*), sum(l.extendedprice) FROM "
          "orders o JOIN lineitem l ON o.orderkey = l.orderkey WHERE "
          "o.orderdate < " +
          MonthLiteral(m) + " GROUP BY o.orderpriority");
    }
    for (int64_t m : {77, 78, 79, 80}) {
      texts_[1].push_back(
          "SELECT returnflag, linestatus, count(*), sum(quantity) FROM "
          "lineitem WHERE shipdate <= " +
          MonthLiteral(m) + " GROUP BY returnflag, linestatus");
    }
  }

  std::string Shape() const override {
    return "kProcess, 2 presto_worker daemons x 2 executor threads; 1 "
           "closed-loop client, no think time; tpch scale " +
           std::to_string(kScale);
  }

  Result<std::unique_ptr<Env>> Setup() override {
    auto env = std::make_unique<Env>();
    presto::EngineOptions options;
    options.cluster.mode = presto::ClusterMode::kProcess;
    options.cluster.heartbeat_timeout_micros = 10'000'000;
    for (int i = 0; i < kDaemons; ++i) {
      auto daemon = std::make_unique<presto::Subprocess>();
      PRESTO_RETURN_IF_ERROR(daemon->Start(
          {PERFBENCH_WORKER_BIN, "--worker_id=" + std::to_string(i),
           "--threads=" + std::to_string(kExecutorThreads),
           "--tpch_scale=" + std::to_string(kScale),
           "--heartbeat_interval_micros=100000"}));
      PRESTO_ASSIGN_OR_RETURN(std::string banner,
                              daemon->WaitForLine("READY", 20'000));
      presto::RemoteWorkerAddress address;
      if (std::sscanf(banner.c_str(),
                      "READY task_port=%d exchange_port=%d metrics_port=%d",
                      &address.task_port, &address.exchange_port,
                      &address.metrics_port) != 3) {
        return Status::Internal("bad worker banner: " + banner);
      }
      options.cluster.remote_workers.push_back(address);
      env->metrics_ports.push_back(address.metrics_port);
      env->daemons.push_back(std::move(daemon));
    }
    env->engine = std::make_unique<PrestoEngine>(std::move(options));
    PrestoEngine& engine = *env->engine;
    auto tpch = std::make_shared<presto::TpchConnector>("tpch", kScale);
    engine.catalog().Register(tpch);
    engine.catalog().SetDefault("tpch");
    env->scan_connector = tpch.get();
    env->scan_table = "lineitem";
    // Set-up ends once every daemon has heartbeated.
    PRESTO_RETURN_IF_ERROR(engine.StartObservability());
    for (auto& daemon : env->daemons) {
      PRESTO_RETURN_IF_ERROR(daemon->WriteLine(
          "coordinator_port=" + std::to_string(engine.observability_port())));
    }
    int64_t give_up = SteadyNanos() + 10'000'000'000;
    for (int i = 0; i < kDaemons; ++i) {
      while (!engine.cluster().liveness().SeenHeartbeat(i)) {
        if (SteadyNanos() > give_up) {
          return Status::Internal("worker " + std::to_string(i) +
                                  " never heartbeated");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    return env;
  }

  std::vector<std::string> WarmupTexts() const override {
    std::vector<std::string> all = texts_[0];
    all.insert(all.end(), texts_[1].begin(), texts_[1].end());
    return all;
  }

  Status BuildOracle(Env& env) override {
    for (const std::string& sql : WarmupTexts()) {
      PRESTO_ASSIGN_OR_RETURN(expected_[sql],
                              ReferenceRows(env.engine->catalog(), sql));
    }
    return Status::OK();
  }

  void Load(Env& env, double seconds, Tracer* tracer, int phase,
            Phase* out) override {
    Random rng(seed_ * 1000003 + static_cast<uint64_t>(phase));
    int64_t deadline = SteadyNanos() + static_cast<int64_t>(seconds * 1e9);
    RunClosedLoop(
        env.engine.get(), 1, deadline,
        [&](int, int64_t k) {
          const auto& texts = texts_[kRotation[k % 3]];
          const std::string& sql = texts[rng.NextUint64(texts.size())];
          const Rows& expected = expected_.at(sql);
          return Job{sql, [&expected](const QueryRun& run) {
                       return CheckRows(run, expected);
                     }};
        },
        tracer, "fg", /*foreground=*/true, out);
  }

 private:
  // Join, scan, join: with a double share of joins the median lands inside
  // the join band instead of on the edge between the two classes.
  static constexpr int kRotation[] = {0, 1, 0};

  uint64_t seed_;
  std::vector<std::string> texts_[2];  // join aggregation, scan aggregation
  std::map<std::string, Rows> expected_;
};

// ---- Driver ---------------------------------------------------------------------

double DaemonCpuSeconds(const Env& env, bool thread_resolution) {
  double total = 0;
  for (const auto& daemon : env.daemons) {
    total += thread_resolution ? ProcThreadCpuSeconds(daemon->pid())
                               : ProcCpuSeconds(daemon->pid());
  }
  return total;
}

double ExecutorBusyNanos(Env& env) {
  if (env.daemons.empty()) {
    return static_cast<double>(env.engine->cluster().total_busy_nanos());
  }
  double total = 0;
  for (int port : env.metrics_ports) {
    total += ScrapeMetrics(port)["presto_worker_executor_busy_nanos"];
  }
  return total;
}

/// Measures the window around `load`: wall, CPU, executor busy time and
/// the engine counters.
void MeasureWindow(Env& env, Phase* phase, const std::function<void()>& load) {
  Counters before = Counters::Read(env.engine.get(), env.dfs_bytes());
  double busy = ExecutorBusyNanos(env);
  double self_cpu = SelfCpuSeconds();
  double daemon_cpu = DaemonCpuSeconds(env, false);
  int64_t start = SteadyNanos();
  load();
  phase->wall_s = (SteadyNanos() - start) / 1e9;
  phase->daemon_cpu_s = DaemonCpuSeconds(env, false) - daemon_cpu;
  phase->cpu_s = SelfCpuSeconds() - self_cpu + phase->daemon_cpu_s;
  phase->busy_nanos = ExecutorBusyNanos(env) - busy;
  phase->counters =
      Counters::Read(env.engine.get(), env.dfs_bytes()).Minus(before);
}

/// Samples this process's resident set until stopped; the peak is the
/// memory the load needed (the oracle's earlier peak does not count).
class RssSampler {
 public:
  RssSampler() { thread_ = std::thread([this] { Loop(); }); }
  ~RssSampler() { Stop(); }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  double Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    return peak_mb_;
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    do {
      peak_mb_ = std::max(peak_mb_, SelfRssMb());
    } while (!cv_.wait_for(lock, std::chrono::milliseconds(20),
                           [this] { return stop_; }));
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  double peak_mb_ = 0;
  std::thread thread_;
};

/// Clean-exit checks of the daemons, then stops them: no exchange bytes or
/// tasks left, a clean exit on SIGTERM, and a reaped process.
void StopDaemons(Env* env, Report* report, bool check) {
  if (check) {
    for (size_t i = 0; i < env->metrics_ports.size(); ++i) {
      auto metrics = ScrapeMetrics(env->metrics_ports[i]);
      if (metrics.empty()) {
        report->Fail("worker " + std::to_string(i) + ": metrics unreachable");
        continue;
      }
      for (const char* gauge : {"presto_worker_exchange_buffered_bytes",
                                "presto_worker_exchange_retained_bytes",
                                "presto_worker_active_tasks"}) {
        if (metrics[gauge] != 0) {
          report->Fail("worker " + std::to_string(i) + " leaks: " + gauge +
                       " = " + std::to_string(metrics[gauge]));
        }
      }
    }
  }
  env->engine.reset();
  for (auto& daemon : env->daemons) {
    pid_t pid = daemon->pid();
    daemon->Terminate();
    int status = daemon->Wait();
    if (!check) continue;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      report->Fail("worker daemon " + std::to_string(pid) +
                   " did not exit cleanly (wait status " +
                   std::to_string(status) + ")");
    }
    if (kill(pid, 0) == 0 || errno != ESRCH) {
      report->Fail("worker daemon " + std::to_string(pid) +
                   " still exists after reaping");
    }
  }
  env->daemons.clear();
}

double Ratio(double part, double whole) { return whole > 0 ? part / whole : 0; }

void Drive(Workload& workload, const Options& options, Report* report) {
  report->Note("cluster: " + workload.Shape());
  double calibration_before = CalibrationMs();

  // Set-up, several times; the last one stays for the load.
  std::vector<double> setup_s;
  std::unique_ptr<Env> env;
  int setups = options.trace ? 1 : kSetupRepeats;
  for (int i = 0; i < setups; ++i) {
    if (env != nullptr) StopDaemons(env.get(), report, /*check=*/false);
    env.reset();
    int64_t start = SteadyNanos();
    auto made = workload.Setup();
    if (!made.ok()) {
      report->Fail("set-up: " + made.status().ToString());
      return;
    }
    env = std::move(*made);
    for (const std::string& sql : workload.WarmupTexts()) {
      QueryRun run = RunQuery(env->engine.get(), sql, nullptr, 0, 0, "warmup");
      if (!run.status.ok()) {
        report->Fail("warm-up " + sql + ": " + run.status.ToString());
        StopDaemons(env.get(), report, /*check=*/false);
        return;
      }
    }
    setup_s.push_back((SteadyNanos() - start) / 1e9);
  }
  int64_t oracle_start = SteadyNanos();
  if (Status oracle = workload.BuildOracle(*env); !oracle.ok()) {
    report->Fail("result oracle: " + oracle.ToString());
    StopDaemons(env.get(), report, /*check=*/false);
    return;
  }
  report->Note("set-up " + std::to_string(setups) + "x, result oracle " +
               std::to_string((SteadyNanos() - oracle_start) / 1e9) + " s");
  malloc_trim(0);

  // The load: one untraced window, or an untraced and a traced half.
  Tracer tracer;
  RssSampler rss;
  std::vector<std::unique_ptr<Phase>> phases;
  auto run_phase = [&](double seconds, Tracer* trace) {
    auto phase = std::make_unique<Phase>();
    int index = static_cast<int>(phases.size());
    MeasureWindow(*env, phase.get(), [&] {
      workload.Load(*env, seconds, trace, index, phase.get());
    });
    phases.push_back(std::move(phase));
  };
  if (options.trace) {
    run_phase(options.seconds / 2.0, nullptr);
    run_phase(options.seconds / 2.0, &tracer);
  } else {
    run_phase(options.seconds, nullptr);
  }
  double peak_rss_mb = rss.Stop();

  // Idle window: what the engine (and daemons) burn with nothing to do,
  // as the median over slices so a burst from elsewhere on the machine
  // does not decide it.
  std::this_thread::sleep_for(std::chrono::duration<double>(kIdleSettleSeconds));
  std::vector<double> idle_slices, daemon_idle_slices;
  for (int slice = 0; slice < kIdleSlices; ++slice) {
    double self = SelfCpuSeconds();
    double daemons = DaemonCpuSeconds(*env, true);
    int64_t start = SteadyNanos();
    std::this_thread::sleep_for(
        std::chrono::duration<double>(kIdleSeconds / kIdleSlices));
    double wall = (SteadyNanos() - start) / 1e9;
    double daemon_pct = 100 * (DaemonCpuSeconds(*env, true) - daemons) / wall;
    daemon_idle_slices.push_back(daemon_pct);
    idle_slices.push_back(100 * (SelfCpuSeconds() - self) / wall + daemon_pct);
  }
  double idle_pct = Median(idle_slices);
  double daemon_idle_pct = Median(daemon_idle_slices);

  double calibration_after = CalibrationMs();
  double drift = std::fabs(calibration_after - calibration_before) /
                 std::min(calibration_before, calibration_after);
  report->Note("calibration loop " +
               std::to_string(calibration_before) + " ms before set-up, " +
               std::to_string(calibration_after) + " ms after the load" +
               (drift > kMaxCalibrationDrift
                    ? "; MACHINE SPEED MOVED " +
                          std::to_string(static_cast<int>(100 * drift)) +
                          "% during the run"
                    : std::string()));

  CheckEngineDrained(env->engine.get(), report);
  workload.FinalChecks(*env, report);
  std::vector<double> lateness_ms;
  int64_t backlog = 0;
  for (const auto& phase : phases) {
    report->CountAttempts(phase->attempted);
    for (const std::string& failure : phase->failures) report->Fail(failure);
    lateness_ms.insert(lateness_ms.end(), phase->lateness_ms.begin(),
                       phase->lateness_ms.end());
    backlog += phase->backlog;
  }
  double lag_p99 =
      lateness_ms.empty() ? 0 : presto::bench::Percentile(lateness_ms, 99);
  if (!lateness_ms.empty()) {
    report->Note("generator lateness p99 " + std::to_string(lag_p99) +
                 " ms over " + std::to_string(lateness_ms.size()) +
                 " queries; " +
                 (backlog > 0 ? "BACKLOG GREW: " + std::to_string(backlog) +
                                    " arrivals due in the window were still "
                                    "queued when it closed"
                              : std::string("no backlog")));
  }

  const Phase& last = *phases.back();
  double completed = static_cast<double>(std::max<int64_t>(1, last.completed));
  if (last.completed == 0) report->Fail("no query completed");
  if (!options.trace) {
    Tail tail = WindowedTail(last.fg.latency_ms, kTailWindows);
    double daemon_rss = 0;
    for (const auto& daemon : env->daemons) {
      daemon_rss += ProcPeakRssMb(daemon->pid());
    }
    report->Note("latency_tail_ms is the median over " +
                 std::to_string(kTailWindows) + " windows of their p" +
                 std::to_string(tail.percentile) + " of " +
                 std::to_string(tail.samples) + " samples");
    report->Set("setup_s", Median(setup_s), "s");
    report->Set("qps", last.closed_done / last.wall_s, "1/s");
    report->Set("latency_p50_ms", Median(last.fg.latency_ms), "ms");
    report->Set("latency_tail_ms", tail.value, "ms");
    report->Set("cpu_ms_per_query", last.cpu_s * 1e3 / completed, "ms");
    report->Set("rows_per_s", last.raw_rows / last.wall_s, "rows/s");
    report->Set("idle_cpu_pct", idle_pct, "%");
    report->Set("peak_rss_mb", peak_rss_mb + daemon_rss, "MB");
  } else {
    const Counters& c = last.counters;
    auto spans = tracer.DurationsMs();
    PlanningProbe planning =
        ProbePlanning(env->engine.get(), workload.WarmupTexts(), &tracer);
    CodecProbe codec = ProbeCodec(last.sample_pages, &tracer);
    double scan = ProbeScan(env->scan_connector, env->scan_table, &tracer);
    double untraced_p50 = Median(phases[0]->fg.latency_ms);
    double traced_p50 = Median(last.fg.latency_ms);
    double executor_threads = kWorkers * kExecutorThreads;

    report->Set("engine.submit_ms", Median(spans["fg/engine.execute"]), "ms");
    report->Set("engine.first_page_ms", Median(spans["fg/engine.first_page"]),
                "ms");
    report->Set("engine.drain_ms", Median(spans["fg/engine.drain"]), "ms");
    report->Set("sql.parse_us", planning.parse_us, "us");
    report->Set("plan.plan_us", planning.plan_us, "us");
    report->Set("optimizer.optimize_us", planning.optimize_us, "us");
    report->Set("fragment.fragment_us", planning.fragment_us, "us");
    report->Set("metadata.plan_cache_hit_ratio",
                Ratio(c.plan_hits, c.plan_hits + c.plan_misses), "ratio");
    report->Set("metadata.metadata_cache_hit_ratio",
                Ratio(c.meta_hits, c.meta_hits + c.meta_misses), "ratio");
    report->Set("metadata.split_cache_hit_ratio",
                Ratio(c.split_hits, c.split_hits + c.split_misses), "ratio");
    report->Set("metadata.plan_cache_invalidations", c.plan_invalidations,
                "count");
    report->Set("coordinator.queued_ms", Median(last.fg.queued_ms), "ms");
    report->Set("coordinator.planning_ms", Median(last.fg.planning_ms), "ms");
    report->Set("coordinator.execution_ms", Median(last.fg.execution_ms),
                "ms");
    report->Set("executor.queued_ms", Mean(last.fg.executor_queued_ms), "ms");
    report->Set("executor.busy_frac",
                last.busy_nanos / (last.wall_s * 1e9 * executor_threads),
                "ratio");
    report->Set("exec.cpu_ms", Mean(last.all.exec_cpu_ms), "ms");
    report->Set("exec.blocked_ms", Mean(last.all.exec_blocked_ms), "ms");
    report->Set("exec.serde_ms", Mean(last.all.exec_serde_ms), "ms");
    report->Set("exchange.wire_bytes_per_query", c.wire_bytes / completed,
                "B");
    report->Set("exchange.compression_ratio",
                c.serialized_wire > 0
                    ? Ratio(c.serialized_raw, c.serialized_wire)
                    : codec.compression_ratio,
                "ratio");
    report->Set("exchange.http_requests_per_query",
                c.http_requests / completed, "count");
    report->Set("exchange.http_retries", c.http_retries, "count");
    report->Set("page_codec.encode_mb_per_s", codec.encode_mb_per_s, "MB/s");
    report->Set("page_codec.decode_mb_per_s", codec.decode_mb_per_s, "MB/s");
    report->Set("connector.scan_rows_per_s", scan, "rows/s");
    report->Set("hive.dfs_bytes_read_per_query", c.dfs_bytes / completed, "B");
    report->Set("memory.peak_user_mb", last.all.peak_user_mb, "MB");
    report->Set("memory.revocations", c.revocations, "count");
    // In-process workers are executor threads: their busy time.
    report->Set("worker.cpu_ms_per_query",
                (env->daemons.empty() ? last.busy_nanos / 1e6
                                      : last.daemon_cpu_s * 1e3) /
                    completed,
                "ms");
    report->Set("worker.idle_cpu_pct", daemon_idle_pct, "%");
    report->Set("worker.heartbeat_rtt_ms",
                Ratio(c.heartbeat_rtt_sum_micros, c.heartbeat_rtt_count) / 1e3,
                "ms");
    report->Set("bench.generator_lag_ms", lag_p99, "ms");
    report->Set("bench.trace_overhead_pct",
                100 * Ratio(traced_p50 - untraced_p50, untraced_p50), "%");

    mkdir(options.out_dir.c_str(), 0755);
    std::string path = options.out_dir + "/trace-" + options.workload + "-" +
                       std::to_string(options.seed) + ".json";
    if (tracer.WriteChromeTrace(path)) {
      report->Note("chrome trace: " + path + " (" +
                   std::to_string(tracer.size()) + " spans)");
    } else {
      report->Note("could not write the chrome trace to " + path);
    }
  }
  StopDaemons(env.get(), report, /*check=*/true);
}

}  // namespace

bool RunWorkload(const Options& options, Report* report) {
  std::unique_ptr<Workload> workload;
  if (options.workload == "interactive") {
    workload = std::make_unique<Interactive>(options.seed);
  } else if (options.workload == "multitenant") {
    workload = std::make_unique<Multitenant>(options.seed);
  } else if (options.workload == "process_cluster") {
    workload = std::make_unique<ProcessCluster>(options.seed);
  } else {
    return false;
  }
  Drive(*workload, options, report);
  return true;
}

}  // namespace perfbench
