#include "harness.h"

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "bench/bench_util.h"
#include "connector/scan_util.h"
#include "engine/reference_executor.h"
#include "fragment/fragmenter.h"
#include "optimizer/optimizer.h"
#include "plan/planner.h"
#include "sql/parser.h"
#include "vector/page_codec.h"

namespace perfbench {

// ---- Statistics -----------------------------------------------------------

double Median(std::vector<double> values) {
  return presto::bench::Percentile(std::move(values), 50);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  size_t rank = values.size() > 10 ? values.size() - 11 : 0;
  tail.value = values[rank];
  tail.percentile = 100.0 * static_cast<double>(rank + 1) /
                    static_cast<double>(values.size());
  return tail;
}

Tail WindowedTail(const std::vector<double>& values, int windows) {
  std::vector<Tail> tails;
  for (int w = 0; w < windows; ++w) {
    size_t begin = values.size() * w / windows;
    size_t end = values.size() * (w + 1) / windows;
    tails.push_back(TailOf(std::vector<double>(values.begin() + begin,
                                               values.begin() + end)));
  }
  std::sort(tails.begin(), tails.end(),
            [](const Tail& a, const Tail& b) { return a.value < b.value; });
  return tails[tails.size() / 2];
}

// ---- Process accounting ---------------------------------------------------

double SelfCpuSeconds() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const struct timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double SelfRssMb() {
  std::ifstream in("/proc/self/statm");
  double size_pages = 0, resident_pages = 0;
  if (!(in >> size_pages >> resident_pages)) return 0;
  return resident_pages * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

double ProcCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return 0;
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  size_t close = line.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(line.substr(close + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14 || i == 15) ticks += std::atof(field.c_str());
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double ProcThreadCpuSeconds(pid_t pid) {
  std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* tasks = opendir(dir.c_str());
  if (tasks == nullptr) return 0;
  double total = 0;
  while (struct dirent* entry = readdir(tasks)) {
    if (entry->d_name[0] == '.') continue;
    std::ifstream in(dir + "/" + entry->d_name + "/schedstat");
    double on_cpu_nanos = 0;
    if (in >> on_cpu_nanos) total += on_cpu_nanos / 1e9;
  }
  closedir(tasks);
  return total;
}

double ProcPeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0;
}

double CalibrationMs() {
  // Random read-modify-writes over a table larger than the caches, so the
  // figure moves with memory bandwidth as well as with clock speed.
  constexpr size_t kTableWords = size_t{32} << 17;  // 32 MiB
  constexpr int kRounds = 9;
  constexpr int kAccesses = 2 << 20;
  std::vector<uint64_t> table(kTableWords, 1);
  std::vector<double> rounds;
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int round = 0; round < kRounds; ++round) {
    int64_t start = SteadyNanos();
    for (int i = 0; i < kAccesses; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      table[x % kTableWords] += x;
    }
    rounds.push_back((SteadyNanos() - start) / 1e6);
  }
  return Median(rounds);
}

// ---- Bench-side spans -----------------------------------------------------

int64_t SteadyNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Tracer() : origin_(SteadyNanos()) {}

void Tracer::Record(const std::string& name, int64_t id, int tid,
                    int64_t start_nanos, int64_t end_nanos) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, id, tid, start_nanos, end_nanos});
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, std::vector<double>> Tracer::DurationsMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::vector<double>> out;
  for (const Span& span : spans_) {
    out[span.name].push_back((span.end - span.start) / 1e6);
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"traceEvents\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%lld}}",
                 i == 0 ? "" : ",", s.name.c_str(), s.tid,
                 static_cast<double>(s.start - origin_) / 1e3,
                 static_cast<double>(s.end - s.start) / 1e3,
                 static_cast<long long>(s.id));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

int64_t NextSpanId() {
  static std::atomic<int64_t> next{1};
  return next.fetch_add(1);
}

// ---- Running one query ----------------------------------------------------

QueryRun RunQuery(PrestoEngine* engine, const std::string& sql,
                  Tracer* tracer, int64_t id, int tid,
                  const std::string& lane) {
  QueryRun run;
  run.start = SteadyNanos();
  presto::Result<presto::QueryResult> result = engine->Execute(sql);
  run.submitted = SteadyNanos();
  int64_t info_end = run.submitted;
  if (!result.ok()) {
    run.status = result.status();
    run.first_page = run.drained = run.submitted;
  } else {
    presto::QueryResult& query = *result;
    presto::Status status;
    auto page = query.Next();
    run.first_page = SteadyNanos();
    while (page.ok() && page->has_value()) {
      run.pages.push_back(std::move(**page));
      page = query.Next();
    }
    if (!page.ok()) status = page.status();
    presto::Status waited = query.Wait();
    run.status = status.ok() ? waited : status;
    run.drained = SteadyNanos();
    auto info = engine->QueryInfoFor(query.query_id());
    info_end = SteadyNanos();
    if (info.ok()) {
      run.info = std::move(*info);
      run.has_info = true;
    }
  }
  if (tracer != nullptr) {
    tracer->Record(lane + "/engine.execute", id, tid, run.start,
                   run.submitted);
    tracer->Record(lane + "/engine.first_page", id, tid, run.submitted,
                   run.first_page);
    tracer->Record(lane + "/engine.drain", id, tid, run.first_page,
                   run.drained);
    tracer->Record(lane + "/engine.query_info", id, tid, run.drained,
                   info_end);
  }
  return run;
}

// ---- Result oracle --------------------------------------------------------

Rows ToRows(const std::vector<Page>& pages) {
  Rows rows;
  for (const Page& page : pages) {
    for (int64_t r = 0; r < page.num_rows(); ++r) {
      rows.push_back(page.GetRow(r));
    }
  }
  return rows;
}

presto::Result<Rows> ReferenceRows(const presto::Catalog& catalog,
                                   const std::string& sql) {
  PRESTO_ASSIGN_OR_RETURN(presto::sql::StatementPtr stmt,
                          presto::sql::ParseStatement(sql));
  presto::Planner planner(&catalog);
  PRESTO_ASSIGN_OR_RETURN(presto::PlanNodePtr plan, planner.Plan(*stmt));
  return presto::ExecuteReference(catalog, plan);
}

// ---- Per-query and per-run layer figures -----------------------------------

void QuerySamples::Add(const QueryRun& run) {
  if (!run.has_info) return;
  const presto::QueryInfo& info = run.info;
  queued_ms.push_back(info.queued_nanos / 1e6);
  planning_ms.push_back(info.planning_nanos / 1e6);
  execution_ms.push_back(info.execution_nanos / 1e6);
  exec_cpu_ms.push_back(info.stats.total_cpu_nanos / 1e6);
  exec_blocked_ms.push_back(info.stats.total_blocked_nanos / 1e6);
  int64_t serde = 0, queued = 0;
  for (const auto& task : info.stats.tasks) {
    for (const auto& pipeline : task.pipelines) {
      for (const auto& op : pipeline.operators) {
        serde += op.serde_nanos;
        queued += op.queued_nanos;
      }
    }
  }
  exec_serde_ms.push_back(serde / 1e6);
  executor_queued_ms.push_back(queued / 1e6);
  peak_user_mb = std::max(
      peak_user_mb, info.stats.peak_user_memory_bytes / (1024.0 * 1024.0));
}

Counters Counters::Read(PrestoEngine* engine, int64_t dfs_bytes_read) {
  Counters c;
  presto::MetadataManager& mm = engine->metadata_manager();
  c.plan_hits = mm.plan_cache().hits();
  c.plan_misses = mm.plan_cache().misses();
  c.plan_invalidations = mm.plan_cache().invalidations();
  c.meta_hits = mm.metadata_cache().hits();
  c.meta_misses = mm.metadata_cache().misses();
  c.split_hits = mm.split_cache().hits();
  c.split_misses = mm.split_cache().misses();
  presto::Cluster& cluster = engine->cluster();
  c.wire_bytes = cluster.exchange().transferred_bytes();
  c.serialized_raw = cluster.exchange().serialized_raw_bytes();
  c.serialized_wire = cluster.exchange().serialized_wire_bytes();
  c.http_requests = cluster.exchange().http_requests();
  c.http_retries = cluster.exchange().http_retries();
  for (int i = 0; i < cluster.local_workers(); ++i) {
    c.revocations += cluster.worker(i).memory().revocations();
  }
  c.dfs_bytes = dfs_bytes_read;
  if (presto::Histogram* rtt = cluster.liveness().rtt_histogram()) {
    presto::Histogram::Snapshot snap = rtt->snapshot();
    c.heartbeat_rtt_sum_micros = snap.sum;
    c.heartbeat_rtt_count = snap.count;
  }
  return c;
}

Counters Counters::Minus(const Counters& b) const {
  Counters d;
  d.plan_hits = plan_hits - b.plan_hits;
  d.plan_misses = plan_misses - b.plan_misses;
  d.plan_invalidations = plan_invalidations - b.plan_invalidations;
  d.meta_hits = meta_hits - b.meta_hits;
  d.meta_misses = meta_misses - b.meta_misses;
  d.split_hits = split_hits - b.split_hits;
  d.split_misses = split_misses - b.split_misses;
  d.wire_bytes = wire_bytes - b.wire_bytes;
  d.serialized_raw = serialized_raw - b.serialized_raw;
  d.serialized_wire = serialized_wire - b.serialized_wire;
  d.http_requests = http_requests - b.http_requests;
  d.http_retries = http_retries - b.http_retries;
  d.revocations = revocations - b.revocations;
  d.dfs_bytes = dfs_bytes - b.dfs_bytes;
  d.heartbeat_rtt_sum_micros =
      heartbeat_rtt_sum_micros - b.heartbeat_rtt_sum_micros;
  d.heartbeat_rtt_count = heartbeat_rtt_count - b.heartbeat_rtt_count;
  return d;
}

// ---- Isolated layer probes --------------------------------------------------

PlanningProbe ProbePlanning(PrestoEngine* engine,
                            const std::vector<std::string>& selects,
                            Tracer* tracer) {
  std::vector<double> parse, plan, optimize, fragment;
  constexpr int kRounds = 5;
  for (int round = 0; round < kRounds; ++round) {
    for (const std::string& sql : selects) {
      int64_t id = NextSpanId();
      int64_t t0 = SteadyNanos();
      auto stmt = presto::sql::ParseStatement(sql);
      int64_t t1 = SteadyNanos();
      if (!stmt.ok()) continue;
      std::unique_ptr<presto::MetadataSnapshot> snapshot =
          engine->metadata_manager().NewSnapshot();
      presto::Planner planner(snapshot.get());
      int64_t t2 = SteadyNanos();
      auto logical = planner.Plan(**stmt);
      int64_t t3 = SteadyNanos();
      if (!logical.ok()) continue;
      presto::Optimizer optimizer(snapshot.get(), engine->options().optimizer);
      auto optimized = optimizer.Optimize(*logical);
      int64_t t4 = SteadyNanos();
      if (!optimized.ok()) continue;
      presto::Fragmenter fragmenter;
      auto fragments = fragmenter.Fragment(*optimized);
      int64_t t5 = SteadyNanos();
      if (!fragments.ok()) continue;
      parse.push_back((t1 - t0) / 1e3);
      plan.push_back((t3 - t2) / 1e3);
      optimize.push_back((t4 - t3) / 1e3);
      fragment.push_back((t5 - t4) / 1e3);
      if (tracer != nullptr) {
        tracer->Record("sql.parse", id, 0, t0, t1);
        tracer->Record("plan.plan", id, 0, t2, t3);
        tracer->Record("optimizer.optimize", id, 0, t3, t4);
        tracer->Record("fragment.fragment", id, 0, t4, t5);
      }
    }
  }
  return {Median(parse), Median(plan), Median(optimize), Median(fragment)};
}

CodecProbe ProbeCodec(const std::vector<Page>& pages, Tracer* tracer) {
  CodecProbe probe;
  if (pages.empty()) return probe;
  presto::PageCodec codec(presto::ExchangeManager::DefaultCodecOptions());
  constexpr int64_t kMinNanos = 100'000'000;
  int64_t raw = 0, wire = 0, encode_nanos = 0, decode_nanos = 0;
  std::vector<presto::PageCodec::Frame> frames;
  while (encode_nanos < kMinNanos) {
    frames.clear();
    int64_t id = NextSpanId();
    int64_t start = SteadyNanos();
    for (const Page& page : pages) frames.push_back(codec.Encode(page));
    int64_t end = SteadyNanos();
    encode_nanos += end - start;
    if (tracer != nullptr) tracer->Record("page_codec.encode", id, 0, start, end);
    for (const auto& frame : frames) {
      raw += frame.raw_bytes;
      wire += frame.wire_bytes();
    }
  }
  int64_t encode_raw = raw;
  int64_t decode_raw = 0;
  while (decode_nanos < kMinNanos) {
    int64_t id = NextSpanId();
    int64_t start = SteadyNanos();
    for (const auto& frame : frames) {
      auto page = codec.Decode(frame);
      if (page.ok()) decode_raw += frame.raw_bytes;
    }
    int64_t end = SteadyNanos();
    decode_nanos += end - start;
    if (tracer != nullptr) tracer->Record("page_codec.decode", id, 0, start, end);
  }
  probe.encode_mb_per_s = encode_raw / 1e6 / (encode_nanos / 1e9);
  probe.decode_mb_per_s = decode_raw / 1e6 / (decode_nanos / 1e9);
  probe.compression_ratio =
      wire > 0 ? static_cast<double>(raw) / static_cast<double>(wire) : 0;
  return probe;
}

double ProbeScan(presto::Connector* connector, const std::string& table,
                 Tracer* tracer) {
  std::vector<double> rates;
  for (int round = 0; round < 3; ++round) {
    int64_t id = NextSpanId();
    int64_t start = SteadyNanos();
    auto pages = presto::ReadAllPages(connector, table);
    int64_t end = SteadyNanos();
    if (!pages.ok()) return 0;
    int64_t rows = 0;
    for (const Page& page : *pages) rows += page.num_rows();
    if (tracer != nullptr) tracer->Record("connector.scan", id, 0, start, end);
    rates.push_back(static_cast<double>(rows) / ((end - start) / 1e9));
  }
  return Median(rates);
}

// ---- Report -------------------------------------------------------------------

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0;
  }
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::Fail(const std::string& why) {
  ++failed_;
  failures_.push_back(why);
}

void Report::CountAttempts(int64_t attempted) { attempted_ += attempted; }

int Report::Finish(bool trace) const {
  for (const std::string& note : notes_) std::printf("# %s\n", note.c_str());
  for (const Metric& m : metrics_) {
    std::printf("%-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  constexpr size_t kShown = 20;
  for (size_t i = 0; i < failures_.size() && i < kShown; ++i) {
    std::fprintf(stderr, "FAILED: %s\n", failures_[i].c_str());
  }
  if (failures_.size() > kShown) {
    std::fprintf(stderr, "... and %zu more failures\n",
                 failures_.size() - kShown);
  }
  bool correct = failed_ == 0;
  std::printf("# mode: %s, attempted %lld, failed %lld (failed_frac %.6g)\n",
              trace ? "traced" : "untraced",
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_),
              attempted_ > 0 ? static_cast<double>(failed_) / attempted_ : 0.0);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<long long>(std::max<int64_t>(1, attempted_)),
              static_cast<long long>(failed_));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

void CheckEngineDrained(PrestoEngine* engine, Report* report) {
  int running = engine->coordinator().running_queries();
  int queued = engine->coordinator().queued_queries();
  if (running != 0 || queued != 0) {
    report->Fail("queries still running after the load: " +
                 std::to_string(running) + " running, " +
                 std::to_string(queued) + " queued");
  }
  presto::ExchangeManager& exchange = engine->cluster().exchange();
  int64_t buffered = exchange.TotalBufferedBytes();
  int64_t inflight = exchange.TotalInflightBytes();
  int64_t retained = exchange.TotalRetainedBytes();
  if (buffered != 0 || inflight != 0 || retained != 0) {
    report->Fail("exchange holds bytes after the load: buffered " +
                 std::to_string(buffered) + ", in flight " +
                 std::to_string(inflight) + ", retained " +
                 std::to_string(retained));
  }
}

}  // namespace perfbench
