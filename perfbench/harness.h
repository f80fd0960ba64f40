#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/engine.h"

namespace perfbench {

using presto::Page;
using presto::PrestoEngine;
using Rows = std::vector<std::vector<presto::Value>>;

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string git_sha = "unknown";
  /// Directory, relative to the working directory, that the Chrome trace
  /// of a traced run is written into; created when missing.
  std::string out_dir = ".bench_out";
};

// ---- Statistics -----------------------------------------------------------

double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// The highest percentile that has at least ten samples beyond it (the
/// 11th largest sample), with the percentile it sits at and the count.
struct Tail {
  double percentile = 0;
  double value = 0;
  size_t samples = 0;
};
Tail TailOf(std::vector<double> values);

/// The median of the tails of `windows` consecutive equal slices of
/// `values` (in completion order), so one burst of interference from
/// elsewhere on the machine moves one slice's tail, not the result.
Tail WindowedTail(const std::vector<double>& values, int windows);

// ---- Process accounting ---------------------------------------------------

/// User+sys CPU seconds of this process (getrusage).
double SelfCpuSeconds();
/// Current resident set of this process in MiB (/proc/self/statm).
double SelfRssMb();
/// User+sys CPU seconds of another process from /proc/<pid>/stat
/// (includes exited threads; clock-tick resolution).
double ProcCpuSeconds(pid_t pid);
/// On-CPU seconds summed over the live threads of a process from
/// /proc/<pid>/task/*/schedstat (nanosecond resolution).
double ProcThreadCpuSeconds(pid_t pid);
/// Peak resident set of another process in MiB (VmHWM).
double ProcPeakRssMb(pid_t pid);

/// Machine speed: the median wall time in ms of a fixed single-threaded
/// loop of random memory updates. Runs are comparable only while this
/// figure stays put.
double CalibrationMs();

// ---- Bench-side spans -----------------------------------------------------

/// In-memory span recorder. Every span carries the id of the query (or
/// isolated probe) it belongs to and wraps one public call; no span nests
/// inside another, so a span's duration is its self time. Written out once,
/// as a Chrome trace_event JSON, when the run ends.
class Tracer {
 public:
  Tracer();

  void Record(const std::string& name, int64_t id, int tid,
              int64_t start_nanos, int64_t end_nanos);

  /// Durations in ms of every span, grouped by span name.
  std::map<std::string, std::vector<double>> DurationsMs() const;

  size_t size() const;
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int64_t id;
    int tid;
    int64_t start;
    int64_t end;
  };
  const int64_t origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ---- Running one query ----------------------------------------------------

/// One query run through the public API: Execute, the first Next, the drain
/// (remaining Next calls and Wait), then QueryInfoFor. Times are steady
/// clock nanoseconds.
struct QueryRun {
  presto::Status status;
  std::vector<Page> pages;
  int64_t start = 0;
  int64_t submitted = 0;
  int64_t first_page = 0;
  int64_t drained = 0;
  bool has_info = false;
  presto::QueryInfo info;

  double latency_ms() const { return (drained - start) / 1e6; }
};

int64_t SteadyNanos();

/// Runs `sql`; records spans into `tracer` (null: untraced) under `id`,
/// named "<lane>/engine.execute", "<lane>/engine.first_page",
/// "<lane>/engine.drain" and "<lane>/engine.query_info". Lanes keep
/// foreground and background queries apart.
QueryRun RunQuery(PrestoEngine* engine, const std::string& sql,
                  Tracer* tracer, int64_t id, int tid,
                  const std::string& lane);

/// Allocates query/probe ids that are unique within a run.
int64_t NextSpanId();

// ---- Result oracle --------------------------------------------------------

Rows ToRows(const std::vector<Page>& pages);

/// Expected rows of a SELECT from ExecuteReference over its unoptimized
/// logical plan.
presto::Result<Rows> ReferenceRows(const presto::Catalog& catalog,
                                   const std::string& sql);

// ---- Per-query and per-run layer figures -----------------------------------

/// Per-query figures of the queries a workload's latency is taken from.
struct QuerySamples {
  std::vector<double> latency_ms;
  std::vector<double> queued_ms;
  std::vector<double> planning_ms;
  std::vector<double> execution_ms;
  std::vector<double> exec_cpu_ms;
  std::vector<double> exec_blocked_ms;
  std::vector<double> exec_serde_ms;
  std::vector<double> executor_queued_ms;
  double peak_user_mb = 0;

  /// Adds every figure but the latency, which the workload defines.
  void Add(const QueryRun& run);
};

/// Engine counters read before and after a load window; the difference is
/// what the window did.
struct Counters {
  int64_t plan_hits = 0, plan_misses = 0, plan_invalidations = 0;
  int64_t meta_hits = 0, meta_misses = 0;
  int64_t split_hits = 0, split_misses = 0;
  int64_t wire_bytes = 0, serialized_raw = 0, serialized_wire = 0;
  int64_t http_requests = 0, http_retries = 0;
  int64_t revocations = 0;
  int64_t dfs_bytes = 0;
  double heartbeat_rtt_sum_micros = 0;
  int64_t heartbeat_rtt_count = 0;

  /// `dfs_bytes_read` is the hive DFS byte counter (0 without hive).
  static Counters Read(PrestoEngine* engine, int64_t dfs_bytes_read);
  Counters Minus(const Counters& before) const;
};

// ---- Isolated layer probes (traced runs) ----------------------------------

struct PlanningProbe {
  double parse_us = 0, plan_us = 0, optimize_us = 0, fragment_us = 0;
};
/// Times ParseStatement / Planner::Plan / Optimizer::Optimize /
/// Fragmenter::Fragment over `selects`, on fresh MetadataManager snapshots.
PlanningProbe ProbePlanning(PrestoEngine* engine,
                            const std::vector<std::string>& selects,
                            Tracer* tracer);

struct CodecProbe {
  double encode_mb_per_s = 0, decode_mb_per_s = 0, compression_ratio = 0;
};
/// Times PageCodec encode/decode (the exchange's wire options) over pages
/// captured from the workload's results.
CodecProbe ProbeCodec(const std::vector<Page>& pages, Tracer* tracer);

/// Times ReadAllPages over one table; rows per second.
double ProbeScan(presto::Connector* connector, const std::string& table,
                 Tracer* tracer);

// ---- Report -----------------------------------------------------------------

/// Collects named metrics, prints them one per line for people, and prints
/// the result object as the last line of standard output.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& line);
  /// Counts one failure: a failed or wrong query, or a leak.
  void Fail(const std::string& why);
  void CountAttempts(int64_t attempted);

  /// Prints everything; returns the process exit code.
  int Finish(bool trace) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Clean-exit check of an in-process engine after the load stopped: no
/// running query and no bytes left in the exchange. Leaks go to `report`.
void CheckEngineDrained(PrestoEngine* engine, Report* report);

/// Runs the workload named in `options` (workloads.cc) into `report`.
/// Returns false when no workload has that name.
bool RunWorkload(const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
