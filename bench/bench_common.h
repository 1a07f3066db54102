// Shared harness for the paper-reproduction benchmarks (§5): runs a NEXMark
// query on a fresh engine at a fixed input rate for a fixed duration and
// reports p50/p99 event-time latency, exactly as Figures 7-9 do.
//
// Scale note (DESIGN.md §1): the latency models keep the paper's
// millisecond-scale log and RPC latencies, but input rates are ~10x below
// the paper's (one host, one core vs 13 EC2 nodes). Shapes — who wins, by
// what factor, where the latency knee sits — are the reproduction target,
// not absolute event rates.
//
// Env knobs:
//   IMPELLER_BENCH_SECONDS  measurement seconds per point (default 3)
//   IMPELLER_BENCH_WARMUP   warmup seconds per point (default 1)
//   IMPELLER_BENCH_FAST     if set, halves durations and prunes sweeps
//   IMPELLER_BENCH_TRACE    path: enable span tracing and write a Chrome
//                           trace_event JSON covering every run point
//                           (open in about:tracing or ui.perfetto.dev)
//   IMPELLER_BENCH_METRICS  path: write a machine-readable JSON with one
//                           entry per run point (config, p50/p99, and the
//                           full MetricsRegistry snapshot incl. the
//                           "log/*" shared-log counters)
//   IMPELLER_TRACE_RING     per-thread trace ring capacity (default 8192)
//   IMPELLER_BENCH_SEED     master seed (default 7); the --seed=N flag
//                           (parsed by InitBench) takes precedence. One
//                           seed drives the NEXMark generator, the
//                           calibrated latency models, and any fault
//                           schedules, so a run replays bit-for-bit.
//   IMPELLER_SHARDS         shared-log shard count (default 1); the
//                           --shards=N flag takes precedence
//   IMPELLER_WORKERS        scheduler worker count (default 0 = one per
//                           hardware thread); --workers=N takes precedence
//   IMPELLER_TASKS          tasks per stage (default 2); --tasks=N takes
//                           precedence. More tasks = more concurrent
//                           append rounds, which is what saturates a
//                           1-shard sequencer
//   IMPELLER_BENCH_JSON     output path for the machine-readable result
//                           file (default BENCH_<name>.json in the cwd)
#ifndef IMPELLER_BENCH_BENCH_COMMON_H_
#define IMPELLER_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/engine.h"
#include "src/nexmark/driver.h"
#include "src/nexmark/queries.h"
#include "src/obs/metrics_export.h"
#include "src/obs/trace.h"
#include "src/obs/trace_export.h"

namespace impeller {
namespace bench {

// `prefix` followed by `n` in decimal. Appending to a std::string keeps
// Release builds free of GCC 12's false -Wrestrict on the inlined insert of
// `"literal" + std::to_string(n)`.
inline std::string Numbered(std::string_view prefix, long long n) {
  std::string s(prefix);
  s += std::to_string(n);
  return s;
}

inline double EnvSeconds(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) {
    return fallback;
  }
  return std::atof(v);
}

inline bool FastMode() { return std::getenv("IMPELLER_BENCH_FAST") != nullptr; }

inline uint64_t& MutableBenchSeed() {
  static uint64_t seed = [] {
    const char* v = std::getenv("IMPELLER_BENCH_SEED");
    return v != nullptr ? std::strtoull(v, nullptr, 10) : 7ull;
  }();
  return seed;
}

// The master seed every bench derives from: generator, latency models,
// fault schedules. Set by --seed / IMPELLER_BENCH_SEED.
inline uint64_t BenchSeed() { return MutableBenchSeed(); }

// Strict count parser shared by the flag and env paths: `what` names the
// knob in the error. Rejects junk, trailing characters, and values outside
// [min_value, max_value] — a zero-shard or negative-worker engine would
// otherwise misconfigure silently (shards clamp, workers wrap).
inline uint32_t ParseCount(const char* what, const char* value,
                           long long min_value, long long max_value) {
  char* end = nullptr;
  long long parsed = std::strtoll(value, &end, 10);
  if (end == value || *end != '\0' || parsed < min_value ||
      parsed > max_value) {
    std::fprintf(stderr,
                 "impeller: invalid %s '%s': expected an integer in "
                 "[%lld, %lld]\n",
                 what, value, min_value, max_value);
    std::exit(2);
  }
  return static_cast<uint32_t>(parsed);
}

inline uint32_t EnvCount(const char* name, uint32_t fallback,
                         long long min_value, long long max_value) {
  const char* v = std::getenv(name);
  if (v == nullptr) {
    return fallback;
  }
  return ParseCount(name, v, min_value, max_value);
}

inline constexpr long long kMaxShards = 1024;
inline constexpr long long kMaxWorkers = 4096;
inline constexpr long long kMaxTasks = 4096;

inline uint32_t& MutableBenchShards() {
  static uint32_t shards = EnvCount("IMPELLER_SHARDS", 1, 1, kMaxShards);
  return shards;
}

inline uint32_t& MutableBenchWorkers() {
  // 0 is valid: one worker per hardware thread.
  static uint32_t workers = EnvCount("IMPELLER_WORKERS", 0, 0, kMaxWorkers);
  return workers;
}

// Shared-log shard count every bench engine uses (--shards /
// IMPELLER_SHARDS; default 1 = the seed's single sequencer).
inline uint32_t BenchShards() { return MutableBenchShards(); }

// Scheduler worker count (--workers / IMPELLER_WORKERS; default 0 = one
// worker per hardware thread).
inline uint32_t BenchWorkers() { return MutableBenchWorkers(); }

inline uint32_t& MutableBenchTasks() {
  static uint32_t tasks = EnvCount("IMPELLER_TASKS", 2, 1, kMaxTasks);
  return tasks;
}

// Tasks per stage (--tasks / IMPELLER_TASKS; default 2, the paper's
// baseline parallelism).
inline uint32_t BenchTasks() { return MutableBenchTasks(); }

// Set by InitBench from argv[0]: "bench_micro_log" -> "micro_log".
inline std::string& MutableBenchName() {
  static std::string name = "bench";
  return name;
}

// Parses and strips "--seed=N" / "--shards=N" / "--workers=N" (and their
// two-token forms) from argv so every bench binary shares the same flags —
// google-benchmark binaries call this *before* benchmark::Initialize, which
// rejects unknown flags.
inline void InitBench(int* argc, char** argv) {
  if (*argc > 0) {
    std::string_view bin = argv[0];
    if (size_t slash = bin.rfind('/'); slash != std::string_view::npos) {
      bin.remove_prefix(slash + 1);
    }
    if (bin.rfind("bench_", 0) == 0) {
      bin.remove_prefix(6);
    }
    MutableBenchName() = std::string(bin);
  }
  auto u64 = [](const char* s) { return std::strtoull(s, nullptr, 10); };
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      MutableBenchSeed() = u64(argv[i] + 7);
    } else if (arg == "--seed" && i + 1 < *argc) {
      MutableBenchSeed() = u64(argv[++i]);
    } else if (arg.rfind("--shards=", 0) == 0) {
      MutableBenchShards() = ParseCount("--shards", argv[i] + 9, 1, kMaxShards);
    } else if (arg == "--shards" && i + 1 < *argc) {
      MutableBenchShards() = ParseCount("--shards", argv[++i], 1, kMaxShards);
    } else if (arg.rfind("--workers=", 0) == 0) {
      MutableBenchWorkers() =
          ParseCount("--workers", argv[i] + 10, 0, kMaxWorkers);
    } else if (arg == "--workers" && i + 1 < *argc) {
      MutableBenchWorkers() =
          ParseCount("--workers", argv[++i], 0, kMaxWorkers);
    } else if (arg.rfind("--tasks=", 0) == 0) {
      MutableBenchTasks() = ParseCount("--tasks", argv[i] + 8, 1, kMaxTasks);
    } else if (arg == "--tasks" && i + 1 < *argc) {
      MutableBenchTasks() = ParseCount("--tasks", argv[++i], 1, kMaxTasks);
    } else {
      argv[out++] = argv[i];
    }
  }
  argv[out] = nullptr;
  *argc = out;
}

inline double MeasureSeconds() {
  double s = EnvSeconds("IMPELLER_BENCH_SECONDS", 3.0);
  return FastMode() ? s / 2 : s;
}

inline double WarmupSeconds() {
  double s = EnvSeconds("IMPELLER_BENCH_WARMUP", 1.0);
  return FastMode() ? s / 2 : s;
}

// Which system configuration a series runs (§5.1).
enum class System {
  kImpeller,      // progress marking on the Boki-model shared log
  kKafkaStreams,  // txn protocol on the Kafka-latency log (emulated KS)
  kKafkaTxn,      // Kafka Streams' txn protocol inside Impeller (§5.3.2)
  kAlignedCkpt,   // Flink-style aligned checkpointing (§5.3.3)
  kUnsafe,        // no progress tracking (§5.3.4)
};

inline const char* SystemName(System s) {
  switch (s) {
    case System::kImpeller:
      return "impeller";
    case System::kKafkaStreams:
      return "kafka-streams";
    case System::kKafkaTxn:
      return "ks-txn-impeller";
    case System::kAlignedCkpt:
      return "aligned-ckpt";
    case System::kUnsafe:
      return "unsafe";
  }
  return "?";
}

struct RunConfig {
  System system = System::kImpeller;
  int query = 1;
  double events_per_sec = 10000;
  DurationNs commit_interval = 100 * kMillisecond;
  DurationNs snapshot_interval = 10 * kSecond;
  uint32_t tasks_per_stage = BenchTasks();
  uint32_t shards = BenchShards();    // shared-log shard count
  uint32_t workers = BenchWorkers();  // scheduler workers (0 = hardware)
  double warmup_sec = WarmupSeconds();
  double measure_sec = MeasureSeconds();
};

struct RunResult {
  int64_t p50 = 0;   // ns
  int64_t p99 = 0;   // ns
  uint64_t outputs = 0;
  uint64_t inputs = 0;
  bool saturated = false;  // p99 beyond the paper's cutoff for the query
};

// One entry of the machine-readable result file BENCH_<name>.json.
struct BenchPoint {
  std::string name;         // series/case, e.g. "impeller/q1/10000"
  double ns_per_op = 0;     // mean time per operation/output
  double ops_per_sec = 0;   // throughput
  int64_t p50_ns = 0;       // 0 when the case has no latency distribution
  int64_t p99_ns = 0;
  std::string extra;        // extra JSON fields: `"k": v, "k2": v2` (no
                            // trailing comma), appended to the entry
};

// Accumulates BenchPoints and rewrites BENCH_<name>.json after every Add,
// so interrupted sweeps still leave a parseable file. The header records
// the run configuration (seed, shards, workers, fast mode) once; every
// bench binary emits this file unconditionally — CI uploads them as
// artifacts and the shard-scaling acceptance check compares two of them.
class BenchJson {
 public:
  static BenchJson& Instance() {
    static BenchJson json;
    return json;
  }

  void Add(const BenchPoint& p) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  {\"name\": \"%s\", \"ns_per_op\": %.1f, "
                  "\"ops_per_sec\": %.1f, \"p50_ns\": %lld, \"p99_ns\": %lld",
                  p.name.c_str(), p.ns_per_op, p.ops_per_sec,
                  static_cast<long long>(p.p50_ns),
                  static_cast<long long>(p.p99_ns));
    std::string entry = buf;
    if (!p.extra.empty()) {
      entry += ", " + p.extra;
    }
    entry += "}";
    points_.push_back(std::move(entry));
    WriteAll();
  }

  std::string path() const {
    const char* override_path = std::getenv("IMPELLER_BENCH_JSON");
    if (override_path != nullptr) {
      return override_path;
    }
    return "BENCH_" + MutableBenchName() + ".json";
  }

 private:
  void WriteAll() const {
    char head[256];
    std::snprintf(head, sizeof(head),
                  "{\"bench\": \"%s\", \"seed\": %llu, \"shards\": %u, "
                  "\"workers\": %u, \"fast\": %s,\n \"points\": [\n",
                  MutableBenchName().c_str(),
                  static_cast<unsigned long long>(BenchSeed()), BenchShards(),
                  BenchWorkers(), FastMode() ? "true" : "false");
    std::string body = head;
    for (size_t i = 0; i < points_.size(); ++i) {
      body += points_[i];
      body += i + 1 < points_.size() ? ",\n" : "\n";
    }
    body += "]}\n";
    if (Status st = obs::WriteFile(path().c_str(), body); !st.ok()) {
      std::fprintf(stderr, "bench json export failed: %s\n",
                   st.ToString().c_str());
    }
  }

  std::vector<std::string> points_;
};

// Observability session shared by every run point of a bench binary: when
// IMPELLER_BENCH_TRACE / IMPELLER_BENCH_METRICS are set, each point drains
// the span collector into one growing Chrome trace and appends a JSON entry
// (config + metrics snapshot) rewritten after every point, so interrupted
// sweeps still leave usable files.
class BenchObs {
 public:
  static BenchObs& Instance() {
    static BenchObs* obs = new BenchObs();  // writer closed via atexit
    return *obs;
  }

  void OnRunStart() {
    if (trace_path_ != nullptr) {
      obs::TraceCollector::Get().Enable();
    }
  }

  void OnRunEnd(Engine* engine, const RunConfig& config,
                const RunResult& result) {
    if (trace_path_ != nullptr) {
      if (!trace_writer_.is_open()) {
        if (Status st = trace_writer_.Open(trace_path_); !st.ok()) {
          std::fprintf(stderr, "trace export disabled: %s\n",
                       st.ToString().c_str());
          trace_path_ = nullptr;
        }
      }
      if (trace_writer_.is_open()) {
        (void)trace_writer_.Append(obs::TraceCollector::Get().Drain());
      }
    }
    if (metrics_path_ == nullptr) {
      return;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"system\": \"%s\", \"query\": %d, "
                  "\"events_per_sec\": %.0f, \"commit_interval_ms\": %.1f, "
                  "\"p50_ns\": %lld, \"p99_ns\": %lld, \"inputs\": %llu, "
                  "\"outputs\": %llu, \"saturated\": %s,\n\"metrics\": ",
                  SystemName(config.system), config.query,
                  config.events_per_sec, config.commit_interval / 1e6,
                  static_cast<long long>(result.p50),
                  static_cast<long long>(result.p99),
                  static_cast<unsigned long long>(result.inputs),
                  static_cast<unsigned long long>(result.outputs),
                  result.saturated ? "true" : "false");
    if (!points_.empty()) {
      points_ += ",\n";
    }
    points_ += buf;
    points_ += obs::MetricsToJson(engine->metrics());
    points_ += "}";
    Status st = obs::WriteFile(metrics_path_,
                               "{\"points\": [\n" + points_ + "\n]}\n");
    if (!st.ok()) {
      std::fprintf(stderr, "metrics export failed: %s\n",
                   st.ToString().c_str());
    }
  }

 private:
  BenchObs()
      : trace_path_(std::getenv("IMPELLER_BENCH_TRACE")),
        metrics_path_(std::getenv("IMPELLER_BENCH_METRICS")) {
    std::atexit([] { (void)Instance().trace_writer_.Close(); });
  }

  const char* trace_path_;
  const char* metrics_path_;
  obs::ChromeTraceWriter trace_writer_;
  std::string points_;  // accumulated per-point JSON entries
};

inline EngineOptions MakeEngineOptions(const RunConfig& config,
                                       uint64_t seed) {
  EngineOptions options;
  switch (config.system) {
    case System::kImpeller:
      options.config.protocol = ProtocolKind::kProgressMarking;
      options.log_latency = std::make_shared<CalibratedLatencyModel>(
          CalibratedLatencyModel::BokiParams(), seed);
      break;
    case System::kKafkaStreams:
      options.config.protocol = ProtocolKind::kKafkaTxn;
      options.log_latency = std::make_shared<CalibratedLatencyModel>(
          CalibratedLatencyModel::KafkaParams(), seed);
      break;
    case System::kKafkaTxn:
      options.config.protocol = ProtocolKind::kKafkaTxn;
      options.log_latency = std::make_shared<CalibratedLatencyModel>(
          CalibratedLatencyModel::BokiParams(), seed);
      break;
    case System::kAlignedCkpt: {
      options.config.protocol = ProtocolKind::kAlignedCheckpoint;
      options.log_latency = std::make_shared<CalibratedLatencyModel>(
          CalibratedLatencyModel::BokiParams(), seed);
      // Checkpoint-store writes pay a remote synchronous flush (Kvrocks
      // with a synced WAL, §5.1). Operator state scales with the input
      // rate, and our rates are ~10x the paper's below scale, so the
      // per-byte cost is scaled up 10x to preserve the paper's
      // checkpoint-cost : commit-interval ratio (the quantity that drives
      // aligned checkpointing's latency behaviour, §5.3.3).
      CalibratedLatencyParams kv;
      kv.ack_median = static_cast<DurationNs>(1.2 * kMillisecond);
      kv.ack_sigma = 0.2;
      kv.per_byte_ns = 150.0;  // sync WAL flush path; ~67 MB/s at paper-scale state sizes
      options.kv_latency =
          std::make_shared<CalibratedLatencyModel>(kv, seed + 1);
      break;
    }
    case System::kUnsafe:
      options.config.protocol = ProtocolKind::kUnsafe;
      options.log_latency = std::make_shared<CalibratedLatencyModel>(
          CalibratedLatencyModel::BokiParams(), seed);
      break;
  }
  if (options.kv_latency == nullptr) {
    CalibratedLatencyParams kv;
    kv.ack_median = static_cast<DurationNs>(1.2 * kMillisecond);
    kv.ack_sigma = 0.2;
    kv.per_byte_ns = 8.0;
    options.kv_latency =
        std::make_shared<CalibratedLatencyModel>(kv, seed + 1);
  }
  options.config.commit_interval = config.commit_interval;
  options.config.snapshot_interval = config.snapshot_interval;
  options.config.log_shards = config.shards;
  options.config.sched_workers = config.workers;
  return options;
}

inline NexmarkQueryOptions ScaledQueryOptions(const RunConfig& config) {
  NexmarkQueryOptions q;
  q.tasks_per_stage = config.tasks_per_stage;
  // Paper windows: Q5 10s/2s, Q7 1min, Q8 10s. Q7 is scaled to 10s so each
  // point observes multiple windows.
  q.q5_window = 10 * kSecond;
  q.q5_slide = 2 * kSecond;
  q.q7_window = 10 * kSecond;
  q.q8_window = 10 * kSecond;
  q.join_window = 10 * kSecond;
  return q;
}

// Runs one point on an already-built QueryPlan. `series` replaces the
// system name in the emitted BenchPoint ("<series>/q<N>/<rate>") so
// alternative lowerings of the same query (e.g. the declarative-plan
// ablation's fused vs unfused builds) land as distinct rows in the same
// JSON file. The sink metrics ("lat/q<N>", "out/q<N>") are named by the
// query's sink, not its stage layout, so any lowering reports here.
// `extra_json`, when nonempty, is appended to the point's extra fields
// (`"k": v` pairs, no trailing comma).
inline RunResult RunPreparedPoint(const RunConfig& config, QueryPlan plan,
                                  const std::string& series,
                                  uint64_t seed = BenchSeed(),
                                  const std::string& extra_json = "") {
  BenchObs::Instance().OnRunStart();
  Engine engine(MakeEngineOptions(config, seed));
  if (Status st = engine.Submit(std::move(plan)); !st.ok()) {
    std::fprintf(stderr, "submit failed: %s\n", st.ToString().c_str());
    return {};
  }
  NexmarkDriverOptions driver_options;
  driver_options.events_per_sec = config.events_per_sec;
  // Generators flush every 10 ms for Q1-2 and 100 ms for Q3-8 (§5.3).
  driver_options.flush_interval =
      config.query <= 2 ? 10 * kMillisecond : 100 * kMillisecond;
  driver_options.seed = seed;
  auto driver = NexmarkDriver::Create(&engine, config.query, driver_options);
  if (!driver.ok()) {
    std::fprintf(stderr, "driver failed: %s\n",
                 driver.status().ToString().c_str());
    return {};
  }

  Clock* clock = engine.clock();
  (*driver)->Start();
  clock->SleepFor(static_cast<DurationNs>(config.warmup_sec * kSecond));
  std::string sink = NexmarkSinkName(config.query);
  LatencyHistogram* latency = engine.metrics()->Histogram("lat/" + sink);
  Counter* outputs = engine.metrics()->GetCounter("out/" + sink);
  latency->Reset();
  uint64_t outputs_before = outputs->Get();
  clock->SleepFor(static_cast<DurationNs>(config.measure_sec * kSecond));

  RunResult result;
  result.p50 = latency->p50();
  result.p99 = latency->p99();
  result.outputs = outputs->Get() - outputs_before;
  (*driver)->Stop();
  result.inputs = (*driver)->events_sent();
  engine.Stop();
  int64_t cutoff = config.query <= 2 ? 60 * kMillisecond : kSecond;
  // saturated means "this point is past the knee": either the sink's p99
  // blew through the paper's cutoff, or the sink produced nothing at all
  // (p50 == 0). The second arm has a benign cause in fast mode: q3-q8 use
  // 10 s windows but IMPELLER_BENCH_FAST measures for ~1.5 s, so no window
  // can fire before the run ends — the pipeline is consuming, not stalled.
  // The JSON row therefore always carries the consumed-input rate, and a
  // saturated row records which arm tripped, so the trajectory stays
  // informative even when the output-side numbers are all zero.
  result.saturated = result.p99 > cutoff || result.p50 == 0;
  BenchObs::Instance().OnRunEnd(&engine, config, result);

  BenchPoint point;
  {
    char name[128];
    std::snprintf(name, sizeof(name), "%s/q%d/%.0f", series.c_str(),
                  config.query, config.events_per_sec);
    point.name = name;
  }
  double throughput =
      config.measure_sec > 0 ? result.outputs / config.measure_sec : 0;
  point.ops_per_sec = throughput;
  point.ns_per_op = throughput > 0 ? 1e9 / throughput : 0;
  point.p50_ns = result.p50;
  point.p99_ns = result.p99;
  {
    double run_sec = config.warmup_sec + config.measure_sec;
    double input_rate = run_sec > 0 ? result.inputs / run_sec : 0;
    char extra[384];
    std::snprintf(extra, sizeof(extra),
                  "\"system\": \"%s\", \"query\": %d, "
                  "\"events_per_sec\": %.0f, \"commit_interval_ms\": %.1f, "
                  "\"tasks_per_stage\": %u, \"inputs\": %llu, "
                  "\"outputs\": %llu, \"input_rate\": %.0f, "
                  "\"saturated\": %s",
                  SystemName(config.system), config.query,
                  config.events_per_sec, config.commit_interval / 1e6,
                  config.tasks_per_stage,
                  static_cast<unsigned long long>(result.inputs),
                  static_cast<unsigned long long>(result.outputs), input_rate,
                  result.saturated ? "true" : "false");
    point.extra = extra;
    if (result.saturated) {
      point.extra += result.p50 == 0 ? ", \"saturation_cause\": \"no_output\""
                                     : ", \"saturation_cause\": \"latency\"";
    }
    if (!extra_json.empty()) {
      point.extra += ", " + extra_json;
    }
  }
  BenchJson::Instance().Add(point);
  return result;
}

// Runs one (system, query, rate) point on the imperative query build and
// reports sink latency.
inline RunResult RunPoint(const RunConfig& config,
                          uint64_t seed = BenchSeed()) {
  auto plan = BuildNexmarkQuery(config.query, ScaledQueryOptions(config));
  if (!plan.ok()) {
    std::fprintf(stderr, "plan build failed: %s\n",
                 plan.status().ToString().c_str());
    return {};
  }
  return RunPreparedPoint(config, std::move(*plan),
                          SystemName(config.system), seed);
}

inline std::string Ms(int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", ns / 1e6);
  return buf;
}

}  // namespace bench
}  // namespace impeller

#endif  // IMPELLER_BENCH_BENCH_COMMON_H_
