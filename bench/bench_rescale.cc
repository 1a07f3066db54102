// Live-rescaling bench (DESIGN.md §13): a stateful keyed-aggregate stage is
// rescaled mid-run while a producer keeps feeding it, measuring what the
// paper's Impeller design makes cheap — reconfiguration through the shared
// log instead of a stop-the-world restart.
//
// Part A (per marker protocol): a NEXMark-Q3-style per-key running
// aggregate runs at a steady rate; the stage is scaled 2->4 (state split)
// and then 4->1 (state merge) while outputs are sampled on arrival. The
// *handoff blackout* is the output-arrival gap spanning the rescale
// instant: the window in which the old generation has cut its final marker
// but the new generation has not yet replayed ownership from the changelog.
// State-transfer throughput is the changelog bytes the new generation
// re-appended ("rescale/state_bytes") divided by that blackout.
//
// Part B: the autoscaler closes the loop on a NEXMark-Q4-style per-category
// maximum under a hot-key skew ramp. The *reaction time* is ramp start ->
// the controller's first scale-up decision (EWMA of input lag crossing the
// threshold for up_ticks consecutive ticks).
//
// Reported in BENCH_rescale.json:
//   rescale/<proto>/up/blackout    ns_per_op = blackout across 2->4
//   rescale/<proto>/down/blackout  ns_per_op = blackout across 4->1
//   rescale/autoscale/reaction     ns_per_op = skew ramp -> first decision
//
// Usage: bench_rescale [--seed=N] [--shards=N]   (also IMPELLER_BENCH_SEED
// / IMPELLER_SHARDS / IMPELLER_BENCH_FAST)
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/threading.h"
#include "src/core/engine.h"

namespace impeller {
namespace bench {
namespace {

double Scale() { return FastMode() ? 0.5 : 1.0; }

constexpr uint32_t kSubstreams = 8;
constexpr int kKeys = 64;

AggregateFn RunningCount() {
  AggregateFn fn;
  fn.init = [] { return std::string("0"); };
  fn.add = [](std::string_view acc, const StreamRecord&) {
    return std::to_string(std::stoll(std::string(acc)) + 1);
  };
  return fn;
}

AggregateFn RunningMax() {
  AggregateFn fn;
  fn.init = [] { return std::string("0"); };
  fn.add = [](std::string_view acc, const StreamRecord& r) {
    int64_t prev = std::stoll(std::string(acc));
    int64_t next = std::stoll(std::string(r.value));
    return std::to_string(std::max(prev, next));
  };
  return fn;
}

// Q3-flavoured pipeline: per-key running aggregate over an over-partitioned
// stateful stage, with a stateless formatter downstream so rescaling also
// rewires a consumer stage.
Result<QueryPlan> CountPlan(uint32_t agg_tasks) {
  QueryBuilder qb("rq");
  qb.Ingress("events");
  qb.AddStage("agg", agg_tasks)
      .WithSubstreams(kSubstreams)
      .ReadsFrom({"events"})
      .Aggregate("c", RunningCount())
      .WritesTo("counts");
  qb.AddStage("fmt", 2)
      .ReadsFrom({"counts"})
      .Map([](StreamRecord r) { return r; })
      .Sink("rq");
  return qb.Build();
}

// The gap between consecutive output arrivals that spans `at` — the
// blackout a downstream consumer observes across the rescale instant.
DurationNs GapAcross(const std::vector<TimeNs>& times, TimeNs at) {
  TimeNs before = 0;
  TimeNs after = 0;
  for (TimeNs t : times) {
    if (t <= at) {
      before = t;
    } else {
      after = t;
      break;
    }
  }
  if (before == 0 || after == 0) {
    return 0;
  }
  return after - before;
}

// Longest inter-arrival gap restricted to [from, to]: the fault-free
// cadence the blackout is compared against.
DurationNs MaxGap(const std::vector<TimeNs>& times, TimeNs from, TimeNs to) {
  DurationNs max_gap = 0;
  TimeNs prev = 0;
  bool have_prev = false;
  for (TimeNs t : times) {
    if (t < from || t > to) {
      continue;
    }
    if (have_prev) {
      max_gap = std::max<DurationNs>(max_gap, t - prev);
    }
    prev = t;
    have_prev = true;
  }
  return max_gap;
}

struct RescaleMeasurement {
  DurationNs blackout = 0;       // output gap spanning the rescale call
  DurationNs baseline_gap = 0;   // worst fault-free gap before the rescale
  DurationNs call_wall = 0;      // synchronous RescaleStage() wall time
  uint64_t state_bytes = 0;      // changelog bytes re-appended by new gen
  uint64_t handoffs = 0;         // handoff sources consumed
};

// One engine run: warm at a steady rate, rescale `agg` from->to mid-stream,
// keep feeding, and extract the blackout from the sampled output arrivals.
Result<RescaleMeasurement> MeasureRescale(ProtocolKind protocol,
                                          uint32_t from_tasks,
                                          uint32_t to_tasks, uint64_t seed) {
  EngineOptions options;
  options.config.protocol = protocol;
  options.config.log_shards = BenchShards();
  options.config.sched_workers = BenchWorkers();
  options.config.commit_interval = 20 * kMillisecond;
  options.config.output_flush_interval = 5 * kMillisecond;
  options.config.snapshot_interval = kSecond;
  // No fault injection here: the restart monitor would race the planned
  // reconfiguration and add restarts to the measurement.
  options.config.auto_restart = false;
  options.log_latency = std::make_shared<CalibratedLatencyModel>(
      CalibratedLatencyModel::BokiParams(), seed);
  Engine engine(std::move(options));
  auto plan = CountPlan(from_tasks);
  if (!plan.ok()) {
    return plan.status();
  }
  IMPELLER_RETURN_IF_ERROR(engine.Submit(std::move(*plan)));
  auto producer = engine.NewProducer("gen", "events");
  if (!producer.ok()) {
    return producer.status();
  }

  Clock* clock = engine.clock();
  Counter* out = engine.metrics()->GetCounter("out/rq");
  std::atomic<bool> stop{false};

  // Feeder: steady keyed traffic in small flushed batches, well below the
  // stage's capacity — the blackout should measure the reconfiguration
  // (final commit + ownership replay), not how much backlog piled up
  // before the graceful drain.
  JoiningThread feeder([&] {
    uint64_t n = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (int i = 0; i < 40; ++i) {
        (*producer)->Send(Numbered("u", n % kKeys), "x");
        ++n;
      }
      (void)(*producer)->Flush();
      clock->SleepFor(8 * kMillisecond);
    }
  });

  // Sampler: timestamp every observed increase of the committed-output
  // counter. Inter-arrival gaps in this series are the consumer-visible
  // stall signal; the log-side lag is not (metalog visibility).
  std::vector<TimeNs> arrivals;
  JoiningThread sampler([&] {
    uint64_t last = out->Get();
    while (!stop.load(std::memory_order_relaxed)) {
      uint64_t now_count = out->Get();
      if (now_count > last) {
        arrivals.push_back(clock->Now());
        last = now_count;
      }
      clock->SleepFor(kMillisecond / 2);
    }
  });

  const DurationNs warm = static_cast<DurationNs>(0.6 * Scale() * kSecond);
  const DurationNs settle = static_cast<DurationNs>(0.8 * Scale() * kSecond);
  const TimeNs t_start = clock->Now();
  clock->SleepFor(warm);

  const uint64_t bytes_before =
      engine.metrics()->GetCounter("rescale/state_bytes")->Get();
  const uint64_t handoffs_before =
      engine.metrics()->GetCounter("rescale/handoffs")->Get();
  const TimeNs t_rescale = clock->Now();
  IMPELLER_RETURN_IF_ERROR(engine.tasks()->RescaleStage("agg", to_tasks));
  const TimeNs t_done = clock->Now();
  clock->SleepFor(settle);
  const TimeNs t_settled = clock->Now();

  stop.store(true);
  feeder.Join();
  sampler.Join();
  engine.Stop();

  RescaleMeasurement m;
  // The handoff finishes asynchronously after RescaleStage returns (the new
  // generation replays ownership in its own StepInit), so the blackout is
  // the worst output stall anywhere across the reconfiguration window, not
  // just the gap spanning the call instant.
  m.blackout = std::max(GapAcross(arrivals, t_rescale),
                        MaxGap(arrivals, t_rescale, t_settled));
  m.baseline_gap = MaxGap(arrivals, t_start, t_rescale);
  m.call_wall = t_done - t_rescale;
  m.state_bytes =
      engine.metrics()->GetCounter("rescale/state_bytes")->Get() -
      bytes_before;
  m.handoffs =
      engine.metrics()->GetCounter("rescale/handoffs")->Get() -
      handoffs_before;
  return m;
}

void ReportRescale(const char* proto_name, const char* direction,
                   uint32_t from_tasks, uint32_t to_tasks,
                   const RescaleMeasurement& m) {
  const double blackout_sec = m.blackout / 1e9;
  const double mb_per_sec =
      blackout_sec > 0 ? m.state_bytes / 1e6 / blackout_sec : 0;
  std::printf("%-10s %u->%u  blackout %8.2f ms  call %6.2f ms  "
              "state %7llu B  %8.2f MB/s  baseline gap %6.2f ms\n",
              proto_name, from_tasks, to_tasks, m.blackout / 1e6,
              m.call_wall / 1e6,
              static_cast<unsigned long long>(m.state_bytes), mb_per_sec,
              m.baseline_gap / 1e6);
  BenchPoint point;
  point.name = std::string("rescale/") + proto_name + "/" + direction +
               "/blackout";
  point.ns_per_op = static_cast<double>(m.blackout);
  char extra[256];
  std::snprintf(extra, sizeof(extra),
                "\"from_tasks\": %u, \"to_tasks\": %u, "
                "\"rescale_call_ns\": %lld, \"state_bytes\": %llu, "
                "\"state_mb_per_sec\": %.2f, \"handoffs\": %llu, "
                "\"baseline_gap_ns\": %lld",
                from_tasks, to_tasks, static_cast<long long>(m.call_wall),
                static_cast<unsigned long long>(m.state_bytes), mb_per_sec,
                static_cast<unsigned long long>(m.handoffs),
                static_cast<long long>(m.baseline_gap));
  point.extra = extra;
  BenchJson::Instance().Add(point);
}

// Part B: hot-key skew ramp against the autoscaler. Returns reaction time
// (ramp start -> first up decision), or 0 if the controller never reacted.
Result<DurationNs> MeasureAutoscaleReaction(uint64_t seed,
                                            uint32_t* tasks_after,
                                            uint64_t* events_sent) {
  EngineOptions options;
  options.config.protocol = ProtocolKind::kProgressMarking;
  options.config.log_shards = BenchShards();
  options.config.sched_workers = BenchWorkers();
  options.config.commit_interval = 20 * kMillisecond;
  options.config.output_flush_interval = 5 * kMillisecond;
  options.config.snapshot_interval = kSecond;
  options.config.auto_restart = false;
  options.config.autoscale.enabled = true;
  options.config.autoscale.tick_interval = 10 * kMillisecond;
  options.config.autoscale.up_threshold = 200;
  options.config.autoscale.up_ticks = 2;
  options.config.autoscale.cooldown = 100 * kMillisecond;
  options.config.autoscale.down_ticks = 100000;  // no churn mid-measurement
  options.log_latency = std::make_shared<CalibratedLatencyModel>(
      CalibratedLatencyModel::BokiParams(), seed);
  Engine engine(std::move(options));

  // Q4 flavour: maximum bid price per auction category, over-partitioned so
  // the controller has somewhere to grow.
  QueryBuilder qb("q4max");
  qb.Ingress("bids");
  qb.AddStage("catmax", 1)
      .WithSubstreams(kSubstreams)
      .ReadsFrom({"bids"})
      .Aggregate("max", RunningMax())
      .Sink("q4max");
  auto plan = qb.Build();
  if (!plan.ok()) {
    return plan.status();
  }
  IMPELLER_RETURN_IF_ERROR(engine.Submit(std::move(*plan)));
  auto producer = engine.NewProducer("bidgen", "bids");
  if (!producer.ok()) {
    return producer.status();
  }

  Clock* clock = engine.clock();
  uint64_t sent = 0;
  auto send = [&](int category) {
    (*producer)->Send(Numbered("cat", category),
                      std::to_string(100 + sent % 900));
    ++sent;
  };

  // Steady uniform phase: well under the lag threshold, no reaction.
  const TimeNs t_uniform_end =
      clock->Now() + static_cast<DurationNs>(0.3 * Scale() * kSecond);
  while (clock->Now() < t_uniform_end) {
    for (int i = 0; i < 50; ++i) {
      send(static_cast<int>(sent % 8));
    }
    IMPELLER_RETURN_IF_ERROR((*producer)->Flush().status());
    clock->SleepFor(5 * kMillisecond);
  }
  if (engine.autoscaler()->decisions_up() != 0) {
    return InternalError("controller reacted during the uniform phase");
  }

  // Skew ramp: one hot category takes most of the traffic at a flood rate
  // the single task cannot absorb.
  const TimeNs t_ramp = clock->Now();
  const TimeNs deadline = t_ramp + 20 * kSecond;
  while (engine.autoscaler()->decisions_up() == 0 &&
         clock->Now() < deadline) {
    for (int i = 0; i < 2000; ++i) {
      send(i % 10 == 0 ? static_cast<int>(sent % 8) : 0);
    }
    IMPELLER_RETURN_IF_ERROR((*producer)->Flush().status());
    clock->SleepFor(5 * kMillisecond);
  }
  const DurationNs reaction =
      engine.autoscaler()->decisions_up() > 0 ? clock->Now() - t_ramp : 0;

  *tasks_after = 0;
  for (const auto& s : engine.tasks()->CollectStageStats()) {
    if (s.stage == "catmax") {
      *tasks_after = s.current_tasks;
    }
  }
  *events_sent = sent;
  engine.Stop();
  return reaction;
}

int Main() {
  const uint64_t seed = BenchSeed();
  std::printf("Live rescaling: %u shards, seed %llu%s\n"
              "stateful keyed aggregate rescaled mid-run; blackout is the\n"
              "output-arrival gap across the rescale instant.\n\n",
              BenchShards(), static_cast<unsigned long long>(seed),
              FastMode() ? " (fast)" : "");

  struct Proto {
    ProtocolKind kind;
    const char* name;
  };
  const Proto protos[] = {{ProtocolKind::kProgressMarking, "impeller"},
                          {ProtocolKind::kKafkaTxn, "kafka-txn"}};
  bool engaged = true;
  for (const auto& proto : protos) {
    auto up = MeasureRescale(proto.kind, 2, 4, seed);
    if (!up.ok()) {
      std::fprintf(stderr, "%s scale-up failed: %s\n", proto.name,
                   up.status().ToString().c_str());
      return 1;
    }
    ReportRescale(proto.name, "up", 2, 4, *up);
    auto down = MeasureRescale(proto.kind, 4, 1, seed + 1);
    if (!down.ok()) {
      std::fprintf(stderr, "%s scale-down failed: %s\n", proto.name,
                   down.status().ToString().c_str());
      return 1;
    }
    ReportRescale(proto.name, "down", 4, 1, *down);
    // Every marker-protocol rescale must actually move state through the
    // changelog; a zero means the handoff path silently didn't run.
    if (up->handoffs == 0 || down->handoffs == 0 || up->state_bytes == 0) {
      engaged = false;
    }
  }

  uint32_t tasks_after = 0;
  uint64_t events_sent = 0;
  auto reaction = MeasureAutoscaleReaction(seed, &tasks_after, &events_sent);
  if (!reaction.ok()) {
    std::fprintf(stderr, "autoscale run failed: %s\n",
                 reaction.status().ToString().c_str());
    return 1;
  }
  std::printf("\nautoscaler reaction %8.2f ms  tasks 1->%u  "
              "events %llu\n",
              *reaction / 1e6, tasks_after,
              static_cast<unsigned long long>(events_sent));
  BenchPoint point;
  point.name = "rescale/autoscale/reaction";
  point.ns_per_op = static_cast<double>(*reaction);
  char extra[128];
  std::snprintf(extra, sizeof(extra),
                "\"tasks_after\": %u, \"events\": %llu", tasks_after,
                static_cast<unsigned long long>(events_sent));
  point.extra = extra;
  BenchJson::Instance().Add(point);

  std::printf("\nThe blackout is bounded by the old generation's final "
              "commit plus the\nchangelog replay of the migrated ranges; "
              "unaffected stages never stall.\nReplay with --seed=%llu.\n",
              static_cast<unsigned long long>(seed));
  if (!engaged || *reaction == 0 || tasks_after <= 1) {
    std::fprintf(stderr,
                 "RESCALE DID NOT ENGAGE: engaged=%d reaction=%lld "
                 "tasks_after=%u\n",
                 engaged ? 1 : 0, static_cast<long long>(*reaction),
                 tasks_after);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace impeller

int main(int argc, char** argv) {
  impeller::bench::InitBench(&argc, argv);
  return impeller::bench::Main();
}
