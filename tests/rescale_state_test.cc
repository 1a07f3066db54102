// Keyed-state migration tests: rescaling a *stateful* windowed-aggregate
// stage mid-run, in both directions, under all four protocols and with a
// sharded log. The old generation's final cut hands over substream-range
// state ownership (changelog replay under marker protocols, direct
// in-memory export under aligned/unsafe); the committed output must be
// indistinguishable from a run that never rescaled.
//
// Also exercises the autoscaler: unit-level (synthetic probe, deterministic
// ticks) and closed-loop (induced backlog makes the engine scale a stateful
// stage up on its own, without losing a record).
#include <gtest/gtest.h>

#include <set>

#include "src/autoscale/autoscaler.h"
#include "tests/test_util.h"

namespace impeller {
namespace {

using testutil::FastConfig;
using testutil::Numbered;
using testutil::ReadEgressLines;
using testutil::WaitFor;

// --- windowed-aggregate rescale matrix ---

// events -> agg (stateful tumbling-window count, 6 substreams) -> fmt
// (stateless passthrough) -> sink. The downstream stage makes the aligned
// path reconfigure barrier alignment after the producer count changes.
Result<QueryPlan> WindowedPlan(uint32_t agg_tasks) {
  AggregateFn count;
  count.init = [] { return std::string("0"); };
  count.add = [](std::string_view acc, const StreamRecord&) {
    return std::to_string(std::stoll(std::string(acc)) + 1);
  };
  QueryBuilder qb("ws");
  qb.Ingress("events");
  qb.AddStage("agg", agg_tasks)
      .WithSubstreams(6)
      .ReadsFrom({"events"})
      .WindowAggregate("w", WindowSpec::Tumbling(kSecond), count,
                       /*allowed_lateness=*/0, WindowEmitMode::kOnClose)
      .WritesTo("panes");
  qb.AddStage("fmt", 2)
      .ReadsFrom({"panes"})
      .Map([](StreamRecord r) { return r; })
      .Sink("ws");
  return qb.Build();
}

constexpr int kKeys = 24;

// Key j contributes j % 4 + 1 + w records to window w — every key's count
// differs between windows, so a state mixup shows up in the output bytes.
int Occurrences(int j, int window) { return j % 4 + 1 + window; }

void FeedWindow(IngressProducer& producer, int window) {
  TimeNs start = static_cast<TimeNs>(window) * kSecond;
  int i = 0;
  for (int j = 0; j < kKeys; ++j) {
    for (int occ = 0; occ < Occurrences(j, window); ++occ) {
      producer.Send(Numbered("k", j), "x",
                    start + (++i) * kMillisecond);
    }
  }
}

// One far-future record per ingress substream pushes every task's watermark
// past both data windows, closing all panes deterministically.
void FeedClosers(IngressProducer& producer) {
  std::set<uint32_t> covered;
  for (int m = 0; covered.size() < 6 && m < 10000; ++m) {
    std::string key = "close" + std::to_string(m);
    uint32_t sub = HashPartition(key, 6);
    if (covered.insert(sub).second) {
      producer.Send(key, "x", 10 * kSecond);
    }
  }
}

uint64_t ExpectedPanes() { return kKeys * 2; }

// Records FeedWindow(w) produces.
uint64_t WindowRecords(int window) {
  uint64_t n = 0;
  for (int j = 0; j < kKeys; ++j) {
    n += static_cast<uint64_t>(Occurrences(j, window));
  }
  return n;
}

// Sum of records processed by the agg stage's *current* generation (the
// first `tasks` indices; scale-down leftovers are excluded).
uint64_t AggProcessed(Engine& engine, uint32_t tasks) {
  uint64_t total = 0;
  for (uint32_t i = 0; i < tasks; ++i) {
    TaskRuntime* rt = engine.tasks()->FindTask("ws/agg/" + std::to_string(i));
    if (rt != nullptr) {
      total += rt->records_processed();
    }
  }
  return total;
}

// Runs the pipeline, optionally rescaling `agg` between the two data
// windows, and returns the committed output. With `restart_after_seal` the
// whole new generation is crash-restarted after its handoff sealed (first
// post-rescale cut / completed checkpoint) — recovery must then come from
// that newer point, not the retained handoff cursors.
Result<std::multiset<std::string>> RunScenario(ProtocolKind protocol,
                                               uint32_t shards,
                                               uint32_t initial_tasks,
                                               uint32_t rescale_to,
                                               bool restart_after_seal =
                                                   false) {
  EngineOptions options;
  options.config = FastConfig(protocol);
  options.config.log_shards = shards;
  Engine engine(std::move(options));
  auto plan = WindowedPlan(initial_tasks);
  if (!plan.ok()) {
    return plan.status();
  }
  IMPELLER_RETURN_IF_ERROR(engine.Submit(std::move(*plan)));
  auto producer = engine.NewProducer("gen", "events");
  if (!producer.ok()) {
    return producer.status();
  }

  // Each phase is fully absorbed before the next is sent: a task reads its
  // substreams in arbitrary interleave, so without the barrier a later
  // phase's high event times could race ahead on one substream and mark
  // another substream's in-flight records late (lateness is 0 here). The
  // barrier counts records the tasks actually ran through their operators —
  // log-side lag probes are not a barrier, since appends become readable
  // only once the metalog sequences them.
  auto drain = [&](uint32_t tasks, uint64_t processed,
                   const char* what) -> Status {
    if (!WaitFor([&] { return AggProcessed(engine, tasks) >= processed; },
                 10 * kSecond)) {
      return DeadlineExceededError(std::string("agg never absorbed ") +
                                   what);
    }
    return OkStatus();
  };

  FeedWindow(**producer, 1);
  IMPELLER_RETURN_IF_ERROR((*producer)->Flush().status());
  IMPELLER_RETURN_IF_ERROR(drain(initial_tasks, WindowRecords(1),
                                 "window 1"));

  uint64_t ckpt_before_rescale = 0;
  if (rescale_to != 0) {
    if (protocol == ProtocolKind::kAlignedCheckpoint) {
      ckpt_before_rescale =
          engine.tasks()->barrier_coordinator()->LatestCompleted();
    }
    // Rescale with window 1 fully absorbed into keyed state but not yet
    // fired: the pane accumulators must migrate for the output to be right.
    IMPELLER_RETURN_IF_ERROR(
        engine.tasks()->RescaleStage("agg", rescale_to));
  }

  // Post-rescale generations start their processed counters at zero; window
  // 1 was fully committed before the handoff, so it is never reprocessed.
  uint32_t current_tasks = rescale_to != 0 ? rescale_to : initial_tasks;
  uint64_t already = rescale_to != 0 ? 0 : WindowRecords(1);
  FeedWindow(**producer, 2);
  IMPELLER_RETURN_IF_ERROR((*producer)->Flush().status());
  IMPELLER_RETURN_IF_ERROR(drain(current_tasks, already + WindowRecords(2),
                                 "window 2"));

  if (restart_after_seal && rescale_to != 0) {
    // Wait for the handoff to seal: a post-rescale cut (marker protocols)
    // or a checkpoint completed after the rescale (aligned). The retained
    // handoff cursors are stale from this point on; a restart must not
    // rewind to them (regression: re-processed records would double-apply
    // state and re-emit under fresh sequence numbers dedup cannot filter).
    bool sealed;
    if (protocol == ProtocolKind::kAlignedCheckpoint) {
      sealed = WaitFor(
          [&] {
            return engine.tasks()->barrier_coordinator()->LatestCompleted() >
                   ckpt_before_rescale;
          },
          10 * kSecond);
    } else {
      sealed = WaitFor(
          [&] {
            for (uint32_t i = 0; i < rescale_to; ++i) {
              TaskRuntime* rt =
                  engine.tasks()->FindTask("ws/agg/" + std::to_string(i));
              if (rt == nullptr || rt->markers_written() == 0) {
                return false;
              }
            }
            return true;
          },
          10 * kSecond);
    }
    if (!sealed) {
      return DeadlineExceededError("handoff never sealed post-rescale");
    }
    for (uint32_t i = 0; i < rescale_to; ++i) {
      auto stats =
          engine.tasks()->RestartTask("ws/agg/" + std::to_string(i));
      if (!stats.ok()) {
        return stats.status();
      }
    }
  }

  FeedClosers(**producer);
  IMPELLER_RETURN_IF_ERROR((*producer)->Flush().status());

  Counter* out = engine.metrics()->GetCounter("out/ws");
  if (!WaitFor([&] { return out->Get() >= ExpectedPanes(); },
               30 * kSecond)) {
    return DeadlineExceededError(
        "only " + std::to_string(out->Get()) + "/" +
        std::to_string(ExpectedPanes()) + " panes fired");
  }
  engine.Stop();
  return ReadEgressLines(engine, "fmt", 2);
}

class RescaleStateTest
    : public ::testing::TestWithParam<std::tuple<ProtocolKind, uint32_t>> {};

TEST_P(RescaleStateTest, ScaleUpAndDownMatchUnrescaledRun) {
  auto [protocol, shards] = GetParam();

  auto baseline = RunScenario(protocol, shards, 2, 0);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_EQ(baseline->size(), ExpectedPanes());

  auto scaled_up = RunScenario(protocol, shards, 2, 4);
  ASSERT_TRUE(scaled_up.ok()) << scaled_up.status().ToString();
  EXPECT_EQ(*scaled_up, *baseline)
      << "scale-up 2->4 must not change the committed bytes";

  auto scaled_down = RunScenario(protocol, shards, 3, 1);
  ASSERT_TRUE(scaled_down.ok()) << scaled_down.status().ToString();
  EXPECT_EQ(*scaled_down, *baseline)
      << "scale-down 3->1 must not change the committed bytes";
}

std::string ParamName(
    const ::testing::TestParamInfo<std::tuple<ProtocolKind, uint32_t>>&
        info) {
  std::string name = ProtocolKindName(std::get<0>(info.param));
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  return name + "_shards" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocolsAndShards, RescaleStateTest,
    ::testing::Combine(::testing::Values(ProtocolKind::kProgressMarking,
                                         ProtocolKind::kKafkaTxn,
                                         ProtocolKind::kAlignedCheckpoint,
                                         ProtocolKind::kUnsafe),
                       ::testing::Values(1u, 3u)),
    ParamName);

// --- restart after the handoff sealed ---
//
// The rescale handoff is retained on the task entries so a crash mid-handoff
// can redo it; once the new generation commits its first post-rescale cut
// the handoff is sealed and later restarts recover from the task's own
// newer cut/checkpoint. The stale handoff cursors must then be ignored —
// rewinding inputs while state and out_seq come from the newer cut breaks
// exactly-once. kUnsafe is excluded: it makes no exactly-once claim.
class RescaleRestartTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(RescaleRestartTest, RestartAfterSealedHandoffMatchesBaseline) {
  ProtocolKind protocol = GetParam();

  auto baseline = RunScenario(protocol, 3, 2, 0);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_EQ(baseline->size(), ExpectedPanes());

  auto up = RunScenario(protocol, 3, 2, 4, /*restart_after_seal=*/true);
  ASSERT_TRUE(up.ok()) << up.status().ToString();
  EXPECT_EQ(*up, *baseline)
      << "restart after a sealed scale-up handoff changed committed bytes";

  auto down = RunScenario(protocol, 3, 3, 1, /*restart_after_seal=*/true);
  ASSERT_TRUE(down.ok()) << down.status().ToString();
  EXPECT_EQ(*down, *baseline)
      << "restart after a sealed scale-down handoff changed committed bytes";
}

INSTANTIATE_TEST_SUITE_P(
    ExactlyOnceProtocols, RescaleRestartTest,
    ::testing::Values(ProtocolKind::kProgressMarking, ProtocolKind::kKafkaTxn,
                      ProtocolKind::kAlignedCheckpoint),
    [](const ::testing::TestParamInfo<ProtocolKind>& info) {
      std::string name = ProtocolKindName(info.param);
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

// --- autoscaler: unit level ---

TEST(AutoscalerTest, HysteresisCooldownAndBounds) {
  std::vector<StageStats> sample;
  std::vector<std::pair<std::string, uint32_t>> calls;
  AutoscaleOptions opt;
  opt.ewma_alpha = 1.0;  // no smoothing: the test controls the signal
  opt.up_threshold = 1000;
  opt.down_threshold = 50;
  opt.up_ticks = 2;
  opt.down_ticks = 3;
  opt.cooldown = 0;
  Autoscaler::Hooks hooks;
  hooks.probe = [&] { return sample; };
  hooks.rescale = [&](const std::string& stage, uint32_t n) {
    calls.emplace_back(stage, n);
    sample[0].current_tasks = n;
    return OkStatus();
  };
  Autoscaler scaler(opt, std::move(hooks), MonotonicClock::Get());

  StageStats s;
  s.stage = "agg";
  s.current_tasks = 2;
  s.num_substreams = 6;
  s.stateful = true;
  s.input_lag = 5000;
  sample = {s};

  scaler.RunOnce();  // first sample only seeds the EWMA
  scaler.RunOnce();  // streak 1
  EXPECT_TRUE(calls.empty()) << "hysteresis: one hot tick must not rescale";
  scaler.RunOnce();  // streak 2 -> act
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0], (std::pair<std::string, uint32_t>{"agg", 4u}));

  sample[0].input_lag = 5000;
  scaler.RunOnce();
  scaler.RunOnce();
  scaler.RunOnce();  // doubling clamps to the substream budget
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(calls[1].second, 6u) << "max tasks = num_substreams";

  sample[0].input_lag = 0;
  scaler.RunOnce();
  scaler.RunOnce();
  EXPECT_EQ(calls.size(), 2u) << "scale-down is lazier than scale-up";
  scaler.RunOnce();  // down streak 3 -> halve
  ASSERT_EQ(calls.size(), 3u);
  EXPECT_EQ(calls[2].second, 3u);

  EXPECT_EQ(scaler.decisions_up(), 2u);
  EXPECT_EQ(scaler.decisions_down(), 1u);
}

TEST(AutoscalerTest, OverrunsCountAsUpPressure) {
  std::vector<StageStats> sample;
  std::vector<uint32_t> targets;
  AutoscaleOptions opt;
  opt.ewma_alpha = 1.0;
  opt.up_threshold = 1000000;  // lag alone never triggers
  opt.up_ticks = 2;
  opt.cooldown = 0;
  Autoscaler::Hooks hooks;
  hooks.probe = [&] { return sample; };
  hooks.rescale = [&](const std::string&, uint32_t n) {
    targets.push_back(n);
    sample[0].current_tasks = n;
    return OkStatus();
  };
  Autoscaler scaler(opt, std::move(hooks), MonotonicClock::Get());

  StageStats s;
  s.stage = "agg";
  s.current_tasks = 1;
  s.num_substreams = 4;
  sample = {s};
  scaler.RunOnce();  // seed
  sample[0].commit_overruns = 3;
  scaler.RunOnce();
  sample[0].commit_overruns = 5;
  scaler.RunOnce();
  ASSERT_EQ(targets.size(), 1u)
      << "a stage missing its commit interval is overloaded even at low lag";
  EXPECT_EQ(targets[0], 2u);
}

TEST(AutoscalerTest, SingleSubstreamStageNeverScales) {
  std::vector<std::pair<std::string, uint32_t>> calls;
  AutoscaleOptions opt;
  opt.up_ticks = 1;
  opt.cooldown = 0;
  Autoscaler::Hooks hooks;
  StageStats s;
  s.stage = "solo";
  s.current_tasks = 1;
  s.num_substreams = 1;
  s.input_lag = 1u << 30;
  hooks.probe = [s] { return std::vector<StageStats>{s}; };
  hooks.rescale = [&](const std::string& stage, uint32_t n) {
    calls.emplace_back(stage, n);
    return OkStatus();
  };
  Autoscaler scaler(opt, std::move(hooks), MonotonicClock::Get());
  for (int i = 0; i < 5; ++i) {
    scaler.RunOnce();
  }
  EXPECT_TRUE(calls.empty());
}

// --- autoscaler: closed loop ---

TEST(AutoscalerTest, ClosedLoopScalesStatefulStageUnderBacklog) {
  AggregateFn count;
  count.init = [] { return std::string("0"); };
  count.add = [](std::string_view acc, const StreamRecord&) {
    return std::to_string(std::stoll(std::string(acc)) + 1);
  };
  EngineOptions options;
  options.config = FastConfig(ProtocolKind::kProgressMarking);
  options.config.autoscale.enabled = true;
  options.config.autoscale.tick_interval = 10 * kMillisecond;
  options.config.autoscale.up_threshold = 200;
  options.config.autoscale.up_ticks = 2;
  options.config.autoscale.cooldown = 100 * kMillisecond;
  options.config.autoscale.down_ticks = 100000;  // no churn while draining
  Engine engine(std::move(options));

  QueryBuilder qb("auto");
  qb.Ingress("in");
  qb.AddStage("count", 1)
      .WithSubstreams(6)
      .ReadsFrom({"in"})
      .Aggregate("c", count)
      .Sink("auto");
  auto plan = qb.Build();
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(engine.Submit(std::move(*plan)).ok());
  auto producer = engine.NewProducer("gen", "in");
  ASSERT_TRUE(producer.ok());

  // Keep the backlog alive until the controller reacts.
  uint64_t sent = 0;
  Clock* clock = MonotonicClock::Get();
  TimeNs deadline = clock->Now() + 20 * kSecond;
  while (engine.autoscaler()->decisions_up() == 0 &&
         clock->Now() < deadline) {
    for (int i = 0; i < 2000; ++i) {
      (*producer)->Send(Numbered("k", sent % 64), "x");
      ++sent;
    }
    ASSERT_TRUE((*producer)->Flush().ok());
    clock->SleepFor(5 * kMillisecond);
  }
  ASSERT_GE(engine.autoscaler()->decisions_up(), 1u)
      << "the controller never reacted to a sustained backlog";

  // The stage really runs wider now...
  uint32_t tasks_after = 0;
  for (const auto& s : engine.tasks()->CollectStageStats()) {
    if (s.stage == "count") {
      tasks_after = s.current_tasks;
    }
  }
  EXPECT_GT(tasks_after, 1u);
  EXPECT_GT(engine.metrics()->GetCounter("autoscale/up")->Get(), 0u);

  // ...and the mid-flight state migration lost nothing: drain and check
  // every per-key running count.
  Counter* out = engine.metrics()->GetCounter("out/auto");
  ASSERT_TRUE(WaitFor([&] { return out->Get() >= sent; }, 30 * kSecond));
  engine.Stop();
  std::map<std::string, int64_t> counts;
  for (uint32_t sub = 0; sub < 6; ++sub) {
    auto consumer = engine.NewEgressConsumer("count", sub);
    ASSERT_TRUE(consumer.ok());
    auto records = (*consumer)->PollAll();
    ASSERT_TRUE(records.ok());
    for (const auto& r : *records) {
      int64_t v = std::stoll(std::string(r.data.value));
      int64_t& slot = counts[std::string(r.data.key)];
      slot = std::max(slot, v);
    }
  }
  uint64_t total = 0;
  for (const auto& [key, n] : counts) {
    total += static_cast<uint64_t>(n);
  }
  EXPECT_EQ(total, sent) << "autoscaled rescale dropped or duplicated state";
}

}  // namespace
}  // namespace impeller
