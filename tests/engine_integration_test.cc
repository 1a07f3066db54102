// End-to-end engine tests on the word-count pipeline (paper Fig. 1/3):
// exactly-once output under normal operation, read-committed egress,
// duplicate-append suppression, garbage collection, multi-stage flows, and
// stream-join recovery.
#include <gtest/gtest.h>

#include <set>

#include "src/core/stream.h"
#include "src/protocols/barrier_coordinator.h"
#include "tests/test_util.h"

namespace impeller {
namespace {

using testutil::FastConfig;
using testutil::Numbered;
using testutil::ReadEgressLines;
using testutil::ReadWordCounts;
using testutil::WaitFor;
using testutil::WordCountPlan;

TEST(EngineIntegrationTest, WordCountExactlyOnce) {
  EngineOptions options;
  options.config = FastConfig(ProtocolKind::kProgressMarking);
  Engine engine(std::move(options));
  auto plan = WordCountPlan();
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(engine.Submit(std::move(*plan)).ok());

  auto producer = engine.NewProducer("gen", "lines");
  ASSERT_TRUE(producer.ok());
  for (int i = 0; i < 50; ++i) {
    (*producer)->Send("line", "hello world hello");
  }
  ASSERT_TRUE((*producer)->Flush().ok());

  Counter* out = engine.metrics()->GetCounter("out/wc");
  // 150 aggregate updates (one per word instance).
  ASSERT_TRUE(WaitFor([&] { return out->Get() >= 150; }))
      << "only " << out->Get() << " sink outputs";
  engine.Stop();

  auto counts = ReadWordCounts(engine);
  ASSERT_TRUE(counts.ok());
  EXPECT_EQ((*counts)["hello"], 100);
  EXPECT_EQ((*counts)["world"], 50);
  EXPECT_GT(engine.metrics()->Histogram("lat/wc")->Count(), 0u);
}

TEST(EngineIntegrationTest, EgressIsReadCommitted) {
  // Before any marker covers them, sink outputs must be invisible to a
  // read-committed consumer.
  EngineOptions options;
  options.config = FastConfig(ProtocolKind::kProgressMarking);
  options.config.commit_interval = 10 * kSecond;  // effectively never
  Engine engine(std::move(options));
  auto plan = WordCountPlan(1);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(engine.Submit(std::move(*plan)).ok());
  auto producer = engine.NewProducer("gen", "lines");
  ASSERT_TRUE(producer.ok());
  (*producer)->Send("line", "alpha");
  ASSERT_TRUE((*producer)->Flush().ok());

  // The split stage cannot commit, so the count stage never sees the words,
  // let alone the egress consumer.
  MonotonicClock::Get()->SleepFor(200 * kMillisecond);
  auto consumer = engine.NewEgressConsumer("count", 0);
  ASSERT_TRUE(consumer.ok());
  auto records = (*consumer)->PollAll();
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
  engine.Stop();  // graceful stop commits the final cut

  records = (*consumer)->PollAll();
  ASSERT_TRUE(records.ok());
  EXPECT_FALSE(records->empty());
}

TEST(EngineIntegrationTest, DuplicateIngressAppendsCountOnce) {
  EngineOptions options;
  options.config = FastConfig(ProtocolKind::kProgressMarking);
  Engine engine(std::move(options));
  auto plan = WordCountPlan(1);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(engine.Submit(std::move(*plan)).ok());
  auto producer = engine.NewProducer("gen", "lines");
  ASSERT_TRUE(producer.ok());

  (*producer)->Send("k", "dup");
  uint64_t seq = (*producer)->sent();
  // A gateway retry re-appends the same record (same producer seq, §3.5).
  (*producer)->SendDuplicate("k", "dup", 0, seq);
  (*producer)->Send("k", "dup");
  ASSERT_TRUE((*producer)->Flush().ok());

  Counter* out = engine.metrics()->GetCounter("out/wc");
  ASSERT_TRUE(WaitFor([&] { return out->Get() >= 2; }));
  MonotonicClock::Get()->SleepFor(100 * kMillisecond);
  engine.Stop();
  auto counts = ReadWordCounts(engine, 1);
  ASSERT_TRUE(counts.ok());
  EXPECT_EQ((*counts)["dup"], 2) << "retried append must count once";
}

TEST(EngineIntegrationTest, GarbageCollectionTrimsConsumedPrefix) {
  EngineOptions options;
  options.config = FastConfig(ProtocolKind::kProgressMarking);
  options.config.snapshot_interval = 100 * kMillisecond;
  Engine engine(std::move(options));
  auto plan = WordCountPlan(1);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(engine.Submit(std::move(*plan)).ok());
  auto producer = engine.NewProducer("gen", "lines");
  ASSERT_TRUE(producer.ok());
  // GC always runs, but the log keeps egress results until a consumer has
  // read them: keep one reading.
  auto consumer = engine.NewEgressConsumer("count", 0);
  ASSERT_TRUE(consumer.ok());
  auto poll = [&] { ASSERT_TRUE((*consumer)->PollAll().ok()); };
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 20; ++i) {
      (*producer)->Send("k", Numbered("w", i));
    }
    ASSERT_TRUE((*producer)->Flush().ok());
    MonotonicClock::Get()->SleepFor(30 * kMillisecond);
  }
  Counter* out = engine.metrics()->GetCounter("out/wc");
  ASSERT_TRUE(WaitFor([&] { return out->Get() >= 400; }));
  // GC needs a checkpoint (change-log floor) plus trims; give it a moment.
  ASSERT_TRUE(WaitFor(
      [&] {
        poll();
        return engine.log()->TrimPoint() > 0;
      },
      5 * kSecond))
      << "GC never trimmed; registry floors: "
      << engine.tasks()->gc_registry()->sources();
  // The pipeline keeps functioning after trimming.
  (*producer)->Send("k", "after-trim");
  ASSERT_TRUE((*producer)->Flush().ok());
  uint64_t before = out->Get();
  ASSERT_TRUE(WaitFor([&] { return out->Get() > before; }));
  engine.Stop();
  EXPECT_GT(engine.log()->stats().records_trimmed, 0u);
}

TEST(EngineIntegrationTest, ThreeStageStatelessPipeline) {
  QueryBuilder qb("pipe");
  qb.Ingress("in");
  qb.AddStage("upper", 2)
      .ReadsFrom({"in"})
      .Map([](StreamRecord r) {
        for (auto& c : r.value) {
          c = static_cast<char>(std::toupper(c));
        }
        return r;
      })
      .WritesTo("mid");
  qb.AddStage("tag", 2)
      .ReadsFrom({"mid"})
      .Map([](StreamRecord r) {
        r.value = "[" + r.value + "]";
        return r;
      })
      .WritesTo("tagged");
  qb.AddStage("sinkstage", 1)
      .ReadsFrom({"tagged"})
      .Filter([](const StreamRecord& r) { return r.value != "[SKIP]"; })
      .Sink("pipe");
  auto plan = qb.Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  EngineOptions options;
  options.config = FastConfig(ProtocolKind::kProgressMarking);
  Engine engine(std::move(options));
  ASSERT_TRUE(engine.Submit(std::move(*plan)).ok());
  auto producer = engine.NewProducer("gen", "in");
  ASSERT_TRUE(producer.ok());
  (*producer)->Send("a", "hello");
  (*producer)->Send("b", "skip");
  (*producer)->Send("c", "bye");
  ASSERT_TRUE((*producer)->Flush().ok());

  Counter* out = engine.metrics()->GetCounter("out/pipe");
  ASSERT_TRUE(WaitFor([&] { return out->Get() >= 2; }));
  MonotonicClock::Get()->SleepFor(50 * kMillisecond);
  EXPECT_EQ(out->Get(), 2u);
  engine.Stop();

  auto consumer = engine.NewEgressConsumer("sinkstage", 0);
  ASSERT_TRUE(consumer.ok());
  auto records = (*consumer)->PollAll();
  ASSERT_TRUE(records.ok());
  std::set<std::string> values;
  for (const auto& r : *records) {
    values.insert(std::string(r.data.value));
  }
  EXPECT_TRUE(values.count("[HELLO]"));
  EXPECT_TRUE(values.count("[BYE]"));
  EXPECT_FALSE(values.count("[SKIP]"));
}

TEST(EngineIntegrationTest, StreamStreamJoinPipeline) {
  QueryBuilder qb("join");
  qb.Ingress("left").Ingress("right");
  qb.AddStage("kl", 1).ReadsFrom({"left"}).Map([](StreamRecord r) {
    return r;
  }).WritesTo("L");
  qb.AddStage("kr", 1).ReadsFrom({"right"}).Map([](StreamRecord r) {
    return r;
  }).WritesTo("R");
  qb.AddStage("joiner", 2)
      .ReadsFrom({"L", "R"})
      .JoinStreams("j", 5 * kSecond,
                   [](std::string_view l, std::string_view r) {
                     return std::string(l) + "+" + std::string(r);
                   })
      .Sink("join");
  auto plan = qb.Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  EngineOptions options;
  options.config = FastConfig(ProtocolKind::kProgressMarking);
  Engine engine(std::move(options));
  ASSERT_TRUE(engine.Submit(std::move(*plan)).ok());
  auto left = engine.NewProducer("gl", "left");
  auto right = engine.NewProducer("gr", "right");
  ASSERT_TRUE(left.ok());
  ASSERT_TRUE(right.ok());
  for (int i = 0; i < 10; ++i) {
    std::string key = Numbered("k", i);
    (*left)->Send(key, Numbered("L", i));
    (*right)->Send(key, Numbered("R", i));
  }
  ASSERT_TRUE((*left)->Flush().ok());
  ASSERT_TRUE((*right)->Flush().ok());

  Counter* out = engine.metrics()->GetCounter("out/join");
  ASSERT_TRUE(WaitFor([&] { return out->Get() >= 10; }))
      << "joined " << out->Get() << "/10";
  engine.Stop();
}

// Join recovery scenario, per key: phase A buffers two records a side;
// the join task then (optionally) crashes mid-window and restarts; phase A2
// joins against the restored buffers; phase B, 4.5 s later in event time,
// moves the watermark past every phase-A entry. Each phase's results are
// committed before the next phase is sent, so no expiry races a match.
constexpr int kJoinKeys = 4;
constexpr size_t kJoinResults = kJoinKeys * (4 + 5 + 1);

struct JoinRun {
  std::multiset<std::string> output;  // "key\tvalue\tevent_time"
  size_t buffered = 0;                // entries left in j.left + j.right
};

Result<JoinRun> RunJoinRecovery(ProtocolKind protocol, bool crash) {
  QueryBuilder qb("join");
  qb.Ingress("left").Ingress("right");
  qb.AddStage("kl", 1).ReadsFrom({"left"}).Map([](StreamRecord r) {
    return r;
  }).WritesTo("L");
  qb.AddStage("kr", 1).ReadsFrom({"right"}).Map([](StreamRecord r) {
    return r;
  }).WritesTo("R");
  qb.AddStage("joiner", 1)
      .ReadsFrom({"L", "R"})
      .JoinStreams("j", 1 * kSecond,
                   [](std::string_view l, std::string_view r) {
                     return std::string(l) + "+" + std::string(r);
                   })
      .Sink("join");
  auto plan = qb.Build();
  IMPELLER_RETURN_IF_ERROR(plan.status());

  EngineOptions options;
  options.config = FastConfig(protocol);
  Engine engine(std::move(options));
  IMPELLER_RETURN_IF_ERROR(engine.Submit(std::move(*plan)));
  auto left = engine.NewProducer("gl", "left");
  IMPELLER_RETURN_IF_ERROR(left.status());
  auto right = engine.NewProducer("gr", "right");
  IMPELLER_RETURN_IF_ERROR(right.status());

  auto run_phase = [&](const std::vector<TimeNs>& left_ms,
                       const std::vector<TimeNs>& right_ms,
                       size_t results) -> Status {
    for (int k = 0; k < kJoinKeys; ++k) {
      std::string key = Numbered("k", k);
      for (TimeNs ms : left_ms) {
        (*left)->Send(key, Numbered("L", ms), ms * kMillisecond);
      }
      for (TimeNs ms : right_ms) {
        (*right)->Send(key, Numbered("R", ms), ms * kMillisecond);
      }
    }
    IMPELLER_RETURN_IF_ERROR((*left)->Flush().status());
    IMPELLER_RETURN_IF_ERROR((*right)->Flush().status());
    bool done = WaitFor(
        [&] {
          auto out = ReadEgressLines(engine, "joiner", 1);
          return out.ok() && out->size() >= results;
        },
        20 * kSecond);
    return done ? OkStatus()
                : DeadlineExceededError("join results never committed");
  };

  IMPELLER_RETURN_IF_ERROR(run_phase({100, 150}, {200, 250}, kJoinKeys * 4));
  if (crash) {
    if (protocol == ProtocolKind::kAlignedCheckpoint) {
      // Two more completed checkpoints: the second began after phase A's
      // results were out, so its snapshot holds the phase-A buffers.
      BarrierCoordinator* coordinator = engine.tasks()->barrier_coordinator();
      uint64_t target = coordinator->LatestCompleted() + 2;
      if (!WaitFor([&] { return coordinator->LatestCompleted() >= target; },
                   20 * kSecond)) {
        return DeadlineExceededError("no checkpoint after phase A");
      }
    }
    IMPELLER_RETURN_IF_ERROR(
        engine.tasks()->RestartTask("join/joiner/0").status());
  }
  IMPELLER_RETURN_IF_ERROR(run_phase({400}, {500}, kJoinKeys * 9));
  IMPELLER_RETURN_IF_ERROR(run_phase({5000}, {5100}, kJoinResults));
  // Timer ticks (10 ms) expire the phase-A buffers behind the watermark.
  MonotonicClock::Get()->SleepFor(200 * kMillisecond);
  engine.Stop();

  JoinRun run;
  auto output = ReadEgressLines(engine, "joiner", 1);
  IMPELLER_RETURN_IF_ERROR(output.status());
  run.output = std::move(*output);
  TaskRuntime* joiner = engine.tasks()->FindTask("join/joiner/0");
  if (joiner == nullptr) {
    return InternalError("join task missing");
  }
  run.buffered =
      joiner->GetStore("j.left")->size() + joiner->GetStore("j.right")->size();
  return run;
}

TEST(EngineIntegrationTest, StreamStreamJoinRecoveryMatchesFaultFreeRun) {
  for (ProtocolKind protocol :
       {ProtocolKind::kProgressMarking, ProtocolKind::kAlignedCheckpoint}) {
    SCOPED_TRACE(ProtocolKindName(protocol));
    auto reference = RunJoinRecovery(protocol, /*crash=*/false);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    auto recovered = RunJoinRecovery(protocol, /*crash=*/true);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(reference->output.size(), kJoinResults);
    EXPECT_EQ(recovered->output, reference->output);
    // Only phase B (one record a side per key) is inside the window.
    EXPECT_EQ(reference->buffered, 2u * kJoinKeys);
    EXPECT_EQ(recovered->buffered, 2u * kJoinKeys)
        << "restored buffers must expire once the watermark passes them";
  }
}

TEST(EngineIntegrationTest, MarkersStopWhenIdle) {
  EngineOptions options;
  options.config = FastConfig(ProtocolKind::kProgressMarking);
  Engine engine(std::move(options));
  auto plan = WordCountPlan(1);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(engine.Submit(std::move(*plan)).ok());
  auto producer = engine.NewProducer("gen", "lines");
  ASSERT_TRUE(producer.ok());
  (*producer)->Send("k", "one word line");
  ASSERT_TRUE((*producer)->Flush().ok());
  Counter* out = engine.metrics()->GetCounter("out/wc");
  ASSERT_TRUE(WaitFor([&] { return out->Get() >= 3; }));
  MonotonicClock::Get()->SleepFor(200 * kMillisecond);

  TaskRuntime* split = engine.tasks()->FindTask("wc/split/0");
  ASSERT_NE(split, nullptr);
  uint64_t markers = split->markers_written();
  MonotonicClock::Get()->SleepFor(300 * kMillisecond);
  EXPECT_LE(split->markers_written() - markers, 1u)
      << "idle tasks must not spam markers";
  engine.Stop();
}

}  // namespace
}  // namespace impeller
