// Garbage-collection tests: registry floor semantics, trim safety, and the
// egress side of the retention contract (DESIGN.md §14).
#include <functional>
#include <string>

#include <gtest/gtest.h>

#include "src/core/gc.h"
#include "src/core/stream.h"
#include "tests/test_util.h"

namespace impeller {
namespace {

TEST(GcRegistryTest, MinOverSources) {
  GcRegistry registry;
  EXPECT_EQ(registry.MinFloor(), kInvalidLsn);
  registry.PublishFloor("a", 10);
  registry.PublishFloor("b", 5);
  EXPECT_EQ(registry.MinFloor(), 5u);
  registry.PublishFloor("b", 20);
  EXPECT_EQ(registry.MinFloor(), 10u);
}

TEST(GcRegistryTest, FloorsAreMonotone) {
  GcRegistry registry;
  registry.PublishFloor("a", 10);
  registry.PublishFloor("a", 5);  // regression ignored
  EXPECT_EQ(registry.MinFloor(), 10u);
}

TEST(GcRegistryTest, RemoveDropsConstraint) {
  GcRegistry registry;
  registry.PublishFloor("a", 10);
  registry.PublishFloor("b", 3);
  registry.Remove("b");
  EXPECT_EQ(registry.MinFloor(), 10u);
  EXPECT_EQ(registry.sources(), 1u);
}

TEST(GcRegistryTest, GroupFloorYieldsToMembersAndComesBack) {
  GcRegistry registry;
  registry.PublishFloor("g", 0);
  registry.PublishFloor("other", 50);
  EXPECT_EQ(registry.MinFloor(), 0u) << "an unread group holds the log";
  registry.JoinGroup("g", "g#1", 0);
  registry.JoinGroup("g", "g#2", 0);
  EXPECT_EQ(registry.FloorOf("g"), kInvalidLsn);
  registry.PublishFloor("g#1", 30);
  registry.PublishFloor("g#2", 20);
  EXPECT_EQ(registry.MinFloor(), 20u);
  registry.LeaveGroup("g", "g#2");
  EXPECT_EQ(registry.MinFloor(), 30u) << "a departed member releases its pin";
  registry.LeaveGroup("g", "g#1");
  EXPECT_EQ(registry.FloorOf("g"), 30u)
      << "the last member hands its floor back to the group";
  EXPECT_EQ(registry.MinFloor(), 30u);
}

TEST(GcWorkerTest, TrimsToGlobalMin) {
  SharedLog log;
  for (int i = 0; i < 10; ++i) {
    AppendRequest req;
    req.tags = {"a"};
    req.payload = "p";
    ASSERT_TRUE(log.Append(std::move(req)).ok());
  }
  GcRegistry registry;
  GcWorker worker(&log, &registry, kSecond);

  worker.RunOnce();
  EXPECT_EQ(log.TrimPoint(), 0u) << "no floors -> nothing trimmed";

  registry.PublishFloor("consumer1", 7);
  registry.PublishFloor("consumer2", 4);
  worker.RunOnce();
  EXPECT_EQ(log.TrimPoint(), 4u);
  EXPECT_EQ(worker.trims_issued(), 1u);

  worker.RunOnce();
  EXPECT_EQ(worker.trims_issued(), 1u) << "no progress, no trim";

  registry.PublishFloor("consumer2", 9);
  worker.RunOnce();
  EXPECT_EQ(log.TrimPoint(), 7u);
}

TEST(GcWorkerTest, RecordsAboveFloorSurvive) {
  SharedLog log;
  for (int i = 0; i < 6; ++i) {
    AppendRequest req;
    req.tags = {"t"};
    req.payload = std::to_string(i);
    ASSERT_TRUE(log.Append(std::move(req)).ok());
  }
  GcRegistry registry;
  registry.PublishFloor("c", 3);
  GcWorker worker(&log, &registry, kSecond);
  worker.RunOnce();
  auto rec = log.ReadNext("t", 3);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->payload, "3");
}

// A consumer acknowledges only what it has handed out. Records buffered
// behind an uncommitted head stay pinned, also after the consumer is gone:
// the substream's retention group comes back below them.
TEST(EgressRetentionTest, BufferedRecordsStayPinnedPastTheConsumer) {
  SharedLog log;
  GcRegistry registry;
  const std::string stream = "out";
  const std::string tag = DataTag(stream, 0);
  auto append = [&](RecordType type, const std::string& producer,
                    uint64_t instance, uint64_t seq) {
    RecordHeader h;
    h.type = type;
    h.producer = producer;
    h.instance = instance;
    h.seq = seq;
    AppendRequest req;
    req.tags = {tag};
    if (type == RecordType::kData) {
      DataBody body;
      body.key = "k";
      body.value = std::to_string(seq);
      body.event_time = 1;
      req.payload = EncodeEnvelope(h, EncodeDataBody(body));
    } else {
      ProgressMarker m;
      m.marker_seq = seq;
      req.payload = EncodeEnvelope(h, EncodeProgressMarker(m));
    }
    auto lsn = log.Append(std::move(req));
    EXPECT_TRUE(lsn.ok());
    return *lsn;
  };
  std::string group = EgressFloorGroup(tag);
  auto consumer = std::make_unique<EgressConsumer>(
      &log, stream, 0, /*read_committed=*/true, &registry);

  append(RecordType::kData, "up/0", 1, 1);                  // lsn 0
  append(RecordType::kProgressMarker, "up/0", 1, 1);        // lsn 1
  Lsn held = append(RecordType::kData, "up/0", 1, 2);       // lsn 2
  append(RecordType::kData, "up/0", 1, 3);                  // lsn 3
  auto first = consumer->PollAll();
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->size(), 1u) << "lsn 0 is committed, 2 and 3 are not";
  auto second = consumer->PollAll();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->empty());
  Lsn floor = registry.MinFloor();
  EXPECT_GT(floor, 0u) << "what PollAll returned is acknowledged";
  EXPECT_LE(floor, held) << "the buffered records are not";

  consumer.reset();
  EXPECT_EQ(registry.FloorOf(group), floor)
      << "the buffered records were never handed out: the group keeps them";

  // A later reader still finds them once they commit.
  append(RecordType::kProgressMarker, "up/0", 1, 2);
  GcWorker worker(&log, &registry, kSecond);
  worker.RunOnce();
  EXPECT_EQ(log.TrimPoint(), floor);
  auto after = log.ReadNext(tag, held);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->lsn, held);
}

// A consumer opened after GC trimmed its substream starts at the trim
// point: its first PollAll returns the records the log still holds
// instead of failing on the trimmed prefix.
TEST(EgressRetentionTest, LateConsumerStartsAtTheTrimPoint) {
  SharedLog log;
  GcRegistry registry;
  const std::string stream = "out";
  const std::string tag = DataTag(stream, 0);
  registry.PublishFloor(EgressFloorGroup(tag), 0);
  auto append = [&](uint64_t seq) {
    RecordHeader h;
    h.type = RecordType::kData;
    h.producer = "up/0";
    h.instance = 1;
    h.seq = seq;
    DataBody body;
    body.key = "k";
    body.value = std::to_string(seq);
    body.event_time = 1;
    AppendRequest req;
    req.tags = {tag};
    req.payload = EncodeEnvelope(h, EncodeDataBody(body));
    ASSERT_TRUE(log.Append(std::move(req)).ok());
  };
  for (uint64_t seq = 1; seq <= 4; ++seq) {
    append(seq);
  }
  EgressConsumer first(&log, stream, 0, /*read_committed=*/false, &registry);
  auto read = first.PollAll();
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->size(), 4u);
  ASSERT_TRUE(first.PollAll().ok());  // acknowledges the four
  GcWorker worker(&log, &registry, kSecond);
  worker.RunOnce();
  ASSERT_EQ(log.TrimPoint(), 4u);
  append(5);
  append(6);

  EgressConsumer late(&log, stream, 0, /*read_committed=*/false, &registry);
  auto rest = late.PollAll();
  ASSERT_TRUE(rest.ok()) << rest.status().ToString();
  ASSERT_EQ(rest->size(), 2u);
  EXPECT_EQ((*rest)[0].data.value, "5");
  EXPECT_EQ((*rest)[1].data.value, "6");
}

// Feeds the word-count pipeline in rounds, calling `poll` after each
// round. Keys vary so every ingress substream carries records: a reader
// that never consumes pins the log at 0 as surely as an unread egress.
void FeedRounds(IngressProducer& producer, int rounds,
                const std::function<void()>& poll) {
  for (int round = 0; round < rounds; ++round) {
    for (int i = 0; i < 10; ++i) {
      std::string n = std::to_string(i);
      producer.Send(std::string("k").append(n), std::string("w").append(n));
    }
    ASSERT_TRUE(producer.Flush().ok());
    MonotonicClock::Get()->SleepFor(20 * kMillisecond);
    poll();
  }
}

EngineConfig GcConfig() {
  EngineConfig config = testutil::FastConfig(ProtocolKind::kProgressMarking);
  config.snapshot_interval = 50 * kMillisecond;
  return config;
}

// Results nobody has read are never collected: with two egress substreams
// and a consumer on only one, the log cannot trim at all (trimming is by
// global prefix), and a consumer opened after the run reads every result.
TEST(EgressRetentionTest, UnconsumedEgressSubstreamIsRetained) {
  EngineOptions options;
  options.config = GcConfig();
  Engine engine(std::move(options));
  auto plan = testutil::WordCountPlan(2);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(engine.Submit(std::move(*plan)).ok());
  auto producer = engine.NewProducer("gen", "lines");
  ASSERT_TRUE(producer.ok());
  auto reader0 = engine.NewEgressConsumer("count", 0);
  ASSERT_TRUE(reader0.ok());
  size_t read0 = 0;
  auto poll = [&] {
    auto records = (*reader0)->PollAll();
    ASSERT_TRUE(records.ok());
    read0 += records->size();
  };
  FeedRounds(**producer, 10, poll);
  Counter* out = engine.metrics()->GetCounter("out/wc");
  ASSERT_TRUE(testutil::WaitFor([&] {
    poll();
    return out->Get() >= 100;
  }));
  // Several GC passes (one per 20 ms commit interval) and checkpoints.
  for (int i = 0; i < 10; ++i) {
    MonotonicClock::Get()->SleepFor(20 * kMillisecond);
    poll();
  }
  EXPECT_GT(read0, 0u);
  EXPECT_EQ(engine.log()->TrimPoint(), 0u)
      << "egress substream 1 has no consumer: nothing may be trimmed";
  engine.Stop();
  auto counts = testutil::ReadWordCounts(engine, 2);
  ASSERT_TRUE(counts.ok()) << counts.status().ToString();
  int64_t total = 0;
  for (const auto& [word, n] : *counts) {
    total += n;
  }
  EXPECT_EQ(total, 100);
}

// A consumer that never polls pins its substream at its start; destroying
// it releases that pin while another consumer keeps reading, and the last
// consumer to go hands its position back to the substream's retention.
TEST(EgressRetentionTest, DestroyedConsumerReleasesItsPin) {
  EngineOptions options;
  options.config = GcConfig();
  Engine engine(std::move(options));
  auto plan = testutil::WordCountPlan(1);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(engine.Submit(std::move(*plan)).ok());
  auto producer = engine.NewProducer("gen", "lines");
  ASSERT_TRUE(producer.ok());
  auto reader = engine.NewEgressConsumer("count", 0);
  ASSERT_TRUE(reader.ok());
  auto idle = engine.NewEgressConsumer("count", 0);
  ASSERT_TRUE(idle.ok());
  auto poll = [&] { ASSERT_TRUE((*reader)->PollAll().ok()); };
  FeedRounds(**producer, 10, poll);
  Counter* out = engine.metrics()->GetCounter("out/wc");
  ASSERT_TRUE(testutil::WaitFor([&] {
    poll();
    return out->Get() >= 100;
  }));
  for (int i = 0; i < 10; ++i) {
    MonotonicClock::Get()->SleepFor(20 * kMillisecond);
    poll();
  }
  EXPECT_EQ(engine.log()->TrimPoint(), 0u)
      << "the idle consumer still needs the substream from LSN 0";

  idle->reset();
  ASSERT_TRUE(testutil::WaitFor(
      [&] {
        poll();
        return engine.log()->TrimPoint() > 0;
      },
      5 * kSecond))
      << "GC never trimmed after the idle consumer went away";

  GcRegistry* gc = engine.tasks()->gc_registry();
  std::string group =
      EgressFloorGroup(DataTag(EgressStreamName("wc", "count"), 0));
  EXPECT_EQ(gc->FloorOf(group), kInvalidLsn);
  reader->reset();
  EXPECT_NE(gc->FloorOf(group), kInvalidLsn)
      << "with no consumer left the substream is retained again";
  EXPECT_GT(gc->FloorOf(group), 0u) << "...from what was read, not from 0";
  engine.Stop();
}

}  // namespace
}  // namespace impeller
