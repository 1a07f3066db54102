// Aligned-checkpoint store tests (DESIGN.md §14): completing a round
// subsumes every older snapshot, so the store holds the completed round and
// the one in flight; recovery follows a round that completes mid-read; and
// a task whose snapshot fails declines its round instead of holding its
// input blocked until the coordinator's ack timeout.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/stream.h"
#include "src/protocols/barrier_coordinator.h"
#include "tests/test_util.h"

namespace impeller {
namespace {

using testutil::FastConfig;
using testutil::Numbered;
using testutil::ReadWordCounts;
using testutil::WaitFor;
using testutil::WordCountPlan;

std::vector<std::string> SnapshotKeys(KvStore* store,
                                      const std::string& query) {
  return store->ScanKeys("actl/" + query + "/");
}

uint64_t RoundOf(const std::string& key) {
  return std::stoull(key.substr(key.rfind('/') + 1));
}

// Every snapshot in the store belongs to the completed round or a later
// one, and there are at most two rounds' worth. Reading the completed id
// before the scan is what makes this exact while rounds keep completing:
// the write that published it deleted everything older.
void ExpectOnlyLiveSnapshots(Engine& engine, size_t tasks) {
  BarrierCoordinator* coordinator = engine.tasks()->barrier_coordinator();
  uint64_t completed = coordinator->LatestCompleted();
  std::vector<std::string> keys =
      SnapshotKeys(engine.checkpoint_store(), engine.plan().name);
  EXPECT_LE(keys.size(), tasks * 2) << "completed " << completed;
  for (const std::string& key : keys) {
    EXPECT_GE(RoundOf(key), completed) << key << " outlived its round";
  }
}

// Word count whose split stage is over-partitioned, so it can rescale.
Result<QueryPlan> RescalablePlan(uint32_t split_tasks) {
  AggregateFn count;
  count.init = [] { return std::string("0"); };
  count.add = [](std::string_view acc, const StreamRecord&) {
    return std::to_string(std::stoll(std::string(acc)) + 1);
  };
  QueryBuilder qb("wc");
  qb.Ingress("lines");
  qb.AddStage("split", split_tasks)
      .WithSubstreams(6)
      .ReadsFrom({"lines"})
      .FlatMap([](StreamRecord r, std::vector<StreamRecord>* out) {
        std::istringstream stream(r.value);
        std::string word;
        while (stream >> word) {
          out->push_back({word, "1", r.event_time});
        }
      })
      .WritesTo("words");
  qb.AddStage("count", 2).ReadsFrom({"words"}).Aggregate("c", count).Sink(
      "wc");
  return qb.Build();
}

TEST(AlignedSubsumptionTest, StoreHoldsOnlyCompletedAndInflightSnapshots) {
  EngineOptions options;
  options.config = FastConfig(ProtocolKind::kAlignedCheckpoint);
  Engine engine(std::move(options));
  auto plan = WordCountPlan(2);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(engine.Submit(std::move(*plan)).ok());
  auto producer = engine.NewProducer("gen", "lines");
  ASSERT_TRUE(producer.ok());
  const size_t tasks = engine.tasks()->AllTaskIds().size();
  BarrierCoordinator* coordinator = engine.tasks()->barrier_coordinator();

  int lines = 0;
  while (coordinator->LatestCompleted() < 30) {
    ASSERT_LT(lines, 2000) << "checkpoints stopped completing at "
                           << coordinator->LatestCompleted();
    (*producer)->Send(Numbered("l", lines), "pear plum");
    ASSERT_TRUE((*producer)->Flush().ok());
    ++lines;
    ExpectOnlyLiveSnapshots(engine, tasks);
    MonotonicClock::Get()->SleepFor(5 * kMillisecond);
  }
  Counter* out = engine.metrics()->GetCounter("out/wc");
  ASSERT_TRUE(WaitFor([&] { return out->Get() >= uint64_t(2 * lines); }, 20 * kSecond));
  engine.Stop();

  ExpectOnlyLiveSnapshots(engine, tasks);
  uint64_t completed = coordinator->LatestCompleted();
  for (const auto& task : engine.tasks()->AllTaskIds()) {
    EXPECT_TRUE(engine.checkpoint_store()->Contains(
        BarrierCoordinator::SnapshotKey(task, completed)))
        << task << " lost its snapshot of the completed round";
  }
  auto counts = ReadWordCounts(engine);
  ASSERT_TRUE(counts.ok());
  EXPECT_EQ((*counts)["pear"], lines);
  EXPECT_EQ((*counts)["plum"], lines);
}

// A scale-down retires task ids; a later completion deletes their
// snapshots too, and a scale-up's new ids are swept like the rest.
TEST(AlignedSubsumptionTest, RescaleLeavesNoSnapshotsBehind) {
  EngineOptions options;
  options.config = FastConfig(ProtocolKind::kAlignedCheckpoint);
  Engine engine(std::move(options));
  auto plan = RescalablePlan(3);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(engine.Submit(std::move(*plan)).ok());
  auto producer = engine.NewProducer("gen", "lines");
  ASSERT_TRUE(producer.ok());
  BarrierCoordinator* coordinator = engine.tasks()->barrier_coordinator();
  Counter* out = engine.metrics()->GetCounter("out/wc");
  int sent = 0;
  auto feed_rounds = [&](uint64_t rounds) {
    uint64_t target = coordinator->LatestCompleted() + rounds;
    while (coordinator->LatestCompleted() < target) {
      ASSERT_LT(sent, 5000) << "checkpoints stopped completing";
      (*producer)->Send(Numbered("key", sent % 60), "tick");
      ASSERT_TRUE((*producer)->Flush().ok());
      ++sent;
      MonotonicClock::Get()->SleepFor(5 * kMillisecond);
    }
  };

  feed_rounds(5);
  for (uint32_t split_tasks : {1u, 2u}) {
    ASSERT_TRUE(engine.tasks()->RescaleStage("split", split_tasks).ok());
    feed_rounds(3);
    // 2 count tasks + the current split tasks.
    ExpectOnlyLiveSnapshots(engine, 2 + split_tasks);
    const std::string split_prefix = "actl/wc/split/";
    for (const std::string& key :
         SnapshotKeys(engine.checkpoint_store(), "wc")) {
      if (key.rfind(split_prefix, 0) == 0) {
        EXPECT_LT(std::stoul(key.substr(split_prefix.size())), split_tasks)
            << key << " belongs to a retired task";
      }
    }
  }
  // Exact counts are not asserted here: a bounced consumer that recovers
  // from a snapshot taken while it had records sidelined can lose one of
  // them (CHANGES.md FOUND), independent of the store's subsumption.
  ASSERT_TRUE(WaitFor([&] { return out->Get() >= uint64_t(sent); }, 20 * kSecond))
      << out->Get() << " of " << sent;
  engine.Stop();
}

TEST(AlignedRecoveryTest, RestartAfterManyRoundsRestoresTheLatestSnapshot) {
  EngineOptions options;
  options.config = FastConfig(ProtocolKind::kAlignedCheckpoint);
  Engine engine(std::move(options));
  auto plan = WordCountPlan(1);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(engine.Submit(std::move(*plan)).ok());
  auto producer = engine.NewProducer("gen", "lines");
  ASSERT_TRUE(producer.ok());
  Counter* out = engine.metrics()->GetCounter("out/wc");
  BarrierCoordinator* coordinator = engine.tasks()->barrier_coordinator();

  for (int i = 0; i < 25; ++i) {
    (*producer)->Send("l", "fig date");
    ASSERT_TRUE((*producer)->Flush().ok());
    MonotonicClock::Get()->SleepFor(4 * kMillisecond);
  }
  ASSERT_TRUE(WaitFor([&] { return out->Get() >= 50; }, 20 * kSecond));
  uint64_t target = coordinator->LatestCompleted() + 20;
  ASSERT_TRUE(WaitFor(
      [&] { return coordinator->LatestCompleted() >= target; }, 20 * kSecond));

  uint64_t completed = coordinator->LatestCompleted();
  auto stats = engine.tasks()->RestartTask("wc/count/0");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->used_checkpoint);
  EXPECT_GE(stats->aligned_checkpoint_id, completed)
      << "recovered from a superseded round";

  for (int i = 0; i < 25; ++i) {
    (*producer)->Send("l", "fig");
    ASSERT_TRUE((*producer)->Flush().ok());
    MonotonicClock::Get()->SleepFor(4 * kMillisecond);
  }
  ASSERT_TRUE(WaitFor([&] { return out->Get() >= 75; }, 20 * kSecond));
  engine.Stop();
  auto counts = ReadWordCounts(engine, 1);
  ASSERT_TRUE(counts.ok());
  EXPECT_EQ((*counts)["fig"], 50);
  EXPECT_EQ((*counts)["date"], 25);
}

// The coordinator-level tests below play the tasks themselves: they write a
// snapshot for the round in flight and acknowledge (or decline) it.
class CoordinatorHarness {
 public:
  explicit CoordinatorHarness(KvStore* store) : store_(store) {}

  std::unique_ptr<BarrierCoordinator> Make(std::vector<std::string> tasks) {
    BarrierCoordinatorOptions opts;
    opts.query = "q";
    opts.interval = 5 * kMillisecond;
    opts.ack_timeout = 60 * kSecond;
    auto coordinator = std::make_unique<BarrierCoordinator>(
        &log_, store_, MonotonicClock::Get(), opts);
    coordinator->Configure({DataTag("in", 0)}, std::move(tasks));
    return coordinator;
  }

  // Waits for round `id` to start and writes `task`'s snapshot for it.
  static void Snapshot(BarrierCoordinator& coordinator, KvStore* store,
                       const std::string& task, uint64_t id) {
    ASSERT_TRUE(WaitFor([&] { return coordinator.checkpoints_started() >= id; }))
        << "round " << id << " never started";
    ASSERT_EQ(coordinator.checkpoints_started(), id);
    ASSERT_TRUE(store
                    ->Put(BarrierCoordinator::SnapshotKey(task, id),
                          Numbered("state@", id))
                    .ok());
  }

  // Snapshots and acknowledges round `id` for every task in `tasks`, then
  // waits for it to complete.
  static void CompleteRound(BarrierCoordinator& coordinator, KvStore* store,
                            const std::vector<std::string>& tasks,
                            uint64_t id) {
    for (const std::string& task : tasks) {
      Snapshot(coordinator, store, task, id);
      coordinator.AckCheckpoint(task, id);
    }
    ASSERT_TRUE(
        WaitFor([&] { return coordinator.LatestCompleted() == id; }))
        << "round " << id << " never completed";
  }

 private:
  SharedLog log_;
  KvStore* store_;
};

// Recovery reads the completed id, then the snapshot it names. When a
// round completes in between, that snapshot is already deleted: recovery
// must follow the newer id rather than start empty.
TEST(AlignedRecoveryTest, RoundCompletingMidReadIsFollowedToItsSnapshot) {
#if !defined(IMPELLER_FAULT_INJECTION_ENABLED)
  GTEST_SKIP() << "built without IMPELLER_FAULT_INJECTION";
#endif
  KvStore store;
  CoordinatorHarness harness(&store);
  const std::string task = "q/s/0";
  auto coordinator = harness.Make({task});
  coordinator->Start();
  CoordinatorHarness::CompleteRound(*coordinator, &store, {task}, 1);
  CoordinatorHarness::Snapshot(*coordinator, &store, task, 2);

  // Hold the snapshot lookup (not the completed-id lookup) long enough for
  // round 2 to complete meanwhile.
  fault::FaultSchedule hold;
  hold.point = "kv/get";
  hold.kind = fault::FaultKind::kDelay;
  hold.detail_substr = "actl/";
  hold.at_hit = 1;
  hold.delay = kSecond;
  testutil::FaultArmGuard guard({hold}, /*seed=*/1);
  Result<std::optional<BarrierCoordinator::CompletedSnapshot>> read =
      std::optional<BarrierCoordinator::CompletedSnapshot>();
  std::thread reader([&] {
    read = BarrierCoordinator::ReadLatestSnapshot(&store, "q", task);
  });
  ASSERT_TRUE(WaitFor(
      [] { return fault::FaultInjector::Get().FireCount("kv/get") >= 1; }));
  coordinator->AckCheckpoint(task, 2);
  bool completed =
      WaitFor([&] { return coordinator->LatestCompleted() == 2; });
  bool subsumed =
      !store.Contains(BarrierCoordinator::SnapshotKey(task, 1));
  reader.join();
  coordinator->Stop();
  ASSERT_TRUE(completed);
  ASSERT_TRUE(subsumed) << "round 2's completion keeps round 1's snapshot";

  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_TRUE(read->has_value()) << "started empty: the state was lost";
  EXPECT_EQ((*read)->checkpoint_id, 2u);
  EXPECT_EQ((*read)->blob, "state@2");
}

// A task that declines a round makes the coordinator abandon it at once
// (not at the ack timeout); the next completion deletes what the declined
// round wrote.
TEST(AlignedCoordinatorTest, DeclinedRoundIsAbandonedAtOnce) {
  KvStore store;
  CoordinatorHarness harness(&store);
  const std::vector<std::string> tasks = {"q/s/0", "q/s/1"};
  auto coordinator = harness.Make(tasks);
  coordinator->Start();
  CoordinatorHarness::CompleteRound(*coordinator, &store, tasks, 1);

  CoordinatorHarness::Snapshot(*coordinator, &store, tasks[0], 2);
  coordinator->AckCheckpoint(tasks[0], 2);
  coordinator->DeclineCheckpoint(tasks[1], 2);
  TimeNs declined_at = MonotonicClock::Get()->Now();
  CoordinatorHarness::CompleteRound(*coordinator, &store, tasks, 3);
  EXPECT_LT(MonotonicClock::Get()->Now() - declined_at, 5 * kSecond);
  coordinator->Stop();

  std::vector<std::string> keys = SnapshotKeys(&store, "q");
  EXPECT_EQ(keys, (std::vector<std::string>{"actl/q/s/0/3", "actl/q/s/1/3"}));
}

// The store outlives coordinators. A new one continues the round ids past
// what the store holds and deletes exactly the snapshots it finds there,
// including those of a task it no longer runs, without re-issuing deletes
// for every earlier round.
TEST(AlignedCoordinatorTest, NewCoordinatorContinuesRoundsAndSweepsLeftovers) {
  KvStore store;
  CoordinatorHarness harness(&store);
  const std::vector<std::string> tasks = {"q/s/0", "q/s/1"};
  {
    auto first = harness.Make(tasks);
    first->Start();
    for (uint64_t id = 1; id <= 5; ++id) {
      CoordinatorHarness::CompleteRound(*first, &store, tasks, id);
      EXPECT_EQ(SnapshotKeys(&store, "q").size(), tasks.size());
    }
    EXPECT_EQ(first->snapshots_deleted(), 4 * tasks.size());
    // Round 6 is in flight when the coordinator goes away.
    CoordinatorHarness::Snapshot(*first, &store, tasks[0], 6);
    first->Stop();
  }
  ASSERT_EQ(SnapshotKeys(&store, "q").size(), 3u);

  auto second = harness.Make({tasks[0]});
  second->Start();
  CoordinatorHarness::CompleteRound(*second, &store, {tasks[0]}, 7);
  second->Stop();
  EXPECT_EQ(SnapshotKeys(&store, "q"),
            (std::vector<std::string>{"actl/q/s/0/7"}));
  EXPECT_EQ(second->snapshots_deleted(), 3u)
      << "only the three snapshots found at start are deleted";
}

// A task whose snapshot write fails declines the round: its input is
// unblocked at once, and the coordinator completes a later round within
// about a second instead of after the 10 s ack timeout.
TEST(AlignedFailureTest, FailedSnapshotDeclinesAndInputKeepsFlowing) {
#if !defined(IMPELLER_FAULT_INJECTION_ENABLED)
  GTEST_SKIP() << "built without IMPELLER_FAULT_INJECTION";
#endif
  EngineOptions options;
  options.config = FastConfig(ProtocolKind::kAlignedCheckpoint);
  options.config.commit_interval = 50 * kMillisecond;
  Engine engine(std::move(options));
  auto plan = WordCountPlan(1);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(engine.Submit(std::move(*plan)).ok());
  auto producer = engine.NewProducer("gen", "lines");
  ASSERT_TRUE(producer.ok());
  Counter* out = engine.metrics()->GetCounter("out/wc");
  BarrierCoordinator* coordinator = engine.tasks()->barrier_coordinator();

  fault::FaultSchedule fail;
  fail.point = "kv/write";
  fail.kind = fault::FaultKind::kError;
  fail.detail_substr = "actl/wc/split/0/";
  fail.at_hit = 3;
  testutil::FaultArmGuard guard({fail}, /*seed=*/1, engine.metrics());
  auto fired = [] {
    return fault::FaultInjector::Get().FireCount("kv/write") >= 1;
  };
  int lines = 0;
  while (!fired()) {
    ASSERT_LT(lines, 1000) << "the snapshot write fault never fired";
    (*producer)->Send("l", "pear plum");
    ASSERT_TRUE((*producer)->Flush().ok());
    ++lines;
    MonotonicClock::Get()->SleepFor(10 * kMillisecond);
  }
  TimeNs failed_at = MonotonicClock::Get()->Now();
  uint64_t failed_round = coordinator->checkpoints_started();

  for (int i = 0; i < 20; ++i) {
    (*producer)->Send("l", "fig");
    ASSERT_TRUE((*producer)->Flush().ok());
    MonotonicClock::Get()->SleepFor(5 * kMillisecond);
  }
  EXPECT_TRUE(WaitFor([&] { return out->Get() >= uint64_t(2 * lines + 20); },
                      2 * kSecond))
      << "input stayed blocked: " << out->Get() << " of " << 2 * lines + 20
      << " outputs";
  EXPECT_TRUE(WaitFor(
      [&] { return coordinator->LatestCompleted() > failed_round; },
      2 * kSecond - (MonotonicClock::Get()->Now() - failed_at)))
      << "no round completed after the failed one";
  ASSERT_TRUE(WaitFor([&] { return out->Get() >= uint64_t(2 * lines + 20); },
                      20 * kSecond));
  engine.Stop();
  auto counts = ReadWordCounts(engine, 1);
  ASSERT_TRUE(counts.ok());
  EXPECT_EQ((*counts)["pear"], lines);
  EXPECT_EQ((*counts)["fig"], 20);
}

}  // namespace
}  // namespace impeller
