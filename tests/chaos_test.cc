// Chaos harness: runs NEXMark Q1 under seeded adversarial fault schedules —
// append-ack delay spikes, transient kUnavailable appends, duplicate
// redeliveries, checkpoint-store hiccups, and crashes at every
// protocol-critical point — and asserts that the *committed* output is
// byte-identical to a fault-free run of the same input. This is the paper's
// exactly-once claim (§3.3-§3.5) under test: markers, fencing, duplicate
// suppression, and recovery must together make faults invisible in the
// committed stream.
//
// Every run is reproducible: the schedule set and every injection decision
// derive from one seed, printed on failure. Re-run a single failure with
// the same seed by filtering the test and reading the logged seed.
//
// kUnsafe gets only the benign schedules (delays, bounded transient errors,
// duplicates — no crashes): without progress tracking a crash legitimately
// loses state, which is Fig. 9's point, not a harness failure.
#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/retry.h"
#include "src/fault/fault.h"
#include "src/nexmark/events.h"
#include "src/nexmark/queries.h"
#include "tests/chaos_util.h"
#include "tests/test_util.h"

namespace impeller {
namespace {

using chaos::ChaosConfig;
using chaos::ChaosSeedBase;
using chaos::DeriveSchedules;
using chaos::HandoffCountPlan;
using chaos::kEventTimeBase;
using chaos::kHandoffKeys;
using chaos::kHandoffRounds;
using chaos::kNumChaosSeeds;
using chaos::kNumEvents;
using chaos::kPhaseLines;
using chaos::kTasksPerStage;
using chaos::MakeBids;
using chaos::ProtocolTestName;
using chaos::ShardKillTestName;
using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultSchedule;

// Canonicalizes the committed egress: one line per committed record,
// sorted. Cross-substream interleaving is nondeterministic even fault-free,
// so lines sort; everything else — which records committed, their keys,
// values, event times, and multiplicity — must match byte-for-byte.
Result<std::vector<std::string>> CollectCommitted(Engine& engine) {
  std::vector<std::string> lines;
  for (uint32_t sub = 0; sub < kTasksPerStage; ++sub) {
    auto consumer = engine.NewEgressConsumer("convert", sub);
    if (!consumer.ok()) {
      return consumer.status();
    }
    auto records = (*consumer)->PollAll();
    if (!records.ok()) {
      return records.status();
    }
    for (const auto& r : *records) {
      auto bid = DecodeBid(r.data.value);
      if (!bid.ok()) {
        return bid.status();
      }
      lines.push_back(std::string(r.data.key) + "|" +
                      std::to_string(bid->price) + "|" +
                      std::to_string(bid->date_time / kMillisecond));
    }
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

size_t DistinctCommitted(Engine& engine) {
  auto lines = CollectCommitted(engine);
  if (!lines.ok()) {
    return 0;
  }
  return std::set<std::string>(lines->begin(), lines->end()).size();
}

struct ChaosOutcome {
  std::vector<std::string> lines;
  uint64_t fault_fires = 0;
  uint64_t retry_attempts = 0;
  uint64_t retry_retries = 0;
  uint64_t seals = 0;
  uint64_t epoch_bumps = 0;
};

// One full Q1 run: submit, feed the fixed bid stream in bursts (faults
// armed), disarm, wait for the committed output to converge, stop, read.
Result<ChaosOutcome> RunQ1(ProtocolKind protocol, uint64_t seed,
                           std::vector<FaultSchedule> schedules,
                           uint32_t shards) {
  EngineOptions options;
  options.config = ChaosConfig(protocol);
  options.config.log_shards = shards;
  options.name = "chaos";
  Engine engine(std::move(options));

  NexmarkQueryOptions query_options;
  query_options.tasks_per_stage = kTasksPerStage;
  auto plan = BuildNexmarkQuery(1, query_options);
  IMPELLER_RETURN_IF_ERROR(plan.status());
  IMPELLER_RETURN_IF_ERROR(engine.Submit(std::move(*plan)));
  auto producer = engine.NewProducer("chaos-gen", "bids");
  IMPELLER_RETURN_IF_ERROR(producer.status());

  Clock* clock = engine.clock();
  std::vector<Bid> bids = MakeBids();
  {
    testutil::FaultArmGuard arm(std::move(schedules), seed,
                                engine.metrics());
    for (size_t start = 0; start < bids.size(); start += 40) {
      size_t end = std::min(start + 40, bids.size());
      for (size_t i = start; i < end; ++i) {
        (*producer)->Send(std::to_string(bids[i].auction),
                          EncodeBid(bids[i]), bids[i].date_time);
      }
      IMPELLER_RETURN_IF_ERROR(
          testutil::FlushUntilDrained(**producer, clock));
      // Let commits, crashes, and restarts interleave with the feed.
      clock->SleepFor(15 * kMillisecond);
    }
    // Give armed crash schedules whose at_hit has not been reached a last
    // few commit rounds to fire mid-stream.
    clock->SleepFor(100 * kMillisecond);
  }  // disarm: recovery now runs fault-free

  ChaosOutcome outcome;
  outcome.fault_fires = FaultInjector::Get().TotalFires();
  outcome.retry_attempts =
      engine.metrics()->GetCounter("retry/attempts")->Get();
  outcome.retry_retries = engine.metrics()->GetCounter("retry/retries")->Get();
  outcome.seals = engine.metrics()->GetCounter("log/seals")->Get();
  outcome.epoch_bumps =
      engine.metrics()->GetCounter("log/epoch_bumps")->Get();

  // Convergence: every input must eventually commit exactly once; restarts
  // after the last crash take up to failure_timeout plus replay.
  testutil::WaitFor([&] { return DistinctCommitted(engine) >= kNumEvents; },
                    30 * kSecond);
  engine.Stop();

  auto lines = CollectCommitted(engine);
  IMPELLER_RETURN_IF_ERROR(lines.status());
  outcome.lines = std::move(*lines);
  return outcome;
}

// Parameterized over (protocol, shard count): exactly-once recovery and
// byte-identical committed output must hold whether the shared log runs
// one sequencer or several interleaved by the metalog.
class ChaosTest
    : public ::testing::TestWithParam<std::tuple<ProtocolKind, uint32_t>> {};

TEST_P(ChaosTest, CommittedOutputIsIdenticalToFaultFreeRun) {
#if !defined(IMPELLER_FAULT_INJECTION_ENABLED)
  GTEST_SKIP() << "built with IMPELLER_FAULT_INJECTION=OFF";
#else
  auto [protocol, shards] = GetParam();

  auto baseline = RunQ1(protocol, /*seed=*/0, {}, shards);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_EQ(baseline->lines.size(), kNumEvents)
      << "fault-free run must commit every input exactly once";

  const uint64_t base = ChaosSeedBase();
  RecordProperty("chaos_seed_base", std::to_string(base));
  for (uint64_t seed = base + 1; seed <= base + kNumChaosSeeds; ++seed) {
    SCOPED_TRACE("protocol=" + std::string(ProtocolKindName(protocol)) +
                 " shards=" + std::to_string(shards) +
                 " chaos seed=" + std::to_string(seed) +
                 " (replay: IMPELLER_CHAOS_SEED_BASE=" + std::to_string(base) +
                 " reproduces the schedule set and every "
                 "injection decision)");
    auto run =
        RunQ1(protocol, seed, DeriveSchedules(protocol, seed, shards), shards);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_GT(run->fault_fires, 0u)
        << "schedule set for seed " << seed << " never fired";
    EXPECT_EQ(run->lines, baseline->lines);
  }
#endif
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ChaosTest,
    ::testing::Combine(::testing::Values(ProtocolKind::kProgressMarking,
                                         ProtocolKind::kKafkaTxn,
                                         ProtocolKind::kAlignedCheckpoint,
                                         ProtocolKind::kUnsafe),
                       ::testing::Values(1u, 3u)),
    ProtocolTestName);

// ISSUE 7 acceptance: a fixed schedule permanently kills shard 1 of 3
// mid-run. The failure detector must seal it, the metalog must bump the
// placement epoch, and — for every protocol, including kUnsafe, since no
// task ever crashes — the committed output must be byte-identical to a
// fault-free run. Failover lives entirely below the protocols.
class ShardKillTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(ShardKillTest, PermanentShardLossIsInvisibleInCommittedOutput) {
#if !defined(IMPELLER_FAULT_INJECTION_ENABLED)
  GTEST_SKIP() << "built with IMPELLER_FAULT_INJECTION=OFF";
#else
  ProtocolKind protocol = GetParam();
  constexpr uint32_t kShards = 3;

  auto baseline = RunQ1(protocol, /*seed=*/0, {}, kShards);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_EQ(baseline->lines.size(), kNumEvents)
      << "fault-free run must commit every input exactly once";

  FaultSchedule kill;
  kill.point = "log/shard/append";
  kill.kind = FaultKind::kError;
  kill.detail_substr = "/s1";  // victim: shard 1 of {0, 1, 2}
  kill.at_lsn = 3;             // dies after admitting a few records
  kill.max_fires = 0;          // unlimited: permanent loss, no rejoin
  auto run = RunQ1(protocol, /*seed=*/41, {kill}, kShards);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GE(run->seals, 1u) << "the dead shard must be sealed";
  EXPECT_GE(run->epoch_bumps, 1u)
      << "sealing must publish a new placement epoch";
  EXPECT_EQ(run->lines, baseline->lines)
      << "failover must be invisible in the committed stream";
#endif
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ShardKillTest,
                         ::testing::Values(ProtocolKind::kProgressMarking,
                                           ProtocolKind::kKafkaTxn,
                                           ProtocolKind::kAlignedCheckpoint,
                                           ProtocolKind::kUnsafe),
                         ShardKillTestName);

// ISSUE 10 satellite: crash mid-handoff during a stateful rescale. Under
// the marker protocols the new generation acquires keyed state by replaying
// the old generation's changelogs up to their final cuts, then transfers
// ownership by re-appending the acquired state under its own id; only its
// first commit cut seals the handoff. The injected crash lands exactly
// between acquisition and transfer ("task/rescale/handoff"). The restart
// must redo the whole handoff from the sources — the acquired-but-untransferred
// state was never covered by a cut, so nothing of the crashed attempt may
// leak into the committed stream.
Result<std::vector<std::string>> CollectHandoffCommitted(Engine& engine) {
  std::vector<std::string> lines;
  for (uint32_t sub = 0; sub < kTasksPerStage; ++sub) {
    auto consumer = engine.NewEgressConsumer("fmt", sub);
    if (!consumer.ok()) {
      return consumer.status();
    }
    auto records = (*consumer)->PollAll();
    if (!records.ok()) {
      return records.status();
    }
    for (const auto& r : *records) {
      lines.push_back(std::string(r.data.key) + "|" +
                      std::string(r.data.value));
    }
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

size_t DistinctHandoffCommitted(Engine& engine) {
  auto lines = CollectHandoffCommitted(engine);
  if (!lines.ok()) {
    return 0;
  }
  return std::set<std::string>(lines->begin(), lines->end()).size();
}

// One run: feed phase 1, wait for it to commit, rescale the stateful stage
// (crash schedule armed), feed phase 2, wait for convergence. rescale_to ==
// 0 is the fault-free never-rescaled baseline.
Result<ChaosOutcome> RunHandoffRescale(ProtocolKind protocol, uint64_t seed,
                                       uint32_t rescale_to,
                                       std::vector<FaultSchedule> schedules) {
  EngineOptions options;
  options.config = ChaosConfig(protocol);
  options.name = "handoff-chaos";
  Engine engine(std::move(options));
  auto plan = HandoffCountPlan();
  IMPELLER_RETURN_IF_ERROR(plan.status());
  IMPELLER_RETURN_IF_ERROR(engine.Submit(std::move(*plan)));
  auto producer = engine.NewProducer("chaos-gen", "nums");
  IMPELLER_RETURN_IF_ERROR(producer.status());
  Clock* clock = engine.clock();

  auto feed = [&](int phase) -> Status {
    for (int round = 0; round < kHandoffRounds; ++round) {
      TimeNs et = kEventTimeBase +
                  static_cast<TimeNs>(phase * kHandoffRounds + round) *
                      kMillisecond;
      for (int j = 0; j < kHandoffKeys; ++j) {
        (*producer)->Send("hk" + std::to_string(j), "x", et);
      }
    }
    return testutil::FlushUntilDrained(**producer, clock);
  };
  auto committed_at_least = [&](size_t n) -> Status {
    if (!testutil::WaitFor(
            [&] { return DistinctHandoffCommitted(engine) >= n; },
            30 * kSecond)) {
      return DeadlineExceededError(
          "only " + std::to_string(DistinctHandoffCommitted(engine)) + "/" +
          std::to_string(n) + " lines committed");
    }
    return OkStatus();
  };

  IMPELLER_RETURN_IF_ERROR(feed(0));
  // The rescale must find real keyed state to move: phase 1 fully committed
  // means every key's count is 1..3 in the stage's stores.
  IMPELLER_RETURN_IF_ERROR(committed_at_least(kPhaseLines));

  ChaosOutcome outcome;
  if (rescale_to != 0) {
    testutil::FaultArmGuard arm(std::move(schedules), seed, engine.metrics());
    IMPELLER_RETURN_IF_ERROR(
        engine.tasks()->RescaleStage("count", rescale_to));
    // The crash fires on a new task's recovery thread shortly after spawn;
    // wait for it so the disarm below cannot race the handoff attempt.
    testutil::WaitFor(
        [&] { return FaultInjector::Get().TotalFires() > 0; }, 5 * kSecond);
    IMPELLER_RETURN_IF_ERROR(feed(1));
    // Let the monitor notice the dead task and redo the handoff while the
    // schedule is still armed (max_fires=1 keeps the redo crash-free).
    clock->SleepFor(100 * kMillisecond);
    outcome.fault_fires = FaultInjector::Get().TotalFires();
  } else {
    IMPELLER_RETURN_IF_ERROR(feed(1));
  }

  IMPELLER_RETURN_IF_ERROR(committed_at_least(2 * kPhaseLines));
  engine.Stop();
  auto lines = CollectHandoffCommitted(engine);
  IMPELLER_RETURN_IF_ERROR(lines.status());
  outcome.lines = std::move(*lines);
  return outcome;
}

// Parameterized over the marker protocols — the changelog-mediated handoff
// (and its crash window) only exists where markers do; aligned/unsafe hand
// state over in memory before the new generation starts.
class RescaleHandoffCrashTest
    : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(RescaleHandoffCrashTest, CrashBetweenAcquireAndTransferIsInvisible) {
#if !defined(IMPELLER_FAULT_INJECTION_ENABLED)
  GTEST_SKIP() << "built with IMPELLER_FAULT_INJECTION=OFF";
#else
  ProtocolKind protocol = GetParam();

  auto baseline = RunHandoffRescale(protocol, /*seed=*/0, /*rescale_to=*/0,
                                    {});
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_EQ(baseline->lines.size(), 2 * kPhaseLines)
      << "fault-free never-rescaled run must commit every update once";

  const uint64_t base = ChaosSeedBase();
  RecordProperty("chaos_seed_base", std::to_string(base));
  for (uint64_t seed = base + 1; seed <= base + kNumChaosSeeds; ++seed) {
    // Odd seeds split the state 2 -> 3 tasks, even seeds merge it 2 -> 1;
    // the seed also picks which new task's handoff attempt dies.
    uint32_t rescale_to = (seed % 2 == 1) ? kTasksPerStage + 1 : 1;
    Rng rng(seed * 0x9E3779B97F4A7C15ull +
            static_cast<uint64_t>(protocol) * 0x100000001B3ull);
    FaultSchedule crash;
    crash.point = "task/rescale/handoff";
    crash.kind = FaultKind::kCrash;
    crash.at_hit = 1 + rng.NextBounded(rescale_to);
    crash.max_fires = 1;
    SCOPED_TRACE("protocol=" + std::string(ProtocolKindName(protocol)) +
                 " rescale_to=" + std::to_string(rescale_to) +
                 " chaos seed=" + std::to_string(seed) +
                 " (replay: IMPELLER_CHAOS_SEED_BASE=" + std::to_string(base) +
                 ")");
    auto run = RunHandoffRescale(protocol, seed, rescale_to, {crash});
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_GT(run->fault_fires, 0u)
        << "mid-handoff crash for seed " << seed << " never fired";
    EXPECT_EQ(run->lines, baseline->lines)
        << "a crash between state acquisition and ownership transfer must "
           "be invisible in the committed stream";
  }
#endif
}

INSTANTIATE_TEST_SUITE_P(MarkerProtocols, RescaleHandoffCrashTest,
                         ::testing::Values(ProtocolKind::kProgressMarking,
                                           ProtocolKind::kKafkaTxn),
                         ShardKillTestName);

}  // namespace
}  // namespace impeller
