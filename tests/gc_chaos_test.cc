// GC under faults: the chaos schedules of chaos_test, with egress consumers
// that stay open and poll throughout the run. Each PollAll acknowledges the
// previous one, so the shared log trims mid-run (log/records_trimmed > 0)
// while tasks crash, recover, replay changelogs and, in the rescale cases,
// hand keyed state over to a new generation. The committed output must stay
// byte-identical to a fault-free run: a reader that found a record it still
// needed trimmed would fail its poll, its recovery or its handoff.
//
// Seeds replay like chaos_test's (IMPELLER_CHAOS_SEED_BASE shifts them).
#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

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
using chaos::kNumEvents;
using chaos::kPhaseLines;
using chaos::kTasksPerStage;
using chaos::MakeBids;
using chaos::ProtocolTestName;
using chaos::ShardKillTestName;
using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultSchedule;

// Fewer seeds than chaos_test: every run here also waits for GC to trim.
constexpr uint64_t kGcChaosSeeds = 4;

// Long-lived consumers over every egress substream of one sinking stage.
// The first failed poll (a kTrimmed one included) is kept and reported.
class EgressTail {
 public:
  using Format = std::function<Result<std::string>(const ReadyRecord&)>;

  explicit EgressTail(Format format) : format_(std::move(format)) {}

  Status Open(Engine& engine, std::string_view stage, uint32_t substreams) {
    for (uint32_t sub = 0; sub < substreams; ++sub) {
      auto consumer = engine.NewEgressConsumer(stage, sub);
      IMPELLER_RETURN_IF_ERROR(consumer.status());
      consumers_.push_back(std::move(*consumer));
    }
    return OkStatus();
  }

  // Drains every consumer; false once any poll has failed.
  bool Poll() {
    for (auto& consumer : consumers_) {
      if (!error_.ok()) {
        return false;
      }
      auto records = consumer->PollAll();
      if (!records.ok()) {
        error_ = records.status();
        return false;
      }
      for (const auto& r : *records) {
        auto line = format_(r);
        if (!line.ok()) {
          error_ = line.status();
          return false;
        }
        lines_.push_back(std::move(*line));
      }
    }
    return true;
  }

  size_t Distinct() const {
    return std::set<std::string>(lines_.begin(), lines_.end()).size();
  }
  std::vector<std::string> Sorted() const {
    std::vector<std::string> sorted = lines_;
    std::sort(sorted.begin(), sorted.end());
    return sorted;
  }
  const Status& error() const { return error_; }

 private:
  Format format_;
  std::vector<std::unique_ptr<EgressConsumer>> consumers_;
  std::vector<std::string> lines_;
  Status error_;
};

Result<std::string> BidLine(const ReadyRecord& r) {
  auto bid = DecodeBid(r.data.value);
  if (!bid.ok()) {
    return bid.status();
  }
  return std::string(r.data.key) + "|" + std::to_string(bid->price) + "|" +
         std::to_string(bid->date_time / kMillisecond);
}

Result<std::string> CountLine(const ReadyRecord& r) {
  return std::string(r.data.key) + "|" + std::string(r.data.value);
}

struct GcRun {
  std::vector<std::string> lines;
  uint64_t fault_fires = 0;
  uint64_t records_trimmed = 0;
  Lsn trim_at_rescale = 0;
  Lsn final_trim = 0;
};

// Q1 over the fixed bid stream, fed in bursts with the schedules armed and
// the egress polled after every burst; then polled until every input is
// committed and GC has trimmed.
Result<GcRun> RunQ1(ProtocolKind protocol, uint64_t seed,
                    std::vector<FaultSchedule> schedules, uint32_t shards) {
  EngineOptions options;
  options.config = ChaosConfig(protocol);
  options.config.log_shards = shards;
  options.name = "gc-chaos";
  Engine engine(std::move(options));

  NexmarkQueryOptions query_options;
  query_options.tasks_per_stage = kTasksPerStage;
  auto plan = BuildNexmarkQuery(1, query_options);
  IMPELLER_RETURN_IF_ERROR(plan.status());
  IMPELLER_RETURN_IF_ERROR(engine.Submit(std::move(*plan)));
  auto producer = engine.NewProducer("chaos-gen", "bids");
  IMPELLER_RETURN_IF_ERROR(producer.status());
  EgressTail tail(BidLine);
  IMPELLER_RETURN_IF_ERROR(tail.Open(engine, "convert", kTasksPerStage));

  Clock* clock = engine.clock();
  std::vector<Bid> bids = MakeBids();
  GcRun run;
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
      clock->SleepFor(15 * kMillisecond);
      tail.Poll();
    }
    clock->SleepFor(100 * kMillisecond);
    tail.Poll();
  }
  run.fault_fires = FaultInjector::Get().TotalFires();

  // An aligned round whose task crashed mid-checkpoint holds the floors
  // until its acknowledgement timeout (10 s) abandons it.
  testutil::WaitFor(
      [&] {
        return !tail.Poll() || (tail.Distinct() >= kNumEvents &&
                                engine.log()->stats().records_trimmed > 0);
      },
      30 * kSecond);
  engine.Stop();
  tail.Poll();
  IMPELLER_RETURN_IF_ERROR(tail.error());
  run.lines = tail.Sorted();
  run.records_trimmed = engine.log()->stats().records_trimmed;
  return run;
}

class GcChaosTest
    : public ::testing::TestWithParam<std::tuple<ProtocolKind, uint32_t>> {};

TEST_P(GcChaosTest, TrimsMidRunAndCommittedOutputMatchesFaultFreeRun) {
#if !defined(IMPELLER_FAULT_INJECTION_ENABLED)
  GTEST_SKIP() << "built with IMPELLER_FAULT_INJECTION=OFF";
#else
  auto [protocol, shards] = GetParam();

  auto baseline = RunQ1(protocol, /*seed=*/0, {}, shards);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_EQ(baseline->lines.size(), kNumEvents)
      << "fault-free run must commit every input exactly once";
  EXPECT_GT(baseline->records_trimmed, 0u);

  const uint64_t base = ChaosSeedBase();
  RecordProperty("chaos_seed_base", std::to_string(base));
  for (uint64_t seed = base + 1; seed <= base + kGcChaosSeeds; ++seed) {
    SCOPED_TRACE("protocol=" + std::string(ProtocolKindName(protocol)) +
                 " shards=" + std::to_string(shards) +
                 " chaos seed=" + std::to_string(seed) +
                 " (replay: IMPELLER_CHAOS_SEED_BASE=" + std::to_string(base) +
                 ")");
    auto run =
        RunQ1(protocol, seed, DeriveSchedules(protocol, seed, shards), shards);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_GT(run->fault_fires, 0u)
        << "schedule set for seed " << seed << " never fired";
    EXPECT_GT(run->records_trimmed, 0u) << "GC never trimmed mid-run";
    EXPECT_EQ(run->lines, baseline->lines);
  }
#endif
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, GcChaosTest,
    ::testing::Combine(::testing::Values(ProtocolKind::kProgressMarking,
                                         ProtocolKind::kKafkaTxn,
                                         ProtocolKind::kAlignedCheckpoint,
                                         ProtocolKind::kUnsafe),
                       ::testing::Values(1u, 3u)),
    ProtocolTestName);

// The running-count plan of chaos_test's handoff case: phase 1 is fed and
// committed and GC has trimmed; the stateful stage rescales with a crash
// armed between state acquisition and transfer; phase 2 follows. The new
// generation replays the old changelogs from checkpoints captured at the
// handoff while GC keeps running, and GC must move past the rescale once
// the handoff is sealed. rescale_to == 0 is the never-rescaled baseline.
Result<GcRun> RunHandoffRescale(ProtocolKind protocol, uint64_t seed,
                                uint32_t rescale_to,
                                std::vector<FaultSchedule> schedules) {
  EngineOptions options;
  options.config = ChaosConfig(protocol);
  options.name = "gc-handoff";
  Engine engine(std::move(options));
  auto plan = HandoffCountPlan();
  IMPELLER_RETURN_IF_ERROR(plan.status());
  IMPELLER_RETURN_IF_ERROR(engine.Submit(std::move(*plan)));
  auto producer = engine.NewProducer("chaos-gen", "nums");
  IMPELLER_RETURN_IF_ERROR(producer.status());
  EgressTail tail(CountLine);
  IMPELLER_RETURN_IF_ERROR(tail.Open(engine, "fmt", kTasksPerStage));
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
  auto settle = [&](size_t lines, const std::function<bool()>& gc_done) {
    testutil::WaitFor(
        [&] {
          return !tail.Poll() || (tail.Distinct() >= lines && gc_done());
        },
        30 * kSecond);
    IMPELLER_RETURN_IF_ERROR(tail.error());
    if (tail.Distinct() < lines || !gc_done()) {
      return DeadlineExceededError(
          std::to_string(tail.Distinct()) + "/" + std::to_string(lines) +
          " lines committed, trim point " +
          std::to_string(engine.log()->TrimPoint()));
    }
    return OkStatus();
  };

  GcRun run;
  IMPELLER_RETURN_IF_ERROR(feed(0));
  IMPELLER_RETURN_IF_ERROR(settle(kPhaseLines, [&] {
    return engine.log()->stats().records_trimmed > 0;
  }));
  run.trim_at_rescale = engine.log()->TrimPoint();
  if (rescale_to != 0) {
    testutil::FaultArmGuard arm(std::move(schedules), seed, engine.metrics());
    IMPELLER_RETURN_IF_ERROR(
        engine.tasks()->RescaleStage("count", rescale_to));
    testutil::WaitFor(
        [&] { return FaultInjector::Get().TotalFires() > 0; }, 5 * kSecond);
    IMPELLER_RETURN_IF_ERROR(feed(1));
    clock->SleepFor(100 * kMillisecond);
    run.fault_fires = FaultInjector::Get().TotalFires();
  } else {
    IMPELLER_RETURN_IF_ERROR(feed(1));
  }
  IMPELLER_RETURN_IF_ERROR(settle(2 * kPhaseLines, [&] {
    return engine.log()->TrimPoint() > run.trim_at_rescale;
  }));
  engine.Stop();
  tail.Poll();
  IMPELLER_RETURN_IF_ERROR(tail.error());
  run.lines = tail.Sorted();
  run.records_trimmed = engine.log()->stats().records_trimmed;
  run.final_trim = engine.log()->TrimPoint();
  return run;
}

class GcHandoffChaosTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(GcHandoffChaosTest, HandoffUnderGcMatchesFaultFreeRun) {
#if !defined(IMPELLER_FAULT_INJECTION_ENABLED)
  GTEST_SKIP() << "built with IMPELLER_FAULT_INJECTION=OFF";
#else
  ProtocolKind protocol = GetParam();
  auto baseline = RunHandoffRescale(protocol, /*seed=*/0, /*rescale_to=*/0,
                                    {});
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_EQ(baseline->lines.size(), 2 * kPhaseLines);

  const uint64_t base = ChaosSeedBase();
  RecordProperty("chaos_seed_base", std::to_string(base));
  // One split (2 -> 3) and one merge (2 -> 1), whose retired task's floors
  // must not hold GC back.
  for (uint64_t seed = base + 1; seed <= base + 2; ++seed) {
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
    EXPECT_GT(run->fault_fires, 0u);
    EXPECT_GT(run->final_trim, run->trim_at_rescale)
        << "GC must move past the rescale once the handoff is sealed";
    EXPECT_EQ(run->lines, baseline->lines);
  }
#endif
}

INSTANTIATE_TEST_SUITE_P(MarkerProtocols, GcHandoffChaosTest,
                         ::testing::Values(ProtocolKind::kProgressMarking,
                                           ProtocolKind::kKafkaTxn),
                         ShardKillTestName);

}  // namespace
}  // namespace impeller
