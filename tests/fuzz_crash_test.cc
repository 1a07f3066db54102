// Crash-timing fuzz, smoke tier of the chaos harness (tests/chaos_test.cc):
// seeded FaultInjector schedules crash tasks and coordinators at randomized
// protocol phases while data flows, the auto-restart monitor brings them
// back, and the exactly-once invariant must survive every interleaving —
// the paper's §3.3 claim ("maintain their invariants during arbitrary
// failures") exercised adversarially. Parameterized over protocol and seed;
// a failure replays from its seed.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/fault/fault.h"
#include "tests/test_util.h"

namespace impeller {
namespace {

using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultSchedule;
using testutil::FastConfig;
using testutil::Numbered;
using testutil::ReadWordCounts;
using testutil::WaitFor;
using testutil::WordCountPlan;

struct FuzzCase {
  ProtocolKind protocol;
  uint64_t seed;
};

// Crash points this protocol's tasks and coordinator pass through.
std::vector<std::string> CrashPoints(ProtocolKind protocol) {
  if (protocol == ProtocolKind::kKafkaTxn) {
    return {"task/flush/pre", "task/flush/post", "txn/phase2",
            "txn/post_commit"};
  }
  return {"task/commit/pre_marker", "task/commit/post_marker",
          "task/flush/pre", "task/flush/post"};
}

// One crash schedule per point, each firing once at a seed-chosen moment:
// the first is hit-counted (guaranteed to fire — flushes are frequent), the
// rest are probability-triggered so crashes land in different phases and
// different relative orders per seed.
std::vector<FaultSchedule> DeriveSchedules(ProtocolKind protocol, Rng& rng) {
  std::vector<FaultSchedule> schedules;
  std::vector<std::string> points = CrashPoints(protocol);
  for (size_t i = 0; i < points.size(); ++i) {
    FaultSchedule s;
    s.point = points[i];
    s.kind = FaultKind::kCrash;
    s.max_fires = 1;
    if (i == 0) {
      s.at_hit = static_cast<uint64_t>(rng.NextRange(2, 25));
    } else {
      s.probability = 0.01 + 0.04 * rng.NextDouble();
    }
    schedules.push_back(s);
  }
  return schedules;
}

class CrashFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(CrashFuzz, ExactlyOnceUnderSeededCrashSchedules) {
#if !defined(IMPELLER_FAULT_INJECTION_ENABLED)
  GTEST_SKIP() << "built with IMPELLER_FAULT_INJECTION=OFF";
#else
  const FuzzCase& fuzz = GetParam();
  Rng rng(fuzz.seed);

  EngineOptions options;
  options.config = FastConfig(fuzz.protocol);
  options.config.commit_interval = 15 * kMillisecond;
  options.config.snapshot_interval = 120 * kMillisecond;
  // Injected crashes are detected and restarted by the monitor, not the
  // test: that is the recovery path a deployment would take.
  options.config.auto_restart = true;
  options.config.heartbeat_interval = 10 * kMillisecond;
  options.config.failure_timeout = 200 * kMillisecond;
  Engine engine(std::move(options));
  auto plan = WordCountPlan(2);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(engine.Submit(std::move(*plan)).ok());
  auto producer = engine.NewProducer("gen", "lines");
  ASSERT_TRUE(producer.ok());

  Clock* clock = engine.clock();
  int64_t lines_sent = 0;
  {
    testutil::FaultArmGuard arm(DeriveSchedules(fuzz.protocol, rng),
                                fuzz.seed, engine.metrics());
    for (int round = 0; round < 8; ++round) {
      // A burst of input...
      int lines = static_cast<int>(rng.NextRange(5, 25));
      for (int i = 0; i < lines; ++i) {
        (*producer)->Send(Numbered("k", rng.NextBounded(16)),
                          "fuzz words here");
      }
      ASSERT_TRUE(testutil::FlushUntilDrained(**producer, clock).ok());
      lines_sent += lines;
      // ...then a random pause so crashes land in different phases.
      clock->SleepFor(rng.NextRange(1, 40) * kMillisecond);
    }
    // Settle while still armed: commits and flushes keep hitting the
    // schedules, so a hit-counted crash fires even after a short feed.
    clock->SleepFor(150 * kMillisecond);
  }  // disarm: recovery of the last crash runs fault-free

  EXPECT_GT(FaultInjector::Get().TotalFires(), 0u)
      << "seed " << fuzz.seed << " injected nothing";

  Counter* out = engine.metrics()->GetCounter("out/wc");
  ASSERT_TRUE(WaitFor(
      [&] { return out->Get() >= static_cast<uint64_t>(3 * lines_sent); },
      30 * kSecond))
      << out->Get() << "/" << 3 * lines_sent;
  engine.Stop();

  auto counts = ReadWordCounts(engine, 2);
  ASSERT_TRUE(counts.ok());
  EXPECT_EQ((*counts)["fuzz"], lines_sent);
  EXPECT_EQ((*counts)["words"], lines_sent);
  EXPECT_EQ((*counts)["here"], lines_sent);
#endif
}

std::vector<FuzzCase> MakeCases() {
  std::vector<FuzzCase> cases;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    cases.push_back({ProtocolKind::kProgressMarking, seed});
  }
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    cases.push_back({ProtocolKind::kKafkaTxn, seed});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, CrashFuzz, ::testing::ValuesIn(MakeCases()),
    [](const ::testing::TestParamInfo<FuzzCase>& info) {
      std::string name = ProtocolKindName(info.param.protocol);
      for (auto& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name + "_seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace impeller
